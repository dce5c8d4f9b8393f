"""Each workload at a small size: its checks pass, a traced run reports every
per-layer metric, and the command refuses to run without the source tree."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SMALL = {
    "qubit-sweep": {"trials": {2: 4096, 32: 512}, "reference_samples": 8192,
                    "trace_rounds": 1},
    "photon-pilot": {"trials": {"two-step": 8192, "unentangled": 256},
                     "reference_samples": {"two-step": 16384,
                                           "unentangled": 4096},
                     "trace_rounds": 1},
    "beam-interpolation": {"trials": 4096, "reference_samples": 16384,
                           "trace_rounds": 1},
}

PER_LAYER = (
    "functions.values_s", "functions.gradients_s", "functions.rows",
    "measurement.step1_draw_s", "measurement.stream_setup_s",
    "measurement.streams", "allocation.plan_s", "allocation.plans",
    "allocation.predict_s", "allocation.partition_s", "bounds.coefficients_s",
    "bounds.bounds_s", "protocol.twostep_self_s", "protocol.unentangled_self_s",
    "protocol.scalar_trials", "experiment.chunks", "experiment.reduce_self_s",
    "experiment.wall_1t_s", "experiment.wall_2t_s", "experiment.thread_speedup",
    "interpolation.values_s", "interpolation.gradients_s",
    "interpolation.ansatz_s", "interpolation.inversions",
    "interpolation.newton_iterations", "cli.self_s", "cli.output_bytes",
    "setup.import_s", "setup.inputs_s", "trace.overhead_s",
)

# which layers each workload must reach; every other layer may read 0
USED = {
    "qubit-sweep": ("functions.rows", "allocation.plans", "cli.output_bytes"),
    "photon-pilot": ("functions.rows", "allocation.partition_s",
                     "protocol.scalar_trials"),
    "beam-interpolation": ("interpolation.inversions",
                           "interpolation.newton_iterations"),
}


def small(name):
    cls = workloads.WORKLOADS[name]
    return type(cls.__name__, (cls,), SMALL[name])()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_passes_its_checks(name):
    wl = small(name)
    wl.references(3)
    rnd = wl.run_round(3, 2)
    assert len(rnd.ops) == wl.ops_per_round
    assert [op for op in rnd.ops if op.failed] == []
    assert all(op.z is not None for op in rnd.ops)
    assert rnd.trials["two-step"] > 0 and rnd.walls["two-step"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = small(name)
    wl.references(3)
    setup = [{"import_s": 0.5, "inputs_s": 0.01}]
    rounds, metrics, _ = run.per_layer(wl, 3, setup)
    assert sorted(metrics) == sorted(PER_LAYER)
    assert [op for r in rounds for op in r.ops if op.failed] == []
    for key in USED[name]:
        assert metrics[key][0] > 0, key
    if name == "beam-interpolation":
        assert metrics["functions.rows"][0] == 0
    _, again, _ = run.per_layer(wl, 3, setup)
    for key, (value, unit) in metrics.items():
        if unit in ("count", "rows", "bytes"):
            assert again[key][0] == value, key


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qubit-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
