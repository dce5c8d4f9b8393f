"""Run one qsn benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload qubit-sweep --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 7     # every workload, one process each

Run it from the repository root; it imports qsn from ``src/`` there.

``--trace 0`` prints the end-to-end metrics. After one warm-up round it
repeats whole rounds of the workload's calls until ``--seconds`` have
passed and reports the median over the timed rounds of each protocol's trial
rate, plus the process's peak resident memory. ``setup_s`` is the median of
several fresh interpreters, each timed from before ``import qsn`` to the
point where the workload's inputs are built.

``--trace 1`` prints the per-layer metrics. After a warm-up round it runs a
fixed number of rounds three times: untraced at 2 threads, untraced at 1
thread and traced at 2 threads. The rounds repeat the same
program seeds, so the three passes must agree bit for bit; their counts
repeat exactly between runs at one seed. Span times are busy times, summed
over threads.

Each run writes its per-operation results (and, traced, its spans) under
``perfbench/out/``. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# Round r of a run at seed s hands qsn the seed s * ROUND_STRIDE + r, so every
# round is a fresh experiment and every run is reproducible from s.
ROUND_STRIDE = 1 << 16
MAX_SEED = 1 << 40


def use_source_tree() -> None:
    if not (SOURCE / "qsn" / "__init__.py").is_file():
        raise SystemExit(f"error: no qsn package under {SOURCE}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SOURCE))


def probe(name: str) -> None:
    """One set-up sample; runs in a fresh interpreter."""
    use_source_tree()
    start = time.perf_counter()
    import qsn  # noqa: F401  (the import is what is being timed)

    if name == "qubit-sweep":
        import qsn.cli  # noqa: F401
    imported = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name]()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}))


def measure_setup(name: str) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def end_to_end(wl, seed: int, seconds: float, setup: list):
    rounds = [wl.run_round(seed * ROUND_STRIDE, wl.threads)]
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(wl.run_round(seed * ROUND_STRIDE + len(rounds), wl.threads))
        rounds.append(timed[-1])
    round_rates = [[r.rate(p) for p in ("two-step", "unentangled")] for r in timed]
    two_step, unentangled = (statistics.median(col) for col in zip(*round_rates))
    metrics = {
        "setup_s": (statistics.median(s["import_s"] + s["inputs_s"]
                                      for s in setup), "s"),
        "twostep_trials_per_s": (two_step, "trials/s"),
        "unentangled_trials_per_s": (unentangled, "trials/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    return rounds, metrics, {"round_rates": round_rates}


def _pass(wl, seed: int, threads: int, tracer=None):
    rounds = [wl.run_round(seed * ROUND_STRIDE + 1 + r, threads, tracer)
              for r in range(wl.trace_rounds)]
    wall = sum(sum(r.walls.values()) for r in rounds)
    return rounds, wall


def per_layer(wl, seed: int, setup: list):
    from tracer import SpanIndex, Tracer

    rounds = [wl.run_round(seed * ROUND_STRIDE, wl.threads)]
    two, wall_2t = _pass(wl, seed, 2)
    one, wall_1t = _pass(wl, seed, 1)
    tracer = Tracer()
    with tracer.patched(wl.trace_targets(tracer)):
        traced, wall_traced = _pass(wl, seed, 2, tracer)
    for group in (one, traced):
        for r_ref, r in zip(two, group):
            for op_ref, op in zip(r_ref.ops, r.ops):
                if op.output != op_ref.output:
                    op.problems.append("output differs from the 2-thread "
                                       "untraced run of the same round")
    rounds += two + one + traced

    ix = SpanIndex(tracer.spans)
    metrics = {
        "functions.values_s": (ix.busy("functions.values"), "s"),
        "functions.gradients_s": (ix.busy("functions.gradients"), "s"),
        "functions.rows": (ix.rows(("functions.values", "functions.gradients")), "rows"),
        "measurement.step1_draw_s": (ix.busy("measurement.step1_draw"), "s"),
        "measurement.stream_setup_s": (ix.busy("measurement.stream_setup"), "s"),
        "measurement.streams": (ix.count("measurement.stream_setup"), "count"),
        "allocation.plan_s": (ix.busy("allocation.plan"), "s"),
        "allocation.plans": (ix.count("allocation.plan"), "count"),
        "allocation.predict_s": (ix.busy("allocation.predict"), "s"),
        "allocation.partition_s": (ix.busy("allocation.partition"), "s"),
        "bounds.coefficients_s": (ix.busy("bounds.coefficients"), "s"),
        "bounds.bounds_s": (ix.busy("bounds.bounds"), "s"),
        "protocol.twostep_self_s": (ix.self_time("protocol.two_step_batch"), "s"),
        "protocol.unentangled_self_s": (
            ix.self_time(("protocol.unentangled_batch",
                          "protocol.unentangled_trial")), "s"),
        "protocol.scalar_trials": (ix.count("protocol.unentangled_trial"), "count"),
        "experiment.chunks": (ix.count("experiment.chunk"), "count"),
        "experiment.reduce_self_s": (ix.self_time("experiment.harness"), "s"),
        "experiment.wall_1t_s": (wall_1t, "s"),
        "experiment.wall_2t_s": (wall_2t, "s"),
        "experiment.thread_speedup": (wall_1t / wall_2t, "ratio"),
        "interpolation.values_s": (ix.busy("interpolation.values"), "s"),
        "interpolation.gradients_s": (ix.busy("interpolation.gradients"), "s"),
        "interpolation.ansatz_s": (
            ix.busy(("ansatz.field", "ansatz.jacobian", "ansatz.field_batch",
                     "ansatz.jacobian_batch")), "s"),
        "interpolation.inversions": (ix.count("interpolation.inversion"), "count"),
        "interpolation.newton_iterations": (
            ix.count_children("interpolation.inversion", "ansatz.jacobian_batch"),
            "count"),
        "cli.self_s": (ix.self_time("cli.run_command"), "s"),
        "cli.output_bytes": (sum(r.output_bytes for r in traced), "bytes"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in setup), "s"),
        "trace.overhead_s": (wall_traced - wall_2t, "s"),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.jsonl",
                 {"workload": wl.name, "seed": seed, "threads": 2,
                  "rounds": wl.trace_rounds})
    return rounds, metrics, {"trace_rounds": wl.trace_rounds,
                             "traced_wall_s": wall_traced,
                             "spans": len(tracer.spans)}


def run_all(names, args) -> int:
    """Every workload in its own process; prints one result line each."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode or not lines:
            print(f"{name} exited with status {done.returncode}")
            status = 1
        else:
            print(f"{name} {lines[-1]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all (each in its own process)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_source_tree()
    import workloads
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    setup = measure_setup(wl.name)
    wl.references(args.seed)
    if args.trace:
        rounds, metrics, extra = per_layer(wl, args.seed, setup)
    else:
        rounds, metrics, extra = end_to_end(wl, args.seed, args.seconds, setup)

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op.failed]
    result = {
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for op in failed:
        print(f"FAILED {wl.name} {op.protocol} {op.label}: "
              f"{op.error or '; '.join(op.problems)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  setup=setup, references={str(k): v for k, v in wl.want.items()},
                  operations=[[op.protocol, op.label, op.z, op.output,
                               op.error, op.problems] for op in ops], **extra)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
