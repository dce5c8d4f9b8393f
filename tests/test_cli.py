import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qsn
from qsn import experiment, functions, interpolation
from qsn.cli import run_command
from qsn.experiment import load_records
from qsn.measurement import MODELING_ASSUMPTIONS
from qsn.protocol import ResourceBudget

RECORD_HEADER = ("protocol,function,theta,resource_kind,resource,trials,mse,"
                 "mse_se,bias,predicted_mse,bound,seed,ms_elapsed")


def run_csv(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    return code, out, rows


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["--version"])
    assert exc.value.code == 0
    assert qsn.__version__ in capsys.readouterr().out


def test_bounds_example(capsys):
    code, out, rows = run_csv(
        ["bounds", "--function", "linear:3,4", "--theta", "0,0",
         "--time", "10"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["function", "theta", "resource_kind", "resource",
                      "entangled_bound", "unentangled_baseline",
                      "advantage_ratio", "conjectured"]
    (row,) = rows
    assert row["function"] == "linear:3.0,4.0"
    assert row["theta"] == "0.0;0.0"
    assert float(row["entangled_bound"]) == pytest.approx(0.16)
    assert float(row["unentangled_baseline"]) == pytest.approx(0.25)
    assert float(row["advantage_ratio"]) == pytest.approx(1.5625)
    assert row["conjectured"] == "False"


def test_bounds_photon_conjectured(capsys):
    code, _, rows = run_csv(
        ["bounds", "--function", "product:d=2", "--theta", "1,1",
         "--photons", "10"], capsys)
    assert code == 0
    (row,) = rows
    assert row["resource_kind"] == "photon-number"
    assert float(row["entangled_bound"]) == pytest.approx(0.04)
    assert float(row["unentangled_baseline"]) == pytest.approx(0.08)
    assert float(row["advantage_ratio"]) == pytest.approx(2.0)
    assert row["conjectured"] == "True"


def test_simulate_bytes_reproducible(tmp_path):
    argv = ["simulate", "--function", "product:d=2", "--theta", "1,1",
            "--time", "1e3", "--trials", "500", "--seed", "5",
            "--no-timestamp", "--threads", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    (record,) = load_records(a)
    assert record.trials == 500
    assert record.seed == 5
    assert record.ms_elapsed == 0.0
    assert record.resource == 1e3


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_command(
        ["sweep", "--function", "product:d=2", "--theta", "1,1",
         "--times", "1e3,3e3", "--trials", "300", "--seed", "7",
         "--no-timestamp", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == RECORD_HEADER
    records = load_records(out)
    assert [r.resource for r in records] == [1e3, 3e3]
    assert all(r.protocol == "two-step" for r in records)


def test_sweep_json_metadata(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_command(
        ["sweep", "--function", "linear:3,4", "--theta", "0,0",
         "--times", "10,20", "--trials", "200", "--seed", "11",
         "--no-timestamp", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    meta = payload["metadata"]
    assert meta["version"] == qsn.__version__
    assert meta["seed"] == 11
    assert meta["command"].startswith("qsn sweep")
    records = load_records(out)
    assert len(records) == 2
    # linear two-step prediction is the entangled floor max_j w_j^2/t^2
    assert records[0].predicted_mse == pytest.approx(0.16)


def test_records_reload_exactly_from_csv_and_json(tmp_path):
    argv = ["sweep", "--function", "product:d=2", "--theta", "1,0.7",
            "--times", "1e3,1e4", "--trials", "200", "--seed", "5",
            "--threads", "1", "--no-timestamp"]
    cfg = experiment.ExperimentConfig(
        function=functions.product(2), theta=(1.0, 0.7),
        budget=ResourceBudget("qubit-time", 1e3))
    expected = [dataclasses.replace(r, ms_elapsed=0.0) for r in
                experiment.sweep_resource(cfg, (1e3, 1e4), 200, 5)]
    for name in ("out.csv", "out.json"):
        assert run_command([*argv, "--out", str(tmp_path / name)]) == 0
        # shortest round-trip decimals reload to the exact floats
        assert load_records(tmp_path / name) == expected, name


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--function", "linear:3,4", "--theta", "0,0", "--time",
      "10", "--trials", "200", "--seed", "2"], "records"),
    (["bounds", "--function", "linear:3,4", "--theta", "0,0", "--time",
      "10"], "rows"),
])
def test_json_metadata_stamps_version_and_assumptions(capsys, argv, key):
    assert run_command([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == sorted(["metadata", key])
    meta = payload["metadata"]
    assert meta["version"] == qsn.__version__
    assert meta["modeling_assumptions"] == list(MODELING_ASSUMPTIONS)
    assert "gaussian-step1-estimates" in meta["modeling_assumptions"]
    assert meta["command"] == " ".join(["qsn", *argv, "--format", "json"])


@pytest.mark.parametrize("budget, grid", [("--time", "--times"),
                                          ("--photons", "--photons")])
@pytest.mark.parametrize("protocol", ["two-step", "unentangled"])
def test_simulate_is_a_one_point_sweep(capsys, budget, grid, protocol):
    amount = "1000" if budget == "--photons" else "1e3"
    common = ["--function", "product:d=2", "--theta", "1,0.7", "--protocol",
              protocol, "--trials", "300", "--seed", "9", "--threads", "1",
              "--no-timestamp"]
    outs = {}
    for fmt in ("csv", "json"):
        for argv in (["simulate", *common, budget, amount],
                     ["sweep", *common, grid, amount]):
            assert run_command([*argv, "--format", fmt]) == 0
            outs[fmt, argv[0]] = capsys.readouterr().out
    assert outs["csv", "simulate"] == outs["csv", "sweep"]
    one, two = (json.loads(outs["json", c]) for c in ("simulate", "sweep"))
    assert one["records"] == two["records"]
    assert len(one["records"]) == 1
    for payload in (one, two):
        payload["metadata"].pop("command")
    assert one == two


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep", "allocate",
                                     "verify-fom", "interpolate"])
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_command([command, "--help"])
    assert exc.value.code == 0
    assert f"qsn {command}" in capsys.readouterr().out


def test_unpredictable_plan_fails_before_monte_carlo(capsys, monkeypatch):
    # the model cannot predict a zero step-1 time for a curved target: the
    # point fails on its prediction, before any trial is drawn
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the prediction")

    monkeypatch.setattr(experiment, "estimate_mse", no_monte_carlo)
    for command, grid in (("simulate", "--time"), ("sweep", "--times")):
        assert run_command(
            [command, "--function", "quadratic:A=1,0;0,1,b=1,1", "--theta",
             "1,1", grid, "1e3", "--alloc", "fixed:0", "--trials", "200",
             "--threads", "1"]) == 1
        assert "t1 = 0 only valid" in capsys.readouterr().err


def test_verify_fom_sigma_must_be_positive(capsys, monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the usage check")

    monkeypatch.setattr(experiment, "collect_error_moments", no_monte_carlo)
    for sigma in ("-0.1", "0", "0.05,0", "0.05,-1"):
        with pytest.raises(SystemExit) as exc:
            run_command(["verify-fom", "--function", "product:d=2",
                         "--theta", "1,1", f"--sigma={sigma}",
                         "--trials", "200"])
        assert exc.value.code == 2
        assert "expected positive numbers" in capsys.readouterr().err
    # --function and --theta pair up, checked before any Monte Carlo too
    for half in (["--function", "product:d=2"], ["--theta", "1,1"]):
        assert run_command(["verify-fom", *half, "--sigma", "0.05"]) == 2
        assert (capsys.readouterr().err
                == "error: --function and --theta go together\n")


@pytest.mark.parametrize("name", ["b.csv", "b.json"])
def test_load_records_rejects_other_subcommands_output(tmp_path, name):
    out = tmp_path / name
    assert run_command(["bounds", "--function", "linear:3,4", "--theta",
                        "0,0", "--time", "10", "--out", str(out)]) == 0
    missing = "records" if name.endswith(".json") else "protocol, trials"
    with pytest.raises(ValueError, match=f"{name}.*{missing}"):
        load_records(out)
    if name.endswith(".json"):
        out.write_text("[]\n")
        with pytest.raises(ValueError, match="records"):
            load_records(out)


def test_unwritable_out_exits_1_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    for argv in (["sweep", "--function", "linear:3,4", "--theta", "0,0",
                  "--times", "10,20", "--trials", "200"],
                 ["bounds", "--function", "linear:3,4", "--theta", "0,0",
                  "--time", "10"]):
        assert run_command([*argv, "--out", str(missing)]) == 1
        assert f"cannot write {missing}" in capsys.readouterr().err
    with pytest.raises(OSError, match="absent.json"):
        load_records(tmp_path / "absent.json")


def test_sweep_grid_flags_exclusive(capsys):
    base = ["sweep", "--function", "product:d=2", "--theta", "1,1",
            "--trials", "200"]
    assert run_command(base) == 2
    assert run_command(base + ["--times", "10", "--photons", "100"]) == 2


def test_usage_errors_exit_2(capsys, monkeypatch):
    # a usage error is found before any Monte Carlo runs
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the usage check")

    monkeypatch.setattr(experiment, "estimate_mse", no_monte_carlo)
    monkeypatch.setattr(interpolation, "estimate_mse", no_monte_carlo)
    assert run_command(
        ["bounds", "--function", "linear:3,4", "--theta", "0,0,0",
         "--time", "10"]) == 2
    assert run_command(
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--time", "1e3", "--alloc", "bogus", "--trials", "200"]) == 2
    assert run_command(
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--trials", "200"]) == 2
    # the unentangled protocol has no step split to allocate
    assert run_command(
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--time", "1e3", "--protocol", "unentangled", "--alloc", "fixed:5",
         "--trials", "100"]) == 2
    assert run_command(
        ["verify-fom", "--function", "product:d=2", "--sigma", "0.05",
         "--trials", "200"]) == 2
    simulate = ["simulate", "--function", "product:d=2", "--theta", "1,1",
                "--trials", "200"]
    for budget, policy in ((["--time", "1e3"], "power:x"),
                           (["--time", "1e3"], "power:1,0.7,2"),
                           (["--time", "1e3"], "fixed:abc"),
                           (["--photons", "1000"], "fixed:2.5"),
                           (["--photons", "1000"], "numeric"),
                           (["--photons", "1000"], "power:1,0.7")):
        for command in (simulate, ["allocate", *simulate[1:5]]):
            assert run_command([*command, *budget, "--alloc", policy]) == 2
    sweep = ["sweep", "--function", "product:d=2", "--theta", "1,1",
             "--trials", "200"]
    for grid in (["--photons", "100,200.5"], ["--photons", "100.5,200"],
                 ["--times", "100,50"], ["--times", "100,100"]):
        assert run_command([*sweep, *grid]) == 2
    assert run_command([*sweep, "--photons", "100,200", "--alloc",
                        "numeric"]) == 2
    # seeds live in [0, 2^64), from the flag or the environment
    for seed in ("-1", str(2**64)):
        assert run_command([*simulate, "--time", "1e3", "--seed", seed]) == 2
    interpolate = ["interpolate", "--target", "0.1", "--time", "1e4",
                   "--trials", "200"]
    for params, sensors in (("1,0", "-1,0.3,1.2"), ("1,0,1", "-1,0.3"),
                            ("1,0,1", "-1,0.3,0.3")):
        assert run_command([*interpolate, f"--params={params}",
                            f"--sensors={sensors}"]) == 2
    monkeypatch.setenv("QSN_SEED", "-3")
    assert run_command([*simulate, "--time", "1e3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_flag_parse_errors_exit_2():
    for argv in (
        ["simulate", "--function", "nope:1", "--theta", "1",
         "--time", "10", "--trials", "200"],
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--time", "inf", "--trials", "200"],
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--time", "1e3", "--trials", "0"],
        ["bounds", "--function", "quadratic:A=1,0;1", "--theta", "0,0",
         "--time", "10"],
        # flags are matched whole, never as prefixes of a longer flag
        ["sweep", "--function", "product:d=2", "--theta", "1,1",
         "--time", "1e3,1e4", "--trials", "200"],
        ["simulate", "--function", "product:d=2", "--theta", "1,1",
         "--tim", "1e3", "--trials", "200"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 2


def test_too_few_trials_is_a_usage_error(capsys):
    # the floor estimate_mse and verify_general_fom enforce, checked when
    # the flags are parsed
    assert experiment.MIN_TRIALS == 100
    product = ["--function", "product:d=2", "--theta", "1,1"]
    for argv in (["simulate", *product, "--time", "1e3"],
                 ["sweep", *product, "--times", "1e3,1e4"],
                 ["verify-fom", *product, "--sigma", "0.05"],
                 ["interpolate", "--params=1,0,1", "--sensors=-1,0.3,1.2",
                  "--target", "0.1", "--time", "1e4"]):
        argv = [*argv, "--threads", "1", "--seed", "3"]
        with pytest.raises(SystemExit) as exc:
            run_command([*argv, "--trials", "99"])
        assert exc.value.code == 2
        assert "at least 100 trials" in capsys.readouterr().err
        assert run_command([*argv, "--trials", "100"]) == 0
        assert capsys.readouterr().out


def test_runtime_errors_exit_1(capsys):
    # flat target at the origin: no usable gradient for the optimal split
    code = run_command(
        ["allocate", "--function", "quadratic:A=1,0;0,1", "--theta", "0,0",
         "--time", "100"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # a zero waist leaves the anchor Jacobian 0/0, and the one line of
    # stderr names it: numpy's divide and invalid warnings stay inside
    # (pytest would capture a warning, so one is made an error here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["interpolate", "--params=1,0,0",
                            "--sensors=-1,0.3,1.2", "--target", "0.1",
                            "--time", "1e4", "--trials", "200"])
    assert code == 1
    assert (capsys.readouterr().err
            == "error: non-finite Jacobian of gaussian-beam\n")


@pytest.mark.parametrize("t1, message", [
    ("nan", "time plan needs t1 >= 0 and t2 > 0"),
    ("10000", "time plan needs t1 >= 0 and t2 > 0"),
    # t1**4 underflows to 0: the prediction would divide by zero
    ("1e-100", "time plan's t1 = 1e-100 is too small: 1/t1**4 is not finite"),
], ids=["nan", "t_total", "underflow"])
def test_refused_time_plans_exit_1_with_the_plans_message(capsys, t1, message):
    code = run_command(["simulate", "--function", "product:d=2", "--theta",
                        "1,1", "--time", "1e4", "--alloc", f"fixed:{t1}",
                        "--trials", "200"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seed_env_fallback(tmp_path, monkeypatch):
    argv = ["simulate", "--function", "product:d=2", "--theta", "1,1",
            "--time", "1e3", "--trials", "300", "--no-timestamp"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("QSN_SEED", "123")
    assert run_command(argv + ["--out", str(a)]) == 0
    monkeypatch.delenv("QSN_SEED")
    assert run_command(argv + ["--seed", "123", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    monkeypatch.setenv("QSN_SEED", "not-a-seed")
    assert run_command(argv) == 2


def test_allocate_time_split(capsys):
    code, out, rows = run_csv(
        ["allocate", "--function", "product:d=2", "--theta", "1,1",
         "--time", "1e4"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["function", "theta", "kind", "policy", "total", "t1",
                      "t2", "n1", "n2", "mode_counts", "predicted_mse"]
    (row,) = rows
    assert row["policy"] == "optimal"
    assert float(row["t1"]) == pytest.approx(288.53998118144267, rel=1e-12)
    assert float(row["t1"]) + float(row["t2"]) == 1e4
    assert row["mode_counts"] == ""
    assert float(row["predicted_mse"]) == pytest.approx(1.0747451e-8, rel=1e-6)


def test_allocate_photon_split(capsys):
    code, _, rows = run_csv(
        ["allocate", "--function", "product:d=2", "--theta", "1,1",
         "--photons", "1000"], capsys)
    assert code == 0
    (row,) = rows
    assert row["kind"] == "photon-number"
    assert row["n1"] == "96"
    assert row["n2"] == "904"
    assert row["mode_counts"] == "48;48"
    assert float(row["predicted_mse"]) > 4.0 / 1e6


def test_verify_fom_single_function(capsys):
    code, _, rows = run_csv(
        ["verify-fom", "--function", "product:d=2", "--theta", "1,1",
         "--sigma", "0.05", "--trials", "20000", "--seed", "7"], capsys)
    assert code == 0
    (row,) = rows
    assert float(row["predicted"]) == pytest.approx(6.25e-6, rel=1e-9)
    assert abs(float(row["z"])) < 4
    assert int(row["trials"]) == 20000


def test_verify_fom_battery(capsys):
    code, _, rows = run_csv(
        ["verify-fom", "--sigma", "0.05,0.1", "--trials", "300",
         "--seed", "3"], capsys)
    assert code == 0
    assert len(rows) == 20
    labels = {row["function"] for row in rows}
    assert len(labels) == 10
    assert {row["sigma"] for row in rows} == {"0.05", "0.1"}


def test_interpolate_row(capsys):
    code, out, rows = run_csv(
        ["interpolate", "--params=1,0,1", "--sensors=-1.0,0.3,1.2",
         "--target", "0.1", "--time", "1e4", "--trials", "2000",
         "--seed", "7"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["truth", "two_step_mse", "two_step_se",
                      "unentangled_mse", "unentangled_se", "entangled_bound",
                      "unentangled_baseline", "predicted_two_step",
                      "advantage", "trials"]
    (row,) = rows
    assert float(row["truth"]) == pytest.approx(np.exp(-0.02), rel=1e-12)
    assert float(row["advantage"]) > 1.0
    assert float(row["entangled_bound"]) == pytest.approx(3.7642583e-8,
                                                          rel=1e-6)


# sha256 of `qsn sweep ... --format json --no-timestamp` stdout, recorded
# before the product rules and the two-step chunk kernel were rewritten
# without reductions along the short parameter axis; the whole output
# (metadata included) must keep those bytes
SWEEP_THETA = {
    2: "0.8,1.3",
    4: "0.8,1,1.3,1.6",
    32: ",".join(f"{0.9 + 0.01 * i:.2f}" for i in range(32)),
}
SWEEP_TRIALS = {2: 20000, 4: 20000, 32: 4096}
SWEEP_PINS = [
    (2, "two-step", "--times", "1e3,1e4,1e5",
     "62d056b892e33ada81f80f39728a50fc0d56b966194bb65d314056544b84334c"),
    (2, "unentangled", "--times", "1e3,1e4,1e5",
     "12f3c0fc75f20300ed05ba80173fc953f413ac098323e5396e0cc1e6a5ce71c0"),
    (4, "two-step", "--times", "1e3,1e4,1e5",
     "67b95205643dd614bf2d10123d6a84d0dffd50d5ff5cace613de023bf05b77da"),
    (4, "unentangled", "--times", "1e3,1e4,1e5",
     "3672a53b5974d41fb5318a027bcac1a5df86f6db99a0265438e152f0ea2ca44d"),
    (32, "two-step", "--times", "1e3,1e4,1e5",
     "be6577bb51222e7a50593396d49dab2a1637d6981d8e9dd5aea1e7ec3636587a"),
    (32, "unentangled", "--times", "1e3,1e4,1e5",
     "9148012546360bfb4e678e523fdd53acf6150813c44d2c5282cb0ebc9abed95a"),
    (4, "two-step", "--photons", "2000,20000",
     "3a324b7d4989c94590cc462b53c163c2fbec7c1bcd9bcb8d1c390a58660c4eb9"),
]


@pytest.mark.parametrize("d, protocol, flag, grid, digest", SWEEP_PINS)
def test_sweep_json_bytes_pinned(capsys, d, protocol, flag, grid, digest):
    code = run_command([
        "sweep", "--function", f"product:d={d}", "--theta", SWEEP_THETA[d],
        flag, grid, "--protocol", protocol, "--trials", str(SWEEP_TRIALS[d]),
        "--seed", "11", "--threads", "1", "--format", "json",
        "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `--threads 1 --format json` stdout, recorded before the scalar
# runners, the full third-derivative tensor and the third_rule slot were
# deleted, except interpolate, re-recorded when the beam's 3x3 Newton and
# gradient solves went closed form. interpolate takes the finite-difference
# third_diag_slice of the induced beam function; verify-fom runs the
# battery's custom targets
PRODUCT3 = ["--function", "product:d=3", "--theta", "0.8,1.1,1.3"]
QUADRATIC = ["--function", "quadratic:A=1,-0.75;-0.75,2,b=0.5,-1",
             "--theta", "0.3,-0.2"]
CLI_PINS = [
    (["interpolate", "--params=1,0,1", "--sensors=-1.0,0.3,1.2", "--target",
      "0.1", "--time", "1e4", "--trials", "3000", "--seed", "7"],
     "375534033d3faeff652124d577a3a38e6bea7330b38c06a4047f822593afa930"),
    (["verify-fom", "--sigma", "0.05", "--trials", "400", "--seed", "3"],
     "558a588921ebd6fb436dd59b4e7aa420f1d675832c6e466c111fd53e96cb9391"),
    (["allocate", *PRODUCT3, "--time", "1e4", "--alloc", "optimal"],
     "7c8e3d656c91cc4b7658ca49d62efe1f708b4edc6ceb56badeadddfd7dc9ee68"),
    (["allocate", *PRODUCT3, "--time", "1e4", "--alloc", "numeric"],
     "ac1d1a9ccab873682287cabde14ab99289910ce85f762ada1929edd75eb98f23"),
    (["allocate", *QUADRATIC, "--time", "1e4", "--alloc", "optimal"],
     "44cd665d4cd9b7270b849b583e237064ed5bfc2cabb3be4672ab5965667f20da"),
    (["allocate", *QUADRATIC, "--time", "1e4", "--alloc", "numeric"],
     "d31633a89af4b1efbc9929c9ec89a4b0d01466beafaf6fc98e9e0b2941f16545"),
    (["allocate", "--function", "product:d=4", "--theta", "0.8,1,1.3,1.6",
      "--photons", "5000", "--alloc", "optimal"],
     "09f7747301565a7e229b62d7bdba57f85d4df08093c2d3ebd93e3e445580f0db"),
    (["simulate", *PRODUCT3, "--photons", "2000", "--protocol", "unentangled",
      "--trials", "20000", "--seed", "11", "--no-timestamp"],
     "647a92cac2fa9159bcd4833639e71cb5f27f11c044505ac0c1ff6e683ad56ea1"),
]


@pytest.mark.parametrize("argv, digest", CLI_PINS,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(CLI_PINS)])
def test_cli_json_bytes_pinned(capsys, argv, digest):
    assert run_command([*argv, "--threads", "1", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `--threads 1 --format csv` stdout, recorded before the sweep
# records and the result rows were merged into one writer
CSV_PINS = [
    (["sweep", "--function", "product:d=2", "--theta", "0.8,1.3", "--times",
      "1e3,1e4", "--trials", "20000", "--seed", "11", "--no-timestamp"],
     "b8304f88ab16d3cde2827f769dc634487c172cf5b11a9f004f8115f590e55523"),
    (["sweep", "--function", "product:d=4", "--theta", "0.8,1,1.3,1.6",
      "--photons", "2000,20000", "--protocol", "unentangled", "--trials",
      "20000", "--seed", "11", "--no-timestamp"],
     "1a4ccfb799d35b28f37abf7ae92d0a3ca4099e5bc97df30626a1a4e5249d2739"),
    (["simulate", *PRODUCT3, "--photons", "2000", "--trials", "20000",
      "--seed", "11", "--no-timestamp"],
     "81ce0f227b009e87985700dadeb1e02e030ee5c4e8b3dd92d21f7e0c42a115f9"),
    (["allocate", "--function", "product:d=4", "--theta", "0.8,1,1.3,1.6",
      "--photons", "5000"],
     "d9e6c8841cd491f9f416db614db48496c5e5a44cf2b354f3aae224637dfc6b4b"),
    (["bounds", *PRODUCT3, "--photons", "100"],
     "c488abe6106731900c41c02a5acaa6f4b30a64d1ddb985459ff3fda299de3e89"),
]


@pytest.mark.parametrize("argv, digest", CSV_PINS,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(CSV_PINS)])
def test_cli_csv_bytes_pinned(capsys, argv, digest):
    assert run_command([*argv, "--threads", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is imported only inside the oracle that needs it;
    # importing it at load adds about half a second to every command
    src = str(Path(qsn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsn.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
