"""Command-line front end.

Subcommands mirror the library surface: ``bounds`` (analytic limits),
``simulate`` (one Monte Carlo point), ``sweep`` (a resource grid),
``allocate`` (resource splits), ``verify-fom`` (expansion check), and
``interpolate`` (field estimation at an unsensed point).

Budget flags parse to a grid: ``--time``/``--photons`` to one point,
``sweep``'s ``--times``/``--photons`` to several, and ``_budget_grid`` checks
whichever was given. ``simulate`` is a one-point ``sweep``: one handler.

Conventions. Every subcommand builds a list of row dicts, and one writer
serializes them: CSV on stdout unless ``--out``/``--format json`` say
otherwise, headed by the first row's keys; JSON carries a metadata header
(tool version, modeling assumptions, command line, seed) so artifacts are
self-describing. ``simulate`` and ``sweep`` rows are sweep records under the
JSON key ``records``, which ``experiment.load_records`` reads back exactly.
Exit codes: 0 success, 1 runtime failure, 2 usage error. Given the same argv
and seed the bytes written are identical, except the wall-clock column,
which ``--no-timestamp`` pins to zero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import __version__, allocation, bounds, functions
from .experiment import (MIN_TRIALS, PROTOCOLS, ExperimentConfig,
                         base_metadata, check_grid, fom_battery,
                         sweep_resource, verify_general_fom)
from .interpolation import SensorLayout, gaussian_beam, run_interpolation
from .measurement import RngStream
from .protocol import ResourceBudget, build_plan, parse_policy


class UsageError(ValueError):
    """Invalid flag combination or inconsistent inputs (exit code 2)."""


def finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return x


def float_list(text: str) -> tuple:
    items = [t for t in text.split(",") if t != ""]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return tuple(finite_float(t) for t in items)


def positive_list(text: str) -> tuple:
    values = float_list(text)
    if min(values) <= 0:
        raise argparse.ArgumentTypeError("expected positive numbers")
    return values


def one_point(parse):
    """A single-budget flag's type: its value as a one-point grid."""
    return lambda text: (parse(text),)


def positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def trial_count(text: str) -> int:
    n = positive_int(text)
    if n < MIN_TRIALS:
        raise argparse.ArgumentTypeError(f"expected at least {MIN_TRIALS} "
                                         "trials")
    return n


def parse_function_spec(spec: str) -> functions.AnalyticFunction:
    """Function grammar: ``linear:w1,w2,...`` | ``product:d=N`` |
    ``quadratic:A=r11,r12;r21,r22[,b=b1,b2]``."""
    try:
        if spec.startswith("linear:"):
            return functions.linear(float_list(spec[7:]))
        if spec.startswith("product:"):
            body = spec[8:]
            if not body.startswith("d="):
                raise ValueError("product spec is product:d=N")
            return functions.product(int(body[2:]))
        if spec.startswith("quadratic:"):
            body = spec[10:]
            if not body.startswith("A="):
                raise ValueError("quadratic spec starts with A=")
            body = body[2:]
            if ",b=" in body:
                mat_text, offset_text = body.split(",b=", 1)
                offset = float_list(offset_text)
            else:
                mat_text, offset = body, None
            rows = [float_list(r) for r in mat_text.split(";")]
            if any(len(r) != len(rows) for r in rows):
                raise ValueError("quadratic matrix must be square")
            return functions.quadratic(rows, offset)
        if spec == "gaussian-beam":
            raise ValueError(
                "gaussian-beam is an ansatz; use the interpolate subcommand"
            )
        raise ValueError(f"unknown function spec {spec!r}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def resolve_seed(args) -> int:
    """``--seed``, else ``QSN_SEED``, else 0; a seed ``RngStream`` refuses
    is a usage error."""
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get("QSN_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "QSN_SEED"
        except ValueError:
            raise UsageError(f"QSN_SEED={env!r} is not an integer") from None
    try:
        RngStream(seed)
    except ValueError as exc:
        raise UsageError(f"{source} {seed}: {exc}") from None
    return seed


def _budget_grid(args) -> tuple[ResourceBudget, list]:
    """The budget at the first point and the checked grid of whichever
    budget flag was given; ``--time`` and ``--photons`` give one point."""
    if (args.time is None) == (args.photons is None):
        raise UsageError("give exactly one budget: --time (--times on sweep) "
                         "or --photons")
    kind, grid = (("qubit-time", args.time) if args.photons is None
                  else ("photon-number", args.photons))
    try:
        grid = check_grid(kind, grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return ResourceBudget(kind, grid[0]), grid


def _check_policy(policy: str, kind: str) -> str:
    try:
        parse_policy(policy, kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return policy


def _check_theta(fn, theta) -> tuple:
    if len(theta) != fn.dim:
        raise UsageError(
            f"--theta has {len(theta)} values but the function takes {fn.dim}"
        )
    return tuple(theta)


def _emit_rows(args, rows, seed=None, key="rows") -> None:
    """Write result rows as CSV (default), headed by the first row's keys,
    or as JSON with a metadata header and the rows under ``key``."""
    if _resolve_format(args) == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])
        text = buf.getvalue()
    else:
        meta = base_metadata()
        meta["command"] = " ".join(args.argv)
        if seed is not None:
            meta["seed"] = seed
        text = json.dumps({"metadata": meta, key: rows}, indent=1) + "\n"
    _write_out(args, text)


def _cell(value) -> str:
    if isinstance(value, (tuple, list)):
        return ";".join(_cell(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    if args.out is not None and str(args.out).endswith(".json"):
        return "json"
    return "csv"


def _write_out(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc


# -- subcommand handlers ---------------------------------------------------------


def _cmd_bounds(args) -> int:
    fn = args.function
    theta = _check_theta(fn, args.theta)
    rep = bounds.for_budget(bounds.point_model(fn, theta), _budget_grid(args)[0])
    _emit_rows(args, [{
        "function": fn.label,
        "theta": theta,
        "resource_kind": rep.resource_kind,
        "resource": rep.resource,
        "entangled_bound": rep.entangled_bound,
        "unentangled_baseline": rep.unentangled_baseline,
        "advantage_ratio": rep.advantage_ratio,
        "conjectured": rep.conjectured,
    }])
    return 0


def _cmd_sweep(args) -> int:
    """``sweep``, and ``simulate`` as its one-point case."""
    seed = resolve_seed(args)
    fn = args.function
    theta = _check_theta(fn, args.theta)
    budget, grid = _budget_grid(args)
    try:
        cfg = ExperimentConfig(function=fn, theta=theta, budget=budget,
                               protocol=args.protocol,
                               policy=_check_policy(args.alloc, budget.kind))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records = sweep_resource(cfg, grid, args.trials, seed,
                             threads=args.threads)
    if args.no_timestamp:
        records = [replace(r, ms_elapsed=0.0) for r in records]
    _emit_rows(args, [asdict(r) for r in records], seed, key="records")
    return 0


def _cmd_allocate(args) -> int:
    fn = args.function
    theta = _check_theta(fn, args.theta)
    budget, _ = _budget_grid(args)
    model = bounds.point_model(fn, theta)
    plan = build_plan(model, budget, _check_policy(args.alloc, budget.kind))
    predicted = allocation.predicted_mse(model, plan)
    _emit_rows(args, [{
        "function": fn.label,
        "theta": theta,
        "kind": plan.budget.kind,
        "policy": plan.policy,
        "total": float(plan.budget.amount),
        "t1": plan.t1,
        "t2": plan.t2,
        "n1": plan.n1,
        "n2": plan.n2,
        "mode_counts": list(plan.mode_counts),
        "predicted_mse": predicted,
    }])
    return 0


def _cmd_verify_fom(args) -> int:
    if (args.function is None) != (args.theta is None):
        raise UsageError("--function and --theta go together")
    seed = resolve_seed(args)
    rows = []
    if args.function is not None:
        theta = _check_theta(args.function, args.theta)
        pairs = [(args.function, theta)]
    else:
        pairs = fom_battery()
    for fn, theta in pairs:
        for sigma in args.sigma:
            rep = verify_general_fom(fn, theta, [sigma**2] * fn.dim,
                                     args.trials, seed, threads=args.threads)
            rows.append({
                "function": fn.label,
                "theta": tuple(theta),
                "sigma": sigma,
                "trials": rep.trials,
                "empirical": rep.empirical,
                "se": rep.se,
                "predicted": rep.predicted,
                "z": rep.z,
                "predicted_unsquared": rep.predicted_unsquared,
                "z_unsquared": rep.z_unsquared,
            })
    _emit_rows(args, rows, seed=seed)
    return 0


def _cmd_interpolate(args) -> int:
    seed = resolve_seed(args)
    beam = gaussian_beam()
    for flag, values in (("--params", args.params), ("--sensors", args.sensors)):
        if len(values) != beam.param_dim:
            raise UsageError(f"{beam.label} needs {beam.param_dim} {flag}")
    try:
        layout = SensorLayout(locations=args.sensors, target=args.target)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = run_interpolation(beam, args.params, layout, _budget_grid(args)[0],
                               args.trials, seed, threads=args.threads)
    _emit_rows(args, [{
        "truth": report.truth,
        "two_step_mse": report.two_step.mse,
        "two_step_se": report.two_step.se,
        "unentangled_mse": report.unentangled.mse,
        "unentangled_se": report.unentangled.se,
        "entangled_bound": report.bound_report.entangled_bound,
        "unentangled_baseline": report.bound_report.unentangled_baseline,
        "predicted_two_step": report.predicted_two_step,
        "advantage": report.advantage,
        "trials": report.two_step.trials,
    }], seed=seed)
    return 0


# -- parser wiring ---------------------------------------------------------------


def _add_common(sub, budget=True, seeded=True):
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--threads", type=positive_int,
                     default=os.cpu_count() or 1)
    if budget:
        sub.add_argument("--time", type=one_point(finite_float), default=None)
        sub.add_argument("--photons", type=one_point(positive_int),
                         default=None)
    if seeded:
        sub.add_argument("--seed", type=int, default=None,
                         help="falls back to QSN_SEED, then 0")


def _add_function(sub):
    sub.add_argument("--function", type=parse_function_spec, required=True)
    sub.add_argument("--theta", type=float_list, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsn",
        allow_abbrev=False,
        description="Entangled sensor-network estimation: bounds, protocol "
                    "simulation, allocation, and field interpolation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", allow_abbrev=False,
                        help="analytic MSE limits for a function")
    _add_function(p)
    _add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_bounds)

    for name, help_, grid in (
            ("simulate", "Monte Carlo MSE at one budget", False),
            ("sweep", "Monte Carlo MSE across a budget grid", True)):
        p = subs.add_parser(name, allow_abbrev=False, help=help_)
        _add_function(p)
        if grid:
            p.add_argument("--times", dest="time", type=float_list,
                           default=None)
            p.add_argument("--photons", type=float_list, default=None)
        p.add_argument("--protocol", choices=PROTOCOLS, default="two-step")
        p.add_argument("--alloc", default="optimal",
                       help="optimal | numeric | power:c,p | fixed:x; "
                            "two-step runs only")
        p.add_argument("--trials", type=trial_count, default=200000)
        p.add_argument("--no-timestamp", action="store_true")
        _add_common(p, budget=not grid)
        p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("allocate", allow_abbrev=False,
                        help="resource split for a budget")
    _add_function(p)
    p.add_argument("--alloc", default="optimal")
    _add_common(p, seeded=False)
    p.set_defaults(handler=_cmd_allocate)

    p = subs.add_parser("verify-fom", allow_abbrev=False,
                        help="check the curvature-term prediction by "
                             "Monte Carlo")
    p.add_argument("--function", type=parse_function_spec, default=None,
                   help="omit to run the built-in battery")
    p.add_argument("--theta", type=float_list, default=None)
    p.add_argument("--sigma", type=positive_list, required=True)
    p.add_argument("--trials", type=trial_count, default=1000000)
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_verify_fom)

    p = subs.add_parser("interpolate", allow_abbrev=False,
                        help="estimate a Gaussian-beam field between sensors")
    p.add_argument("--params", type=float_list, required=True,
                   help="true (amplitude, center, waist)")
    p.add_argument("--sensors", type=float_list, required=True)
    p.add_argument("--target", type=finite_float, required=True)
    p.add_argument("--trials", type=trial_count, default=100000)
    _add_common(p)
    p.set_defaults(handler=_cmd_interpolate)

    return parser


def run_command(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["qsn", *argv]
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
