"""The benchmark's three workloads: inputs, one round of calls, output checks.

A round is a fixed list of Monte Carlo calls into qsn. Every MSE estimate a
round asks for is one operation, and each operation is checked against a
reference from :mod:`reference`, which never calls qsn. A round returns the
wall time of its calls per protocol, so trial rates cover everything inside
those calls (plan resolution, bounds, output writing).

Checks use a z-score against the combined standard error of the program and
the reference. ``Z_GATE`` is 6 because a full benchmark session makes
thousands of these checks; at 6 a correct program fails one with probability
about 2e-9, while the faults they are there to catch (a dropped term, a wrong
variance) sit at tens of standard errors.

None of the checks uses ``predicted_mse`` or ``predicted_two_step``: at the
tied gradients of these workloads the three-term expansion is biased by
O(1/t1).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback

import numpy as np

from qsn import (allocation, bounds, experiment, functions, interpolation,
                 measurement, protocol)
from qsn.protocol import ResourceBudget

import reference as ref

Z_GATE = 6.0

TWO_STEP, UNENTANGLED = "two-step", "unentangled"


@dataclasses.dataclass
class Op:
    """One operation: a single MSE estimate and the verdict of its checks."""

    label: str
    protocol: str
    output: tuple = ()
    z: float | None = None
    problems: list = dataclasses.field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclasses.dataclass
class Round:
    """Wall time of a round's calls and the trials they completed, by
    protocol; a call that fails adds its wall time but no trials."""

    walls: dict
    trials: dict
    ops: list
    output_bytes: int = 0

    def rate(self, protocol: str) -> float:
        wall = self.walls.get(protocol, 0.0)
        return self.trials.get(protocol, 0) / wall if wall > 0 else 0.0


def _z(mse: float, se: float, want: float, want_se: float) -> float:
    return (mse - want) / math.sqrt(se * se + want_se * want_se)


def _check_estimate(op: Op, mse: float, se: float, want, bound: float) -> None:
    """The shared checks: agreement with the reference and, for two-step
    estimates, no dip below the entangled bound."""
    if not (math.isfinite(mse) and math.isfinite(se) and se > 0):
        op.problems.append(f"non-finite or zero-error estimate {mse!r} ± {se!r}")
        return
    op.z = _z(mse, se, *want)
    if abs(op.z) > Z_GATE:
        op.problems.append(f"z = {op.z:+.2f} against the reference {want[0]:.6e}")
    if op.protocol == TWO_STEP and (mse - bound) / se < -Z_GATE:
        op.problems.append(f"MSE {mse:.6e} is below the entangled bound {bound:.6e}")


def _check_close(op: Op, name: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * abs(want):
        op.problems.append(f"{name} {got!r} differs from {want!r}")


def _check_advantage(two: Op, unent: Op, two_mse: float, unent_mse: float):
    if not unent_mse > two_mse:
        two.problems.append(f"unentangled MSE {unent_mse:.6e} does not exceed "
                            f"two-step MSE {two_mse:.6e}")


def _fail_all(ops, exc: BaseException) -> None:
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    traceback.print_exception(exc)
    for op in ops:
        op.error = text


class Workload:
    """Inputs are built in ``__init__``: that work, with the import, is the
    set-up time. ``references`` runs before any timing."""

    name = ""
    # end-to-end thread count: the CLI's default (os.cpu_count()) on the
    # 2-core machine the README's figures come from, fixed so that runs
    # elsewhere do the same work
    threads = 2
    ops_per_round = 0
    trace_rounds = 2

    def references(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, seed: int, threads: int, tracer=None) -> Round:
        raise NotImplementedError

    def trace_targets(self, tracer) -> list:
        """Module-level names to wrap in a traced run; see ``common_targets``."""
        return common_targets(tracer)


def common_targets(tracer) -> list:
    span = tracer.span_factory
    return [
        (experiment, "collect_error_moments",
         tracer.harness_factory("experiment.harness", "experiment.chunk")),
        (experiment, "run_two_step_batch", span("protocol.two_step_batch")),
        (experiment, "run_unentangled_batch", span("protocol.unentangled_batch")),
        (protocol, "run_unentangled", span("protocol.unentangled_trial")),
        (protocol, "sample_param_estimates", span("measurement.step1_draw")),
        (measurement.RngStream, "generator", span("measurement.stream_setup")),
        (experiment, "build_plan", span("allocation.plan")),
        (allocation, "predicted_mse", span("allocation.predict")),
        (interpolation, "predicted_mse", span("allocation.predict")),
        (allocation, "photon_step1_partition", span("allocation.partition")),
        (allocation, "continuous_pairwise_partition", span("allocation.partition")),
        (bounds, "time_mse_coefficients", span("bounds.coefficients")),
        (bounds, "hessian_quartic_coeffs", span("bounds.coefficients")),
        (bounds, "photon_residual_coefficient", span("bounds.coefficients")),
        (bounds, "qubit_bounds", span("bounds.bounds")),
        (bounds, "photon_bounds", span("bounds.bounds")),
    ]


# -- qubit-sweep ------------------------------------------------------------------


class QubitSweep(Workload):
    """``qsn sweep`` for product:d=2 and product:d=32 at theta = 1, both
    protocols, through ``qsn.cli.run_command`` with stdout captured."""

    name = "qubit-sweep"
    # ten-run sets spread 0.21-0.54 (IQR/median of the trial rates) at 2
    # threads and 0.17-0.19 at 1; traced runs still time both
    threads = 1
    times = (1e3, 1e4, 1e5)
    # d = 32 costs ~15x more per trial and pays ~0.13 s of plan resolution
    # per grid point, so these counts give each d a similar share of the
    # two-step time.
    trials = {2: 786_432, 32: 16_384}
    ops_per_round = 12
    trace_rounds = 3
    reference_samples = 65_536

    def __init__(self):
        self.calls = []
        for protocol in (TWO_STEP, UNENTANGLED):
            for d, trials in self.trials.items():
                argv = ["sweep", "--function", f"product:d={d}",
                        "--theta", ",".join(["1"] * d),
                        "--times", ",".join(f"{t:g}" for t in self.times),
                        "--protocol", protocol, "--trials", str(trials),
                        "--format", "json", "--no-timestamp"]
                self.calls.append((d, protocol, argv))

    def references(self, seed):
        gen = ref.reference_generator(seed, 1)
        self.want = {}
        for d in self.trials:
            fn = functions.product(d)
            for t in self.times:
                plan = experiment.ExperimentConfig(
                    fn, (1.0,) * d, ResourceBudget("qubit-time", t)
                ).resolved_plan()
                self.want[d, TWO_STEP, t] = ref.twostep_product_unit(
                    d, plan.t1, plan.t2, gen, self.reference_samples)
                self.want[d, UNENTANGLED, t] = (ref.unentangled_product_unit(d, t), 0.0)

    def run_round(self, seed, threads, tracer=None):
        # imported here, not at the top, so that only this workload's set-up
        # time includes the CLI module
        from qsn import cli

        run_command = cli.run_command
        if tracer is not None:
            run_command = tracer.wrap("cli.run_command", run_command)
        walls = {TWO_STEP: 0.0, UNENTANGLED: 0.0}
        trials = {TWO_STEP: 0, UNENTANGLED: 0}
        ops, mse, out_bytes = [], {}, 0
        for d, protocol, argv in self.calls:
            argv = argv + ["--seed", str(seed), "--threads", str(threads)]
            mine = [Op(f"d={d} t={t:g}", protocol) for t in self.times]
            ops += mine
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = run_command(argv)
            except Exception as exc:  # an operation failure, not a crash
                _fail_all(mine, exc)
                continue
            finally:
                walls[protocol] += time.perf_counter() - start
            text = buf.getvalue()
            out_bytes += len(text.encode())
            try:
                if code != 0:
                    raise RuntimeError(f"qsn sweep exited with {code}")
                records = json.loads(text)["records"]
                if len(records) != len(self.times):
                    raise RuntimeError(f"{len(records)} sweep records")
            except (RuntimeError, ValueError, KeyError) as exc:
                _fail_all(mine, exc)
                continue
            trials[protocol] += sum(rec["trials"] for rec in records)
            for op, t, rec in zip(mine, self.times, records):
                op.output = (rec["mse"], rec["mse_se"], rec["bias"], rec["bound"])
                mse[d, protocol, t] = (op, rec["mse"])
                for key, want in (("protocol", protocol), ("resource", t),
                                  ("trials", self.trials[d]), ("seed", seed),
                                  ("function", f"product:d={d}")):
                    if rec[key] != want:
                        op.problems.append(f"{key} is {rec[key]!r}, not {want!r}")
                _check_close(op, "bound", rec["bound"], 1.0 / t**2, 1e-12)
                _check_estimate(op, rec["mse"], rec["mse_se"],
                                self.want[d, protocol, t], 1.0 / t**2)
        for d in self.trials:
            for t in self.times:
                if (d, TWO_STEP, t) in mse and (d, UNENTANGLED, t) in mse:
                    two, two_mse = mse[d, TWO_STEP, t]
                    _check_advantage(two, mse[d, UNENTANGLED, t][0], two_mse,
                                     mse[d, UNENTANGLED, t][1])
        return Round(walls, trials, ops, out_bytes)

    def trace_targets(self, tracer):
        from qsn import cli

        def traced_product(original):
            return lambda *a, **k: tracer.traced_function(original(*a, **k),
                                                          "functions")

        return common_targets(tracer) + [
            (functions, "product", traced_product),
            (cli, "sweep_resource", tracer.span_factory("experiment.sweep")),
        ]


# -- photon-pilot -----------------------------------------------------------------


class PhotonPilot(Workload):
    """``estimate_mse`` on product(4) under a photon budget: two-step at the
    optimal split, and the separable baseline behind a 10 % pilot stage."""

    name = "photon-pilot"
    theta = (0.8, 1.0, 1.3, 1.6)
    photons = 100_000
    pilot_fraction = 0.1
    trials = {TWO_STEP: 262_144, UNENTANGLED: 4_096}
    ops_per_round = 2
    reference_samples = {TWO_STEP: 262_144, UNENTANGLED: 65_536}

    def __init__(self):
        fn = functions.product(len(self.theta))
        budget = ResourceBudget("photon-number", self.photons)
        self.configs = {
            TWO_STEP: experiment.ExperimentConfig(fn, self.theta, budget),
            UNENTANGLED: experiment.ExperimentConfig(
                fn, self.theta, budget, protocol=UNENTANGLED,
                pilot_fraction=self.pilot_fraction),
        }

    def references(self, seed):
        plan = self.configs[TWO_STEP].resolved_plan()
        self.want = {
            TWO_STEP: ref.photon_twostep_product(
                self.theta, plan.mode_counts, plan.n2,
                ref.reference_generator(seed, 2),
                self.reference_samples[TWO_STEP]),
            UNENTANGLED: ref.photon_pilot_product(
                self.theta, self.photons, self.pilot_fraction,
                ref.reference_generator(seed, 3),
                self.reference_samples[UNENTANGLED]),
        }
        grad = ref.product_gradients(np.array([self.theta]))[0]
        self.bound = float(np.sum(np.abs(grad))) ** 2 / self.photons**2

    def run_round(self, seed, threads, tracer=None):
        walls, trials, ops, mse = {}, {}, [], {}
        for index, (protocol, cfg) in enumerate(self.configs.items()):
            if tracer is not None:
                cfg = dataclasses.replace(
                    cfg, function=tracer.traced_function(cfg.function, "functions"))
            op = Op(protocol, protocol)
            ops.append(op)
            start = time.perf_counter()
            try:
                est = experiment.estimate_mse(cfg, self.trials[protocol], seed,
                                              threads=threads, stream_index=index)
            except Exception as exc:  # an operation failure, not a crash
                _fail_all([op], exc)
                continue
            finally:
                walls[protocol] = time.perf_counter() - start
            trials[protocol] = est.trials
            op.output = (est.mse, est.se, est.bias)
            mse[protocol] = est.mse
            if est.trials != self.trials[protocol]:
                op.problems.append(f"{est.trials} trials reported")
            _check_estimate(op, est.mse, est.se, self.want[protocol], self.bound)
        if len(mse) == 2:
            _check_advantage(ops[0], ops[1], mse[TWO_STEP], mse[UNENTANGLED])
        return Round(walls, trials, ops)


# -- beam-interpolation -------------------------------------------------------------


@contextlib.contextmanager
def _timed_estimates(walls: dict):
    """Time each ``estimate_mse`` that ``run_interpolation`` makes, by
    protocol, so one call's wall can be split between the two protocols."""
    original = interpolation.estimate_mse

    def timed(config, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(config, *args, **kwargs)
        finally:
            walls[config.protocol] = (walls.get(config.protocol, 0.0)
                                      + time.perf_counter() - start)

    interpolation.estimate_mse = timed
    try:
        yield
    finally:
        interpolation.estimate_mse = original


class BeamInterpolation(Workload):
    """``run_interpolation`` on the Gaussian beam with sensors at
    (-1, 0.3, 1.2) read at x = 0.1, under a qubit-time budget of 1e4."""

    name = "beam-interpolation"
    params = (1.0, 0.0, 1.0)
    locations = (-1.0, 0.3, 1.2)
    target = 0.1
    time_budget = 1e4
    trials = 65_536
    ops_per_round = 2
    reference_samples = 262_144
    quadrature_nodes = 16

    def __init__(self):
        self.ansatz = interpolation.gaussian_beam()
        self.layout = interpolation.SensorLayout(self.locations, self.target)
        self.budget = ResourceBudget("qubit-time", self.time_budget)

    def references(self, seed):
        readings = np.array([ref.beam_field(self.params, x) for x in self.locations])
        weights = ref.lagrange_weights(self.locations, self.target)
        self.truth = ref.beam_field(self.params, self.target)
        induced = interpolation.induced_function(self.ansatz, self.layout,
                                                 self.params)
        plan = experiment.ExperimentConfig(induced, tuple(readings),
                                           self.budget).resolved_plan()
        self.want = {
            TWO_STEP: ref.beam_twostep(readings, weights, plan.t1, plan.t2,
                                       ref.reference_generator(seed, 4),
                                       self.reference_samples),
            UNENTANGLED: (ref.beam_unentangled(readings, weights,
                                               1.0 / self.time_budget,
                                               self.quadrature_nodes), 0.0),
        }
        grads = self.truth * weights / readings
        self.bound = float(np.max(grads * grads)) / self.time_budget**2

    def run_round(self, seed, threads, tracer=None):
        ansatz = self.ansatz if tracer is None else tracer.traced_ansatz(self.ansatz)
        ops = [Op(TWO_STEP, TWO_STEP), Op(UNENTANGLED, UNENTANGLED)]
        walls = {}
        estimates = {}
        start = time.perf_counter()
        try:
            with _timed_estimates(estimates):
                report = interpolation.run_interpolation(
                    ansatz, self.params, self.layout, self.budget,
                    self.trials, seed, threads=threads)
        except Exception as exc:  # an operation failure, not a crash
            _fail_all(ops, exc)
            report = None
        wall = time.perf_counter() - start
        # the call's work outside the baseline's estimate (induced-function
        # set-up, plan, bounds, prediction) is charged to the two-step side
        walls[UNENTANGLED] = estimates.get(UNENTANGLED, 0.0)
        walls[TWO_STEP] = wall - walls[UNENTANGLED]
        if report is None:
            return Round(walls, {}, ops)
        trials = {TWO_STEP: report.two_step.trials,
                  UNENTANGLED: report.unentangled.trials}
        for op, est in zip(ops, (report.two_step, report.unentangled)):
            op.output = (est.mse, est.se, est.bias)
            if est.trials != self.trials:
                op.problems.append(f"{est.trials} trials reported")
            _check_close(op, "truth", report.truth, self.truth, 1e-12)
            _check_close(op, "bound", report.bound_report.entangled_bound,
                         self.bound, 1e-8)
            _check_estimate(op, est.mse, est.se, self.want[op.protocol],
                            self.bound)
        _check_advantage(ops[0], ops[1], report.two_step.mse,
                         report.unentangled.mse)
        return Round(walls, trials, ops)

    def trace_targets(self, tracer):
        def traced_induced(original):
            return lambda *a, **k: tracer.traced_function(original(*a, **k),
                                                          "interpolation")

        return common_targets(tracer) + [
            (interpolation, "induced_function", traced_induced),
            (interpolation, "_batch_newton",
             tracer.span_factory("interpolation.inversion")),
        ]


WORKLOADS = {w.name: w for w in (QubitSweep, PhotonPilot, BeamInterpolation)}
