"""Monte Carlo harness: MSE estimation, resource sweeps, and the reader
of the sweep records the CLI writes.

Reproducibility contract. A run is identified by (config, master_seed).
Trials are evaluated in fixed-size chunks, each on its own index-derived
random stream, and chunk partial sums are reduced with compensated
summation in chunk order. The result is bit-identical however many threads
execute the chunks. Threaded chunks run on worker threads that persist per
calling thread (see ``collect_error_moments``), so per-thread buffers
outlive a call; what they hold never reaches a result.

MSE uncertainty comes from the sample variance of the squared errors (the
delta method). Squared errors are heavy-tailed, so gates downstream use 3-4
of these standard errors and trial counts are sized accordingly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import allocation, bounds
from .allocation import build_plan
from .functions import (AnalyticFunction, EvaluationError, as_params, linear,
                        quadratic)
from .measurement import MODELING_ASSUMPTIONS, ResourceBudget, RngStream
from .protocol import (TINY_GRADIENT_RTOL, prior_point, run_two_step_batch,
                       run_unentangled_batch, separable_split)

# Trials per chunk. Part of the determinism contract: changing it reshuffles
# which stream serves which trial, so results are only comparable at equal
# chunk size.
CHUNK = 8192

PROTOCOLS = ("two-step", "unentangled")

# The fewest trials an MSE estimate runs; the CLI rejects fewer at parse time.
MIN_TRIALS = 100

# Each calling thread's chunk executors, by ``threads`` value. Per calling
# thread, so that a draw that fans out again never waits on the pool that
# runs it.
_POOLS = threading.local()


def _forget_pools() -> None:
    # a forked child inherits the executors but none of their threads
    global _POOLS
    _POOLS = threading.local()


os.register_at_fork(after_in_child=_forget_pools)


def _pool(threads: int) -> ThreadPoolExecutor:
    pools = _POOLS.__dict__
    if threads not in pools:
        pools[threads] = ThreadPoolExecutor(max_workers=threads)
    return pools[threads]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines a Monte Carlo point except trials and seed.
    A plan, and a policy other than ``optimal``, apply to two-step runs
    only."""

    function: AnalyticFunction
    theta: tuple
    budget: ResourceBudget
    protocol: str = "two-step"
    policy: str = "optimal"
    plan: allocation.AllocationPlan | None = field(default=None)
    pilot_fraction: float | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        allocation.parse_policy(self.policy, self.budget.kind)
        if self.protocol != "two-step" and (self.plan is not None
                                            or self.policy != "optimal"):
            raise ValueError("an allocation plan or policy applies to "
                             "two-step runs only")
        if self.plan is not None and self.plan.budget != self.budget:
            raise ValueError("the allocation plan must split this "
                             "config's budget")
        if self.pilot_fraction is not None and self.protocol != "unentangled":
            raise ValueError("a pilot fraction applies to unentangled runs only")
        as_params(self.theta, self.function.dim)

    def resolved_plan(self) -> allocation.AllocationPlan:
        """The given plan, or else the policy's plan at this point."""
        if self.plan is not None:
            return self.plan
        return build_plan(bounds.point_model(self.function, self.theta),
                          self.budget, self.policy)

    def with_resource(self, amount: float) -> "ExperimentConfig":
        """Same experiment at a different budget; an explicit plan is
        dropped so the policy re-resolves at the new scale."""
        return replace(self, budget=ResourceBudget(self.budget.kind, amount),
                       plan=None)


@dataclass(frozen=True)
class MSEEstimate:
    trials: int
    mse: float
    se: float
    bias: float

    def __post_init__(self):
        if self.mse < 0 or self.se < 0:
            raise ValueError("mse and se are nonnegative by construction")


def collect_error_moments(draw, trials: int, stream: RngStream,
                          threads: int = 1) -> tuple[float, float, float]:
    """Chunked mean error, mean squared error, mean fourth-power error.

    ``draw(stream, n)`` returns n estimator errors. Chunk c runs on
    ``stream.substream(c)``; partials are fsum-reduced in chunk order, so the
    output is independent of thread count.

    With ``threads > 1`` and more than one chunk, the chunks run on worker
    threads kept per calling thread, one set per ``threads`` value: a call
    runs on at most ``threads`` of them, later calls from the same thread
    reuse them, and they end with that thread. A worker's per-thread
    buffers (``functions.Workspace``) live as long as the worker. Concurrent
    callers never share workers, and a draw that fans out again gets
    workers of its own. A forked child starts with none. A call returns or
    raises only after every chunk it started has stopped.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    starts = list(range(0, trials, CHUNK))

    def one(c: int) -> tuple[float, float, float]:
        n = min(CHUNK, trials - starts[c])
        err = np.asarray(draw(stream.substream(c), n), dtype=float)
        if err.shape != (n,):
            raise ValueError("draw must return one error per trial")
        if not np.all(np.isfinite(err)):
            raise EvaluationError("non-finite estimator error in Monte Carlo")
        e2 = err * err
        return float(err.sum()), float(e2.sum()), float((e2 * e2).sum())

    if threads > 1 and len(starts) > 1:
        futures = [_pool(threads).submit(one, c) for c in range(len(starts))]
        try:
            parts = [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
            wait(futures)
    else:
        parts = [one(c) for c in range(len(starts))]
    s1 = math.fsum(p[0] for p in parts)
    s2 = math.fsum(p[1] for p in parts)
    s4 = math.fsum(p[2] for p in parts)
    return s1 / trials, s2 / trials, s4 / trials


def estimate_mse(config: ExperimentConfig, trials: int, master_seed: int,
                 threads: int = 1, stream_index: int = 0) -> MSEEstimate:
    """Empirical MSE of a protocol at one configuration.

    ``stream_index`` separates the random streams of runs sharing a master
    seed (sweeps use the grid position); identical arguments give
    bit-identical results at any thread count. ``threads`` is the most
    threads the call runs chunks on; they are worker threads that persist
    per calling thread, with their buffers, between calls (see
    ``collect_error_moments``).
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    fn = config.function
    theta = as_params(config.theta, fn.dim)
    truth = fn.value(theta)
    if config.protocol == "two-step":
        plan = config.resolved_plan()
        if plan.step1_free:
            # a step-1-free plan evaluates the gradient at the fixed prior;
            # if it vanishes there, every single trial would degenerate
            prior = prior_point(fn.dim)
            w0 = np.max(np.abs(fn.gradient(prior)))
            if w0 <= TINY_GRADIENT_RTOL * max(1.0, abs(fn.value(prior))):
                raise ValueError(
                    "every trial degenerates: the plan skips step 1 and the "
                    "gradient vanishes at the prior point"
                )

        def draw(stream, n):
            return run_two_step_batch(fn, theta, plan, stream, n) - truth
    else:
        split = separable_split(fn, theta, config.budget,
                                config.pilot_fraction)

        def draw(stream, n):
            return run_unentangled_batch(fn, theta, split, stream, n) - truth

    base = RngStream(master_seed, stream_index)
    m1, m2, m4 = collect_error_moments(draw, trials, base, threads)
    if config.protocol == "two-step" and m1 == 0.0 and m2 == 0.0:
        # exactly-zero error on every trial means nothing was measured: the
        # run degenerated (e.g. the target is constant where it was sampled)
        raise ValueError("every trial degenerates: all estimator errors are "
                         "exactly zero")
    var_e2 = max(m4 - m2 * m2, 0.0)
    return MSEEstimate(trials=trials, mse=m2,
                       se=math.sqrt(var_e2 / trials), bias=m1)


# -- second-order expansion check ----------------------------------------------


@dataclass(frozen=True)
class FomReport:
    """Monte Carlo check of the curvature term in the two-step error.

    ``predicted`` uses quartic coefficients (2 f_ij^2 + f_ii f_jj)/4;
    ``predicted_unsquared`` drops the square on the cross term, a variant
    kept solely to demonstrate it disagrees with simulation.
    """

    trials: int
    empirical: float
    se: float
    predicted: float
    predicted_unsquared: float

    def _z(self, pred: float) -> float:
        if self.se == 0.0:
            if self.empirical == pred:
                return 0.0
            return math.inf if self.empirical > pred else -math.inf
        return (self.empirical - pred) / self.se

    @property
    def z(self) -> float:
        return self._z(self.predicted)

    @property
    def z_unsquared(self) -> float:
        return self._z(self.predicted_unsquared)


def verify_general_fom(fn: AnalyticFunction, theta, variances, trials: int,
                       seed: int, threads: int = 1) -> FomReport:
    """MSE of f(theta~) + grad f(theta~).(theta - theta~) with noiseless
    linear combination, against sum_ij C_ij var_i var_j.

    Isolates the second-order residual of the two-step estimate. Quartic
    (and for non-polynomial targets, higher) terms beyond the prediction are
    neglected; keep sqrt(var) at or below a tenth of the curvature scale or
    the z-score picks up the missing orders.
    """
    theta = as_params(theta, fn.dim)
    var = np.broadcast_to(np.asarray(variances, dtype=float), theta.shape).copy()
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        raise ValueError("variances must be positive and finite")
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    truth = fn.value(theta)
    sd = np.sqrt(var)
    hess = fn.hessian(theta)
    diag = np.diag(hess)
    coeffs = bounds.quartic_coeffs(hess)
    coeffs_unsq = (2.0 * hess + np.outer(diag, diag)) / 4.0
    predicted = float(var @ coeffs @ var)
    predicted_unsq = float(var @ coeffs_unsq @ var)

    # differences of like-magnitude doubles leave rounding dust of order
    # eps*|f|; counted as signal it would turn an exactly-zero prediction
    # (any linear target) into a divide-by-dust z-score
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(truth))

    def draw(stream, n):
        gen = stream.generator()
        delta = gen.standard_normal((n, fn.dim)) * sd
        pts = theta + delta
        w = fn.gradients(pts)
        errors = fn.values(pts) - np.einsum("nd,nd->n", w, delta) - truth
        errors[np.abs(errors) <= floor] = 0.0
        return errors

    _, m2, m4 = collect_error_moments(draw, trials, RngStream(seed, 0), threads)
    se = math.sqrt(max(m4 - m2 * m2, 0.0) / trials)
    return FomReport(trials=trials, empirical=m2, se=se,
                     predicted=predicted, predicted_unsquared=predicted_unsq)


def fom_battery() -> tuple:
    """Ten (function, theta) pairs exercising the expansion check.

    Mix of exact-derivative families (linear through quadratic, where the
    prediction is exact and any z drift is sampling noise) and two
    higher-order targets whose neglected terms are small at the documented
    variance scales.
    """
    cubic = AnalyticFunction(
        dim=2,
        label="x1 x2 + 0.05 (x1^3 + x2^3)",
        value_rule=lambda p: p[:, 0] * p[:, 1]
        + 0.05 * (p[:, 0] ** 3 + p[:, 1] ** 3),
        hess_rule=lambda p: np.array(
            [[0.3 * p[0], 1.0], [1.0, 0.3 * p[1]]]
        ),
        grad_batch_rule=lambda pts: np.stack(
            [pts[:, 1] + 0.15 * pts[:, 0] ** 2, pts[:, 0] + 0.15 * pts[:, 1] ** 2],
            axis=1,
        ),
    )
    quartic = AnalyticFunction(
        dim=2,
        label="x1^2 + x2^2 + 0.02 x1^2 x2^2",
        value_rule=lambda p: p[:, 0] ** 2 + p[:, 1] ** 2
        + 0.02 * p[:, 0] ** 2 * p[:, 1] ** 2,
        hess_rule=lambda p: np.array(
            [[2.0 + 0.04 * p[1] ** 2, 0.08 * p[0] * p[1]],
             [0.08 * p[0] * p[1], 2.0 + 0.04 * p[0] ** 2]]
        ),
        grad_batch_rule=lambda pts: np.stack(
            [2.0 * pts[:, 0] + 0.04 * pts[:, 0] * pts[:, 1] ** 2,
             2.0 * pts[:, 1] + 0.04 * pts[:, 0] ** 2 * pts[:, 1]],
            axis=1,
        ),
    )
    a3 = [[1.0, 0.2, 0.0], [0.2, 2.0, -0.3], [0.0, -0.3, 1.5]]
    a4 = [[0.5, 0.1, 0.0, 0.0], [0.1, 1.0, 0.1, 0.0],
          [0.0, 0.1, 1.5, 0.1], [0.0, 0.0, 0.1, 2.0]]
    return (
        (linear([3.0, 4.0], label="3 x1 + 4 x2"), (0.7, -0.4)),
        (quadratic([[1.0]], label="x1^2"), (1.0,)),
        (quadratic([[0.0, 0.5], [0.5, 0.0]], label="x1 x2"), (1.0, 1.0)),
        (quadratic([[0.0, 1.0], [1.0, 0.0]], label="2 x1 x2"), (1.0, 1.0)),
        (quadratic(np.eye(2), label="x1^2 + x2^2"), (1.0, 1.0)),
        (quadratic([[1.0, -0.75], [-0.75, 2.0]], offset=[0.5, -1.0],
                   label="anisotropic quadratic d=2"), (0.3, -0.2)),
        (quadratic(a3, offset=[0.1, 0.0, -0.2], label="quadratic d=3"),
         (0.4, -0.3, 0.6)),
        (quadratic(a4, offset=[0.2, -0.1, 0.0, 0.3], label="quadratic d=4"),
         (0.25, 0.5, -0.4, 0.1)),
        (cubic, (1.0, 1.0)),
        (quartic, (1.0, 1.0)),
    )


# -- sweeps and scaling fits ----------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    protocol: str
    function: str
    theta: tuple
    resource_kind: str
    resource: float
    trials: int
    mse: float
    mse_se: float
    bias: float
    predicted_mse: float
    bound: float
    seed: int
    ms_elapsed: float


def check_grid(kind: str, grid) -> list:
    """The grid as floats; raises ValueError unless it is strictly
    increasing and every point is a valid budget of ``kind``."""
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("resource grid must be strictly increasing")
    for amount in grid:
        ResourceBudget(kind, amount)
    return grid


def sweep_resource(config: ExperimentConfig, grid, trials: int,
                   master_seed: int, threads: int = 1) -> list:
    """One MSE point per grid value, with matched predictions and bounds.

    Grid point i draws from stream index i, so points are independent and
    the whole sweep is reproducible from the master seed alone. The whole
    grid is checked before the first point runs. Theta is the same at every
    point, so one ``bounds.point_model`` serves the whole grid: each
    two-step point's plan (used for the run and the prediction alike), each
    prediction and each bound are read from it, before the point's Monte
    Carlo runs; ``ms_elapsed`` times that Monte Carlo alone.
    """
    grid = check_grid(config.budget.kind, grid)
    model = bounds.point_model(config.function, config.theta)
    two_step = config.protocol == "two-step"
    records = []
    for i, amount in enumerate(grid):
        cfg = config.with_resource(amount)
        report = bounds.for_budget(model, cfg.budget)
        if two_step:
            cfg = replace(cfg, plan=build_plan(model, cfg.budget, cfg.policy))
            predicted = allocation.predicted_mse(model, cfg.plan)
        else:
            predicted = report.unentangled_baseline
        t0 = time.perf_counter()
        est = estimate_mse(cfg, trials, master_seed, threads=threads,
                           stream_index=i)
        records.append(SweepRecord(
            protocol=cfg.protocol,
            function=cfg.function.label,
            theta=tuple(float(x) for x in cfg.theta),
            resource_kind=cfg.budget.kind,
            resource=amount,
            trials=trials,
            mse=est.mse,
            mse_se=est.se,
            bias=est.bias,
            predicted_mse=predicted,
            bound=report.entangled_bound,
            seed=master_seed,
            ms_elapsed=(time.perf_counter() - t0) * 1e3,
        ))
    return records


def fit_scaling_exponent(records) -> tuple[float, float]:
    """OLS slope of log(MSE) against log(resource) over SweepRecords, with
    standard error."""
    res = np.array([r.resource for r in records], dtype=float)
    mse = np.array([r.mse for r in records], dtype=float)
    if res.size < 3:
        raise ValueError("need at least 3 points to fit a slope")
    if np.any(mse <= 0) or np.any(res <= 0):
        raise ValueError("scaling fit needs positive resources and MSEs")
    x, y = np.log(res), np.log(mse)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    resid = y - y.mean() - slope * xc
    se = math.sqrt(float(resid @ resid) / (res.size - 2) / sxx)
    return slope, se


# -- persistence -----------------------------------------------------------------


def base_metadata() -> dict:
    """Version and modeling-assumption stamp for serialized outputs."""
    from . import __version__

    return {
        "version": __version__,
        "modeling_assumptions": list(MODELING_ASSUMPTIONS),
    }


def load_records(source) -> list:
    """Read the records that ``qsn simulate`` and ``qsn sweep`` write, as CSV
    or JSON (format from the extension). Floats are written as their
    shortest round-trip reprs, so the records reload exactly.

    The columns are the fields of ``SweepRecord``. Raises OSError if the
    file cannot be read, ValueError if it holds no records or they lack a
    column (as the files other subcommands write do)."""
    source = str(source)
    try:
        with open(source, newline="") as fh:
            if source.endswith(".json"):
                payload = json.load(fh)
                rows = (payload.get("records") if isinstance(payload, dict)
                        else None)
            else:
                rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"cannot read records from {source}: {exc}") from exc
    if rows is None:
        raise ValueError(f"{source} has no 'records' key")
    # a column parses by its field's annotation (a string, as annotations
    # are postponed here); a CSV theta is ';'-joined
    parse = {"str": str, "int": int, "float": float,
             "tuple": lambda v: tuple(float(x) for x in (
                 v.split(";") if isinstance(v, str) else v))}
    columns = fields(SweepRecord)
    records = []
    for row in rows:
        missing = [c.name for c in columns if c.name not in row]
        if missing:
            raise ValueError(f"{source}: records lack the columns "
                             + ", ".join(missing))
        records.append(SweepRecord(**{c.name: parse[c.type](row[c.name])
                                      for c in columns}))
    return records
