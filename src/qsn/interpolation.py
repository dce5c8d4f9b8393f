"""Field interpolation: estimate a field where no sensor sits.

A parametric ansatz F(c, x) ties the sensed values theta_i = F(c, x_i) to
the field anywhere else. Inverting that map turns the field at a target
point x* into a scalar function G(theta) of the sensor readings, and the
two-step machinery then applies verbatim: G inherits exact first derivatives
from the implicit-function identity (d theta/d c)(d c/d theta) = I, and
higher derivatives by differencing the inverted map.

The module builds G once (``induced_function``) and runs the estimation
protocols on it (``run_interpolation``). That direct measurement is where
the entangled advantage lives, since only there is the target a fixed
scalar combination of the readings; fitting the ansatz to readings and
evaluating F afterwards is not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, experiment
from .allocation import predicted_mse
from .experiment import ExperimentConfig, MSEEstimate, estimate_mse
from .functions import AnalyticFunction, EvaluationError, Workspace, as_params
from .protocol import ResourceBudget

# Layouts whose sensor Jacobian is worse-conditioned than this are rejected
# outright: the induced function would amplify reading noise by the same
# factor and the Newton solves become untrustworthy.
JACOBIAN_COND_LIMIT = 1e8

# A 3x3 row whose |det| is at most this fraction of the product of its
# columns' largest entries is singular: rank-2 rows compute to below 1e-15.
SINGULAR_DET_RTOL = 1e-14

NEWTON_MAX_ITER = 50
NEWTON_RTOL = 1e-10


class SingularJacobianError(ValueError):
    """The ansatz Jacobian is singular or unusably ill-conditioned."""


@dataclass(frozen=True)
class Ansatz:
    """Parametric field model F(c, x) with its parameter Jacobian.

    ``field_rule(c, x)`` maps one parameter vector and an array of locations
    to field values; ``jacobian_rule(c, x)`` returns dF/dc stacked over the
    locations, shape (len(x), param_dim). The optional batch rules take a
    (n, param_dim) block of parameter vectors at once and return shapes
    (n, len(x)) and (n, len(x), param_dim); without them the batch entry
    points fall back to row loops. A batch rule may return any strided view
    of its shape (the Gaussian beam returns transposed location-major
    blocks), and its parameter block may itself be such a view.
    """

    param_dim: int
    label: str
    field_rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian_rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    field_batch_rule: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )
    jacobian_batch_rule: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    # a point rule runs without numpy warnings: non-finite output raises
    def field(self, params, x) -> np.ndarray:
        params = as_params(params, self.param_dim)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            out = np.asarray(self.field_rule(params, x), dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"non-finite field value of {self.label}")
        return out

    def jacobian(self, params, x) -> np.ndarray:
        params = as_params(params, self.param_dim)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            jac = np.asarray(self.jacobian_rule(params, x), dtype=float)
        if jac.shape != (x.size, self.param_dim):
            raise ValueError(
                f"jacobian rule returned shape {jac.shape}, expected "
                f"{(x.size, self.param_dim)}"
            )
        if not np.all(np.isfinite(jac)):
            raise EvaluationError(f"non-finite Jacobian of {self.label}")
        return jac

    def field_batch(self, param_block: np.ndarray, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.field_batch_rule is None:
            return np.stack([self.field(c, x) for c in param_block])
        out = self._checked("field_batch_rule", param_block, x, (x.size,))
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"non-finite field value of {self.label}")
        return out

    def jacobian_batch(self, param_block: np.ndarray, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.jacobian_batch_rule is None:
            return np.stack([self.jacobian(c, x) for c in param_block])
        return self._checked("jacobian_batch_rule", param_block, x,
                             (x.size, self.param_dim))

    def _checked(self, rule: str, param_block, x, row_shape) -> np.ndarray:
        out = np.asarray(getattr(self, rule)(param_block, x), dtype=float)
        expected = (len(param_block), *row_shape)
        if out.shape != expected:
            raise ValueError(f"{rule} of {self.label} returned shape "
                             f"{out.shape}, expected {expected}")
        return out


def gaussian_beam() -> Ansatz:
    """1-D Gaussian beam profile, parameters (amplitude, center, waist)."""

    def field(c, x):
        a, x0, w = c
        return a * np.exp(-2.0 * (x - x0) ** 2 / w**2)

    def jacobian(c, x):
        a, x0, w = c
        e = np.exp(-2.0 * (x - x0) ** 2 / w**2)
        return np.stack(
            [e, a * e * 4.0 * (x - x0) / w**2, a * e * 4.0 * (x - x0) ** 2 / w**3],
            axis=1,
        )

    # each batch rule evaluates a exp(-2 dx^2 / w^2), a e 4 dx / w^2 and
    # a e 4 dx^2 / w^3 left to right as written above, into one
    # location-major block, so each op runs over contiguous rows of n
    # trials, and returns its transpose: (len(x), n) as (n, len(x)) for the
    # field, (3, len(x), n) as (n, len(x), 3) for the Jacobian
    def field_batch(cs, x):
        a, x0, w = cs[:, 0], cs[:, 1], cs[:, 2]
        out = np.subtract(x[:, None], x0)
        np.square(out, out=out)
        np.multiply(-2.0, out, out=out)
        np.divide(out, w**2, out=out)
        np.exp(out, out=out)
        return np.multiply(a, out, out=out).T

    def jacobian_batch(cs, x):
        a, x0, w = cs[:, 0], cs[:, 1], cs[:, 2]
        block = np.empty((3, x.size, len(cs)))
        e, d_center, d_waist = block
        dx = np.subtract(x[:, None], x0, out=d_center)
        w2 = w**2
        tmp = np.square(dx)
        np.multiply(-2.0, tmp, out=tmp)
        np.divide(tmp, w2, out=tmp)
        np.exp(tmp, out=e)
        ae4 = np.multiply(a, e, out=d_waist)
        np.multiply(ae4, 4.0, out=ae4)
        np.square(dx, out=tmp)
        np.multiply(ae4, tmp, out=tmp)
        np.multiply(ae4, dx, out=d_center)
        np.divide(d_center, w2, out=d_center)
        np.divide(tmp, w**3, out=d_waist)
        return block.T

    return Ansatz(param_dim=3, label="gaussian-beam", field_rule=field,
                  jacobian_rule=jacobian, field_batch_rule=field_batch,
                  jacobian_batch_rule=jacobian_batch)


@dataclass(frozen=True)
class SensorLayout:
    """Sensor locations plus the unsensed target location."""

    locations: tuple
    target: float

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        if locs.ndim != 1 or locs.size == 0:
            raise ValueError("locations must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(locs)) or not np.isfinite(self.target):
            raise ValueError("locations and target must be finite")
        if np.unique(locs).size != locs.size:
            raise ValueError("sensor locations must be distinct")
        object.__setattr__(self, "locations", tuple(float(x) for x in locs))
        object.__setattr__(self, "target", float(self.target))

    @property
    def dim(self) -> int:
        return len(self.locations)

    def points(self) -> np.ndarray:
        return np.asarray(self.locations, dtype=float)


def forward_readings(ansatz: Ansatz, params, layout: SensorLayout) -> np.ndarray:
    """Noiseless readings the layout's sensors would report."""
    return ansatz.field(params, layout.points())


# -- the induced function G ------------------------------------------------------


# _solve_rows's work block at p = 3: nine cofactors, det, the singularity
# scale and two temporaries
SOLVE_WORK_ROWS = 13


def _solve_rows(jac: np.ndarray, rhs: np.ndarray, transposed: bool = False,
                work: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Solve ``jac[i] x[i] = rhs[i]`` for every row i, or ``jac[i]^T x[i] =
    rhs[i]`` when ``transposed``; ``jac`` is (n, p, p) or a broadcast
    (1, p, p), ``rhs`` is (n, p).

    At p = 3 the solve is closed form. With a_j the columns of ``jac[i]``
    and c_j = a_{j+1} x a_{j+2} their cofactor vectors (indices mod 3),
    det = a_0 . c_0, x_j = c_j . rhs / det, and the transposed solution is
    sum_j rhs_j c_j / det. It is elementwise over rows, so each row's bits
    depend on that row alone, and on blocks of 3x3 systems it is several
    times faster than batched LAPACK. Other sizes use LAPACK.

    The p = 3 path keeps its nine cofactors, det, the singularity scale and
    two temporaries in ``work``, a (SOLVE_WORK_ROWS, n) float block, and
    writes the solution into ``out``, an (n, 3) block that must not overlap
    ``rhs``; either is allocated when not given. The induced function passes
    its per-thread workspace's buffers, so a chunk's solves reuse memory
    instead of faulting in about forty fresh (n,) arrays each. Use the
    returned array: the LAPACK path ignores both and returns a fresh one.

    Every op reads or writes whole (n,) columns ``jac[:, k, j]``,
    ``rhs[:, k]`` and ``out[:, k]``, so strides change speed, not bits.
    ``_batch_newton`` passes location-major views, the (n, 3, 3) and (n, 3)
    transposes of (3, 3, n) and (3, n) blocks, whose columns are contiguous.

    A singular row raises SingularJacobianError, and no NaN or inf is
    returned. At p = 3 a row is singular when |det| is not above
    SINGULAR_DET_RTOL times the product of its columns' largest entries
    (which bounds |det| to within 3^1.5); this also catches rank-2 rows whose
    determinant rounds to a few ulps instead of 0.
    """
    n = len(rhs)
    if jac.shape[-1] == 3:
        m = len(jac)
        if work is None:
            work = np.empty((SOLVE_WORK_ROWS, n))
        if out is None:
            out = np.empty((n, 3))
        a = [[jac[:, k, j] for k in range(3)] for j in range(3)]
        cof = [[work[3 * j + k, :m] for k in range(3)] for j in range(3)]
        det, scale, tmp, term = work[9, :m], work[10, :m], work[11], work[12]
        with np.errstate(all="ignore"):
            for j in range(3):
                _cross(a[(j + 1) % 3], a[(j + 2) % 3], cof[j], tmp[:m])
            _dot(a[0], cof[0], det, tmp[:m])
            # scale = ((RTOL * big_0) * big_1) * big_2, big_j = max_k |a_jk|
            for j, col in enumerate(a):
                big = np.abs(col[0], out=tmp[:m])
                np.maximum(big, np.abs(col[1], out=term[:m]), out=big)
                np.maximum(big, np.abs(col[2], out=term[:m]), out=big)
                np.multiply(SINGULAR_DET_RTOL if j == 0 else scale, big,
                            out=scale)
            if not np.all(np.abs(det, out=tmp[:m]) > scale):
                out = None
            else:
                b = [rhs[:, k] for k in range(3)]
                for k in range(3):
                    terms = [c[k] for c in cof] if transposed else cof[k]
                    np.divide(_dot(b, terms, tmp, term), det, out=out[:, k])
    else:
        mats = np.transpose(jac, (0, 2, 1)) if transposed else jac
        try:
            out = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            out = None
    if out is None or not np.all(np.isfinite(out)):
        raise SingularJacobianError(
            "singular Jacobian while inverting the sensor map")
    return out


def _cross(p, q, out, tmp):
    """p x q into the three arrays ``out``."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(p[j], q[k], out=out[i])
        np.subtract(out[i], np.multiply(p[k], q[j], out=tmp), out=out[i])


def _dot(p, q, out, tmp):
    """(p_0 q_0 + p_1 q_1) + p_2 q_2 into ``out``."""
    np.multiply(p[0], q[0], out=out)
    np.add(out, np.multiply(p[1], q[1], out=tmp), out=out)
    return np.add(out, np.multiply(p[2], q[2], out=tmp), out=out)


def _batch_newton(ansatz: Ansatz, layout: SensorLayout, readings: np.ndarray,
                  start: np.ndarray, space: Workspace | None = None) -> np.ndarray:
    """Invert the square sensor map for a block of reading rows.

    Every row starts from the same anchor, so the inversion is a pure
    function of the readings, and the first iterate's field and Jacobian are
    evaluated once, at the anchor, then broadcast. ``_solve_rows`` solves
    each row on its own, but the block steps until its slowest row
    converges, and converged rows take near-zero steps meanwhile, so a
    row's bits can depend on the block it is inverted in. Non-finite
    readings and rows that never converge are an error, not a NaN.

    The residual, its magnitude, the step, the iterate, a copy of the
    readings and the solve's work block live in ``space`` (a fresh
    workspace when not given). All but the work block are (p, n) buffers
    seen as (n, p) views, location-major like the beam's batch rules, so
    every elementwise op and every solve column runs over a contiguous row,
    whatever strides the readings arrive with. The returned parameters are
    a fresh C-ordered array.
    """
    if not np.all(np.isfinite(readings)):
        # an infinite reading would make the tolerance infinite and pass
        # every row at the anchor
        raise EvaluationError("non-finite sensor reading")
    shape = readings.shape
    if shape[0] == 0:
        return np.empty(shape)
    if space is None:
        space = Workspace()
    resid, size, step, iterate, observed = (
        space.take(name, shape[::-1]).T
        for name in ("resid", "size", "step", "iterate", "readings"))
    observed[...] = readings
    work = space.take("solve", (SOLVE_WORK_ROWS, shape[0]))
    c = start[None, :]
    locs = layout.points()
    tol = NEWTON_RTOL * max(1.0, float(np.max(np.abs(readings))))
    for _ in range(NEWTON_MAX_ITER):
        np.subtract(ansatz.field_batch(c, locs), observed, out=resid)
        if float(np.max(np.abs(resid, out=size))) <= tol:
            return np.broadcast_to(c, shape).copy()
        delta = _solve_rows(ansatz.jacobian_batch(c, locs), resid, work=work,
                            out=step)
        c = np.subtract(c, delta, out=iterate)
        if not np.all(np.isfinite(c)):
            raise EvaluationError("sensor-map inversion diverged")
    resid = ansatz.field_batch(c, locs) - readings
    stuck = int(np.sum(np.max(np.abs(resid), axis=1) > tol))
    raise EvaluationError(f"sensor-map inversion failed for {stuck} reading rows")


def induced_function(ansatz: Ansatz, layout: SensorLayout,
                     anchor) -> AnalyticFunction:
    """The field at the target as a function of the sensor readings.

    Requires a square system (as many sensors as ansatz parameters) so the
    reading map is locally invertible; ``anchor`` fixes the branch the
    Newton solves converge to. The gradient is exact, from solving
    J^T grad G = dF*/dc; higher derivatives fall back to differencing it.

    Each reading block is inverted once: values and gradients share a
    one-entry memo per thread, matched on the block's shape and bits, so
    the ``gradients`` then ``values`` calls a two-step chunk makes on its
    step-1 draws run one Newton inversion. The memo keeps its own copy of
    the block, so a block changed in place is inverted afresh.

    Each thread also keeps a workspace (``functions.Workspace``) holding
    the Newton residual, its magnitude, the step and the iterate, the 3x3
    solves' work block and the memo. Freed chunk-sized temporaries
    go back to the system between chunks and are page-faulted in again on
    the next, so reusing buffers saves that time; keeping them per thread
    keeps concurrent chunks off each other's buffers. Chunk workers persist
    per calling thread (``experiment.collect_error_moments``), so a
    worker's workspace and memo carry over from one ``estimate_mse`` call to
    the next and live as long as the worker. Values, gradients and
    the memo's parameters are fresh arrays, never workspace, so no later
    call changes what an earlier one returned.
    """
    if layout.dim != ansatz.param_dim:
        raise ValueError(
            "induced function needs a square layout "
            f"({ansatz.param_dim} sensors for {ansatz.label})"
        )
    anchor = as_params(anchor, ansatz.param_dim).copy()
    jac0 = ansatz.jacobian(anchor, layout.points())
    if np.linalg.cond(jac0) > JACOBIAN_COND_LIMIT:
        raise SingularJacobianError(
            f"layout Jacobian condition exceeds {JACOBIAN_COND_LIMIT:.0e} "
            "at the anchor"
        )
    target = np.array([layout.target])
    locs = layout.points()
    space = Workspace()

    def invert(points):
        # the memo holds (block, params); the block is compared bit by bit,
        # as a bytes key would be: -0.0 is not 0.0 here
        if space.memo is not None:
            last, params = space.memo
            if last.shape == points.shape and np.array_equal(
                    last.view(np.int64), points.view(np.int64)):
                return params
        params = _batch_newton(ansatz, layout, points, anchor, space)
        params.flags.writeable = False
        block = space.take("block", points.shape)
        block[...] = points
        space.memo = block, params
        return params

    def value_rule(points):
        return ansatz.field_batch(invert(points), target)[:, 0]

    def grad_batch_rule(points):
        c = invert(points)
        jac = ansatz.jacobian_batch(c, locs)
        gf = ansatz.jacobian_batch(c, target)[:, 0, :]
        work = space.take("solve", (SOLVE_WORK_ROWS, len(points)))
        return _solve_rows(jac, gf, transposed=True, work=work)

    return AnalyticFunction(
        dim=layout.dim,
        family="induced",
        label=f"{ansatz.label}@x={layout.target!r}",
        value_rule=value_rule,
        grad_batch_rule=grad_batch_rule,
    )


# -- end-to-end pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class InterpolationReport:
    """Side-by-side protocols on the induced function, plus its bounds."""

    truth: float
    two_step: MSEEstimate
    unentangled: MSEEstimate
    bound_report: bounds.BoundReport
    predicted_two_step: float

    @property
    def advantage(self) -> float:
        """Empirical unentangled-to-two-step MSE ratio."""
        return self.unentangled.mse / self.two_step.mse


def run_interpolation(ansatz: Ansatz, true_params, layout: SensorLayout,
                      budget: ResourceBudget, trials: int, seed: int,
                      threads: int = 1) -> InterpolationReport:
    """Simulate estimating the field at the target with both protocols.

    True readings come from the ansatz at ``true_params``; the induced
    function is anchored there, which is the benchmarking convention (a
    field deployment would anchor on pilot readings instead).
    """
    true_params = as_params(true_params, ansatz.param_dim)
    theta_true = forward_readings(ansatz, true_params, layout)
    fn = induced_function(ansatz, layout, true_params)
    model = bounds.point_model(fn, theta_true)
    plan = experiment.build_plan(model, budget)
    cfg = ExperimentConfig(function=fn, theta=tuple(theta_true), budget=budget,
                           plan=plan)
    two_step = estimate_mse(cfg, trials, seed, threads=threads, stream_index=0)
    baseline_cfg = ExperimentConfig(function=fn, theta=tuple(theta_true),
                                    budget=budget, protocol="unentangled")
    unentangled = estimate_mse(baseline_cfg, trials, seed, threads=threads,
                               stream_index=1)
    return InterpolationReport(
        truth=float(ansatz.field(true_params, np.array([layout.target]))[0]),
        two_step=two_step,
        unentangled=unentangled,
        bound_report=bounds.for_budget(model, budget),
        predicted_two_step=predicted_mse(model, plan),
    )
