"""Resource splits between the two protocol steps.

The two-step MSE g2/t2^2 + g3/(t1^2 t2^2) + g1/t1^4 is minimized, for
t1 << t_total, by

    t1 = (2 g1 / g2)^{1/5} * t_total^{3/5},

so the first step consumes a vanishing fraction of large budgets and any
power law t1 = c * t^p with 1/2 < p < 1 gives the same leading-order MSE.
This module provides that closed form, an independent golden-section
minimizer to check it against, the photon analogues, and the plan record the
protocol runners consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .measurement import count_variances, largest_remainder

GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 500
PARTITION_TOL = 1e-10
PARTITION_MAX_ITER = 20000


@dataclass(frozen=True)
class AllocationPlan:
    """Resource split consumed by the protocol runners.

    Time plans carry (t1, t2) with t2 = total - t1 exactly; t1 = 0 is the
    constant-gradient fast path that skips step 1 entirely. Photon plans
    carry (n1, n2) with n1 > 0, plus nonnegative integer step-1 mode counts.
    """

    kind: str
    policy: str
    total: float
    t1: float = 0.0
    t2: float = 0.0
    n1: int = 0
    n2: int = 0
    mode_counts: tuple = ()

    def __post_init__(self):
        if self.kind == "qubit-time":
            if self.t1 < 0 or self.t2 <= 0:
                raise ValueError("time plan needs t1 >= 0 and t2 > 0")
            if self.t2 != self.total - self.t1:
                raise ValueError("t2 must be the total budget less t1")
        elif self.kind == "photon-number":
            if self.n1 <= 0 or self.n2 <= 0:
                raise ValueError("photon plan needs n1 > 0 and n2 > 0")
            if self.n1 + self.n2 != int(self.total):
                raise ValueError("n1 + n2 must equal the total budget")
            if sum(self.mode_counts) != self.n1 or min(self.mode_counts) < 0:
                raise ValueError("step-1 mode counts must be nonnegative "
                                 "and sum to n1")
        else:
            raise ValueError("kind must be 'qubit-time' or 'photon-number'")

    @property
    def step1_free(self) -> bool:
        """True for a time plan with t1 = 0, which runs no step 1 and
        evaluates the gradient at ``protocol.prior_point``."""
        return self.kind == "qubit-time" and self.t1 == 0.0


def golden_section_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal fn on [lo, hi].

    Returns (argmin, min). Bracket width shrinks by the golden ratio each
    step until it falls under GOLDEN_TOL * max(1, |argmin|), for at most
    GOLDEN_MAX_ITER steps.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= GOLDEN_TOL * max(1.0, abs(a) + abs(b)) / 2.0:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def closed_form_t1(g1: float, g2: float, t_total: float) -> float:
    """t1 = (2 g1/g2)^{1/5} t^{3/5}, clamped to [1, t_total/2]."""
    if g2 <= 0:
        raise bounds.DegenerateGradientError("g2 = 0: no step-2 signal to allocate for")
    raw = (2.0 * g1 / g2) ** 0.2 * t_total**0.6
    return float(min(max(raw, 1.0), t_total / 2.0))


def _flat_point_t1(t_total: float) -> float:
    # no curvature to correct at this point, but the gradient still has to be
    # localized: spend max(1, sqrt(t)) on step 1
    return float(max(1.0, np.sqrt(t_total)))


def _require_gradient(model: bounds.PointModel) -> None:
    if model.degenerate:
        raise bounds.DegenerateGradientError(
            "zero gradient: the two-step target is flat here"
        )


def _time_plan(policy: str, t_total: float, t1: float) -> AllocationPlan:
    return AllocationPlan(kind="qubit-time", policy=policy,
                          total=float(t_total), t1=float(t1),
                          t2=float(t_total) - float(t1))


def _runs_step1(model: bounds.PointModel, t_total: float) -> bool:
    """Check a time budget for a model-driven split. False for a
    linear-family target (constant gradient, nothing to localize: t1 = 0);
    a zero gradient raises."""
    if not np.isfinite(t_total) or t_total <= 2:
        raise ValueError("t_total must exceed 2")
    if model.linear:
        return False
    _require_gradient(model)
    return True


def optimal_time_split(model: bounds.PointModel, t_total: float) -> AllocationPlan:
    """Closed-form optimal split for a time budget; zero-curvature points
    get t1 = max(1, sqrt(t))."""
    t1 = 0.0
    if _runs_step1(model, t_total):
        if model.g1 == 0.0:
            t1 = _flat_point_t1(t_total)
        else:
            t1 = closed_form_t1(model.g1, model.g2, t_total)
    return _time_plan("optimal", t_total, t1)


def numeric_time_split(model: bounds.PointModel, t_total: float) -> AllocationPlan:
    """Golden-section minimizer of the full three-term MSE over t1.

    Independent check on the closed form; agrees with it to fractions of a
    percent whenever t1 << t_total.
    """
    t1 = 0.0
    if _runs_step1(model, t_total):
        if model.g1 == 0.0 and model.g3 == 0.0:
            t1 = _flat_point_t1(t_total)
        else:
            t1, _ = golden_section_min(
                lambda x: model.mse_at(x, t_total - x),
                lo=1e-9 * t_total,
                hi=(1.0 - 1e-9) * t_total,
            )
    return _time_plan("numeric", t_total, t1)


def power_law_time_split(t_total: float, coeff: float, power: float) -> AllocationPlan:
    """t1 = coeff * t_total^power; any 1/2 < power < 1 preserves the
    leading-order MSE."""
    if not 0.5 < power < 1.0:
        raise ValueError("power must lie strictly between 1/2 and 1")
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    t1 = coeff * t_total**power
    if not 0 < t1 < t_total:
        raise ValueError("power law puts t1 outside (0, t_total)")
    return _time_plan(f"power:{coeff!r},{power!r}", t_total, t1)


def fixed_time_split(t_total: float, t1: float) -> AllocationPlan:
    if not 0 <= t1 < t_total:
        raise ValueError("need 0 <= t1 < t_total")
    return _time_plan(f"fixed:{t1!r}", t_total, t1)


# -- photon splits -------------------------------------------------------------


def continuous_pairwise_partition(coeffs: np.ndarray) -> np.ndarray:
    """Fractions w (sum 1) minimizing sum_ij C_ij/(w_i^2 w_j^2).

    The objective is the quadratic form u^T C u in u_i = w_i^{-2}. For
    curvature matrices C_ij = (2 f_ij^2 + f_ii f_jj)/4 it is nonnegative on
    the positive orthant even when off-diagonal entries are negative, and any
    row holding a negative entry has a positive diagonal, so the form stays
    coercive in every coordinate.

    Projected multiplicative updates: with s_k = w_k^{-3} sum_j C_kj w_j^{-2}
    (the stationarity residual, equal across k at the optimum, where its
    common value is the objective itself), update w_k <- w_k (s_k/mean s)^{1/4}
    and renormalize. Residuals that go negative far from the optimum are
    floored at a small positive multiple of the residual scale, which still
    shrinks those modes hard. The 1/4 exponent keeps the iteration contractive
    whether the diagonal (s ~ w^-5) or the off-diagonal (s ~ w^-3) part
    dominates.
    """
    c = np.asarray(coeffs, dtype=float)
    d = c.shape[0]
    if c.shape != (d, d) or not np.all(np.isfinite(c)):
        raise ValueError("coefficient matrix must be square and finite")
    if np.any(np.diag(c) < 0):
        raise ValueError("coefficient matrix needs a nonnegative diagonal")
    c = (c + c.T) / 2.0
    if np.all(c == 0.0):
        return np.full(d, 1.0 / d)
    w = np.full(d, 1.0 / d)
    for _ in range(PARTITION_MAX_ITER):
        s = (c @ (1.0 / w**2)) / w**3
        scale = float(np.max(np.abs(s)))
        if scale == 0.0:
            break
        s = np.maximum(s, 1e-3 * scale)
        ratio = s / s.mean()
        w_new = w * ratio**0.25
        w_new /= w_new.sum()
        delta = np.abs(w_new - w).max() / w.max()
        w = w_new
        if delta < PARTITION_TOL:
            break
    return w


def _round_partition(w: np.ndarray, n1: int) -> tuple:
    """Integer step-1 photon counts: largest-remainder rounding of the
    fractions w to n1, with zero counts promoted to 1 (taken from the
    largest mode) so step-1 variances stay finite."""
    counts = largest_remainder(w, n1)
    for i in range(len(w)):
        if counts[i] == 0:
            counts[int(np.argmax(counts))] -= 1
            counts[i] = 1
    return tuple(int(x) for x in counts)


def _photon_plan(policy: str, n_total: int, n1: int, w) -> AllocationPlan:
    return AllocationPlan(kind="photon-number", policy=policy,
                          total=float(n_total), n1=n1, n2=n_total - n1,
                          mode_counts=_round_partition(w, n1))


def optimal_photon_split(model: bounds.PointModel, n_total: int) -> AllocationPlan:
    """Photon analogue of the optimal time split.

    Effective coefficients: g2_eff = |grad f|_1^2 (step-2 variance scale),
    g1_eff = sum_ij C_ij/(w_i^2 w_j^2) at the optimal step-1 fractions w.
    Then n1 = round((2 g1_eff/g2_eff)^{1/5} N^{3/5}), clamped to [d, N/2];
    a zero curvature matrix (any linear target) gives n1 = d. The fractions
    w are computed once and serve n1 and the mode counts alike. This mirrors
    the time-budget derivation; it is validated against the numeric
    minimizer in the tests rather than taken from a closed-form source.
    """
    n_total = int(n_total)
    if n_total < 2 * model.dim:
        raise ValueError("photon budget too small to split")
    _require_gradient(model)
    w = continuous_pairwise_partition(model.coeffs)
    if np.all(model.coeffs == 0.0):
        n1 = model.dim
    else:
        g1_eff = bounds.photon_residual_coefficient(model.coeffs, w)
        raw = closed_form_t1(g1_eff, model.one_norm_sq, n_total)
        n1 = min(max(int(round(raw)), model.dim), n_total // 2)
    return _photon_plan("optimal", n_total, n1, w)


def fixed_photon_split(model: bounds.PointModel, n_total: int,
                       n1: int) -> AllocationPlan:
    n_total, n1 = int(n_total), int(n1)
    if not model.dim <= n1 <= n_total - 1:
        raise ValueError("need d <= n1 < n_total")
    _require_gradient(model)
    return _photon_plan(f"fixed:{n1}", n_total, n1,
                        continuous_pairwise_partition(model.coeffs))


def min_weighted_inverse_square(weights_sq, total: float) -> tuple[np.ndarray, float]:
    """Numeric constrained minimizer of sum a_i / n_i^2 over sum n_i = total.

    Independent oracle for the unentangled photon baseline (whose closed form
    is n_i proportional to a_i^{1/3}); deliberately solved as a generic
    constrained problem, not by that closed form. It needs scipy, which is a
    test dependency only (the ``test`` extra), not a runtime one.
    """
    # imported here: scipy is not a runtime dependency, and scipy.optimize
    # dominates the import time wherever it is installed
    from scipy.optimize import minimize

    a = np.asarray(weights_sq, dtype=float)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("weights_sq must be finite and nonnegative")
    if total <= 0:
        raise ValueError("total must be positive")
    active = a > 0
    if not np.any(active):
        raise ValueError("all weights vanish; the objective is identically 0")
    m = int(active.sum())
    x0 = np.full(m, total / m)
    res = minimize(
        lambda x: float(np.sum(a[active] / x**2)),
        x0=x0,
        jac=lambda x: -2.0 * a[active] / x**3,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - total,
                      "jac": lambda x: np.ones(m)}],
        bounds=[(1e-9 * total, None)] * m,
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    if not res.success and res.status != 8:  # 8: iteration limit with tiny step
        raise RuntimeError(f"constrained minimizer failed: {res.message}")
    n = np.zeros(a.shape[0])
    n[active] = res.x
    return n, float(np.sum(a[active] / res.x**2))


def predicted_mse(model: bounds.PointModel, plan: AllocationPlan) -> float:
    """Model prediction of the two-step MSE under a given plan.

    Time plans use the three-term expansion. Photon plans use
    |grad f|_1^2/n2^2 plus the curvature penalty of the integer step-1
    counts; the cross term of order 1/(n1^2 n2^2) is not modeled, so photon
    predictions approach the truth from below by that amount.
    """
    if plan.kind == "qubit-time":
        return model.mse_at(plan.t1, plan.t2)
    var = count_variances(np.asarray(plan.mode_counts, dtype=float))
    return model.one_norm_sq / plan.n2**2 + float(var @ model.coeffs @ var)
