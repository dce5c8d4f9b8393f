"""Closed-form error bounds and predictions for function estimation.

For a function f with gradient components f_j = df/dtheta_j at the true
point, the achievable mean squared error after total interrogation time t is

    entangled network:    max_j f_j^2 / t^2
    independent sensors:  sum_j f_j^2 / t^2

so the entangled advantage is the ratio |grad f|_2^2 / max_j f_j^2, between 1
and d. With N photons split across d modes the same pair reads

    entangled network:    |grad f|_1^2 / N^2        (conjectured optimal)
    independent modes:    |grad f|_{2/3}^2 / N^2    with n_i ~ |f_i|^{2/3}

where |v|_{2/3} = (sum |v_i|^{2/3})^{3/2}.

The two-step protocol (estimate each parameter, then measure the linearized
combination) adds a curvature penalty on top of the linear-combination
variance. With independent first-step errors of variance s_i^2,

    MSE = E[Var q] + sum_{ij} (2 f_ij^2 + f_ii f_jj)/4 * s_i^2 s_j^2

where f_ij are second derivatives. Specialized to a time split (t1, t2) with
s_i^2 = 1/t1^2 this becomes

    MSE(t1, t2) = g2/t2^2 + g3/(t1^2 t2^2) + g1/t1^4,

    g2 = f_j*^2,   g3 = f_j* sum_i f_{j* i i} + sum_i f_{j* i}^2,
    g1 = sum_{ij} (2 f_ij^2 + f_ii f_jj)/4,

with j* the index of the largest |gradient component|. g3 comes from
expanding E[f_j*(estimate)^2] at the fixed index j*; when two components of
the gradient (nearly) tie, that expansion undershoots the true expectation of
the max by a term of order s; acceptance criterion 1's tie-exact references
and ``test_two_step_tied_gradient_exceeds_fixed_index_prediction`` gate it.

The entangled bounds are the step-2 variances the two-step runner draws,
and acceptance criterion 4 certifies them on a state-vector simulation of
the GHZ schedule's parity measurement (``oracles.ghz_phase_gradient``).

All of these read the same few derivatives at one point: ``point_model``
evaluates them once into a ``PointModel``, and the bounds here, the splits
and predictions in ``allocation`` are pure functions of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import AnalyticFunction, EvaluationError, as_params
# re-exported: the splits in ``allocation`` raise it from here
from .functions import DegenerateGradientError
from .measurement import ResourceBudget


@dataclass(frozen=True)
class BoundReport:
    """Bounds for one function, point and resource budget.

    ``advantage_ratio`` is unentangled/entangled and equals 1 by convention
    when the gradient vanishes (both bounds are then 0 and ``degenerate`` is
    set). ``conjectured`` marks the photon entangled bound, whose optimality
    is conjectured rather than proven.
    """

    entangled_bound: float
    unentangled_baseline: float
    advantage_ratio: float
    resource_kind: str
    resource: float
    degenerate: bool
    conjectured: bool = False


def two_thirds_norm_sq(v) -> float:
    """|v|_{2/3}^2 = (sum |v_i|^{2/3})^3."""
    v = np.asarray(v, dtype=float)
    return float(np.sum(np.abs(v) ** (2.0 / 3.0)) ** 3)


def quartic_coeffs(h: np.ndarray) -> np.ndarray:
    """Matrix C with C_ij = (2 f_ij^2 + f_ii f_jj)/4 from a Hessian h.

    sum_ij C_ij s_i^2 s_j^2 is the second-order contribution to the two-step
    MSE for first-step variances s_i^2; the diagonal reproduces the Gaussian
    fourth moment (C_ii s_i^4 = 3 f_ii^2 s_i^4 / 4).
    """
    return (2.0 * h * h + np.outer(np.diag(h), np.diag(h))) / 4.0


@dataclass(frozen=True, eq=False)
class PointModel:
    """The derivatives of f at one point that the two-step protocol's plans,
    predictions and bounds read, each evaluated once by ``point_model``.

    ``argmax_index`` is j*, the lowest index among the largest |f_j|;
    ``degenerate`` marks an all-zero gradient, where j* reads 0 and means
    nothing. ``third_slice`` is f_{j*,i,i}, ``coeffs`` the quartic matrix
    C_ij = (2 f_ij^2 + f_ii f_jj)/4, and g1, g2, g3 the coefficients of
    MSE(t1, t2) = g2/t2^2 + g3/(t1^2 t2^2) + g1/t1^4. ``linear`` marks a
    target of the linear family, whose gradient is the same everywhere.
    """

    linear: bool
    gradient: np.ndarray
    argmax_index: int
    degenerate: bool
    hessian: np.ndarray
    third_slice: np.ndarray
    coeffs: np.ndarray
    g1: float
    g2: float
    g3: float

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    @property
    def one_norm_sq(self) -> float:
        """|grad f|_1^2: the photon entangled bound's and step-2 variance's
        scale."""
        return float(np.sum(np.abs(self.gradient)) ** 2)

    def mse_at(self, t1: float, t2: float) -> float:
        if t2 <= 0:
            raise ValueError("t2 must be positive")
        step2 = self.g2 / t2**2
        if t1 == 0.0:
            if self.g1 != 0.0 or self.g3 != 0.0:
                raise ValueError("t1 = 0 only valid for curvature-free functions")
            return step2
        if t1 < 0:
            raise ValueError("t1 must be nonnegative")
        return step2 + self.g3 / (t1**2 * t2**2) + self.g1 / t1**4


def point_model(fn: AnalyticFunction, theta) -> PointModel:
    """Evaluate f's gradient, Hessian and third slice at j* once, and derive
    the rest of the ``PointModel`` from them.

    Every derivative is taken, whatever the caller goes on to read, so a
    non-finite one raises ``EvaluationError`` here; so do coefficients that
    overflow.
    """
    theta = as_params(theta, fn.dim)
    g = fn.gradient(theta)
    # ties, an all-zero gradient included, go to the lowest index
    j_star = int(np.argmax(np.abs(g)))
    h = fn.hessian(theta)
    third = fn.third_diag_slice(theta, j_star)
    coeffs = quartic_coeffs(h)
    g1 = float(coeffs.sum())
    g2 = float(g[j_star] ** 2)
    g3 = float(g[j_star] * np.sum(third) + np.sum(h[j_star] ** 2))
    if not np.all(np.isfinite([g1, g2, g3])):
        raise EvaluationError(f"non-finite error-model coefficients of {fn.label}")
    return PointModel(linear=fn.family == "linear", gradient=g,
                      argmax_index=j_star, degenerate=bool(np.all(g == 0.0)),
                      hessian=h,
                      third_slice=third, coeffs=coeffs, g1=g1, g2=g2, g3=g3)


def _report(entangled: float, unentangled: float, budget: ResourceBudget,
            conjectured: bool = False) -> BoundReport:
    """The ``BoundReport`` of the entangled and unentangled squared gradient
    norms under ``budget``."""
    degenerate = entangled == 0.0
    return BoundReport(
        entangled_bound=entangled / budget.amount**2,
        unentangled_baseline=unentangled / budget.amount**2,
        advantage_ratio=1.0 if degenerate else unentangled / entangled,
        resource_kind=budget.kind, resource=float(budget.amount),
        degenerate=degenerate, conjectured=conjectured)


def qubit_bounds(model: PointModel, time: float) -> BoundReport:
    """Time-resource bounds: max_j f_j^2/t^2 vs |grad f|^2/t^2."""
    g = model.gradient
    return _report(float(np.max(g * g)), float(np.sum(g * g)),
                   ResourceBudget("qubit-time", time))


def photon_bounds(model: PointModel, photons: int) -> BoundReport:
    """Photon-resource bounds: |grad f|_1^2/N^2 vs |grad f|_{2/3}^2/N^2."""
    return _report(model.one_norm_sq, two_thirds_norm_sq(model.gradient),
                   ResourceBudget("photon-number", photons), conjectured=True)


def for_budget(model: PointModel, budget: ResourceBudget) -> BoundReport:
    """``qubit_bounds`` or ``photon_bounds``, by the kind of ``budget``."""
    if budget.kind == "qubit-time":
        return qubit_bounds(model, budget.amount)
    return photon_bounds(model, int(budget.amount))


def photon_residual_coefficient(coeffs: np.ndarray, fractions) -> float:
    """Curvature coefficient sum_ij C_ij / (w_i^2 w_j^2) of the quartic
    coefficients ``coeffs`` (``PointModel.coeffs``) for a photon step-1
    split with mode fractions w (sum w = 1); dividing by N1^4 gives the
    second-order MSE term."""
    w = np.asarray(fractions, dtype=float)
    if w.shape != (coeffs.shape[0],):
        raise ValueError(f"need {coeffs.shape[0]} fractions")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be positive and sum to 1")
    inv = 1.0 / (w * w)
    return float(inv @ coeffs @ inv)
