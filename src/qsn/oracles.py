"""Independent checks of the simulator, which only tests call.

Nothing in ``qsn`` imports this module, and it imports only numpy, scipy
(inside the one oracle that needs it) and ``qsn.functions``, so no oracle
can reuse a helper it judges; a test enforces both rules.
"""

from __future__ import annotations

import numpy as np

from .functions import AnalyticFunction, DegenerateGradientError, as_params

# Condition-number ceiling for basis Jacobians; beyond this the seminorm is
# numerically meaningless.
COND_LIMIT = 1e12

# Qubits the GHZ state vector holds: 2^10 amplitudes.
GHZ_MAX_QUBITS = 10
# Phase change per central-difference step: the parity probability is a
# cosine of the phase, so the quotient is off by sin(h)/h, h^2/6 relative.
GHZ_PHASE_STEP = 1e-4
# Least p (1 - p) = sin(phi)^2 / 4 read: nearer a certain outcome, the
# rounding of p would swamp the difference quotients.
GHZ_MIN_SPREAD = 1e-6


class SingularBasisError(ValueError):
    """Raised for (numerically) singular basis Jacobians."""


def ghz_even_parity(phases) -> float:
    """Even-parity probability of a GHZ state of d = len(phases) qubits,
    once qubit i has picked up phase phases[i] on |1> and a Hadamard, read
    from the 2^d amplitudes (qubit 0 the most significant bit)."""
    phases = np.asarray(phases, dtype=float)
    d = phases.size
    if phases.ndim != 1 or not 1 <= d <= GHZ_MAX_QUBITS:
        raise ValueError(f"need 1 to {GHZ_MAX_QUBITS} qubit phases")
    bits = (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    ghz = np.zeros(2**d, dtype=complex)
    ghz[[0, -1]] = np.sqrt(0.5)
    # a Hadamard on every qubit: <j| H^(x)d |k> = (-1)^(j . k) / 2^(d/2)
    hadamards = (-1.0) ** (bits @ bits.T) / 2.0 ** (d / 2)
    amps = hadamards @ (ghz * np.exp(1j * (bits @ phases)))
    return float(np.sum(np.abs(amps[bits.sum(axis=1) % 2 == 0]) ** 2))


def ghz_phase_gradient(rates, signs, theta) -> np.ndarray:
    """Gradient v of the GHZ parity phase phi in theta, up to the sign of
    sin(phi).

    Qubit i accumulates phase signs[i] * rates[i] * theta[i]: the rates are
    a time schedule's durations or a photon schedule's mode counts, and a
    negative sign is a basis flip. v_i central-differences the odd-parity
    probability 1 - p in theta_i over sqrt(p (1 - p)), so v v^T is the
    per-shot Fisher information matrix. A schedule that measures w . theta
    has v parallel to w, and (|v|/|w|)^2 is its Fisher information about
    w . theta.
    """
    rates = np.asarray(rates, dtype=float)
    theta = as_params(theta, rates.size)
    if np.shape(signs) != rates.shape:
        raise ValueError("need one sign per rate")
    if np.any(rates < 0) or not np.any(rates > 0):
        raise ValueError("rates must be nonnegative and not all zero")
    speed = np.asarray(signs, dtype=float) * rates
    p = ghz_even_parity(speed * theta)
    if p * (1.0 - p) < GHZ_MIN_SPREAD:
        raise ValueError("parity outcome nearly certain here; move theta")
    h = GHZ_PHASE_STEP / rates.max()
    v = np.empty(theta.size)
    for i, step in enumerate(np.eye(theta.size) * h):
        # p = (1 + cos phi) / 2 falls as phi grows through (0, pi)
        v[i] = (ghz_even_parity(speed * (theta - step))
                - ghz_even_parity(speed * (theta + step))) / (2.0 * h)
    return v / np.sqrt(p * (1.0 - p))


def seminorm_for_basis(jacobian) -> float:
    """Generator seminorm of the first basis function: sum_i |J^-1_{i, 0}|.

    ``jacobian`` has rows J_{k,i} = d(basis_k)/d(theta_i); row 0 is the
    function being estimated. The seminorm lower-bounds the achievable
    1/(MSE t^2) scale and satisfies seminorm >= 1/max_i |J_{0,i}|, with
    equality when the remaining basis rows are chosen well.
    """
    j = np.asarray(jacobian, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError("basis Jacobian must be square")
    if not np.all(np.isfinite(j)):
        raise ValueError("basis Jacobian must be finite")
    if np.linalg.cond(j) > COND_LIMIT:
        raise SingularBasisError("basis Jacobian is singular or near-singular")
    first_col = np.linalg.solve(j, np.eye(j.shape[0])[:, 0])
    return float(np.sum(np.abs(first_col)))


def coordinate_basis(gradient) -> np.ndarray:
    """Basis Jacobian achieving the seminorm optimum: row 0 is the gradient,
    the other rows are coordinate directions for every index except the
    lowest one among the largest |gradient components|; there
    ``seminorm_for_basis`` meets the 1/max_i |f_i| lower bound with
    equality.
    """
    g = np.asarray(gradient, dtype=float)
    if np.all(g == 0.0):
        raise DegenerateGradientError("zero gradient admits no optimal basis")
    top = int(np.argmax(np.abs(g)))
    return np.vstack([g, np.delete(np.eye(g.shape[0]), top, axis=0)])


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


def finite_diff_validate(fn: AnalyticFunction, theta, order: int) -> float:
    """Max abs deviation between a closed-form derivative rule and a central
    finite-difference estimate built from the value rule alone.

    The stencil never uses the rule under test, so this is an independent
    check of each family's algebra.
    """
    theta = as_params(theta, fn.dim)
    probe = AnalyticFunction(
        dim=fn.dim, family="probe", label=fn.label, value_rule=fn.value_rule
    )
    if order == 1:
        return float(np.abs(fn.gradient(theta) - probe.gradient(theta)).max())
    if order == 2:
        return float(np.abs(fn.hessian(theta) - probe.hessian(theta)).max())
    raise ValueError("order must be 1 or 2")
