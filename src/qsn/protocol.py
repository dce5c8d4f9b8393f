"""Distribution-level simulators for the estimation protocols.

Two runners are provided. ``run_two_step`` plays the entangled protocol:
spend the step-1 budget localizing theta, point the linear-combination
measurement along the gradient there, and correct the first-stage value with
the measured combination. ``run_unentangled`` plays the separable baseline:
estimate every parameter on its own and plug into the function.

Both draw estimator outcomes directly from the known sampling distributions
(Gaussian step-1 marginals, Gaussian linear-combination noise at the
variance floor) rather than simulating shot records. The floors they use are
exactly the ones ``measurement.parity_fisher_information`` certifies, so the
shot-level physics is tested once, there, and the Monte Carlo stays cheap
enough for 1e6-trial batteries.

Batch variants vectorize over trials and are the engine behind the MSE
harness; the scalar variants return per-trial diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import allocation
from .functions import (AnalyticFunction, EvaluationError, as_params,
                        fold_columns)
from .measurement import (_generator, count_variances, lincomb_estimate,
                          sample_param_estimates)

# Step-2 weights below this size (relative to the function scale) are treated
# as an exact critical point: the combination carries no signal, so the
# correction is skipped instead of normalizing a zero-length weight vector.
TINY_GRADIENT_RTOL = 1e-12


@dataclass(frozen=True)
class ResourceBudget:
    """Total interrogation resource: qubit time or photon count."""

    kind: str
    amount: float

    def __post_init__(self):
        if self.kind not in ("qubit-time", "photon-number"):
            raise ValueError("kind must be 'qubit-time' or 'photon-number'")
        if not np.isfinite(self.amount) or self.amount <= 0:
            raise ValueError("amount must be positive and finite")
        if self.kind == "photon-number" and self.amount != int(self.amount):
            raise ValueError("photon budgets are integers")


def build_plan(fn: AnalyticFunction, theta, budget: ResourceBudget,
               policy: str = "optimal") -> allocation.AllocationPlan:
    """Resolve a policy string into a concrete split.

    Policies: ``optimal`` (closed form), ``numeric`` (golden section, time
    budgets only), ``power:c,p`` (t1 = c * t^p), ``fixed:x`` (explicit step-1
    share).
    """
    theta = as_params(theta, fn.dim)
    if budget.kind == "qubit-time":
        if policy == "optimal":
            return allocation.optimal_time_split(fn, theta, budget.amount)
        if policy == "numeric":
            return allocation.numeric_time_split(fn, theta, budget.amount)
        if policy.startswith("power:"):
            coeff, power = (float(x) for x in policy[6:].split(","))
            return allocation.power_law_time_split(budget.amount, coeff, power)
        if policy.startswith("fixed:"):
            return allocation.fixed_time_split(budget.amount, float(policy[6:]))
        raise ValueError(f"unknown time policy {policy!r}")
    if policy == "optimal":
        return allocation.optimal_photon_split(fn, theta, int(budget.amount))
    if policy.startswith("fixed:"):
        return allocation.fixed_photon_split(fn, theta, int(budget.amount),
                                             int(policy[6:]))
    raise ValueError(f"unknown photon policy {policy!r}")


@dataclass(frozen=True)
class TrialResult:
    """One protocol run. ``lincomb_*`` fields are None for the baseline;
    ``degenerate`` is set exactly when a two-step run skipped its correction
    because the gradient vanished at the step-1 point."""

    estimate: float
    truth: float
    theta_estimate: tuple
    lincomb_true: float | None = None
    lincomb_measured: float | None = None
    degenerate: bool = False

    @property
    def error(self) -> float:
        return self.estimate - self.truth

    @property
    def squared_error(self) -> float:
        return (self.estimate - self.truth) ** 2


def _step1_variances(fn: AnalyticFunction, theta_true: np.ndarray,
                     plan: allocation.AllocationPlan) -> np.ndarray:
    """Per-parameter step-1 variances implied by a plan.

    Zero resource on a parameter pins its estimate to the prior; that is only
    sound when the function is locally insensitive to it, so a zero count on
    a parameter with nonzero gradient is rejected.
    """
    if plan.kind == "qubit-time":
        if plan.t1 == 0.0:
            return np.zeros(fn.dim)
        return np.full(fn.dim, 1.0 / plan.t1**2)
    counts = np.asarray(plan.mode_counts, dtype=float)
    if counts.shape != (fn.dim,):
        raise ValueError(f"plan carries {counts.size} mode counts, need {fn.dim}")
    if np.any(counts == 0):
        g = fn.gradient(theta_true)
        bad = (counts == 0) & (g != 0.0)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"no step-1 photons on parameter {i} but the target depends on it"
            )
    return count_variances(counts)


def _prior_point(dim: int) -> np.ndarray:
    # step-1-free runs start from the zero prior; callers wanting another
    # prior should fold it into the parameterization
    return np.zeros(dim)


def run_two_step(fn: AnalyticFunction, theta_true, plan: allocation.AllocationPlan,
                 rng) -> TrialResult:
    """One run of the entangled two-step protocol under a resource split."""
    theta_true = as_params(theta_true, fn.dim)
    gen = _generator(rng)
    step1_free = plan.kind == "qubit-time" and plan.t1 == 0.0
    if step1_free:
        theta1 = _prior_point(fn.dim)
    else:
        var = _step1_variances(fn, theta_true, plan)
        theta1 = sample_param_estimates(theta_true, var, gen)
    w = fn.gradient(theta1)
    f1 = fn.value(theta1)
    scale = max(1.0, abs(f1))
    degenerate = bool(np.max(np.abs(w)) <= TINY_GRADIENT_RTOL * scale)
    if degenerate:
        q_true, q_meas = 0.0, 0.0
    else:
        q_true = float(w @ (theta_true - theta1))
        if plan.kind == "qubit-time":
            q_meas = lincomb_estimate(w, theta_true - theta1, gen, time=plan.t2)
        else:
            q_meas = lincomb_estimate(w, theta_true - theta1, gen,
                                      photons=plan.n2)
    return TrialResult(
        estimate=f1 + q_meas,
        truth=fn.value(theta_true),
        theta_estimate=tuple(float(x) for x in theta1),
        lincomb_true=q_true,
        lincomb_measured=q_meas,
        degenerate=degenerate,
    )


def run_two_step_batch(fn: AnalyticFunction, theta_true,
                       plan: allocation.AllocationPlan, rng,
                       trials: int) -> np.ndarray:
    """Estimates from ``trials`` independent two-step runs, vectorized.

    Draw order (step-1 normals as one (trials, d) block, then one step-2
    normal per trial) is part of the reproducibility contract.
    """
    theta_true = as_params(theta_true, fn.dim)
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = _generator(rng)
    step1_free = plan.kind == "qubit-time" and plan.t1 == 0.0
    if step1_free:
        theta1 = np.broadcast_to(_prior_point(fn.dim), (trials, fn.dim)).copy()
    else:
        var = _step1_variances(fn, theta_true, plan)
        theta1 = sample_param_estimates(theta_true, var, gen, size=trials)
    w = fn.gradients(theta1)
    f1 = fn.values(theta1)
    q = np.einsum("nd,nd->n", w, theta_true[None, :] - theta1)
    abs_w = np.abs(w)
    wmax = fold_columns(np.maximum, abs_w)
    if plan.kind == "qubit-time":
        noise_sd = wmax / plan.t2
    else:
        # from eight terms on np.sum adds in interleaved partial sums, whose
        # bits a column fold would not reproduce
        noise_sd = np.sum(abs_w, axis=1) / plan.n2
    live = wmax > TINY_GRADIENT_RTOL * np.maximum(1.0, np.abs(f1))
    q = np.where(live, q, 0.0)
    noise_sd = np.where(live, noise_sd, 0.0)
    return f1 + q + noise_sd * gen.standard_normal(trials)


# -- separable baseline --------------------------------------------------------


def _pilot_stage(dim: int, n_total: int,
                 pilot_fraction: float) -> tuple[np.ndarray, int]:
    """Pilot-estimate variances, from photons spread evenly over the modes,
    and the photons left for the final stage."""
    if not 0.0 < pilot_fraction < 1.0:
        raise ValueError("pilot_fraction must lie in (0, 1)")
    n_pilot = max(dim, int(round(pilot_fraction * n_total)))
    if n_pilot >= n_total:
        raise ValueError("pilot stage consumes the whole budget")
    counts = allocation.largest_remainder(np.ones(dim), n_pilot)
    return 1.0 / counts.astype(float) ** 2, n_total - n_pilot


_ZERO_GRADIENT = ("zero gradient: the separable baseline has no allocation "
                  "target here")


def _unentangled_variances(fn: AnalyticFunction, theta_true: np.ndarray,
                           budget: ResourceBudget, gen,
                           pilot_fraction: float | None) -> np.ndarray:
    if budget.kind == "qubit-time":
        if pilot_fraction is not None:
            raise ValueError("pilot stages only apply to photon budgets: "
                             "with time budgets every sensor runs the full span")
        return np.full(fn.dim, 1.0 / budget.amount**2)
    n_total = int(budget.amount)
    if pilot_fraction is None:
        g = fn.gradient(theta_true)
    else:
        pilot_var, n_total = _pilot_stage(fn.dim, n_total, pilot_fraction)
        theta_pilot = sample_param_estimates(theta_true, pilot_var, gen)
        g = fn.gradient(theta_pilot)
    if np.all(g == 0.0):
        raise ValueError(_ZERO_GRADIENT)
    counts = allocation.largest_remainder(np.abs(g) ** (2.0 / 3.0), n_total)
    # parameters the gradient ignores get no photons and stay at the prior
    return count_variances(counts)


def run_unentangled(fn: AnalyticFunction, theta_true, budget: ResourceBudget,
                    rng, pilot_fraction: float | None = None) -> TrialResult:
    """One run of the separable baseline: per-parameter estimation, then
    plug-in.

    Time budgets give every sensor the full span (variance 1/t^2 each).
    Photon budgets split N across modes proportionally to |f_i|^{2/3}; by
    default the split uses the gradient at the true point (the benchmarking
    convention), while ``pilot_fraction`` instead spends that share of the
    budget on a uniform pre-estimate and allocates the remainder from it.
    """
    theta_true = as_params(theta_true, fn.dim)
    gen = _generator(rng)
    var = _unentangled_variances(fn, theta_true, budget, gen, pilot_fraction)
    sampled = sample_param_estimates(theta_true, var, gen)
    theta_hat = np.where(var > 0, sampled, _prior_point(fn.dim))
    return TrialResult(
        estimate=fn.value(theta_hat),
        truth=fn.value(theta_true),
        theta_estimate=tuple(float(x) for x in theta_hat),
    )


def run_unentangled_batch(fn: AnalyticFunction, theta_true,
                          budget: ResourceBudget, rng, trials: int,
                          pilot_fraction: float | None = None) -> np.ndarray:
    """Estimates from ``trials`` independent baseline runs, vectorized.

    Without a pilot stage every trial shares one allocation and draws one
    (trials, d) block of normals. With a pilot stage each trial re-allocates
    from its own pilot estimate; the normals are drawn as one (trials, 2, d)
    block, pilot in slot 0 and final estimate in slot 1, which is exactly
    the sequence a loop of ``run_unentangled`` draws from the same
    generator. Both draw orders are part of the reproducibility contract.
    A non-finite pilot gradient or estimate raises ``EvaluationError``.
    """
    theta_true = as_params(theta_true, fn.dim)
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = _generator(rng)
    if pilot_fraction is None or budget.kind == "qubit-time":
        # one shared allocation; a pilot under a time budget is rejected here
        var = _unentangled_variances(fn, theta_true, budget, gen,
                                     pilot_fraction)
        sampled = sample_param_estimates(theta_true, var, gen, size=trials)
    else:
        pilot_var, n_final = _pilot_stage(fn.dim, int(budget.amount),
                                          pilot_fraction)
        normals = gen.standard_normal((trials, 2, fn.dim))
        g = fn.gradients(theta_true + np.sqrt(pilot_var) * normals[:, 0])
        if not np.all(np.isfinite(g)):
            raise EvaluationError(f"non-finite pilot gradient of {fn.label}")
        if np.any(np.all(g == 0.0, axis=1)):
            raise ValueError(_ZERO_GRADIENT)
        counts = allocation.largest_remainder(np.abs(g) ** (2.0 / 3.0),
                                              n_final)
        var = count_variances(counts)
        sampled = theta_true + np.sqrt(var) * normals[:, 1]
    out = fn.values(np.where(var > 0, sampled, _prior_point(fn.dim)))
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value of {fn.label}")
    return out
