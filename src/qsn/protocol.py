"""Distribution-level simulators for the estimation protocols.

Two batch runners are provided, each vectorized over trials; a single run
is a batch of one. ``run_two_step_batch`` plays the entangled protocol:
spend the step-1 budget localizing theta, point the linear-combination
measurement along the gradient there, and correct the first-stage value with
the measured combination; its step-1 variances are the plan's own
(``AllocationPlan.step1_variances``). ``run_unentangled_batch`` plays the
separable baseline: estimate every parameter on its own and plug into the
function. ``build_plan`` resolves an allocation policy for a
``ResourceBudget``, which lives in ``qsn.measurement`` and is importable
from here as well.

Both draw estimator outcomes directly from the known sampling distributions
rather than simulating shot records: Gaussian step-1 marginals, and a
Gaussian step-2 combination at the entangled floor that
``bounds.qubit_bounds`` and ``bounds.photon_bounds`` report for the gradient
at the step-1 estimate. Acceptance criterion 4 checks that floor on a
state-vector simulation of the GHZ schedule (``oracles.ghz_phase_gradient``),
so the physics is checked once, there, and the Monte Carlo stays cheap
enough for 1e6-trial batteries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import allocation, bounds
from .functions import (AnalyticFunction, EvaluationError, Workspace,
                        as_params, fold_columns, rowwise)
from .measurement import (ResourceBudget, _apportion, _generator,
                          _inverse_squares, count_variances,
                          largest_remainder, sample_param_estimates)

# Step-2 weights below this size (relative to the function scale) are treated
# as an exact critical point: the combination carries no signal, so the
# correction is skipped instead of normalizing a zero-length weight vector.
TINY_GRADIENT_RTOL = 1e-12


def parse_policy(policy: str, kind: str) -> tuple[str, tuple]:
    """Split an allocation policy into its name and arguments for a budget
    kind, or raise ValueError.

    Policies: ``optimal`` (closed form), ``numeric`` (golden section, time
    budgets only), ``power:c,p`` (t1 = c * t^p, time budgets only),
    ``fixed:x`` (explicit step-1 share: a time, or a whole photon count).
    """
    time = kind == "qubit-time"
    name, _, arg = policy.partition(":")
    try:
        if policy == "optimal" or (time and policy == "numeric"):
            return policy, ()
        if time and name == "power":
            coeff, power = arg.split(",")
            return name, (float(coeff), float(power))
        if name == "fixed":
            return name, (float(arg) if time else int(arg),)
    except ValueError:
        pass
    raise ValueError(f"invalid {'time' if time else 'photon'} policy {policy!r}")


def build_plan(model: bounds.PointModel, budget: ResourceBudget,
               policy: str = "optimal") -> allocation.AllocationPlan:
    """Resolve a policy string (see ``parse_policy``) into a concrete split
    at the point ``model`` describes."""
    name, args = parse_policy(policy, budget.kind)
    if budget.kind == "qubit-time":
        if name == "optimal":
            return allocation.optimal_time_split(model, budget.amount)
        if name == "numeric":
            return allocation.numeric_time_split(model, budget.amount)
        if name == "power":
            return allocation.power_law_time_split(budget.amount, *args)
        return allocation.fixed_time_split(budget.amount, *args)
    if name == "optimal":
        return allocation.optimal_photon_split(model, int(budget.amount))
    return allocation.fixed_photon_split(model, int(budget.amount), *args)


def prior_point(dim: int) -> np.ndarray:
    """The zero prior: where step-1-free runs evaluate the gradient, and
    where the separable baseline leaves unmeasured parameters. Callers
    wanting another prior should fold it into the parameterization."""
    return np.zeros(dim)


def run_two_step_batch(fn: AnalyticFunction, theta_true,
                       plan: allocation.AllocationPlan, rng,
                       trials: int) -> np.ndarray:
    """Estimates from ``trials`` independent two-step runs, vectorized.

    Draw order (step-1 normals as one (trials, d) block, then one step-2
    normal per trial) is part of the reproducibility contract. A trial whose
    step-1 gradient is below ``TINY_GRADIENT_RTOL`` of the function scale
    skips its correction and its step-2 noise, and returns the step-1 value.
    """
    theta_true = as_params(theta_true, fn.dim)
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = _generator(rng)
    if plan.step1_free:
        theta1 = np.broadcast_to(prior_point(fn.dim), (trials, fn.dim)).copy()
    else:
        var = plan.step1_variances(fn.dim)
        theta1 = sample_param_estimates(theta_true, var, gen, size=trials)
    w = fn.gradients(theta1)
    f1 = fn.values(theta1)
    # theta1 is read for the last time here, so theta_true - theta1 and then
    # |w| go into its buffer, unless a rule handed back (a view of) its input
    if np.may_share_memory(theta1, w) or np.may_share_memory(theta1, f1):
        buf = np.empty_like(theta1)
    else:
        buf = theta1
    diff = rowwise(np.subtract, theta_true, theta1, out=buf)
    q = np.einsum("nd,nd->n", w, diff)
    abs_w = np.abs(w, out=buf)
    wmax = fold_columns(np.maximum, abs_w)
    if plan.budget.kind == "qubit-time":
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
    counts = largest_remainder(np.ones(dim), n_pilot)
    return count_variances(counts), n_total - n_pilot


_ZERO_GRADIENT = ("zero gradient: the separable baseline has no allocation "
                  "target here")


def _photon_variances(g: np.ndarray, photons: int,
                      space: Workspace) -> np.ndarray:
    """Variances 1/n_i^2 of the separable split n_i ~ |g_i|^{2/3}, one row
    per row of the (n, d) gradient stack ``g``, in ``space`` (laid out as
    ``measurement._apportion`` lays out its counts). Parameters a gradient
    ignores get no photons and stay at the prior."""
    weights = np.abs(g, out=space.take("weights", g.shape))
    np.power(weights, 2.0 / 3.0, out=weights)
    if np.any(fold_columns(np.maximum, weights) == 0.0):
        raise ValueError(_ZERO_GRADIENT)
    counts = _apportion(weights, photons, space)
    return _inverse_squares(counts, counts)


@dataclass(frozen=True, eq=False)
class SeparableSplit:
    """The separable baseline's allocation, fixed for a whole run
    (identity equality, since ``variances`` is an array).

    ``variances`` are those of the estimates every trial draws: the final
    estimates', or the pilot's when ``final_photons`` is set. In that case
    each trial splits ``final_photons`` from its own pilot estimate.
    """

    variances: np.ndarray
    final_photons: int | None = None


def separable_split(fn: AnalyticFunction, theta_true, budget: ResourceBudget,
                    pilot_fraction: float | None = None) -> SeparableSplit:
    """The separable baseline's allocation at ``theta_true``.

    Time budgets give every sensor the full span (variance 1/t^2 each).
    Photon budgets split N across modes proportionally to |f_i|^{2/3}; by
    default the split uses the gradient at the true point (the benchmarking
    convention), while ``pilot_fraction`` instead spends that share of the
    budget on a uniform pre-estimate and allocates the remainder from it.
    """
    if pilot_fraction is None:
        if budget.kind == "qubit-time":
            return SeparableSplit(np.full(fn.dim, 1.0 / budget.amount**2))
        g = fn.gradient(theta_true)[None]
        return SeparableSplit(_photon_variances(g, int(budget.amount),
                                                Workspace())[0])
    if budget.kind == "qubit-time":
        raise ValueError("pilot stages only apply to photon budgets: "
                         "with time budgets every sensor runs the full span")
    return SeparableSplit(*_pilot_stage(fn.dim, int(budget.amount),
                                        pilot_fraction))


# The pilot stage's per-thread buffers: its chunks reuse their memory
# instead of page-faulting fresh temporaries in on every call, on chunk
# workers too, which persist between calls.
_PILOT_SPACE = Workspace()


def _pilot_estimates(fn: AnalyticFunction, theta_true: np.ndarray,
                     split: SeparableSplit, gen: np.random.Generator,
                     trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The final variances and estimates of ``trials`` pilot-stage runs,
    two (trials, d) blocks in this thread's pilot workspace.

    Each trial splits the final photons from its own pilot gradient. The
    normals' slots are strided columns of the draw block, and on many
    trials of a few parameters the variances are parameter-major, so each
    parameter is scaled in one call per stage; theta is added by
    ``rowwise``. That layout pays up to about 32 parameters; from 64 to 200
    the strided loops run about as fast as a whole-block broadcast
    (``BENCH_apportion.json``).
    """
    d, space = fn.dim, _PILOT_SPACE
    normals = gen.standard_normal(out=space.take("normals", (trials, 2, d)))
    points = space.take("points", (trials, d))
    sd = np.sqrt(split.variances)
    for i in range(d):
        np.multiply(sd[i], normals[:, 0, i], out=points[:, i])
    rowwise(np.add, theta_true, points, out=points)
    g = fn.gradients(points)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite pilot gradient of {fn.label}")
    var = _photon_variances(g, split.final_photons, space)
    sd = space.take("sd", (trials,))
    sampled = space.take("sampled", (trials, d))
    for i in range(d):
        np.multiply(np.sqrt(var[:, i], out=sd), normals[:, 1, i],
                    out=sampled[:, i])
    rowwise(np.add, theta_true, sampled, out=sampled)
    return var, sampled


def run_unentangled_batch(fn: AnalyticFunction, theta_true,
                          split: SeparableSplit, rng, trials: int) -> np.ndarray:
    """Estimates from ``trials`` independent runs of the separable baseline
    under ``split`` (see ``separable_split``): per-parameter estimation,
    then plug-in.

    Without a pilot stage every trial shares one allocation and draws one
    (trials, d) block of normals. With a pilot stage each trial re-allocates
    from its own pilot estimate; the normals are drawn as one (trials, 2, d)
    block, pilot in slot 0 and final estimate in slot 1, so a call with n
    trials draws exactly what n single-trial calls draw from the same
    generator. Both draw orders are part of the reproducibility contract.
    A non-finite pilot gradient or estimate raises ``EvaluationError``.

    The pilot stage computes in a per-thread workspace: each thread reuses
    one set of buffers from call to call instead of page-faulting fresh
    chunk-sized temporaries in, and the chunk workers of ``estimate_mse``
    persist between calls, so theirs do too. The returned estimates belong
    to the caller: they never share memory with the workspace, even when the
    value rule hands back (a view of) its input, so later calls leave them
    be.
    """
    theta_true = as_params(theta_true, fn.dim)
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = _generator(rng)
    if split.final_photons is None:
        var = split.variances
        sampled = sample_param_estimates(theta_true, var, gen, size=trials)
    else:
        var, sampled = _pilot_estimates(fn, theta_true, split, gen, trials)
    # a zero variance pins its parameter to the prior; sampled is this
    # call's own buffer, so the pin goes in place, and only when needed
    unmeasured = var == 0
    if np.any(unmeasured):
        np.copyto(sampled, prior_point(fn.dim), where=unmeasured)
    out = fn.values(sampled)
    if np.may_share_memory(out, sampled):
        # a rule that hands back (a view of) its input: the caller gets a
        # copy, never the workspace
        out = out.copy()
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value of {fn.label}")
    return out
