"""Reference MSE values computed apart from qsn.

Every function here uses numpy and the standard library only; nothing is
imported from qsn. Where a reference needs random samples it draws them from
:func:`reference_generator`, a Philox generator keyed by the benchmark seed.
qsn's ``RngStream`` uses SeedSequence-spawned PCG64 streams whose substreams
overlap across entry points, so drawing references from it could correlate a
reference with the output it checks.

Sampled references return ``(mean, standard_error)``. Closed forms and
quadrature return a standard error of 0. Sampling works in blocks of
``BLOCK`` rows so that the benchmark's peak memory stays the program's.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 8192

# Mixed into every reference seed so that reference draws never share a
# SeedSequence entropy with the program's streams.
REFERENCE_KEY = 0x51E7C4EC


def reference_generator(seed: int, tag: int) -> np.random.Generator:
    """Philox generator for reference sample ``tag`` at benchmark ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([REFERENCE_KEY, seed, tag])))


def _blocked_mean(sample_block, n: int) -> tuple[float, float]:
    """Mean and standard error of ``n`` values drawn ``BLOCK`` at a time."""
    total = total_sq = 0.0
    done = 0
    while done < n:
        m = min(BLOCK, n - done)
        vals = sample_block(m)
        total += math.fsum(vals)
        total_sq += math.fsum(vals * vals)
        done += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


# -- product of d parameters at theta = (1, ..., 1), qubit time -----------------


def unentangled_product_unit(d: int, t: float) -> float:
    """Exact separable MSE of prod(theta) at theta = 1: (1 + 1/t^2)^d - 1."""
    return math.expm1(d * math.log1p(1.0 / t**2))


def step1_residual_product_unit(d: int, s: float) -> float:
    """E[r^2] for r = f(theta~) + grad f(theta~).(theta - theta~) - f(theta).

    With theta~ = 1 + e, the residual is -sum_{k>=2} (k-1) sigma_k(e), and
    elementary symmetric polynomials of iid zero-mean errors are orthogonal
    with E[sigma_k^2] = C(d, k) s^(2k).
    """
    return math.fsum((k - 1) ** 2 * math.comb(d, k) * s ** (2 * k)
                     for k in range(2, d + 1))


def max_grad_sq_pair(s: float) -> float:
    """E[max(1 + s Z1, 1 + s Z2)^2] = 1 + s^2 + 2 s / sqrt(pi) (Clark 1961)."""
    return 1.0 + s * s + 2.0 * s / math.sqrt(math.pi)


def max_grad_sq_product_unit(d: int, s: float, gen, n: int):
    """Sampled E[max_i prod_{j != i} theta~_j^2] at theta~ = 1 + s Z.

    Every leave-one-out product is P / theta~_i with P the full product, so
    the largest one divides P by the smallest theta~_i.
    """
    def block(m):
        pts = 1.0 + s * gen.standard_normal((m, d))
        return (np.prod(pts, axis=1) / np.min(pts, axis=1)) ** 2

    return _blocked_mean(block, n)


def twostep_product_unit(d: int, t1: float, t2: float, gen, n: int):
    """Two-step MSE of prod(theta) at theta = 1 for the split (t1, t2).

    The step-1 residual is exact; the step-2 term E[max_i f_i(theta~)^2]/t2^2
    is Clark's closed form at d = 2 and sampled otherwise. The two terms add
    because the step-2 noise is independent and zero-mean.
    """
    s = 1.0 / t1
    residual = step1_residual_product_unit(d, s)
    if d == 2:
        return residual + max_grad_sq_pair(s) / t2**2, 0.0
    mean, se = max_grad_sq_product_unit(d, s, gen, n)
    return residual + mean / t2**2, se / t2**2


# -- product at a general positive point, photon number -------------------------


def product_gradients(points: np.ndarray) -> np.ndarray:
    """Gradient rows of prod(theta) as P / theta_i (points must be nonzero)."""
    return np.prod(points, axis=1, keepdims=True) / points


def photon_twostep_product(theta, mode_counts, n2: int, gen, n: int):
    """Two-step photon MSE of prod(theta) with step-1 variances 1/n_i^2.

    Averages r^2 + (|grad f(theta~)|_1 / n2)^2: the step-2 estimate is
    Gaussian with that variance around the linearized value, so its noise
    integrates out analytically.
    """
    theta = np.asarray(theta, dtype=float)
    sd = 1.0 / np.asarray(mode_counts, dtype=float)
    truth = float(np.prod(theta))

    def block(m):
        delta = sd * gen.standard_normal((m, theta.size))
        pts = theta + delta
        grads = product_gradients(pts)
        r = np.prod(pts, axis=1) - np.einsum("nd,nd->n", grads, delta) - truth
        return r * r + (np.sum(np.abs(grads), axis=1) / n2) ** 2

    return _blocked_mean(block, n)


def uniform_counts(total: int, d: int) -> np.ndarray:
    """Integer split of ``total`` over d equal weights, extras to low indices."""
    counts = np.full(d, total // d)
    counts[: total % d] += 1
    return counts


def photon_pilot_product(theta, photons: int, pilot_fraction: float, gen,
                         n: int):
    """Separable photon MSE of prod(theta) behind a uniform pilot stage.

    Each sample draws the pilot estimate, splits the remaining photons in
    proportion to |grad f(theta_pilot)|^(2/3) (continuously, not by integer
    apportionment) and takes the exact product MSE for the resulting
    variances v_i: prod(theta_i^2 + v_i) - prod(theta_i^2).
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    n_pilot = max(d, int(round(pilot_fraction * photons)))
    pilot_sd = 1.0 / uniform_counts(n_pilot, d)
    theta_sq = theta * theta
    truth_sq = float(np.prod(theta_sq))

    def block(m):
        pilot = theta + pilot_sd * gen.standard_normal((m, d))
        share = np.abs(product_gradients(pilot)) ** (2.0 / 3.0)
        counts = (photons - n_pilot) * share / share.sum(axis=1, keepdims=True)
        v = 1.0 / counts**2
        return truth_sq * np.expm1(np.sum(np.log1p(v / theta_sq), axis=1))

    return _blocked_mean(block, n)


# -- Gaussian beam read at an unsensed point ------------------------------------


def beam_field(params, x) -> float:
    """a exp(-2 (x - x0)^2 / w^2)."""
    a, x0, w = params
    return a * math.exp(-2.0 * (x - x0) ** 2 / w**2)


def lagrange_weights(locations, target: float) -> np.ndarray:
    """Weights L_i with p(target) = sum_i L_i p(x_i) for quadratics p."""
    x = np.asarray(locations, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        others = np.delete(x, i)
        out[i] = np.prod((target - others) / (x[i] - others))
    return out


def beam_monomial(readings: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The field at the target as prod_i reading_i^L_i.

    The log of a Gaussian beam is quadratic in x, so three readings fix it
    and the log-field at the target is their Lagrange combination.
    """
    return np.exp(np.log(readings) @ weights)


def _beam_residual_and_grads(theta, weights, delta):
    """Step-1 residual and gradient rows of the monomial at theta + delta,
    written so that the O(1) parts cancel analytically, not in rounding."""
    pts = theta + delta
    g_true = float(beam_monomial(theta, weights))
    g_est = g_true * np.exp(np.log1p(delta / theta) @ weights)
    grads = g_est[:, None] * weights / pts
    rise = g_true * np.expm1(np.log1p(delta / theta) @ weights)
    r = rise - np.einsum("nd,nd->n", grads, delta)
    return r, grads


def beam_unentangled(theta, weights, sigma: float, nodes: int) -> float:
    """Separable MSE E[(G(theta + sigma Z) - G(theta))^2] by tensor
    Gauss-Hermite quadrature with ``nodes`` points per axis."""
    theta = np.asarray(theta, dtype=float)
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([z] * theta.size), indexing="ij")
    delta = sigma * np.stack([g.ravel() for g in grids], axis=1)
    weight = np.ones(delta.shape[0])
    for g in np.meshgrid(*([w] * theta.size), indexing="ij"):
        weight *= g.ravel()
    g_true = float(beam_monomial(theta, weights))
    rise = g_true * np.expm1(np.log1p(delta / theta) @ weights)
    return math.fsum(weight * rise * rise)


def beam_twostep(theta, weights, t1: float, t2: float, gen, n: int):
    """Two-step qubit-time MSE of the beam monomial: averages
    r^2 + max_i G_i(theta~)^2 / t2^2 over step-1 draws of sd 1/t1."""
    theta = np.asarray(theta, dtype=float)

    def block(m):
        delta = gen.standard_normal((m, theta.size)) / t1
        r, grads = _beam_residual_and_grads(theta, weights, delta)
        return r * r + np.max(grads * grads, axis=1) / t2**2

    return _blocked_mean(block, n)
