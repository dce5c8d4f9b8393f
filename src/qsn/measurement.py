"""Measurement primitives: seeded random streams, per-parameter estimates,
the GHZ schedules that realize a linear combination, and photon-mode
bookkeeping.

The protocol simulators draw Gaussian step-1 estimates
(:func:`sample_param_estimates`) and a Gaussian step-2 combination at the
entangled floor that ``bounds.qubit_bounds`` and ``bounds.photon_bounds``
report. The GHZ schedule (:class:`GHZSpec`) is the oracle for that floor:
the Fisher information of its parity signal (:func:`parity_fisher_information`,
with the phase from :func:`relative_phase`) is the inverse of the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Workspace, as_params, fold_columns, rowwise

# Modeling assumptions behind the distribution-level samplers; exported into
# result metadata so downstream records are self-describing.
MODELING_ASSUMPTIONS = (
    "gaussian-step1-estimates",
    "distribution-level-lincomb-noise",
    "phase-unwrapped",
)

_UINT64_MAX = 2**64 - 1

# Relative central-difference step of ``parity_fisher_information``.
FISHER_STEP = 1e-6


@dataclass(frozen=True)
class RngStream:
    """Seeded random stream: (seed, index) fully determines the draws.

    The generator is numpy's default PCG64, seeded by a ``SeedSequence``
    with entropy ``seed`` and spawn key ``(index,)``.

    Streams with the same seed and different indices are statistically
    independent, and a stream reproduces the same sequence every time
    ``generator`` is called, regardless of what other streams did in between.
    That makes trial-level parallelism safe: worker k derives its stream from
    its index, not from execution order.
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) <= _UINT64_MAX:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.index) < 0:
            raise ValueError("stream index must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.index),))
        )

    def substream(self, k: int) -> "RngStream":
        """Stream (seed, index * 2^20 + k), for nested fan-out."""
        if not 0 <= k < 2**20:
            raise ValueError("substream key out of range")
        return RngStream(self.seed, (self.index << 20) + k)


def _generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def sample_param_estimates(theta, variances, rng, size: int) -> np.ndarray:
    """Draw ``size`` first-step estimates, theta_i + Normal(0, variances_i),
    as a (size, d) block. A zero variance pins the component exactly;
    negative variances are an error.
    """
    theta = as_params(theta)
    var = np.asarray(variances, dtype=float)
    if var.shape != theta.shape:
        raise ValueError("variances must match theta in length")
    if np.any(var < 0) or not np.all(np.isfinite(var)):
        raise ValueError("variances must be finite and nonnegative")
    gen = _generator(rng)
    # one (rows, d) block, scaled and shifted in place: a fresh temporary
    # costs page faults at Monte Carlo chunk sizes, and ``rowwise`` spares
    # a broadcast's loop call per row; the bits are those of
    # theta + sqrt(var) * normals either way
    draws = gen.standard_normal((size, theta.shape[0]))
    rowwise(np.multiply, draws, np.sqrt(var), out=draws)
    rowwise(np.add, draws, theta, out=draws)
    return draws


# -- GHZ linear-combination measurement ---------------------------------------


@dataclass(frozen=True)
class GHZSpec:
    """Entangled-state schedule realizing a weighted parameter sum with
    ``amount`` of a resource, computed from the weights.

    For time resources, sensor i participates for tau_i = t |w_i| / max|w|
    (the largest-weight sensor runs the full time t) and negative weights
    enter through a basis flip, so the accumulated relative phase is

        phi = (t / max|w|) * (w . theta).

    For photon resources the weights become mode counts n_i = N w_i / sum w_j
    rounded by largest remainder, and the phase scale is sum n_i per unit
    theta in the weighted direction.
    """

    weights: tuple
    kind: str
    amount: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite nonempty vector")
        if np.all(w == 0.0):
            raise ValueError("weights must not all vanish")
        if self.kind not in ("qubit-time", "photon-number"):
            raise ValueError("kind must be 'qubit-time' or 'photon-number'")
        if not 0 < self.amount < np.inf:
            raise ValueError("amount must be positive and finite")
        if self.kind == "photon-number" and int(self.amount) != self.amount:
            raise ValueError("photon number must be a whole number")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def _abs_weights(self, kind: str) -> np.ndarray:
        if self.kind != kind:
            raise ValueError(f"defined for {kind} specs only")
        return np.abs(np.asarray(self.weights, dtype=float))

    @property
    def durations(self) -> tuple:
        """Per-sensor interaction times t |w_i| / max|w|."""
        w = self._abs_weights("qubit-time")
        return tuple(float(x) for x in self.amount * w / w.max())

    @property
    def time(self) -> float:
        return float(np.max(self.durations))

    @property
    def mode_counts(self) -> tuple:
        """Per-mode photon counts, ``amount`` apportioned to |w|."""
        w = self._abs_weights("photon-number")
        return tuple(int(x) for x in photon_mode_counts(w, self.amount))

    @classmethod
    def for_time(cls, weights, time: float) -> "GHZSpec":
        return cls(weights, "qubit-time", time)

    @classmethod
    def for_photons(cls, weights, photons: int) -> "GHZSpec":
        return cls(weights, "photon-number", photons)


def relative_phase(spec: GHZSpec, theta) -> float:
    """Accumulated relative phase of the two GHZ branches at theta."""
    theta = as_params(theta, len(spec.weights))
    w = np.asarray(spec.weights)
    if spec.kind == "qubit-time":
        return float(np.sum(np.sign(w) * np.asarray(spec.durations) * theta))
    return float(np.sum(np.sign(w) * np.asarray(spec.mode_counts) * theta))


def phase_scale(spec: GHZSpec) -> float:
    """d phi / d q for q = weights . theta: t/max|w| (time) or N/sum|w|-like
    count scale (photons)."""
    w = np.abs(np.asarray(spec.weights))
    if spec.kind == "qubit-time":
        return float(spec.time / w.max())
    # phase = sum sign(w_i) n_i theta_i; for n_i proportional to |w_i| this
    # is (sum n_i / sum |w_i|) * q up to rounding
    return float(np.sum(spec.mode_counts) / np.sum(w))


def parity_fisher_information(spec: GHZSpec, theta) -> float:
    """Per-shot classical Fisher information about q = weights . theta,
    estimated by central-differencing the log-likelihood in q.

    Equals (d phi/d q)^2 identically away from phi in pi*Z, where the
    likelihood degenerates to {0, 1} and the finite difference blows up.
    """
    theta = as_params(theta, len(spec.weights))
    q = float(np.asarray(spec.weights) @ theta)
    c = phase_scale(spec)
    h = FISHER_STEP * max(1.0, abs(q))

    def logp(outcome: int, qq: float) -> float:
        p = 0.5 * (1.0 + outcome * np.cos(c * qq))
        if p <= 0.0:
            raise ValueError("likelihood degenerate at this phase; move q")
        return float(np.log(p))

    info = 0.0
    for outcome in (1, -1):
        p = 0.5 * (1.0 + outcome * np.cos(c * q))
        d = (logp(outcome, q + h) - logp(outcome, q - h)) / (2.0 * h)
        info += p * d * d
    return float(info)


# -- integer apportionment -----------------------------------------------------


# Units are counted in floats, exactly while every count and every partial
# sum of them is a whole number below 2**53. Rounded quotas may floor to a
# few units more than the total, so totals stop a factor two short of it.
_MAX_TOTAL = 2**52

# The pairwise rank makes d - 1 passes over the whole block; two per-row
# argsorts pay a loop call per row instead. The passes win on many short
# rows, about 8x at 4,096 rows of 4; the argsorts win on a few rows, and
# from about 32 columns on (rank timings in BENCH_apportion.json).
_PAIRWISE_MAX_COLUMNS = 24
_PAIRWISE_MIN_ROWS = 1024


def largest_remainder(weights, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to nonnegative weights.

    ``weights`` is one vector of shape (d,) or a stack of shape (n, d) whose
    rows are apportioned independently, each to the same ``total``; a
    vector is a stack of one. Floors the exact quotas, then hands leftover
    units to the largest fractional remainders, ties to the lowest index.
    Zero weights get zero. Deterministic, and the counts of every row sum to
    ``total``, which may be at most 2**52. The result is a fresh C-ordered
    int array of the weights' shape; the weights are only read, never
    written.

    Many short rows are worked on parameter-major (see ``_apportion``), so
    each step is one elementwise call per parameter instead of one loop
    call per row.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] == 0:
        raise ValueError("weights must be a nonempty vector or a stack of them")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    if total < 0 or int(total) != total:
        raise ValueError("total must be a nonnegative integer")
    total = int(total)
    if total > _MAX_TOTAL:
        raise ValueError(f"total must be at most 2**52, got {total}")
    if total == 0:
        return np.zeros(w.shape, dtype=int)
    counts = _apportion(np.atleast_2d(w), total, Workspace())
    return counts.astype(int, order="C").reshape(w.shape)


def _apportion(w: np.ndarray, total: int, space: Workspace) -> np.ndarray:
    """Largest-remainder counts of every row of the (n, d) stack ``w``, as an
    (n, d) float array of whole numbers in ``space``; ``total`` is at most
    ``_MAX_TOTAL``.

    ``w`` is only read: it is copied into the workspace first. Many short
    rows are copied parameter-major, into the transpose of a C-ordered
    (d, n) buffer, so each elementwise step below runs as one call per
    parameter instead of one per row; other stacks stay row-major. Row sums
    fold the d columns below eight of them; from eight on they come from
    ``np.sum`` over ``w``'s rows, whose interleaved partial sums a fold
    would not reproduce. The leftover units of a row go to the entries
    whose place in a stable sort of its remainders, largest first, comes
    before the leftover count. Parameter-major, that place is the number of
    entries ranked ahead of an entry: those with a larger remainder, and
    those with an equal one at a lower index; comparing the remainder block
    with itself shifted by 1 .. d - 1 parameters visits every pair once.
    Row-major, two stable argsorts along each row give it.
    """
    n, d = w.shape
    pairwise = d <= _PAIRWISE_MAX_COLUMNS and n >= _PAIRWISE_MIN_ROWS

    def take(name, dtype=float):
        if pairwise:
            return space.take(name, (d, n), dtype).T
        return space.take(name, (n, d), dtype)

    quota = take("quota")
    np.copyto(quota, w)
    sums = fold_columns(np.add, quota) if d < 8 else np.sum(w, axis=-1)
    if np.any(sums == 0.0):
        raise ValueError("cannot apportion positive total to zero weights")
    np.divide(quota, sums[:, None], out=quota)
    np.multiply(quota, total, out=quota)
    counts = np.floor(quota, out=take("counts"))
    # floor - quota, so that larger remainders sort first
    rem = np.subtract(counts, quota, out=quota)
    # units left per row; whole numbers below 2**53, so exact in any order
    leftover = np.subtract(total, np.sum(counts, axis=-1, out=sums), out=sums)
    ahead = take("ahead", bool)
    if pairwise:
        # entry k starts ahead of every later entry and loses those that
        # beat it; a later entry j gains each earlier k with rem_k <= rem_j
        rem, le = rem.T, ahead.T
        rank = space.take("rank", (d, n))
        np.copyto(rank, np.arange(d - 1, -1, -1)[:, None])
        for shift in range(1, d):
            np.less_equal(rem[:-shift], rem[shift:], out=le[shift:])
            np.add(rank[shift:], le[shift:], out=rank[shift:])
            np.subtract(rank[:-shift], le[shift:], out=rank[:-shift])
        rank = rank.T
    else:
        rank = np.argsort(np.argsort(rem, axis=-1, kind="stable"), axis=-1)
    return np.add(counts, np.less(rank, leftover[:, None], out=ahead),
                  out=counts)


def photon_mode_counts(weights, photons: int) -> np.ndarray:
    """Integer photon counts per mode, proportional to |weights|."""
    if photons < 1:
        raise ValueError("photon number must be positive")
    return largest_remainder(np.abs(np.asarray(weights, dtype=float)), photons)


def count_variances(counts) -> np.ndarray:
    """Estimate variances 1/n_i^2 for modes given n_i photons; a mode given
    none has variance 0, i.e. its parameter stays at the prior."""
    counts = np.asarray(counts)
    return _inverse_squares(counts, np.empty(counts.shape))


def _inverse_squares(counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``count_variances(counts)`` written into the float array ``out``,
    which may be ``counts`` itself.

    n^2 is squared in floats rather than integers: both round the exact
    square once, so the bits agree."""
    unmeasured = np.less_equal(counts, 0)
    np.maximum(counts, 1, out=out)
    np.square(out, out=out)
    np.divide(1.0, out, out=out)
    np.copyto(out, 0.0, where=unmeasured)
    return out
