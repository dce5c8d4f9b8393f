"""Analytic functions of sensor parameters, with the derivatives the
two-step error expansion needs.

Every estimation target in this package is an :class:`AnalyticFunction`: a
scalar function of a parameter vector theta in R^d together with its exact
gradient and whatever higher closed-form derivative rules it has. Past the
Hessian the expansion reads only the diagonal third-derivative slice
f_{j,i,i}, so that slice is all the third-order information offered.
Built-in families (linear, product, quadratic) carry exact rules for all of
it; a custom target is an ``AnalyticFunction`` built directly from its rules.
A missing Hessian or third-slice rule falls back to central differences of
the exact gradient, the whole stencil in one batched ``gradients`` call.
Value-only finite-difference stencils, which check these rules, live in
``qsn.oracles``.

Conventions. Points are 1-D arrays of shape (d,), batches are (n, d) with the
parameter axis last; a point is evaluated as a batch of one.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Relative central-difference step of the Hessian and third-slice stencils
# on the exact gradient. Scaled by max(1, |theta_i|) componentwise, so small
# coordinates do not starve the stencil.
HESS_STEP = 1e-4


class EvaluationError(ValueError):
    """A function or derivative rule produced a non-finite value."""


class DegenerateGradientError(ValueError):
    """Raised where a zero gradient makes the requested quantity undefined."""


def as_params(theta, dim: int | None = None) -> np.ndarray:
    """Validate and return theta as a float array of shape (d,).

    Raises ValueError on wrong dimension and EvaluationError on non-finite
    entries (the message names the first offending index).
    """
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"parameter point must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected {dim} parameters, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise EvaluationError(f"non-finite parameter at index {bad}")
    return arr


@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar function of d parameters with its exact gradient and
    optional higher closed-form derivatives.

    ``value_rule`` maps an (n, d) block to (n,) values, ``grad_batch_rule``
    to (n, d) gradients, and a point is evaluated as a batch of one.
    ``grad_rule`` adapts a gradient rule written for one (d,) point; it is
    called row by row when no batch rule is set. One of the two gradient
    rules is required: construction without either raises ValueError.
    ``hess_rule`` and ``third_diag_rule(theta, j)`` take one (d,) point; the
    latter returns the slice f_{j,i,i} (i = 0..d-1), the only third
    derivatives the two-step expansion reads. A missing Hessian or slice
    rule is replaced by central differences of the exact gradient, one
    batched ``gradients`` call on the stencil. Where a row's bits depend on
    its batch (the induced function's Newton inversion), so do these.
    ``family`` names the builder of a built-in target and is ``"custom"``
    for one built directly from its rules.
    """

    dim: int
    label: str
    value_rule: Callable[[np.ndarray], np.ndarray]
    grad_rule: Callable[[np.ndarray], np.ndarray] | None = None
    hess_rule: Callable[[np.ndarray], np.ndarray] | None = None
    third_diag_rule: Callable[[np.ndarray, int], np.ndarray] | None = field(
        default=None, repr=False
    )
    grad_batch_rule: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )
    family: str = "custom"

    def __post_init__(self):
        if self.grad_batch_rule is None and self.grad_rule is None:
            raise ValueError(f"{self.label} needs an exact gradient rule")

    # -- point evaluation ---------------------------------------------------

    def value(self, theta) -> float:
        theta = as_params(theta, self.dim)
        out = float(self.values(theta[None])[0])
        if not np.isfinite(out):
            raise EvaluationError(f"non-finite value of {self.label} at {theta}")
        return out

    def gradient(self, theta) -> np.ndarray:
        theta = as_params(theta, self.dim)
        g = self.gradients(theta[None])[0]
        if not np.all(np.isfinite(g)):
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise EvaluationError(
                f"non-finite gradient component {bad} of {self.label}"
            )
        return g

    def hessian(self, theta) -> np.ndarray:
        theta = as_params(theta, self.dim)
        if self.hess_rule is not None:
            h = np.asarray(self.hess_rule(theta), dtype=float)
        else:
            steps = HESS_STEP * np.maximum(1.0, np.abs(theta))
            shifts = np.diag(steps)
            g = self.gradients(np.concatenate([theta + shifts, theta - shifts]))
            h = (g[: self.dim] - g[self.dim :]) / (2.0 * steps[:, None])
        if not np.all(np.isfinite(h)):
            raise EvaluationError(f"non-finite hessian of {self.label}")
        return 0.5 * (h + h.T)

    def third_diag_slice(self, theta, j: int) -> np.ndarray:
        """Vector of third derivatives f_{j,i,i} for i = 0..d-1.

        This is the only third-order information the two-step error expansion
        needs. The built-in families answer it from ``third_diag_rule`` in
        O(d) in any dimension. Without it, the exact gradient is second
        differenced, 2d + 1 points in one batched ``gradients`` call.
        """
        theta = as_params(theta, self.dim)
        if not 0 <= j < self.dim:
            raise ValueError(f"index {j} out of range for d={self.dim}")
        if self.third_diag_rule is not None:
            out = np.asarray(self.third_diag_rule(theta, j), dtype=float)
        else:
            steps = HESS_STEP * np.maximum(1.0, np.abs(theta))
            shifts = np.diag(steps)
            g = self.gradients(np.concatenate([theta[None], theta + shifts,
                                               theta - shifts]))[:, j]
            out = (g[1 : self.dim + 1] - 2.0 * g[0] + g[self.dim + 1 :]) / steps**2
        if not np.all(np.isfinite(out)):
            raise EvaluationError(
                f"non-finite third derivative slice {j} of {self.label}"
            )
        return out

    # -- batch evaluation ---------------------------------------------------

    def values(self, points: np.ndarray) -> np.ndarray:
        points = self._as_batch(points)
        out = np.asarray(self.value_rule(points), dtype=float)
        if out.shape != (points.shape[0],):
            raise ValueError(f"value rule of {self.label} returned shape "
                             f"{out.shape}, expected {(points.shape[0],)}")
        return out

    def gradients(self, points: np.ndarray) -> np.ndarray:
        points = self._as_batch(points)
        if self.grad_batch_rule is not None:
            out = np.asarray(self.grad_batch_rule(points), dtype=float)
        else:
            out = np.stack([np.asarray(self.grad_rule(p), float) for p in points])
        if out.shape != points.shape:
            raise ValueError(f"gradient rule of {self.label} returned shape "
                             f"{out.shape}, expected {points.shape}")
        return out

    def _as_batch(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"batch must have shape (n, {self.dim})")
        return points


# -- built-in families -------------------------------------------------------


def fold_columns(ufunc: np.ufunc, points) -> np.ndarray:
    """``ufunc`` folded left to right over the last axis of (d,) or (n, d).

    One elementwise call per column: a reduction along a short last axis
    pays a loop call per row instead, 10-40x slower at d = 2 and n = 8192.
    The fold is sequential, so for ``np.multiply`` and ``np.maximum`` it
    gives the bits of ``ufunc.reduce(points, axis=-1)``; ``np.add.reduce``
    switches to interleaved partial sums at eight terms and differs there.
    """
    points = np.asarray(points, dtype=float)
    out = points[..., 0].copy()
    for k in range(1, points.shape[-1]):
        ufunc(out, points[..., k], out=out)
    return out


# Elements per line in ``rowwise``: long enough that a loop call's overhead
# vanishes, short enough that the tiled vector stays in L1.
_LINE = 512


def rowwise(ufunc: np.ufunc, a, b, out: np.ndarray) -> np.ndarray:
    """``ufunc(a, b, out=out)`` where one operand is a (d,) vector and the
    other, like ``out``, a C-contiguous (n, d) block; returns ``out``.

    Broadcasting the vector over the rows pays one inner-loop call per row,
    and at small d that call overhead is most of the cost. Here the rows are
    taken k at a time as lines of about ``_LINE`` elements, each met by the
    vector tiled k times; the n mod k rows left over broadcast as usual. The
    op is elementwise, so the bits are those of the plain broadcast. ``out``
    may be the block operand itself.
    """
    n, d = out.shape
    if not out.flags.c_contiguous:
        raise ValueError("rowwise writes into a C-contiguous (n, d) block")
    vec_first = np.ndim(a) == 1
    vec, block = (a, b) if vec_first else (b, a)
    k = max(1, _LINE // d)
    m = n - n % k
    if m:
        line = np.tile(vec, k)
        rows = np.reshape(block[:m], (-1, k * d))
        pair = (line, rows) if vec_first else (rows, line)
        ufunc(*pair, out=out[:m].reshape(-1, k * d))
    if m < n:
        pair = (vec, block[m:]) if vec_first else (block[m:], vec)
        ufunc(*pair, out=out[m:])
    return out


class Workspace(threading.local):
    """One thread's reusable arrays, by name, plus a one-entry memo.

    ``take`` hands out a named buffer of the asked shape and dtype with
    stale contents; a buffer grows to the largest size asked of it and is
    never shrunk, so equal-sized chunks on one thread reuse the same memory
    instead of allocating (and page-faulting) it afresh. Each thread that
    touches an instance gets its own buffers, so concurrent chunks stay off
    each other's. Buffers live as long as their thread; the chunk workers
    of ``experiment.collect_error_moments`` persist per calling thread, so
    a worker's buffers carry over from one call to the next, and a forked
    child starts afresh. ``memo`` is a slot the owner may use to keep one
    result between calls. What a call takes from a workspace is overwritten
    by the next call on that thread, so it must not be handed back to a
    caller; and since no buffer's old contents are read, thread count
    changes no bit.
    """

    def __init__(self):
        self.buffers = {}
        self.memo = None

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _zero_diag_slice(dim: int):
    # every third derivative with a repeated index vanishes
    return lambda theta, j: np.zeros(dim)


def linear(weights, label: str | None = None) -> AnalyticFunction:
    """f(theta) = weights . theta (constant gradient, zero curvature)."""
    w = as_params(weights)
    d = w.shape[0]
    return AnalyticFunction(
        dim=d,
        family="linear",
        label=label or "linear:" + ",".join(repr(float(x)) for x in w),
        value_rule=lambda pts: pts @ w,
        hess_rule=lambda th: np.zeros((d, d)),
        grad_batch_rule=lambda pts: np.broadcast_to(w, pts.shape).copy(),
        third_diag_rule=_zero_diag_slice(d),
    )


def _product_gradients(points: np.ndarray) -> np.ndarray:
    # leave-one-out products as a prefix scan times a suffix scan, one column
    # at a time as in fold_columns; exact even at zeros
    n, d = points.shape
    grads = np.empty((n, d))
    grads[:, 0] = 1.0
    for k in range(1, d):
        np.multiply(grads[:, k - 1], points[:, k - 1], out=grads[:, k])
    suffix = np.ones(n)
    for k in range(d - 2, -1, -1):
        suffix *= points[:, k + 1]
        grads[:, k] *= suffix
    return grads


# Entries of theta that _leave_out_products gathers at once: its memory stays
# at a few MiB, where one gather of all d(d-1)/2 pair rows grows as d^3.
_LEAVE_OUT_BLOCK = 1 << 18


def _leave_out_products(theta: np.ndarray, left_out: np.ndarray) -> np.ndarray:
    """For each row of distinct indices, the product of theta over every
    other index, multiplied in ascending index order; rows are gathered a
    block at a time, and each row's product is its own reduction."""
    rows, k = left_out.shape
    d = theta.shape[0]
    out = np.empty(rows)
    step = max(1, _LEAVE_OUT_BLOCK // d)
    for lo in range(0, rows, step):
        block = left_out[lo:lo + step]
        keep = np.ones((len(block), d), bool)
        np.put_along_axis(keep, block, False, axis=1)
        kept = np.broadcast_to(theta, keep.shape)[keep]
        out[lo:lo + step] = np.prod(kept.reshape(len(block), d - k), axis=-1)
    return out


def product(dim: int, label: str | None = None) -> AnalyticFunction:
    """f(theta) = prod_i theta_i, the standard multiplicative benchmark.

    f is affine in each coordinate, so a derivative is the product of the
    coordinates it does not differentiate when its indices are distinct,
    and 0 otherwise; in particular every f_{j,i,i} vanishes.
    """
    if dim < 1:
        raise ValueError("product needs dim >= 1")

    def hess(theta: np.ndarray) -> np.ndarray:
        h = np.zeros((dim, dim))
        if dim > 1:
            i, j = np.triu_indices(dim, 1)
            h[i, j] = h[j, i] = _leave_out_products(theta, np.stack([i, j], 1))
        return h

    return AnalyticFunction(
        dim=dim,
        family="product",
        label=label or f"product:d={dim}",
        value_rule=lambda pts: fold_columns(np.multiply, pts),
        hess_rule=hess,
        grad_batch_rule=_product_gradients,
        third_diag_rule=_zero_diag_slice(dim),
    )


def quadratic(matrix, offset=None, label: str | None = None) -> AnalyticFunction:
    """f(theta) = theta^T A theta + b . theta, with exact rules (every third
    derivative vanishes)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    d = a.shape[0]
    b = np.zeros(d) if offset is None else as_params(offset, d)
    sym = a + a.T

    return AnalyticFunction(
        dim=d,
        family="quadratic",
        label=label or f"quadratic:d={d}",
        value_rule=lambda pts: np.einsum("ni,ij,nj->n", pts, a, pts) + pts @ b,
        hess_rule=lambda th: sym.copy(),
        grad_batch_rule=lambda pts: pts @ sym.T + b,
        third_diag_rule=_zero_diag_slice(d),
    )

