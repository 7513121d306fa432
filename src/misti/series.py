"""Truncated multivariate power series under total-degree truncation.

This is the generating-function engine: series hold joint pgfs and their
logarithms, with all coefficients of total degree > maxdeg identically zero.
For a series built from exact pmf entries, the coefficients of its log up to
total degree D depend only on the (exact) pgf coefficients up to degree D,
so low-degree log coefficients carry no truncation error.

Products, exponentials and logarithms run one sparse, degree-graded
recursion (Brent & Kung, JACM 1978; Knuth, TAOCP vol. 2 sec. 4.7).  With E
the Euler operator (sum_i x_i d/dx_i), b = exp(a) satisfies E b = (E a) b, so
at a multi-index mu of total degree h, summing over k + r = mu with k, r != 0:

    exp:  b[mu] = b[0] a[mu] + (1/h) sum deg(k) a[k] b[r]
    log:  b[mu] = (a[mu] - (1/h) sum deg(k) b[k] a[r]) / a[0]

and a product sums a[k] b[r] over the same pairs.  Only pairs with deg k +
deg r <= maxdeg are visited: C(2 nvars + maxdeg, 2 nvars) of them, against
maxdeg (maxdeg + 1)^(2 nvars) terms for dense convolution.  The recursion
runs on numpy arrays of any scalar type: floats, or ``mpmath.mpf`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "TruncSeries",
    "ts_mul",
    "ts_exp",
    "ts_log",
    "ts_from_joint_pmf",
    "ts_eval",
    "graded_order",
    "graded_exp_log",
]


@lru_cache(maxsize=None)
def _degrees(nvars, maxdeg):
    deg = np.indices((maxdeg + 1,) * nvars).sum(axis=0)
    deg.setflags(write=False)
    return deg


@dataclass(frozen=True, eq=False)
class TruncSeries:
    """Dense coefficient array over {0..maxdeg}^nvars, masked to total degree <= maxdeg."""

    nvars: int
    maxdeg: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.nvars < 1 or self.maxdeg < 0:
            raise ValueError("need nvars >= 1 and maxdeg >= 0")
        shape = (self.maxdeg + 1,) * self.nvars
        given = np.asarray(self.coeffs, dtype=float)
        if given.shape != shape:
            raise ValueError(f"coefficients must have shape {shape}, got {given.shape}")
        c = np.where(_degrees(self.nvars, self.maxdeg) <= self.maxdeg, given, 0.0)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, nvars, maxdeg):
        return cls(nvars, maxdeg, np.zeros((maxdeg + 1,) * nvars))

    @classmethod
    def const(cls, nvars, maxdeg, value):
        c = np.zeros((maxdeg + 1,) * nvars)
        c[(0,) * nvars] = value
        return cls(nvars, maxdeg, c)

    @classmethod
    def from_terms(cls, nvars, maxdeg, terms):
        """Series with the given {multi-index: coefficient} entries."""
        c = np.zeros((maxdeg + 1,) * nvars)
        for idx, val in dict(terms).items():
            idx = (idx,) if np.isscalar(idx) else tuple(idx)
            if len(idx) != nvars:
                raise ValueError(f"index {idx} has wrong arity for {nvars} variables")
            if sum(idx) > maxdeg:
                raise ValueError(f"index {idx} exceeds total degree {maxdeg}")
            c[idx] = val
        return cls(nvars, maxdeg, c)

    def coeff(self, idx):
        idx = (idx,) if np.isscalar(idx) else tuple(idx)
        return float(self.coeffs[idx])

    def allclose(self, other, tol=1e-12):
        return (
            self.nvars == other.nvars
            and self.maxdeg == other.maxdeg
            and bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)
        )

    def __add__(self, other):
        other = _coerce(other, self)
        _check_shapes(self, other)
        return TruncSeries(self.nvars, self.maxdeg, self.coeffs + other.coeffs)

    def __sub__(self, other):
        other = _coerce(other, self)
        _check_shapes(self, other)
        return TruncSeries(self.nvars, self.maxdeg, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncSeries(self.nvars, self.maxdeg, self.coeffs * other)
        return ts_mul(self, other)

    __rmul__ = __mul__


def _coerce(x, like):
    return TruncSeries.const(like.nvars, like.maxdeg, x) if np.isscalar(x) else x


def _check_shapes(a, b):
    if (a.nvars, a.maxdeg) != (b.nvars, b.maxdeg):
        raise ValueError(
            f"shape mismatch: ({a.nvars},{a.maxdeg}) vs ({b.nvars},{b.maxdeg})"
        )


@lru_cache(maxsize=None)
def graded_order(nvars, maxdeg):
    """The multi-indices of total degree <= maxdeg, degree by degree.

    Entry h is (block, left, right, offsets): ``block`` holds the positions in
    the flattened dense array of the multi-indices of degree h, in increasing
    order; ``left`` and ``right`` hold those of every pair k, r != 0 with
    k + r of degree h (none for h < 2), sorted by the position of k + r, and
    ``offsets`` marks where each k + r starts, for ``np.add.reduceat``.
    """
    deg = _degrees(nvars, maxdeg).ravel()
    blocks = [np.flatnonzero(deg == h) for h in range(maxdeg + 1)]
    levels = [(block, None, None, None) for block in blocks[:2]]
    for h in range(2, maxdeg + 1):
        grids = [np.meshgrid(blocks[p], blocks[h - p]) for p in range(1, h)]
        left, right = (np.concatenate([g[i].ravel() for g in grids]) for i in (0, 1))
        order = np.argsort(left + right, kind="stable")  # left + right locates k + r
        offsets = np.flatnonzero(np.diff((left + right)[order], prepend=-1))
        levels.append((blocks[h], left[order], right[order], offsets))
    for array in (x for level in levels for x in level if x is not None):
        array.setflags(write=False)  # the cache hands the same arrays to every caller
    return levels


def graded_exp_log(a, nvars, maxdeg, log=None):
    """exp of the series with flattened dense coefficients ``a`` or, given the
    ``log`` of their scalar type (``math.log``, ``mpmath.log``), its log; by the
    recursion of the module docstring, in the scalar type of ``a``."""
    inverse = log is not None
    if inverse and not a[0] > 0:
        raise ValueError(f"log needs a positive constant term, got {a[0]}")
    degree = _degrees(nvars, maxdeg).ravel()
    b0 = log(a[0]) if inverse else math.exp(a[0])
    out = a / a[0] if inverse else a * b0
    out[0] = b0
    for h, (block, left, right, offsets) in enumerate(graded_order(nvars, maxdeg)[2:], 2):
        x, y = (out, a) if inverse else (a, out)
        acc = np.add.reduceat(degree[left] * x[left] * y[right], offsets) / h
        out[block] = (a[block] - acc) / a[0] if inverse else a[block] * b0 + acc
    return out


def ts_mul(a, b):
    """Cauchy product truncated at the common total degree."""
    _check_shapes(a, b)
    x, y = a.coeffs.ravel(), b.coeffs.ravel()
    out = x[0] * y + x * y[0]
    out[0] = x[0] * y[0]
    for block, left, right, offsets in graded_order(a.nvars, a.maxdeg)[2:]:
        out[block] += np.add.reduceat(x[left] * y[right], offsets)
    return TruncSeries(a.nvars, a.maxdeg, out.reshape(a.coeffs.shape))


def ts_exp(a):
    """Series exponential, by the degree-graded recursion."""
    out = graded_exp_log(a.coeffs.ravel(), a.nvars, a.maxdeg)
    return TruncSeries(a.nvars, a.maxdeg, out.reshape(a.coeffs.shape))


def ts_log(a):
    """Series logarithm, inverse of ts_exp; needs a positive constant term."""
    out = graded_exp_log(a.coeffs.ravel(), a.nvars, a.maxdeg, log=math.log)
    return TruncSeries(a.nvars, a.maxdeg, out.reshape(a.coeffs.shape))


def ts_from_joint_pmf(pmf, maxdeg=None):
    """Generating-function series of a joint table: coefficient at x is P(x).

    By default the degree bound is large enough (nvars * k) to keep every
    table entry; a smaller ``maxdeg`` keeps only entries of total degree
    <= maxdeg, which is all the log-coefficient analysis up to that degree
    needs.
    """
    n = pmf.ntimes
    d = n * pmf.k if maxdeg is None else maxdeg
    arr = np.zeros((d + 1,) * n)
    m = min(d, pmf.k)
    block = (slice(0, m + 1),) * n
    arr[block] = pmf.table[block]
    return TruncSeries(n, d, arr)


def ts_eval(a, point):
    """Evaluate the series at a point of [0,1]^nvars (plain Horner per axis)."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape != (a.nvars,):
        raise ValueError(f"point must have {a.nvars} coordinates, got {point.shape}")
    arr = a.coeffs
    for x in point[::-1]:
        arr = npoly.polyval(x, np.moveaxis(arr, -1, 0))
    return float(arr)
