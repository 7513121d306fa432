"""Truncated multivariate power series under total-degree truncation.

This is the generating-function engine.  A series in n variables truncated
at total degree maxdeg is its dense coefficient array of shape
(maxdeg + 1,)^n, whose entries of total degree > maxdeg are zero: a joint
pgf (``ts_from_joint_pmf``) or its logarithm (``ts_log``).  For a series
built from exact pmf entries, the coefficients of its log up to total degree
D depend only on the (exact) pgf coefficients up to degree D, so low-degree
log coefficients carry no truncation error.

Exponentials and logarithms run one sparse, degree-graded recursion (Brent
& Kung, JACM 1978; Knuth, TAOCP vol. 2 sec. 4.7).  With E the Euler
operator (sum_i x_i d/dx_i), b = exp(a) satisfies E b = (E a) b, so at a
multi-index mu of total degree h, summing over k + r = mu with k, r != 0:

    exp:  b[mu] = b[0] a[mu] + (1/h) sum deg(k) a[k] b[r]
    log:  b[mu] = (a[mu] - (1/h) sum deg(k) b[k] a[r]) / a[0]

Only pairs with deg k + deg r <= maxdeg are visited: C(2 nvars + maxdeg,
2 nvars) of them, against maxdeg (maxdeg + 1)^(2 nvars) terms for dense
convolution.  The recursion runs on numpy arrays of any scalar type: floats,
``decimal.Decimal`` (the extended-precision checks of ``verify``) or
``mpmath.mpf`` (the tests' independent reference).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["ts_log", "ts_from_joint_pmf", "graded_order", "graded_exp_log"]


@lru_cache(maxsize=None)
def _degrees(nvars, maxdeg):
    deg = np.indices((maxdeg + 1,) * nvars).sum(axis=0)
    deg.setflags(write=False)
    return deg


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


def graded_exp_log(a, nvars, maxdeg, log=None, exp=math.exp):
    """exp of the series with flattened dense coefficients ``a`` or, given the
    ``log`` of their scalar type (``math.log`` for floats, ``decimal.Decimal.ln``,
    ``mpmath.log`` in the tests), its log; by the recursion of the module
    docstring, in the scalar type of ``a``, whose ``exp`` (``decimal.Decimal.exp``,
    ``mpmath.exp``) gives the exp's constant term.  A Decimal recursion rounds
    in the current decimal context."""
    inverse = log is not None
    if inverse and not a[0] > 0:
        raise ValueError(f"log needs a positive constant term, got {a[0]}")
    degree = _degrees(nvars, maxdeg).ravel()
    b0 = log(a[0]) if inverse else exp(a[0])
    out = a / a[0] if inverse else a * b0
    out[0] = b0
    # deg(k) x[k] once per entry, not once per pair: x is a for exp, and for
    # log it is out, whose entries of degree h are rescaled once level h is done
    scaled, y = (degree * out, a) if inverse else (degree * a, out)
    for h, (block, left, right, offsets) in enumerate(graded_order(nvars, maxdeg)[2:], 2):
        acc = np.add.reduceat(scaled[left] * y[right], offsets) / h
        if inverse:
            out[block] = (a[block] - acc) / a[0]
            scaled[block] = h * out[block]
        else:
            out[block] = a[block] * b0 + acc
    return out


def ts_log(a):
    """Log of the series with dense coefficient array ``a``, as an array of the
    same shape; needs a positive constant term."""
    return graded_exp_log(a.ravel(), a.ndim, a.shape[0] - 1, log=math.log).reshape(a.shape)


def ts_from_joint_pmf(pmf, maxdeg=None):
    """Dense coefficient array of the pgf of a joint table: entry x is P(x).

    By default the degree bound is large enough (nvars * k) to keep every
    table entry; a smaller ``maxdeg`` keeps only entries of total degree
    <= maxdeg, which is all the log-coefficient analysis up to that degree
    needs.  Entries of total degree > maxdeg are zero.
    """
    n = pmf.ntimes
    d = n * pmf.k if maxdeg is None else maxdeg
    arr = np.zeros((d + 1,) * n)
    m = min(d, pmf.k)
    block = (slice(0, m + 1),) * n
    arr[block] = np.where(_degrees(n, m) <= d, pmf.table[block], 0.0)
    return arr
