"""Shared test oracles: goodness-of-fit helpers and geometry integrals."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import chi2


def chi2_gof_pvalue(samples, probs, min_expected=5.0):
    """Chi-square test of integer samples against a pmf vector.

    Mass beyond the pmf vector is folded into the top bin.  Every bin whose
    expected count is below ``min_expected`` goes into one pooled bin; if
    the pool is still below it, it is folded into the smallest kept bin.
    """
    samples = np.asarray(samples)
    n = samples.size
    kmax = len(probs) - 1
    counts = np.bincount(np.clip(samples, 0, kmax), minlength=kmax + 1).astype(float)
    expected = np.asarray(probs, dtype=float) * n
    expected[-1] = n - expected[:-1].sum()
    sparse = expected < min_expected
    pool_count, pool_expected = counts[sparse].sum(), expected[sparse].sum()
    counts, expected = counts[~sparse], expected[~sparse]
    if pool_expected >= min_expected:
        counts, expected = np.append(counts, pool_count), np.append(expected, pool_expected)
    elif sparse.any():
        smallest = np.argmin(expected)
        counts[smallest] += pool_count
        expected[smallest] += pool_expected
    stat = np.sum((counts - expected) ** 2 / expected)
    return float(chi2.sf(stat, df=len(expected) - 1))


def joint_gof_pvalue(draws, joint):
    """Chi-square p-value of rows of joint draws against a ``JointPMF``.

    Each row is binned on its cell of the exact table, or on one more bin
    for everything off the lattice, whose probability is the leaked mass.
    """
    draws = np.asarray(draws)
    inside = np.all(draws <= joint.k, axis=1)
    cells = np.full(len(draws), joint.table.size)
    cells[inside] = np.ravel_multi_index(tuple(draws[inside].T), joint.table.shape)
    return chi2_gof_pvalue(cells, np.append(joint.table.ravel(), joint.leaked))


def tent_overlap(times_pair, theta, rho):
    """Numerical area of the overlap of two exponential tent sets.

    The tent of time t has height theta * lam * exp(-2 lam |t - x|) with
    lam = -log(rho), so pairwise overlaps should integrate to
    theta * rho^|s-t|.
    """
    s, t = times_pair
    lam = -math.log(rho)

    def height(u, x):
        return theta * lam * math.exp(-2.0 * lam * abs(u - x))

    span = abs(t - s) + 60.0 / lam
    value, _ = quad(lambda x: min(height(s, x), height(t, x)), s - span, t + span, limit=400)
    return value


def tent_area(theta, rho):
    """Numerical area of a single tent set (should be theta)."""
    lam = -math.log(rho)
    value, _ = quad(lambda x: theta * lam * math.exp(-2.0 * lam * abs(x)), -60.0 / lam, 60.0 / lam, limit=400)
    return value
