"""Pins the chi-square oracle in _helpers against scipy on bins merged by
hand, and measures its false-rejection rate and power on exact draws."""

import numpy as np
import pytest
from _helpers import chi2_gof_pvalue
from scipy.stats import chisquare

from misti.ctmc import NBBD
from misti.discrete import rm_joint_pmf
from misti.idlaw import NegBinomial
from misti.verify import chain_joint_pmf


def test_chi2_gof_without_merge_matches_scipy():
    samples = np.repeat([0, 1, 2], [52, 28, 20])
    got = chi2_gof_pvalue(samples, [0.5, 0.3, 0.2])
    want = chisquare([52, 28, 20], [50.0, 30.0, 20.0]).pvalue
    assert got == pytest.approx(want, rel=1e-12)


def test_chi2_gof_merges_tail_into_last_kept_bin():
    # n = 100 against [0.5, 0.3, 0.16, 0.03, 0.01]: expected 50, 30, 16, 3, 1.
    # The draw at 7 lies beyond the pmf and folds into the top bin, so the
    # counts are 45, 33, 12, 6, 4.  Bin 4 (expected 1) merges into bin 3,
    # which at 4 is still under 5 and merges into bin 2: expected 50, 30, 20
    # against counts 45, 33, 22.
    samples = np.repeat([0, 1, 2, 3, 4, 7], [45, 33, 12, 6, 3, 1])
    got = chi2_gof_pvalue(samples, [0.5, 0.3, 0.16, 0.03, 0.01])
    want = chisquare([45, 33, 22], [50.0, 30.0, 20.0]).pvalue
    assert got == pytest.approx(want, rel=1e-12)


def test_chi2_gof_pools_sparse_bins_wherever_they_are():
    # expected 2, 40, 3, 50, 1, 4: the bins under 5 (2, 3, 1, 4) pool into one
    # bin of expected 10, which is kept: expected 40, 50, 10 against 38, 49, 13
    samples = np.repeat([0, 1, 2, 3, 4, 5], [4, 38, 5, 49, 0, 4])
    got = chi2_gof_pvalue(samples, [0.02, 0.4, 0.03, 0.5, 0.01, 0.04])
    want = chisquare([38, 49, 13], [40.0, 50.0, 10.0]).pvalue
    assert got == pytest.approx(want, rel=1e-12)


def _table_probs(joint):
    return np.append(joint.table.ravel(), joint.leaked)


@pytest.mark.parametrize(
    "joint, n",
    [
        (chain_joint_pmf(NBBD(1.0, 0.5, 0.7), (0, 0.3, 1.7), 30), 6000),
        (rm_joint_pmf(NegBinomial(0.5), 1.0, 0.5, (0, 1, 3), 12), 10**4),
    ],
    ids=["nbbd-triple", "nb-random-measure-triple"],
)
def test_chi2_gof_false_rejections_stay_near_nominal(joint, n):
    # thousands of cells, most with expected counts far below 5; the gate of
    # the law tests (p > 0.001) should reject about 0.1% of exact draws.
    # Merging only the tail run of sparse bins, on cells ranked by decreasing
    # probability, rejected 59 and 48 of these 400.
    probs = _table_probs(joint)
    rng = np.random.default_rng(1)
    rejected = sum(
        chi2_gof_pvalue(rng.choice(probs.size, size=n, p=probs / probs.sum()), probs) <= 0.001
        for _ in range(400)
    )
    assert rejected <= 4


def test_chi2_gof_detects_a_shifted_correlation():
    # exact NB random-measure draws at rho = 0.45 against the rho = 0.5 table:
    # about 60% of batches are rejected at p <= 0.001
    law, times = NegBinomial(0.5), (0, 1, 3)
    null = _table_probs(rm_joint_pmf(law, 1.0, 0.5, times, 12))
    alt = _table_probs(rm_joint_pmf(law, 1.0, 0.45, times, 12))
    rng = np.random.default_rng(2)
    rejected = sum(
        chi2_gof_pvalue(rng.choice(alt.size, size=10**4, p=alt / alt.sum()), null) <= 0.001
        for _ in range(100)
    )
    assert rejected >= 40
