"""Exact-law tests of the samplers: draws against exact joint tables.

Joint draws are binned on the cells of the exact table, plus one bin for
everything off the lattice (``_helpers.joint_gof_pvalue``), and
``chi2_gof_pvalue`` pools the sparse cells instead of testing them one by
one.
"""

import hashlib

import numpy as np
import pytest
from _helpers import chi2_gof_pvalue, joint_gof_pvalue
from scipy.stats import chi2_contingency

from misti import discrete
from misti.ctmc import NBBD, PoissonBD
from misti.discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    Thinning,
    rm_joint_pmf,
    rm_simulate,
    simulate_chain,
    simulate_thinning,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson
from misti.verify import chain_joint_pmf

LEVY = GenericLevy({1: 1.0, 2: 0.5, 3: 0.2})
LAWS = [Poisson(), NegBinomial(0.5), LEVY]


def windows(values, width, stride):
    """Rows values[s : s + width] for s = 0, stride, 2 stride, ..."""
    starts = np.arange(0, len(values) - width + 1, stride)
    return np.asarray(values)[starts[:, None] + np.arange(width)]


# ---------------------------------------------------------------------------
# random measure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", LAWS, ids=["poisson", "nb", "levy"])
def test_rm_simulate_triples_match_rm_joint_pmf(law):
    theta, rho, times = 1.0, 0.5, (0, 1, 3)
    rng = np.random.default_rng(8128)
    draws = [rm_simulate(law, theta, rho, times, rng) for _ in range(10000)]
    assert joint_gof_pvalue(draws, rm_joint_pmf(law, theta, rho, times, 12)) > 0.001


def test_rm_simulate_long_path_windows_match_rm_joint_pmf():
    # later times of one long path: the walk and the difference array carry
    # every atom to the right states, not just those near the start
    law, theta, rho = NegBinomial(0.5), 2.0, 0.6
    path = rm_simulate(law, theta, rho, tuple(range(3 * 10**5)), np.random.default_rng(496))
    draws = windows(path, 3, 30)
    assert joint_gof_pvalue(draws, rm_joint_pmf(law, theta, rho, (0, 1, 2), 14)) > 0.001


@pytest.mark.parametrize("start", [10**16, 2**70], ids=["1e16", "2^70"])
def test_rm_simulate_triples_at_large_time_indices(start):
    # float64 cannot tell start from start + 1; the law depends on the lags only
    law, theta, rho = NegBinomial(0.5), 1.0, 0.5
    times = (start, start + 1, start + 3)
    rng = np.random.default_rng(6)
    draws = [rm_simulate(law, theta, rho, times, rng) for _ in range(10000)]
    assert joint_gof_pvalue(draws, rm_joint_pmf(law, theta, rho, times, 12)) > 0.001


def test_rm_simulate_rejects_fractional_times():
    with pytest.raises(ValueError, match="integers"):
        rm_simulate(Poisson(), 1.0, 0.5, (0, 0.5), np.random.default_rng(0))


def test_rm_simulate_across_an_underflowing_gap():
    # rho^300 underflows to 0: the first time is independent of the other two
    law, theta, rho, times = NegBinomial(0.5), 1.0, 0.05, (0, 300, 301)
    rng = np.random.default_rng(33550336)
    draws = [rm_simulate(law, theta, rho, times, rng) for _ in range(10000)]
    assert joint_gof_pvalue(draws, rm_joint_pmf(law, theta, rho, times, 10)) > 0.001


@pytest.mark.parametrize("rho", [1e-12, 1.0 - 1e-12])
@pytest.mark.parametrize("law", LAWS, ids=["poisson", "nb", "levy"])
def test_rm_simulate_rho_near_the_ends(law, rho):
    theta, times = 1.5, (0, 1, 2)
    rng = np.random.default_rng(137)
    draws = [rm_simulate(law, theta, rho, times, rng) for _ in range(10000)]
    assert joint_gof_pvalue(draws, rm_joint_pmf(law, theta, rho, times, 12)) > 0.001


def test_rm_simulate_empty_law_is_zero():
    out = rm_simulate(GenericLevy(()), 2.0, 0.5, (0, 1, 4), np.random.default_rng(0))
    assert out.dtype == np.int64
    assert np.array_equal(out, [0, 0, 0])


def test_poisson_random_measure_and_thinning_paths_agree_in_law():
    # two-sample chi-square on windows of three consecutive states
    theta, rho, n = 1.0, 0.5, 3 * 10**5
    rng = np.random.default_rng(1729)
    measure = windows(rm_simulate(Poisson(), theta, rho, tuple(range(n)), rng), 3, 30)
    thinning = windows(simulate_thinning(Poisson(), theta, rho, 0, n, rng).values, 3, 30)
    cells = [np.ravel_multi_index(tuple(np.minimum(w, 5).T), (6, 6, 6)) for w in (measure, thinning)]
    counts = np.array([np.bincount(c, minlength=216) for c in cells])
    sparse = counts.sum(axis=0) < 20
    table = np.column_stack([counts[:, ~sparse], counts[:, sparse].sum(axis=1)])
    assert chi2_contingency(table).pvalue > 0.001


# ---------------------------------------------------------------------------
# Markov chains
# ---------------------------------------------------------------------------

CHAINS = [
    Thinning(NegBinomial(0.5), 2.0, 0.6),
    BranchingNB(2.0, 0.5, 0.6),
    Thinning(LEVY, 1.0, 0.6),
    BranchingPoisson(2.0, 0.6),
    NBBD(2.0, 0.5, 1.0),
    PoissonBD(2.0, 1.0),
]


@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
def test_simulate_chain_lag1_pairs_match_chain_joint_pmf(spec):
    # pairs 20 steps apart: rho^19 < 1e-4 of dependence between them
    traj = simulate_chain(spec, 0, 2 * 10**5, np.random.default_rng(6174))
    draws = windows(traj.values, 2, 20)
    assert joint_gof_pvalue(draws, chain_joint_pmf(spec, (0, 1), 25)) > 0.001


@pytest.mark.parametrize(
    "spec", [Thinning(NegBinomial(0.5), 40.0, 0.6), BranchingNB(20.0, 0.5, 0.6)], ids=lambda s: type(s).__name__
)
def test_short_paths_that_fill_the_row_budget_match_chain_joint_pmf(monkeypatch, spec):
    # the rows of these states have ~40 entries, so a 100-step path keeps the
    # rows of two or three states and its other states take the spec's own
    # draw: lag-1 pairs through both draws must follow the exact table
    fell_back = []
    walk = discrete._inversion_walk

    def counted(x, fixed, row, keeper, rng):
        def counted_keeper():
            fell_back.append(x)
            return keeper()

        return walk(x, fixed, row, counted_keeper, rng)

    monkeypatch.setattr(discrete, "_inversion_walk", counted)
    rng = np.random.default_rng(1618)
    draws = np.concatenate([windows(simulate_chain(spec, 0, 100, rng).values, 2, 20) for _ in range(3000)])
    assert len(fell_back) > 2500
    assert joint_gof_pvalue(draws, chain_joint_pmf(spec, (0, 1), 100)) > 0.001


@pytest.mark.parametrize("rho", [1e-12, 1.0 - 1e-12])
@pytest.mark.parametrize(
    "make",
    [
        lambda rho: Thinning(NegBinomial(0.5), 2.0, rho),
        lambda rho: Thinning(LEVY, 1.0, rho),
        lambda rho: BranchingNB(2.0, 0.5, rho),
        lambda rho: BranchingPoisson(2.0, rho),
    ],
    ids=["thinning-nb", "thinning-levy", "branching-nb", "branching-poisson"],
)
def test_simulate_chain_rho_near_the_ends(make, rho):
    spec = make(rho)
    rng = np.random.default_rng(8)
    draws = [simulate_chain(spec, 0, 2, rng).values for _ in range(5000)]
    assert joint_gof_pvalue(draws, chain_joint_pmf(spec, (0, 1), 20)) > 0.001


@pytest.mark.parametrize(
    "spec",
    [
        Thinning(NegBinomial(0.5), 2.0, 0.6),
        Thinning(LEVY, 1.0, 0.6),
        BranchingNB(2.0, 0.5, 0.6),
        BranchingPoisson(2.0, 0.6),
        IID(LEVY, 1.0),
        Constant(LEVY, 1.0),
    ],
    ids=lambda s: type(s).__name__,
)
def test_single_step_paths_are_marginal_draws(spec):
    rng = np.random.default_rng(28)
    draws = [simulate_chain(spec, 4, 1, rng).values[0] for _ in range(5000)]
    assert chi2_gof_pvalue(draws, spec.marginal(25)) > 0.001


def test_levy_thinning_path_is_pinned():
    # the keeper inverts one uniform per step on cached CDF rows: the path of
    # a seed is fixed, whatever caching the keeper does
    spec = Thinning(GenericLevy(((1, 1.0), (2, 0.5), (3, 0.2))), 2, 0.6)
    path = simulate_chain(spec, 0, 10**4, np.random.default_rng(7)).values
    digest = hashlib.sha256(path.astype("<i8").tobytes()).hexdigest()
    assert digest == "1c782312394c302481794036981719e55902be8de47bc4ff524595ba47c04fee"


def test_empty_law_chains_stay_at_zero():
    rng = np.random.default_rng(0)
    for spec in (Thinning(GenericLevy(()), 1.0, 0.5), IID(GenericLevy(()), 1.0)):
        assert np.array_equal(simulate_chain(spec, 0, 50, rng).values, np.zeros(50))

