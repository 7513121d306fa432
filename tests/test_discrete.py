import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from _helpers import chi2_gof_pvalue, enumerated_cell_table, tent_area, tent_overlap
from _oracles import (
    beta_binomial_pmf,
    cond_pgf_nb_thinning,
    negtrinomial_pmf,
    pgf2_nb_branching,
    pgf2_nb_thinning,
    pgf2_poisson,
    reversibility_violation,
    thinning_transition,
)

from misti import discrete
from misti.discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    RandomMeasure,
    Thinning,
    _inversion_walk,
    _nb_branching_probs,
    _offspring_rows,
    branching_step_nb,
    branching_nb_transition_matrix,
    cell_measures,
    misti_classify,
    nb_random_measure_020,
    nb_thinning_020,
    rm_joint_pmf,
    rm_simulate,
    simulate_chain,
    simulate_thinning,
    thinning_conditional,
    thinning_transition_matrix,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson, _split_cdf, id_pmf, id_sample
from misti.tables import MAX_ENTRIES, MAX_LATTICE
from misti.verify import autocorr_mc, chain_joint_pmf

NB = NegBinomial(0.5)


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------

def test_thinning_conditional_poisson_is_binomial():
    got = thinning_conditional(Poisson(), 1.0, 0.5, 2)
    assert np.allclose(got, [0.25, 0.5, 0.25], rtol=1e-14)


def test_thinning_conditional_at_zero():
    for law in (Poisson(), NB, GenericLevy({1: 0.5, 2: 0.25})):
        assert np.array_equal(thinning_conditional(law, 1.3, 0.4, 0), [1.0])


def test_thinning_conditional_nb_is_beta_binomial():
    # ratio formula vs BB(x; theta rho, theta (1-rho)) density
    got = thinning_conditional(NB, 1.0, 0.5, 1)
    assert np.allclose(got, [0.5, 0.5], rtol=1e-13)
    for x in (1, 2, 5, 9):
        ratio = thinning_conditional(NB, 2.0, 0.3, x)
        bb = beta_binomial_pmf(x, 2.0 * 0.3, 2.0 * 0.7)
        assert np.max(np.abs(ratio - bb)) <= 1e-13


def test_thinning_conditional_sums_to_one():
    for law in (Poisson(), NB, GenericLevy({1: 0.5, 2: 0.25})):
        for x in range(30):
            assert thinning_conditional(law, 1.5, 0.6, x).sum() == pytest.approx(1.0, abs=1e-15)


def test_thinning_conditional_rejects_zero_probability_value():
    with pytest.raises(ValueError):
        thinning_conditional(GenericLevy({}), 1.0, 0.5, 2)


@pytest.mark.parametrize(
    "law, theta, rho, gap, kmax",
    [(Poisson(), 1000.0, 0.99, 1, 20), (NB, 2.0, 0.6, 1, 1200), (NB, 2.0, 0.6, 2, 720)],
    ids=["poisson", "nb-gap1", "nb-gap2"],
)
def test_thinning_rows_whose_marginal_underflows(law, theta, rho, gap, kmax):
    # mu^theta(x) underflows from x = 0 on for the Poisson law and from
    # x = 1076 on for the NB one (the gap-2 power is taken on a lattice past
    # it), but the thinning split of those states does not
    spec = Thinning(law, theta, rho)
    kernel = spec.kernel(gap, kmax)
    assert kernel.min() >= 0.0
    assert kernel.sum(axis=1).max() <= 1.0 + 1e-15
    violation, _ = reversibility_violation(spec.marginal(kmax), kernel)
    assert violation <= 1e-15


def test_thinning_row_of_an_underflowing_poisson_state():
    # Binomial(5, 0.99) survivors plus Poisson(10) innovations, to 30 digits at
    # the decimal rho; rounding rho to a double moves it by 8e-15 relative
    kernel = Thinning(Poisson(), 1000.0, 0.99).kernel(1, 20)
    assert kernel[5, 5] == pytest.approx(6.72580534269198770552e-05, rel=1e-12)


def test_thinning_rows_whose_normaliser_underflows_raise():
    # the half-scale pmf of GenericLevy({1: 1}) at theta = 2000 is Poisson(1000),
    # whose compound recursion starts from exp(-1000) = 0, so no row is
    # representable; a stay-put row would be a wrong answer
    with pytest.raises(ValueError, match=r"state 0 .* theta=2000.0, rho=0.5"):
        Thinning(GenericLevy({1: 1.0}), 2000.0, 0.5).kernel(1, 5)


def test_thinning_rows_of_the_law_without_jumps_stay_put():
    assert np.array_equal(Thinning(GenericLevy(()), 1.0, 0.5).kernel(1, 4), np.eye(5))


def test_thinning_transition_matrix_matches_pointwise_kernel():
    # both normalise the conditional by its own sum, so they agree to rounding
    for law in (Poisson(), NB, GenericLevy({1: 0.5, 2: 0.25})):
        rows = thinning_transition_matrix(law, 1.5, 0.6, 29)
        want = [[thinning_transition(law, 1.5, 0.6, x, y) for y in range(30)] for x in range(30)]
        assert np.max(np.abs(rows - np.array(want))) <= 2e-16


def test_thinning_transition_from_empty_state():
    got = thinning_transition(Poisson(), 1.0, 0.5, 0, 0)
    assert got == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_thinning_transition_detailed_balance():
    for law in (Poisson(), NB):
        marg = id_pmf(law, 1.0, 10)
        flux = np.array(
            [
                [marg[x] * thinning_transition(law, 1.0, 0.5, x, y) for y in range(11)]
                for x in range(11)
            ]
        )
        assert np.max(np.abs(flux - flux.T)) <= 1e-12


def test_thinning_transition_row_mass():
    kmax = 40
    rows = thinning_transition_matrix(NB, 1.0, 0.5, kmax)
    tail = 1.0 - rows[2].sum()
    assert 0.0 <= tail < 1e-8


def test_simulate_thinning_zero_scale():
    rng = np.random.default_rng(0)
    traj = simulate_thinning(NB, 0.0, 0.5, 5, 100, rng)
    assert traj.t0 == 5
    assert np.array_equal(traj.values, np.zeros(100))


def test_simulate_thinning_stationary_mean():
    rng = np.random.default_rng(42)
    traj = simulate_thinning(Poisson(), 1.0, 0.5, 0, 10**5, rng)
    # correlated samples: inflate the iid standard error by (1+rho)/(1-rho)
    se = math.sqrt(1.0 / 10**5) * math.sqrt(3.0)
    assert abs(traj.values.mean() - 1.0) <= 3 * se


def test_simulate_thinning_autocorrelation():
    rng = np.random.default_rng(7)
    rho = 0.9
    traj = simulate_thinning(Poisson(), 1.0, rho, 0, 10**5, rng)
    se = math.sqrt((1.0 - rho**2) / 10**5)
    assert abs(autocorr_mc(traj, 1) - rho) <= 4 * se


def test_simulate_thinning_generic_law():
    rng = np.random.default_rng(3)
    law = GenericLevy({1: 0.8, 2: 0.2})
    traj = simulate_thinning(law, 1.0, 0.5, 0, 20000, rng)
    assert chi2_gof_pvalue(traj.values, id_pmf(law, 1.0, 15)) > 0.001


def test_simulate_thinning_needs_steps():
    with pytest.raises(ValueError):
        simulate_thinning(Poisson(), 1.0, 0.5, 0, 0, np.random.default_rng(0))


class _FixedUniforms:
    """A stand-in generator whose ``random(size)`` returns given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        return np.array(self.uniforms[:size])


def test_inversion_skips_the_leading_zeros_of_a_row():
    # u = 0 and u equal to an entry land on the first entry past u, which
    # has positive mass: bisect_left would land on the zeros
    row = [0.0, 0.0, 0.5, 1.0]
    path = _inversion_walk(0, [0, 0], lambda x, room: row, None, _FixedUniforms([0.0, 0.5]))
    assert path == [0, 2, 3]
    # Binomial(2000, 0.6) survivors: the first entries of the split underflow
    cdf = _split_cdf(Poisson(), 1.0, 0.6)(2000)
    pmf = thinning_conditional(Poisson(), 1.0, 0.6, 2000)
    assert cdf[0] == 0.0
    for u in (0.0, cdf[bisect_right(cdf, 0.5)]):
        assert pmf[bisect_right(cdf, u)] > 0.0


def _recorded_split_cdf(kept):
    """``_split_cdf`` whose rows append their lengths to kept."""

    def make(law, theta, rho):
        cdf = _split_cdf(law, theta, rho)

        def recorded(x):
            row = cdf(x)
            kept.append(len(row))
            return row

        return recorded

    return make


def _recorded_offspring_rows(kept):
    """``_offspring_rows`` whose rows append their lengths to kept."""

    def make(keep, succ):
        row = _offspring_rows(keep, succ)

        def recorded(x, room):
            cdf = row(x, room)
            if cdf is not None:
                kept.append(len(cdf))
            return cdf

        return recorded

    return make


@pytest.mark.parametrize(
    "spec, name, recorder",
    [
        (Thinning(NegBinomial(0.001), 2.0, 0.6), "_split_cdf", _recorded_split_cdf),
        (BranchingNB(2.0, 0.001, 0.999), "_offspring_rows", _recorded_offspring_rows),
    ],
    ids=["thinning-nb", "branching-nb"],
)
def test_kept_rows_never_exceed_the_path_length(monkeypatch, spec, name, recorder):
    # states spread over thousands of values: the walk keeps every row it
    # builds while they fit, and every other state takes the spec's own draw
    kept = []
    monkeypatch.setattr(discrete, name, recorder(kept))
    n = 10**4
    path = simulate_chain(spec, 0, n, np.random.default_rng(5)).values
    assert 0 < sum(kept) <= n
    assert len(kept) < len(set(path.tolist()))


# ---------------------------------------------------------------------------
# cells and the random-measure process
# ---------------------------------------------------------------------------

def test_cell_measures_three_consecutive_times():
    cells = cell_measures((1, 2, 3), 1.0, 0.5)
    want = {
        (0, 0): 0.5,
        (1, 1): 0.25,
        (2, 2): 0.5,
        (0, 1): 0.25,
        (1, 2): 0.25,
        (0, 2): 0.25,
    }
    assert set(cells) == set(want)
    for key, val in want.items():
        assert cells[key] == pytest.approx(val, rel=1e-14)


def test_cell_measures_single_time():
    cells = cell_measures((4,), 2.5, 0.3)
    assert cells == {(0, 0): 2.5}


def test_cell_measures_gap_two():
    cells = cell_measures((0, 2), 1.0, 0.5)
    assert cells[(0, 0)] == pytest.approx(0.75, rel=1e-14)
    assert cells[(0, 1)] == pytest.approx(0.25, rel=1e-14)
    assert cells[(1, 1)] == pytest.approx(0.75, rel=1e-14)


def test_cell_measures_match_tent_geometry():
    # oracle: numerically integrate the exponential tent overlaps
    theta, rho = 1.3, 0.45
    assert tent_area(theta, rho) == pytest.approx(theta, abs=1e-9)
    for pair in ((0, 1), (0, 2), (1, 4)):
        want = theta * rho ** (pair[1] - pair[0])
        assert tent_overlap(pair, theta, rho) == pytest.approx(want, abs=1e-9)
    # inclusion-exclusion for two times: single-coverage area is theta - overlap
    cells = cell_measures((0, 2), theta, rho)
    overlap = tent_overlap((0, 2), theta, rho)
    assert cells[(0, 1)] == pytest.approx(overlap, abs=1e-9)
    assert cells[(0, 0)] == pytest.approx(theta - overlap, abs=1e-9)


def test_cell_measures_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        times = tuple(np.cumsum(rng.integers(1, 4, size=n)))
        theta = float(rng.uniform(0.2, 3.0))
        rho = float(rng.uniform(0.05, 0.95))
        cells = cell_measures(times, theta, rho)
        assert all(a >= 0.0 for a in cells.values())
        for m in range(n):
            covering = sum(a for (i, j), a in cells.items() if i <= m <= j)
            assert covering == pytest.approx(theta, abs=1e-12)
        for s in range(n):
            for t in range(s + 1, n):
                both = sum(a for (i, j), a in cells.items() if i <= s and j >= t)
                assert both == pytest.approx(theta * rho ** (times[t] - times[s]), abs=1e-12)


def test_cell_measures_rejects_unsorted_times():
    with pytest.raises(ValueError):
        cell_measures((3, 1), 1.0, 0.5)


def test_rm_simulate_single_time_marginal():
    rng = np.random.default_rng(21)
    draws = np.array([rm_simulate(NB, 1.0, 0.5, (0,), rng)[0] for _ in range(10000)])
    assert chi2_gof_pvalue(draws, id_pmf(NB, 1.0, 15)) > 0.001


def _rm_batch(law, theta, rho, times, rng, size):
    """Vectorized cell-based sampler (same construction as rm_simulate)."""
    cells = cell_measures(times, theta, rho)
    out = np.zeros((size, len(times)), dtype=np.int64)
    for (i, j), area in cells.items():
        z = id_sample(law, area, rng, size=size)
        out[:, i : j + 1] += z[:, None]
    return out


def test_rm_poisson_triples_match_thinning_chain():
    # statistical check at 1e5 draws against the exact chain table
    theta, rho, kmax = 1.0, 0.5, 9
    rng = np.random.default_rng(2718)
    draws = _rm_batch(Poisson(), theta, rho, (0, 1, 2), rng, 10**5)
    table = chain_joint_pmf(Thinning(Poisson(), theta, rho), (0, 1, 2), kmax).table
    clipped = np.minimum(draws, kmax)
    flat = np.ravel_multi_index((clipped[:, 0], clipped[:, 1], clipped[:, 2]), table.shape)
    probs = table.ravel()
    assert chi2_gof_pvalue(flat, np.append(probs, 1.0 - probs.sum())) > 0.001


def test_rm_nb_pairwise_moments_match_gf():
    theta, p, rho = 1.0, 0.5, 0.5
    rng = np.random.default_rng(31415)
    draws = _rm_batch(NB, theta, rho, (0, 1), rng, 10**5)
    pair = chain_joint_pmf(Thinning(NB, theta, rho), (0, 1), 40).table
    k = np.arange(41)
    exact_mean = pair.sum(axis=1) @ k
    exact_cross = k @ pair @ k
    prod = draws[:, 0] * draws[:, 1]
    assert abs(draws[:, 0].mean() - exact_mean) <= 3 * draws[:, 0].std() / math.sqrt(draws.shape[0])
    assert abs(prod.mean() - exact_cross) <= 3 * prod.std() / math.sqrt(draws.shape[0])


def test_rm_joint_pmf_all_zero_event_factorizes():
    theta, p, rho = 1.0, 0.5, 0.5
    table = rm_joint_pmf(NB, theta, rho, (0, 1, 2), 6)
    cells = cell_measures((0, 1, 2), theta, rho)
    want = math.prod(id_pmf(NB, a, 0)[0] for a in cells.values())
    assert table.table[0, 0, 0] == pytest.approx(want, rel=1e-13)


def test_rm_joint_pmf_conditional_closed_form_and_brute_force():
    theta, p, rho = 1.0, 0.5, 0.5
    table = rm_joint_pmf(NB, theta, rho, (0, 1, 2), 8)
    mid = id_pmf(NB, theta, 2)[2]
    cond = table.table[0, 2, 0] / mid
    assert cond == pytest.approx(0.078125, abs=1e-12)
    assert cond == pytest.approx(nb_random_measure_020(theta, p, rho), abs=1e-12)
    # brute-force enumeration over the six cell values
    cells = cell_measures((0, 1, 2), theta, rho)
    brute, _ = enumerated_cell_table({s: id_pmf(NB, a, 8) for s, a in cells.items()}, 3, 8)
    assert table.table[0, 2, 0] == pytest.approx(brute[0, 2, 0], rel=1e-12)


def test_rm_joint_pmf_poisson_equals_thinning_table():
    theta, rho = 1.0, 0.5
    rm = rm_joint_pmf(Poisson(), theta, rho, (0, 1, 2), 12)
    thin = chain_joint_pmf(Thinning(Poisson(), theta, rho), (0, 1, 2), 12)
    assert np.max(np.abs(rm.table - thin.table)) <= 1e-10


@pytest.mark.parametrize("t0", [0, 5, 10**16])
def test_random_measure_sample_path_is_rm_simulate(t0):
    spec = RandomMeasure(NB, 2.0, 0.6)
    path = spec.sample_path(t0, 300, np.random.default_rng(4))
    want = rm_simulate(NB, 2.0, 0.6, range(t0, t0 + 300), np.random.default_rng(4))
    assert path.t0 == t0
    assert np.array_equal(path.values, want)


ORACLE_CASES = [
    (times, k, 0.6)
    for times in [(0,), (0, 1), (0, 2), (0, 1, 3), (0, 1, 3, 4)]
    for k in (0, 1, 5, 12)
    if len(times) < 4 or k <= 5  # 4 times at k = 12 are ~10^7 assignments
] + [
    # every cell order and growth of five axes
    ((0, 1, 2, 3, 4), k, 0.6) for k in (0, 1, 2, 3)
] + [
    # 0.5^3000 underflows: a cell's area is 0 and its pmf the point mass at 0
    (times, k, 0.5) for times in [(0, 3000), (0, 1, 4000)] for k in (1, 5, 12)
] + [
    # real times: unequal gaps give every cell its own area
    (times, k, 0.6) for times in [(0, 0.3, 1.7), (0, 0.5, 1, 2.5)] for k in (1, 5)
]


@pytest.mark.parametrize("law", [Poisson(), NB, GenericLevy({1: 1.0, 2: 0.5, 3: 0.2})], ids=repr)
@pytest.mark.parametrize(
    "times, k, rho", ORACLE_CASES, ids=[f"times{'-'.join(map(str, t))}-k{k}" for t, k, _ in ORACLE_CASES]
)
def test_rm_joint_pmf_matches_cell_enumeration(law, times, k, rho):
    theta = 2.0
    cells = cell_measures(times, theta, rho)
    want, leaked = enumerated_cell_table(
        {cell: id_pmf(law, area, k) for cell, area in cells.items()}, len(times), k
    )
    got = rm_joint_pmf(law, theta, rho, times, k)
    assert np.array_equal(got.table > 0.0, want > 0.0)
    assert np.all(np.abs(got.table - want) <= 1e-14 * want)
    assert got.leaked == pytest.approx(leaked, abs=1e-14)


def test_rm_joint_pmf_rejects_a_negative_lattice_bound():
    with pytest.raises(ValueError, match="kmax must be >= 0, got -1"):
        rm_joint_pmf(NB, 1.0, 0.5, (0, 1), -1)


def test_rm_joint_pmf_budget_guard():
    # 41^6 entries, about 4.8e9, far past the cap of 2^23 on every joint table
    with pytest.raises(ValueError, match=f"cap of {MAX_ENTRIES} entries"):
        rm_joint_pmf(NB, 1.0, 0.5, tuple(range(6)), 40)


@pytest.mark.parametrize("spec", [RandomMeasure(NB, 1.0, 0.5), Thinning(NB, 1.0, 0.5)], ids=["rm", "thinning"])
def test_a_one_time_table_past_the_dense_lattice_raises(spec):
    # one time has few entries, but its Toeplitz or kernel block on
    # {0..k}^2 would pass the cap: it raises before the block is built
    with pytest.raises(ValueError, match=f"passes {MAX_LATTICE}: its dense block passes the cap of {MAX_ENTRIES} entries"):
        spec.joint_pmf((0,), MAX_LATTICE + 1)


def test_rm_joint_pmf_builds_every_table_within_the_cap():
    # 11^6 entries are within the cap; a count of 21 cells x 11^7 products
    # once refused them.  A one-time marginal misses only the mass where some
    # other time passes k: 0 <= id_pmf - marginal <= 5 P[X > k]
    n, k = 6, 10
    j = rm_joint_pmf(NB, 2.0, 0.6, tuple(range(n)), k)
    pmf = id_pmf(NB, 2.0, k)
    tail = 1.0 - pmf.sum()
    for axis in range(n):
        gap = pmf - j.table.sum(axis=tuple(a for a in range(n) if a != axis))
        assert np.all(gap >= -1e-15) and np.all(gap <= (n - 1) * tail)


# ---------------------------------------------------------------------------
# branching steps
# ---------------------------------------------------------------------------

def _poisson_branching_path(theta, rho, seed):
    return simulate_chain(BranchingPoisson(theta, rho), 0, 10**5, np.random.default_rng(seed)).values


def test_branching_poisson_from_zero_is_innovation():
    # a step from 0 keeps no survivors: the next state is the Poisson(theta (1 - rho)) innovation
    path = _poisson_branching_path(1.0, 0.5, 5)
    draws = path[1:][path[:-1] == 0]
    assert draws.size > 20000
    assert chi2_gof_pvalue(draws, id_pmf(Poisson(), 0.5, 12)) > 0.001


def test_branching_poisson_preserves_marginal():
    states = _poisson_branching_path(1.0, 0.5, 99)
    # thin to decorrelate before the goodness-of-fit test
    assert chi2_gof_pvalue(states[::10], id_pmf(Poisson(), 1.0, 12)) > 0.001


def test_branching_poisson_conditional_mean():
    x, theta, rho = 5, 5.0, 0.5
    path = _poisson_branching_path(theta, rho, 11)
    draws = path[1:][path[:-1] == x]
    want = rho * x + theta * (1.0 - rho)
    assert draws.size > 10000
    assert abs(draws.mean() - want) <= 3 * draws.std() / math.sqrt(draws.size)


def test_branching_nb_preserves_marginal():
    rng = np.random.default_rng(123)
    alpha, p, rho = 2.0, 0.5, 0.5
    x = int(rng.negative_binomial(alpha, p))
    states = np.empty(10**5, dtype=np.int64)
    for i in range(states.size):
        x = branching_step_nb(x, alpha, p, rho, rng)
        states[i] = x
    assert chi2_gof_pvalue(states[::10], id_pmf(NegBinomial(p), alpha, 25)) > 0.001


def test_branching_nb_iid_limit_at_zero():
    rng = np.random.default_rng(8)
    draws = np.array([branching_step_nb(0, 2.0, 0.5, 1e-9, rng) for _ in range(20000)])
    assert chi2_gof_pvalue(draws, id_pmf(NegBinomial(0.5), 2.0, 20)) > 0.001


def test_branching_nb_lag_one_autocorrelation():
    rng = np.random.default_rng(271828)
    alpha, p, rho = 1.0, 0.5, 0.5
    x = int(rng.negative_binomial(alpha, p))
    states = np.empty(10**5, dtype=np.int64)
    for i in range(states.size):
        x = branching_step_nb(x, alpha, p, rho, rng)
        states[i] = x
    se = math.sqrt((1.0 - rho**2) / states.size)
    assert abs(autocorr_mc(states, 1) - rho) <= 4 * se


@pytest.mark.parametrize("alpha, p, rho", [(2.0, 0.5, 0.6), (0.5, 0.2, 0.9), (3.0, 0.9, 0.1)])
def test_branching_nb_rows_with_the_immigrants_are_the_kernel_rows(alpha, p, rho):
    # survivors and offspring of x, then the NB(alpha, s) immigrants
    k = 30
    keep, succ = _nb_branching_probs(p, rho)
    immigrants = id_pmf(NegBinomial(succ), alpha, k)
    block, _ = BranchingNB(alpha, p, rho).kernel_block(1, k)
    row = _offspring_rows(keep, succ)
    for x in range(k + 1):
        pmf = np.diff(row(x, math.inf), prepend=0.0)
        assert np.abs(np.convolve(pmf, immigrants)[: k + 1] - block[x]).max() <= 1e-14


def test_branching_step_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        branching_step_nb(1, 1.0, 1.5, 0.5, rng)
    with pytest.raises(ValueError):
        branching_step_nb(1, 1.0, 0.5, 0.0, rng)
    with pytest.raises(ValueError):
        BranchingPoisson(-1.0, 0.5)


# ---------------------------------------------------------------------------
# closed-form generating functions
# ---------------------------------------------------------------------------

def test_pgf2_normalized_at_one_one():
    assert pgf2_poisson(1.0, 1.0, 1.3, 0.4) == pytest.approx(1.0, rel=1e-14)
    assert pgf2_nb_branching(1.0, 1.0, 2.0, 0.6, 0.3) == pytest.approx(1.0, rel=1e-14)
    assert pgf2_nb_thinning(1.0, 1.0, 1.5, 0.4, 0.7) == pytest.approx(1.0, rel=1e-14)


def test_pgf2_poisson_at_origin():
    # P[X1=0, X2=0] = exp(-theta (2 - rho))
    assert pgf2_poisson(0.0, 0.0, 1.0, 0.5) == pytest.approx(math.exp(-1.5), rel=1e-14)
    table = chain_joint_pmf(BranchingPoisson(1.0, 0.5), (0, 1), 5).table
    assert table[0, 0] == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_pgf2_families_differ():
    a = pgf2_nb_branching(0.3, 0.7, 1.0, 0.5, 0.5)
    b = pgf2_nb_thinning(0.3, 0.7, 1.0, 0.5, 0.5)
    assert abs(a - b) > 1e-4


def test_pgf2_domain_checks():
    with pytest.raises(ValueError):
        pgf2_poisson(1.2, 0.0, 1.0, 0.5)


def test_cond_pgf_nb_thinning_edge_cases():
    assert cond_pgf_nb_thinning(1.0, 7, 1.0, 0.5, 0.5) == pytest.approx(1.0, rel=1e-14)
    z, theta, p, rho = 0.3, 1.3, 0.6, 0.4
    want = (p / (1.0 - (1.0 - p) * z)) ** (theta * (1.0 - rho))
    assert cond_pgf_nb_thinning(z, 0, theta, p, rho) == pytest.approx(want, rel=1e-14)


def test_cond_pgf_nb_thinning_matches_series_extraction():
    # coefficient of s^x in the joint pgf, divided by the marginal pmf
    from scipy.special import gammaln

    theta, p, rho = 1.0, 0.5, 0.5
    q = 1.0 - p
    kmax = 60
    k = np.arange(kmax + 1)
    marg = id_pmf(NegBinomial(p), theta, kmax)
    for z in (0.0, 0.3, 0.9):
        c1 = np.exp(gammaln(theta * (1 - rho) + k) - gammaln(theta * (1 - rho)) - gammaln(k + 1)) * q**k
        c2 = np.exp(gammaln(theta * rho + k) - gammaln(theta * rho) - gammaln(k + 1)) * (q * z) ** k
        coeffs = (
            np.convolve(c1, c2)[: kmax + 1]
            * p ** (theta * (2.0 - rho))
            * (1.0 - q * z) ** (-theta * (1.0 - rho))
        )
        for x in (0, 1, 3, 7, 12):
            got = cond_pgf_nb_thinning(z, x, theta, p, rho)
            assert got == pytest.approx(coeffs[x] / marg[x], abs=1e-8)


def test_discriminating_closed_forms():
    assert nb_thinning_020(1.0, 0.5, 0.5) == pytest.approx(0.0703125, abs=1e-15)
    assert nb_random_measure_020(1.0, 0.5, 0.5) == pytest.approx(0.078125, abs=1e-15)


# ---------------------------------------------------------------------------
# negative trinomial
# ---------------------------------------------------------------------------

def test_negtrinomial_values_and_normalization():
    assert negtrinomial_pmf(0, 0, 1.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
    total = sum(negtrinomial_pmf(i, j, 1.0, 0.5) for i in range(41) for j in range(41))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_negtrinomial_row_conditional_is_nb():
    alpha, q = 1.5, 0.4
    for i in (0, 2, 5):
        row = np.array([negtrinomial_pmf(i, j, alpha, q) for j in range(60)])
        cond = row / row.sum()
        want = id_pmf(NegBinomial(1.0 / (1.0 + q)), alpha + i, 59)
        assert np.max(np.abs(cond - want)) <= 1e-10


def test_negtrinomial_equals_branching_pair_at_rho_q():
    alpha, q = 1.5, 0.4
    pair = chain_joint_pmf(BranchingNB(alpha, 1.0 - q, q), (0, 1), 25).table
    for i in range(10):
        for j in range(10):
            assert pair[i, j] == pytest.approx(negtrinomial_pmf(i, j, alpha, q), abs=1e-13)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    got = misti_classify(0.5, 0.4, 0.08, 0.4)
    assert isinstance(got, BranchingNB)
    assert got.alpha == pytest.approx(1.0, rel=1e-12)
    assert got.p == pytest.approx(0.6, rel=1e-12)
    assert got.rho == pytest.approx(0.625, rel=1e-12)

    assert isinstance(misti_classify(0.0, 1.0, 0.0, 0.7), Constant)
    assert isinstance(misti_classify(1.0, 0.0, 0.0, 0.7), IID)
    got = misti_classify(0.3, 0.7, 0.0, 1.1)
    assert got == BranchingPoisson(1.1, 0.7)

    with pytest.raises(ValueError):
        misti_classify(0.5, 0.25, 0.125, 1.0)  # implied q = 1 diverges


def test_classify_rejects_inconsistent_sequences():
    with pytest.raises(ValueError):
        misti_classify(0.5, 0.4, 0.3, 0.4)  # r2 off the geometric law
    with pytest.raises(ValueError):
        misti_classify(0.0, 0.8, 0.0, 1.0)  # constant case needs r1 = 1
    with pytest.raises(ValueError):
        misti_classify(0.4, 0.6, 0.0, -1.0)
    with pytest.raises(ValueError):
        misti_classify(0.3, 0.3, 0.0, 1.0)  # r2 = 0 but r0 + r1 < 1



def test_classify_takes_the_poisson_family_within_its_tolerance():
    # r2 and 1 - r0 - r1 are both rounding noise: the NB formulas would give
    # BranchingNB(4.3e15, 1 - 4e-16, 0.40657), whose offspring() has theta1 1.93
    got = misti_classify(0.59343, 0.4065699999999999, 1e-16, 2.0)
    assert got == BranchingPoisson(2.0, 0.4065699999999999)
    # a small r2 with 1 - r0 - r1 past the tolerance stays negative binomial
    spec = BranchingNB(1.0, 0.01, 1e-6)
    r0, r1, r2, theta1 = spec.offspring()
    assert r2 < 1e-9 < 1.0 - r0 - r1
    assert type(misti_classify(r0, r1, r2, theta1)) is BranchingNB


@pytest.mark.parametrize("name", ["r0", "r1", "r2", "theta1"])
def test_classify_rejects_nan(name):
    # a NaN passes every `<` and `abs(...) > tol` test of the classification
    args = {"r0": 0.5, "r1": 0.4, "r2": 0.08, "theta1": 0.4}
    args[name] = math.nan
    with pytest.raises(ValueError, match=f"{name} must be .* finite"):
        misti_classify(**args)

def test_classify_inverts_offspring():
    rng = np.random.default_rng(55)
    specs = [
        BranchingPoisson(1.7, 0.3),
        BranchingNB(2.5, 0.7, 0.4),
        BranchingNB(0.8, 0.35, 0.6),
        Constant(Poisson(), 0.9),
        IID(Poisson(), 1.4),
    ]
    for _ in range(5):
        specs.append(
            BranchingNB(
                float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(0.2, 0.9)),
                float(rng.uniform(0.1, 0.9)),
            )
        )
    for spec in specs:
        back = misti_classify(*spec.offspring())
        assert type(back) is type(spec)
        for name in ("theta", "alpha", "p", "rho"):
            if hasattr(spec, name):
                assert getattr(back, name) == pytest.approx(getattr(spec, name), rel=1e-9)


def test_a_toeplitz_block_holds_one_array_while_it_is_built():
    # index grids and a gather would hold four or more n x n arrays at once
    n = 1000
    pmf = id_pmf(NB, 1.0, n - 1)
    tracemalloc.start()
    try:
        block = discrete._additions_matrix(pmf, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block[3, 5] == pmf[2] and block[5, 3] == 0.0 and block[n - 1, n - 1] == pmf[0]
    assert peak <= 1.5 * 8 * n**2


def test_process_specs_reject_degenerate_rho():
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError):
            Thinning(NB, 1.0, rho)
        with pytest.raises(ValueError):
            RandomMeasure(NB, 1.0, rho)
        with pytest.raises(ValueError):
            BranchingPoisson(1.0, rho)
        with pytest.raises(ValueError):
            BranchingNB(1.0, 0.5, rho)


@pytest.mark.parametrize(
    "spec", [BranchingPoisson(1.0, 0.05), BranchingNB(1.0, 0.5, 0.05), Thinning(NB, 1.0, 0.05)]
)
def test_kernel_at_underflowing_rho_power_is_iid(spec):
    # 0.05**300 underflows to 0.0; the kernel is then the iid kernel
    want = spec.marginal(5)
    for kernel in (spec.kernel(300, 5), chain_joint_pmf(spec, (0, 300), 5).table / want[:, None]):
        assert np.abs(kernel - want).max() <= 1e-15


@pytest.mark.parametrize(
    "p, rho", [(0.5, 1 - 2**-53), (0.9, 1 - 2**-53), (0.99, 1 - 2**-53), (0.99, 1 - 1e-15)]
)
def test_branching_nb_kernel_at_rho_near_one(p, rho):
    # p / (1 - rho q) rounds to 1.0, so the innovation is the point mass at 0;
    # the exact kernel is within (x + alpha + y)(1 - rho)/p of the identity
    spec = BranchingNB(2.0, p, rho)
    kernel = spec.kernel(1, 20)
    assert np.abs(kernel - np.eye(21)).max() <= 1e-13
    violation, _ = reversibility_violation(spec.marginal(20), kernel)
    assert violation <= 1e-12


def _nb_branching_rows(alpha, p, rho, kmax, binomial_pmf):
    """NB branching rows built as the kernel defines them, around a given binomial pmf."""
    succ = p / (1.0 - rho * (1.0 - p))
    bprob = rho * succ
    innovs = [id_pmf(NegBinomial(succ), alpha + y, kmax) for y in range(kmax + 1)]
    rows = np.zeros((kmax + 1, kmax + 1))
    for x in range(kmax + 1):
        for y, weight in enumerate(binomial_pmf(x, bprob)):
            rows[x, y:] += weight * innovs[y][: kmax + 1 - y]
    return rows


def _binomial_pmf_40_digits(x, prob):
    import mpmath

    with mpmath.workdps(40):
        b = mpmath.mpf(prob)
        return [float(mpmath.binomial(x, y) * b**y * (1 - b) ** (x - y)) for y in range(x + 1)]


@pytest.mark.parametrize("rho", [1e-12, 0.5, 1.0 - 1e-9])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_branching_nb_matrix_binomial_weights(p, rho):
    from scipy.stats import binom

    kmax = 60
    got = branching_nb_transition_matrix(2.0, p, rho, kmax)
    exact = _nb_branching_rows(2.0, p, rho, kmax, _binomial_pmf_40_digits)
    with_scipy = _nb_branching_rows(
        2.0, p, rho, kmax, lambda x, b: binom.pmf(np.arange(x + 1), x, b)
    )
    assert np.abs(got - exact).max() <= 1e-15
    assert np.abs(got.sum(axis=1) - exact.sum(axis=1)).max() <= 1e-15
    # scipy rounds 1 - b before raising it to the power x - y, which costs it
    # up to 3.1e-15 at rho = 1e-12; elsewhere the two agree within 1e-15
    scipy_error = np.abs(with_scipy - exact).max()
    scipy_sum_error = np.abs(with_scipy.sum(axis=1) - exact.sum(axis=1)).max()
    assert np.abs(got - with_scipy).max() <= 1e-15 + scipy_error
    assert np.abs(got.sum(axis=1) - with_scipy.sum(axis=1)).max() <= 1e-15 + scipy_sum_error


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: discrete.Trajectory(0, []), "nonempty 1-d integer sequence"),
        (lambda: discrete.Trajectory(0, [[1, 2]]), "nonempty 1-d integer sequence"),
        # IID's own sampler does not check n, so only simulate_chain names the count
        (lambda: simulate_chain(IID(Poisson(), 1.0), 0, 0, np.random.default_rng(0)), "at least one step, got 0"),
        (lambda: misti_classify(0.7, 0.5, 0.0, 1.0), "geometric ratio q is infeasible"),
        (lambda: misti_classify(0.5, 0.0, 0.0, 1.0), r"no chain has offspring\(\) .* IID"),
        (lambda: misti_classify(1.0, 0.0, 0.2, 1.0), r"no chain has offspring\(\) .* IID"),
    ],
    ids=["empty-values", "2d-values", "no-steps", "r0-plus-r1", "iid-with-r0", "iid-with-r2"],
)
def test_discrete_refuses_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_trajectory_refuses_fractional_values():
    # int64 conversion would read them as 1, 2 and 0
    with pytest.raises(ValueError, match="values must be whole numbers"):
        discrete.Trajectory(0, [1.7, 2.2, -0.5])
    assert discrete.Trajectory(0, [1.0, 2.0]).values.tolist() == [1, 2]
