import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from _helpers import chi2_gof_pvalue, joint_gof_pvalue
from _oracles import generator_residual
from hypothesis import given, settings
from hypothesis import strategies as st

import misti
from misti.ctmc import (
    EventPath,
    NBBD,
    PoissonBD,
    _uniformized_block,
    bd_rates,
    gillespie,
    stationary_bd,
    transition_uniformized,
)
from misti.discrete import BranchingNB, branching_nb_transition_matrix, thinning_transition_matrix
from misti.idlaw import NegBinomial, Poisson, id_pmf
from misti.discrete import simulate_chain
from misti.verify import chain_joint_pmf

LAM = math.log(2.0)  # one-step autocorrelation exp(-lam) = 1/2


def test_bd_rates_poisson():
    assert bd_rates(PoissonBD(2.0, 1.0), 0) == (2.0, 0.0)
    assert bd_rates(PoissonBD(2.0, 1.5), 3) == (3.0, 4.5)


def test_bd_rates_nb():
    birth, death = bd_rates(NBBD(1.0, 0.5, 1.0), 3)
    assert birth == pytest.approx(4.0)
    assert death == pytest.approx(6.0)


def test_bd_rates_empty_state_has_no_death():
    assert bd_rates(PoissonBD(1.0, 2.0), 0)[1] == 0.0
    assert bd_rates(NBBD(2.0, 0.3, 1.0), 0)[1] == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        PoissonBD(0.0, 1.0)
    with pytest.raises(ValueError):
        NBBD(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PoissonBD(1.0, -0.1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: PoissonBD(v, 1.0),
        lambda v: PoissonBD(1.0, v),
        lambda v: NBBD(v, 0.5, 1.0),
        lambda v: NBBD(1.0, v, 1.0),
        lambda v: NBBD(1.0, 0.5, v),
        lambda v: BranchingNB(v, 0.5, 0.5),
        lambda v: BranchingNB(1.0, v, 0.5),
    ],
    ids=[
        "poisson-theta", "poisson-lambda", "nb-alpha", "nb-p", "nb-lambda", "branching-nb-alpha", "branching-nb-p"
    ],
)
def test_model_rejects_infinite_and_nan_parameters(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_stationary_poisson_exact():
    got = stationary_bd(PoissonBD(1.0, LAM), 30)
    assert np.max(np.abs(got - id_pmf(Poisson(), 1.0, 30))) <= 1e-12


def test_stationary_nb_exact():
    got = stationary_bd(NBBD(2.0, 0.5, 3.0), 30)
    want = id_pmf(NegBinomial(0.5), 2.0, 30)
    assert np.max(np.abs(got - want)) <= 1e-12
    # product form: proportional to (i+1) q^i at alpha = 2
    shape = (np.arange(31) + 1) * 0.5 ** np.arange(31)
    assert np.max(np.abs(got / got[0] - shape)) <= 1e-10


def test_stationary_k0_keeps_true_mass():
    # entries are the true stationary probabilities, never renormalized to the
    # truncated window, so the single entry at k = 0 is exp(-theta)
    got = stationary_bd(PoissonBD(1.0, 1.0), 0)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_stationary_detailed_balance():
    for model in (PoissonBD(1.3, 0.7), NBBD(1.5, 0.4, 2.0)):
        pi = stationary_bd(model, 25)
        for j in range(25):
            birth = bd_rates(model, j)[0]
            death_next = bd_rates(model, j + 1)[1]
            assert pi[j] * birth == pytest.approx(pi[j + 1] * death_next, rel=1e-13)


def test_an_infinite_gap_is_refused_before_a_lattice_is_stated(monkeypatch):
    # exp(tQ) at t = inf is no kernel a lattice can certify: the gap is refused
    # with no warning on the way, and no stated lattice reaches the ladder
    stated = []
    monkeypatch.setattr(misti.discrete, "stabilize", lambda *args: stated.append(args))
    for model in (PoissonBD(1.0, 0.5), NBBD(2.0, 0.5, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                model.kernel(math.inf, 5)
            with pytest.raises(ValueError, match="finite"):
                chain_joint_pmf(model, (0, math.inf), 5)
    assert stated == []


def test_generator_residual_stationary_is_zero():
    for model in (PoissonBD(1.0, LAM), NBBD(2.0, 0.5, 1.0)):
        pi = stationary_bd(model, 30)
        res = generator_residual(model, pi, 30)
        assert res.interior < 1e-10


def test_generator_residual_detects_perturbation():
    model = PoissonBD(1.0, 1.0)
    pi = stationary_bd(model, 20)
    bad = pi.copy()
    bad[1] *= 1.1
    bad /= bad.sum()
    assert generator_residual(model, bad, 20).interior > 1e-3


def test_generator_residual_scales_with_lambda():
    pi = stationary_bd(PoissonBD(1.0, 1.0), 25)
    r1 = generator_residual(PoissonBD(1.0, 1.0), pi, 25)
    r9 = generator_residual(PoissonBD(1.0, 9.0), pi, 25)
    assert r9.interior <= 9 * r1.interior + 1e-12


def test_gillespie_frozen_when_lambda_zero():
    path = gillespie(PoissonBD(1.0, 0.0), 4, 10.0, np.random.default_rng(0))
    assert np.array_equal(path.states, [4])
    assert path.at(9.99) == 4


@pytest.mark.parametrize(
    "times, states",
    [
        ([0.0, 2.0, 1.0], [1, 2, 3]),
        ([0.0, 1.0, 3.0], [1, 2, 3]),
        ([0.0, 1.0, 2.0], [1, -1, 0]),
        ([0.0, 1.0], [1]),
        ([], []),
    ],
    ids=["unsorted-times", "time-at-horizon", "negative-state", "ragged-path", "empty-path"],
)
def test_event_path_refuses_a_path_it_would_misread(times, states):
    # at(1.5) would read 1 on the unsorted times: searchsorted needs sorted ones
    with pytest.raises(ValueError):
        EventPath(times, states, 3.0)


def test_event_path_refuses_a_nan_query_time():
    # NaN is neither before the first time nor past the horizon
    with pytest.raises(ValueError, match="outside the simulated window"):
        EventPath([0, 1, 2.5], [3, 4, 5], 4).at(math.nan)


def test_event_path_refuses_fractional_states():
    # int64 conversion would truncate them to 2 and 3
    with pytest.raises(ValueError, match="states must be whole numbers"):
        EventPath([0, 1], [2.7, 3.2], 4)


def test_gillespie_rejects_an_infinite_horizon():
    # the event loop of a chain that moves would never reach it
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        gillespie(PoissonBD(1.0, 1.0), 0, math.inf, np.random.default_rng(0))

def test_gillespie_occupancy_matches_stationary():
    model = PoissonBD(1.0, 1.0)
    rng = np.random.default_rng(42)
    path = gillespie(model, 1, 20000.0, rng)
    # sample on a coarse grid so the draws are nearly independent
    grid = np.arange(10.0, 20000.0, 5.0)
    states = path.at(grid)
    assert chi2_gof_pvalue(states, id_pmf(Poisson(), 1.0, 12)) > 0.001


def test_gillespie_holding_times():
    model = NBBD(1.0, 0.5, 1.0)
    rng = np.random.default_rng(314)
    path = gillespie(model, 2, 5000.0, rng)
    ends = np.append(path.times[1:], path.horizon)
    durations = ends - path.times
    at_two = durations[path.states == 2][:-1]  # drop the horizon-censored stay
    birth, death = bd_rates(model, 2)
    want = 1.0 / (birth + death)
    se = want / math.sqrt(at_two.size)
    assert abs(at_two.mean() - want) <= 3 * se


LAW_MODELS = [PoissonBD(2.0, 1.0), NBBD(2.0, 0.5, 1.0), NBBD(0.7, 0.3, 0.5)]


def assert_path_contract(path):
    assert path.times[0] == 0.0
    assert np.all(np.diff(path.times) > 0.0) and path.times[-1] < path.horizon
    assert np.all(np.abs(np.diff(path.states)) == 1) and path.states.min() >= 0


@pytest.mark.parametrize("model, k", zip(LAW_MODELS, (12, 20, 30)), ids=str)
def test_gillespie_windows_match_chain_joint_pmf(model, k):
    # (X(s), X(s + 0.3), X(s + 1.7)) of one stationary path, with window
    # starts 10 / lambda apart so consecutive windows are nearly independent
    times, stride, n = (0.0, 0.3, 1.7), 10.0 / model.lam, 6000
    rng = np.random.default_rng(8)
    path = gillespie(model, model.stationary_draw(rng), n * stride, rng)
    assert_path_contract(path)
    draws = path.at(np.arange(n)[:, None] * stride + np.array(times))
    assert joint_gof_pvalue(draws, chain_joint_pmf(model, times, k)) > 0.001


@pytest.mark.parametrize("model", LAW_MODELS, ids=str)
def test_gillespie_transition_law_matches_the_kernel(model):
    rng = np.random.default_rng(7)
    ends = [gillespie(model, 3, 0.7, rng).states[-1] for _ in range(20000)]
    assert chi2_gof_pvalue(ends, transition_uniformized(model, 0.7, 40)[3]) > 0.001


class _TiedDraws:
    """A generator whose uniforms and exponentials are all 0, and whose
    binomials take every trial, so every immigrant is born, and every
    individual dies, at time 0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def poisson(self, lam):
        return self._rng.poisson(lam)

    def binomial(self, n, p):
        return n

    def random(self, size):
        return np.zeros(size)

    def standard_exponential(self, size):
        return np.zeros(size)


@pytest.mark.parametrize("x0", [0, 2])
def test_gillespie_spreads_tied_events_births_first(x0):
    path = gillespie(PoissonBD(5.0, 1.0), x0, 1.0, _TiedDraws(1))
    assert_path_contract(path)
    born = int(path.states.max()) - x0
    assert born > 0
    # every birth, then every death, each at its own subnormal time
    assert np.array_equal(path.states, np.r_[x0 : x0 + born + 1, x0 + born - 1 : -1 : -1])
    assert path.times[-1] < 1e-320


def test_gillespie_costs_nothing_per_starting_individual():
    # 10^6 individuals and a horizon too short for any event
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        path = gillespie(NBBD(2.0, 0.5, 1.0), 10**6, 1e-9, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.states[0] == 10**6
    assert peak < 2**20


def test_a_long_birth_death_path_holds_no_event_path():
    # ~8 events per unit time: the path of 2e5 unit times has ~1.6e6 events,
    # ~50 MB as one event path, and the trajectory is 1.6 MB
    rng = np.random.default_rng(11)
    tracemalloc.start()
    try:
        traj = simulate_chain(NBBD(2.0, 0.5, 1.0), 0, 2 * 10**5, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 2 * 10**5
    assert peak < 8 * 2**20


def test_uniformized_squarings_run_on_no_subnormals():
    # the block entries below 1e-150 move into their row's deficit before each
    # squaring, so each product sums products of normal numbers, and the
    # deficits still close the rows
    block, deficit = _uniformized_block(PoissonBD(4.0, 0.5), 1.0, 528)
    assert not np.any((block > 0.0) & (block < np.finfo(float).tiny))
    assert np.abs(block.sum(axis=1) + deficit - 1.0).max() <= 1e-13


def test_a_block_that_holds_no_mass_stops_squaring():
    # birth rates of order 1e300 empty every row of the series before its ~997
    # squarings; squaring the empty block changes no deficit, so they stop
    model = NBBD(1e300, 0.5, 1.0)
    model.kernel_block(1, 4)  # the first product of a process starts numpy's BLAS, untimed
    start = time.perf_counter()
    block, deficit = model.kernel_block(1, 260)
    assert time.perf_counter() - start < 0.5
    assert not block.any()
    assert np.abs(deficit - 1.0).max() <= 1e-15


def test_uniformized_identity_at_zero():
    assert np.array_equal(transition_uniformized(PoissonBD(1.0, LAM), 0.0, 10), np.eye(11))


def test_uniformized_matches_discrete_poisson_chain():
    got = transition_uniformized(PoissonBD(1.0, LAM), 1.0, 30)
    want = thinning_transition_matrix(Poisson(), 1.0, 0.5, 30)
    assert np.max(np.abs(got - want)) <= 2e-6


def test_uniformized_matches_discrete_nb_chain():
    got = transition_uniformized(NBBD(1.0, 0.5, LAM), 1.0, 25)
    want = branching_nb_transition_matrix(1.0, 0.5, 0.5, 25)
    assert np.max(np.abs(got - want)) <= 1e-5


def test_uniformized_semigroup():
    # compare on an inner block; rows near the requested bound legitimately
    # leak to states beyond it, so the product needs headroom
    model = PoissonBD(1.0, LAM)
    outer, inner = 50, 30
    ps = transition_uniformized(model, 0.5, outer)
    pt = transition_uniformized(model, 1.0, outer)
    pst = transition_uniformized(model, 1.5, outer)
    diff = np.abs((ps @ pt)[: inner + 1, : inner + 1] - pst[: inner + 1, : inner + 1])
    assert diff.max() <= 1e-8


def test_uniformized_rows_substochastic():
    p = transition_uniformized(NBBD(2.0, 0.5, 1.0), 1.5, 20)
    sums = p.sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-12)
    assert np.all(p >= 0.0)


@pytest.mark.parametrize("model", [PoissonBD(1.0, LAM), NBBD(2.0, 0.5, LAM)])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_autocorrelation_decays_exponentially(model, t):
    kmax = 40
    pi = stationary_bd(model, kmax)
    p = transition_uniformized(model, t, kmax)
    k = np.arange(kmax + 1)
    mean = pi @ k
    var = pi @ k**2 - mean**2
    cross = (pi * k) @ p @ k
    corr = (cross - mean * mean) / var
    assert abs(corr - math.exp(-model.lam * t)) <= 1e-4


def test_nb_converges_to_poisson():
    # alpha (1 - p) = theta fixed while p -> 1
    theta = 1.0
    tv_prev = None
    for p in (0.9, 0.99, 0.999):
        alpha = theta / (1.0 - p)
        pi_nb = stationary_bd(NBBD(alpha, p, 1.0), 40)
        pi_po = stationary_bd(PoissonBD(theta, 1.0), 40)
        tv = 0.5 * np.abs(pi_nb - pi_po).sum()
        if tv_prev is not None:
            assert tv < tv_prev
        tv_prev = tv


def _generator(model, kmax):
    """Generator on {0..kmax} with the top birth edge dropped from the
    off-diagonal and kept in the exit rate, as the kernels truncate it."""
    births = np.array([bd_rates(model, j)[0] for j in range(kmax + 1)])
    deaths = np.array([bd_rates(model, j)[1] for j in range(kmax + 1)])
    return -np.diag(births + deaths) + np.diag(births[:-1], 1) + np.diag(deaths[1:], -1)


@pytest.mark.parametrize(
    "model, t, kmax",
    [(NBBD(0.3, 0.1, 1.0), 0.1, 40), (NBBD(2.0, 0.5, 1.0), 1.0, 30), (PoissonBD(50.0, 2.0), 3.0, 80)],
)
def test_uniformized_matches_expm_of_the_generator(model, t, kmax):
    from scipy.linalg import expm

    big = 4 * kmax + 100
    want = expm(t * _generator(model, big))[: kmax + 1, : kmax + 1]
    assert np.max(np.abs(transition_uniformized(model, t, kmax) - want)) <= 1e-13


# theta and alpha in [0.2, 4], p in [0.1, 0.95], lambda in [0.1, 3]
MODELS = st.one_of(
    st.builds(PoissonBD, st.floats(0.2, 4.0), st.floats(0.1, 3.0)),
    st.builds(NBBD, st.floats(0.2, 4.0), st.floats(0.1, 0.95), st.floats(0.1, 3.0)),
)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(model=MODELS, t=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 0.05)), kint=st.integers(1, 120))
def test_uniformized_matches_expm_over_its_domain(model, t, kint):
    # the whole block, deficits and all, against scipy's expm of the same
    # truncated generator; small t has lambda t <= 1 and no squarings
    from scipy.linalg import expm

    block, deficit = _uniformized_block(model, t, kint)
    assert np.abs(block - expm(t * _generator(model, kint))).max() <= 1e-13
    assert block.min() >= 0.0 and deficit.min() >= 0.0
    assert np.abs(block.sum(axis=1) + deficit - 1.0).max() <= 1e-13
    assert not np.any((block > 0.0) & (block < np.finfo(float).tiny))


def test_uniformized_leaves_scipy_linalg_unloaded():
    # scipy.linalg adds ~5 MB to every process that computes a kernel
    src = str(Path(misti.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = (
        "import sys, misti; "
        "misti.transition_uniformized(misti.NBBD(2.0, 0.5, 1.0), 1.0, 30); "
        "print('scipy.linalg' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def _pmf_40_digits(log_term, kmax):
    with mpmath.workdps(40):
        return np.array([float(mpmath.exp(log_term(mpmath.mpf(i)))) for i in range(kmax + 1)])


@pytest.mark.parametrize(
    "model, kmax",
    [(PoissonBD(800.0, 1.0), 850), (PoissonBD(2000.0, 1.0), 2100), (NBBD(2000.0, 0.5, 1.0), 2050)],
)
def test_stationary_bd_large_scale_does_not_overflow(model, kmax):
    if isinstance(model, PoissonBD):
        theta = mpmath.mpf(model.theta)
        log_term = lambda i: i * mpmath.log(theta) - theta - mpmath.loggamma(i + 1)
    else:
        alpha, p = mpmath.mpf(model.alpha), mpmath.mpf(model.p)
        log_term = lambda i: (
            mpmath.loggamma(alpha + i) - mpmath.loggamma(alpha) - mpmath.loggamma(i + 1)
            + alpha * mpmath.log(p) + i * mpmath.log(1 - p)
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stationary_bd(model, kmax)
    assert np.max(np.abs(got - _pmf_40_digits(log_term, kmax))) <= 1e-14


def test_stationary_bd_fails_loudly_past_the_term_cap():
    # NB(1, 1e-6) needs ~4e7 terms to reach its 1e-18 tail; normalising the
    # first 10**6 would give 1.58e-6 per state where the pmf is 1.0e-6
    with pytest.raises(ValueError, match=r"kmax \+ 10\*\*6"):
        stationary_bd(NBBD(1.0, 1e-6, 1.0), 5)


def _stationary_term_by_term(model, kmax):
    # detailed balance one state at a time, as a reference for the chunked sum
    logw, top, i = [0.0], 0.0, 0
    while i <= kmax or logw[-1] > top + math.log(1e-18):
        birth, death = bd_rates(model, i)[0], bd_rates(model, i + 1)[1]
        logw.append(logw[-1] + math.log(birth / death))
        top, i = max(top, logw[-1]), i + 1
    weights = np.exp(np.array(logw) - top)
    return weights[: kmax + 1] / weights.sum()


@pytest.mark.parametrize(
    "model",
    [PoissonBD(1.0, 1.0), PoissonBD(400.0, 0.5), NBBD(2.0, 0.5, 3.0), NBBD(0.3, 0.05, 1.0), NBBD(1e4, 0.5, 1.0)],
)
def test_stationary_bd_matches_the_term_by_term_series(model):
    for kmax in (0, 7, 60):
        got = stationary_bd(model, kmax)
        assert np.max(np.abs(got - _stationary_term_by_term(model, kmax))) <= 1e-15


def test_stationary_bd_of_a_frozen_chain_fails_loudly():
    # lambda = 0: every state is absorbing, so detailed balance fixes nothing
    with pytest.raises(ValueError, match="detailed balance"):
        stationary_bd(PoissonBD(1.0, 0.0), 5)


@pytest.mark.parametrize("model", [PoissonBD(3.0, 1.0), NBBD(2.0, 0.4, 1.0)])
def test_stationary_draw_follows_the_marginal(model):
    rng = np.random.default_rng(64)
    draws = [model.stationary_draw(rng) for _ in range(20000)]
    assert all(type(x) is int for x in draws[:10])
    assert chi2_gof_pvalue(draws, model.marginal(40)) > 0.001


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bd_rates(PoissonBD(1.0, 1.0), -1), "state must be a nonnegative integer"),
        (lambda: bd_rates(PoissonBD(1.0, 1.0), 1.5), "state must be a nonnegative integer"),
        (lambda: EventPath([0.5, 1.0], [1, 2], 2.0).at(0.25), "outside the simulated window"),
        (lambda: EventPath([0.5, 1.0], [1, 2], 2.0).at([1.0, 2.5]), "outside the simulated window"),
        (lambda: gillespie(PoissonBD(1.0, 1.0), 1.5, 5.0, np.random.default_rng(0)), "initial state must be"),
        (lambda: stationary_bd(NBBD(2.0, 0.5, 1.0), -1), "kmax must be >= 0"),
    ],
    ids=[
        "negative-rate-state", "fractional-rate-state", "query-before-start",
        "query-past-horizon", "fractional-start", "negative-kmax",
    ],
)
def test_ctmc_refuses_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
