import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from _helpers import chi2_gof_pvalue

import misti
from misti.ctmc import (
    NBBD,
    PoissonBD,
    bd_rates,
    generator_residual,
    gillespie,
    stationary_bd,
    transition_uniformized,
)
from misti.discrete import branching_nb_transition_matrix, thinning_transition_matrix
from misti.idlaw import NegBinomial, Poisson, id_pmf

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
