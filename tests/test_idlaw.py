import math

import numpy as np
import pytest
from _helpers import chi2_gof_pvalue
from hypothesis import given, settings
from hypothesis import strategies as st

from misti.idlaw import (
    GenericLevy,
    NegBinomial,
    Poisson,
    id_pgf,
    id_pmf,
    id_sample,
    levy_masses,
    levy_total,
    pmf_from_levy,
    thinning_conditional,
)

LAWS = [Poisson(), NegBinomial(0.5), NegBinomial(0.8), GenericLevy({1: 0.7, 3: 0.2})]


def test_levy_masses_poisson():
    assert np.allclose(levy_masses(Poisson(), 2.0, 3), [2.0, 0.0, 0.0])


def test_levy_masses_nb_geometric_over_j():
    # theta * q^j / j with q = 0.5
    got = levy_masses(NegBinomial(0.5), 2.0, 3)
    assert np.allclose(got, [1.0, 0.25, 1.0 / 12.0], atol=0, rtol=1e-15)


def test_levy_masses_generic_scales_with_theta():
    law = GenericLevy({1: 0.5, 2: 0.3})
    assert np.allclose(levy_masses(law, 1.0, 2), [0.5, 0.3])
    assert np.allclose(levy_masses(law, 2.5, 2), [1.25, 0.75])


def test_generic_levy_rejects_missing_unit_mass():
    with pytest.raises(ValueError):
        GenericLevy({2: 0.3})
    with pytest.raises(ValueError):
        GenericLevy({1: 0.0, 2: 0.3})


def test_generic_levy_validates_entries():
    with pytest.raises(ValueError):
        GenericLevy({0: 0.3})
    with pytest.raises(ValueError):
        GenericLevy({1: -0.1})


def test_negbinomial_validates_p():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            NegBinomial(bad)


def test_id_pmf_poisson_closed_form():
    got = id_pmf(Poisson(), 1.0, 3)
    e = math.exp(-1.0)
    assert np.allclose(got, [e, e, e / 2.0, e / 6.0], rtol=1e-15)


def test_id_pmf_nb_closed_form():
    # NB(2, 0.5): Gamma(2+k)/(Gamma(2) k!) 0.25 * 0.5^k
    got = id_pmf(NegBinomial(0.5), 2.0, 2)
    assert np.allclose(got, [0.25, 0.25, 0.1875], rtol=1e-14)


def test_id_pmf_empty_levy_is_point_mass():
    got = id_pmf(GenericLevy({}), 5.0, 2)
    assert np.array_equal(got, [1.0, 0.0, 0.0])


def test_id_pmf_zero_scale_is_point_mass():
    for law in LAWS:
        assert np.array_equal(id_pmf(law, 0.0, 3), [1.0, 0.0, 0.0, 0.0])


def test_id_pmf_rejects_negative_bound():
    with pytest.raises(ValueError):
        id_pmf(Poisson(), 1.0, -1)


@pytest.mark.parametrize("law", [Poisson(), NegBinomial(0.5), NegBinomial(0.8)])
@pytest.mark.parametrize("theta", [0.3, 1.0, 4.5])
def test_closed_forms_agree_with_levy_recursion(law, theta):
    kmax = 30
    closed = id_pmf(law, theta, kmax)
    recursed = pmf_from_levy(levy_masses(law, theta, kmax), levy_total(law, theta), kmax)
    assert np.max(np.abs(closed - recursed)) <= 1e-12


def _dense_levy_recursion(masses, total, kmax):
    """The compound recursion with one dot product over all k earlier terms
    per state, the form that pmf_from_levy replaced."""
    p = np.zeros(kmax + 1)
    p[0] = math.exp(-total)
    weighted = np.arange(1, kmax + 1) * masses[:kmax]
    for k in range(1, kmax + 1):
        p[k] = np.dot(weighted[:k], p[k - 1 :: -1]) / k
    return p


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    unit=st.floats(0.05, 2.0),
    rest=st.dictionaries(st.integers(2, 12), st.floats(0.0, 2.0), max_size=4),
    theta=st.floats(0.05, 6.0),
    kmax=st.integers(0, 60),
)
def test_levy_recursion_over_the_nonzero_jumps_matches_the_dense_one(unit, rest, theta, kmax):
    law = GenericLevy({1: unit, **rest})
    masses, total = levy_masses(law, theta, max(kmax, 1)), levy_total(law, theta)
    want = _dense_levy_recursion(masses, total, kmax)
    got = pmf_from_levy(masses, total, kmax)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_semigroup_convolution():
    rng = np.random.default_rng(1234)
    kmax = 25
    for law in LAWS:
        for _ in range(4):
            t1, t2 = rng.uniform(0.1, 3.0, size=2)
            conv = np.convolve(id_pmf(law, t1, kmax), id_pmf(law, t2, kmax))[: kmax + 1]
            assert np.max(np.abs(conv - id_pmf(law, t1 + t2, kmax))) <= 1e-10


def test_id_pgf_values():
    assert id_pgf(Poisson(), 1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert id_pgf(NegBinomial(0.5), 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    for law in LAWS:
        assert id_pgf(law, 2.3, 1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        id_pgf(Poisson(), 1.0, 1.5)


def test_pgf_matches_pmf_within_tail():
    kmax = 40
    for law in LAWS:
        pmf = id_pmf(law, 1.7, kmax)
        tail = 1.0 - pmf.sum()
        for z in (0.0, 0.4, 0.9, 1.0):
            partial = pmf @ (z ** np.arange(kmax + 1))
            assert abs(id_pgf(law, 1.7, z) - partial) <= tail + 1e-12


def test_id_sample_zero_scale():
    rng = np.random.default_rng(0)
    assert id_sample(Poisson(), 0.0, rng) == 0
    assert np.array_equal(id_sample(NegBinomial(0.5), 0.0, rng, size=5), np.zeros(5))


def test_id_sample_poisson_mean():
    rng = np.random.default_rng(7)
    draws = id_sample(Poisson(), 4.0, rng, size=10**5)
    se = 2.0 / math.sqrt(10**5)
    assert abs(draws.mean() - 4.0) <= 3 * se


def test_id_sample_nb_mean():
    # mean is theta (1-p)/p = 2
    rng = np.random.default_rng(11)
    draws = id_sample(NegBinomial(0.5), 2.0, rng, size=10**5)
    sd = math.sqrt(2.0 / 0.5)  # var = theta q / p^2
    assert abs(draws.mean() - 2.0) <= 3 * sd / math.sqrt(10**5)


def test_id_sample_generic_levy_mean():
    law = GenericLevy({1: 0.7, 3: 0.2})
    theta = 1.5
    mean = theta * (1 * 0.7 + 3 * 0.2)
    rng = np.random.default_rng(23)
    draws = id_sample(law, theta, rng, size=10**5)
    assert abs(draws.mean() - mean) <= 3 * draws.std() / math.sqrt(draws.size)


@pytest.mark.parametrize("law", [*LAWS, GenericLevy({1: 0.6, 2: 0.4})])
def test_id_sample_matches_pmf(law):
    rng = np.random.default_rng(5)
    draws = id_sample(law, 1.2, rng, size=20000)
    pmf = id_pmf(law, 1.2, 20)
    assert chi2_gof_pvalue(draws, pmf) > 0.001


@pytest.mark.parametrize("law", LAWS)
def test_keeper_draws_from_the_thinning_conditional(law):
    # the state-free draws of 20000 steps, each step then kept from x = 6
    keep = law.keeper(1.5, 0.6, 20000, np.random.default_rng(13))
    draws = [keep(6, i) for i in range(20000)]
    assert chi2_gof_pvalue(draws, thinning_conditional(law, 1.5, 0.6, 6)) > 0.001


@pytest.mark.parametrize("law", LAWS)
def test_jumps_follow_the_normalised_jump_masses(law):
    # jump sizes above 40 share the last bin; Poisson jumps are all ones
    draws = np.minimum(law.jumps(np.random.default_rng(19), 20000), 40)
    masses = levy_masses(law, 1.0, 40) / levy_total(law, 1.0)
    support = np.flatnonzero(masses > 0.0)
    assert np.all(masses[draws - 1] > 0.0)
    if support.size > 1:
        assert chi2_gof_pvalue(np.searchsorted(support, draws - 1), masses[support]) > 0.001


def test_generic_levy_batched_draws_sum_their_own_jumps():
    # reference: the per-draw loop over the same Poisson counts and jumps
    law, theta = GenericLevy({1: 0.7, 3: 0.2}), 1.5
    got = id_sample(law, theta, np.random.default_rng(3), size=(40, 5))
    rng = np.random.default_rng(3)
    counts = rng.poisson(levy_total(law, theta), (40, 5)).ravel()
    jumps = law.jumps(rng, int(counts.sum()))
    stops = np.cumsum(counts)
    want = [int(jumps[stop - count : stop].sum()) for count, stop in zip(counts, stops)]
    assert got.dtype == np.int64 and got.shape == (40, 5)
    assert got.ravel().tolist() == want


def test_jumps_of_the_empty_table_are_zero_sized():
    assert np.array_equal(GenericLevy(()).jumps(np.random.default_rng(0), 3), np.zeros(3))


def _pmf_40_digits(law, theta, kmax):
    import mpmath

    with mpmath.workdps(40):
        t, k = mpmath.mpf(theta), range(kmax + 1)
        if isinstance(law, Poisson):
            logs = (j * mpmath.log(t) - t - mpmath.loggamma(j + 1) for j in k)
        else:
            p = mpmath.mpf(law.p)
            logs = (
                mpmath.loggamma(t + j) - mpmath.loggamma(t) - mpmath.loggamma(j + 1)
                + t * mpmath.log(p) + j * mpmath.log(1 - p)
                for j in k
            )
        return np.array([float(mpmath.exp(v)) for v in logs])


# (law, theta, bound): about twice the max |error| over k measured for the
# ratio recursion; scipy's gammaln differences were 7.2e-16, 4.2e-14 and
# 1.2e-13 off on the NB cases at (2, 0.02), (2000, 0.5) and (2000, 0.98).
# theta = 1e-12 catches the NB ratio evaluated as ((theta + k) - 1) q / k,
# which loses theta to rounding at k = 1
ACCURACY_CASES = [
    (Poisson(), 0.01, 2.2e-16),
    (Poisson(), 2.0, 5.6e-17),
    (Poisson(), 50.0, 1.3e-15),
    (Poisson(), 400.0, 9.6e-15),
    (Poisson(), 2000.0, 6.2e-14),
    (NegBinomial(0.5), 1e-12, 1e-27),
    (NegBinomial(0.5), 0.01, 5.6e-17),
    (NegBinomial(0.5), 0.5, 5.6e-17),
    (NegBinomial(0.5), 2.0, 5.6e-17),
    (NegBinomial(0.02), 2.0, 3.4e-17),
    (NegBinomial(0.98), 2.0, 1.4e-17),
    (NegBinomial(0.5), 2000.0, 1.5e-14),
    (NegBinomial(0.98), 2000.0, 9e-16),
]


@pytest.mark.parametrize(
    "law, theta, bound", ACCURACY_CASES, ids=[f"{law!r}-{theta:g}" for law, theta, _ in ACCURACY_CASES]
)
def test_id_pmf_matches_40_digit_values(law, theta, bound):
    mean, var = theta, theta
    if isinstance(law, NegBinomial):
        mean = theta * (1.0 - law.p) / law.p
        var = mean / law.p
    kmax = int(mean + 12.0 * math.sqrt(var)) + 40
    err = np.max(np.abs(id_pmf(law, theta, kmax) - _pmf_40_digits(law, theta, kmax)))
    assert err <= bound
