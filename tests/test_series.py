import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from misti.discrete import BranchingNB, BranchingPoisson, RandomMeasure, Thinning
from misti.idlaw import NegBinomial, Poisson, id_pmf
from misti.series import TruncSeries, ts_eval, ts_exp, ts_from_joint_pmf, ts_log, ts_mul
from misti.tables import JointPMF
from misti.verify import chain_joint_pmf, check_mvid

# deterministic examples, so that tier-1 results never depend on the run
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _random_series(rng, nvars, maxdeg):
    shape = (maxdeg + 1,) * nvars
    return TruncSeries(nvars, maxdeg, rng.uniform(-1.0, 1.0, size=shape))


def test_mul_bivariate_linear():
    one_plus_s = TruncSeries.from_terms(2, 2, {(0, 0): 1.0, (1, 0): 1.0})
    one_plus_t = TruncSeries.from_terms(2, 2, {(0, 0): 1.0, (0, 1): 1.0})
    got = ts_mul(one_plus_s, one_plus_t)
    want = TruncSeries.from_terms(2, 2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert got.allclose(want)


def test_mul_identity():
    rng = np.random.default_rng(3)
    a = _random_series(rng, 2, 4)
    one = TruncSeries.const(2, 4, 1.0)
    assert ts_mul(a, one).allclose(a, tol=0.0)


def test_mul_telescoping_truncation():
    # (1 + s + s^2)(1 - s) = 1 - s^3, which truncates to 1 at degree 2
    a = TruncSeries.from_terms(1, 2, {0: 1.0, 1: 1.0, 2: 1.0})
    b = TruncSeries.from_terms(1, 2, {0: 1.0, 1: -1.0})
    assert ts_mul(a, b).allclose(TruncSeries.from_terms(1, 2, {0: 1.0}))


def test_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ts_mul(TruncSeries.const(1, 3, 1.0), TruncSeries.const(2, 3, 1.0))


def test_mul_commutative_associative():
    rng = np.random.default_rng(99)
    for nvars in (1, 2, 3):
        a, b, c = (_random_series(rng, nvars, 5) for _ in range(3))
        assert ts_mul(a, b).allclose(ts_mul(b, a), tol=1e-12)
        assert ts_mul(ts_mul(a, b), c).allclose(ts_mul(a, ts_mul(b, c)), tol=1e-12)


def test_exp_of_zero_is_one():
    zero = TruncSeries.zero(2, 5)
    assert ts_exp(zero).allclose(TruncSeries.const(2, 5, 1.0), tol=0.0)


def test_log_requires_positive_constant():
    with pytest.raises(ValueError):
        ts_log(TruncSeries.zero(1, 4))


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(2024)
    for nvars in (1, 2, 3):
        for _ in range(3):
            a = _random_series(rng, nvars, 6 if nvars < 3 else 4)
            back = ts_log(ts_exp(a))
            assert back.allclose(a, tol=1e-10)


def test_log_of_poisson_pgf_series():
    # exp of theta (z - 1) is the Poisson pgf; its log comes straight back
    theta = 1.3
    a = TruncSeries.from_terms(1, 8, {0: -theta, 1: theta})
    assert ts_log(ts_exp(a)).allclose(a, tol=1e-12)


def test_log_of_nb_pgf_gives_jump_masses():
    # log (1 - q z)^(-alpha) has coefficients alpha q^j / j
    alpha, q = 2.0, 0.5
    maxdeg = 5
    k = np.arange(maxdeg + 1)
    from scipy.special import gammaln

    coeffs = np.exp(gammaln(alpha + k) - gammaln(alpha) - gammaln(k + 1)) * q**k
    got = ts_log(TruncSeries(1, maxdeg, coeffs))
    want = [alpha * q**j / j for j in range(1, maxdeg + 1)]
    assert got.coeff(0) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose([got.coeff(j) for j in range(1, maxdeg + 1)], want, atol=1e-12)


def test_from_joint_pmf_point_mass():
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    pmf = JointPMF((0, 1), 3, table)
    assert ts_from_joint_pmf(pmf).allclose(TruncSeries.const(2, 6, 1.0), tol=0.0)


def test_from_joint_pmf_product_factorizes():
    pa = id_pmf(Poisson(), 0.8, 5)
    pb = id_pmf(NegBinomial(0.5), 1.0, 5)
    pmf = JointPMF((0, 1), 5, np.outer(pa, pb))
    joint_ts = ts_from_joint_pmf(pmf)
    sa = TruncSeries(2, 10, np.outer(np.append(pa, np.zeros(5)), np.eye(11)[0]))
    sb = TruncSeries(2, 10, np.outer(np.eye(11)[0], np.append(pb, np.zeros(5))))
    assert joint_ts.allclose(ts_mul(sa, sb), tol=1e-14)


def test_from_joint_pmf_matches_closed_form_expansion():
    # exact bivariate branching-Poisson table vs expansion of its closed-form pgf
    theta, rho, maxdeg = 1.0, 0.5, 10
    pair = chain_joint_pmf(BranchingPoisson(theta, rho), (0, 1), 12)
    table_ts = ts_from_joint_pmf(pair, maxdeg=maxdeg)
    exponent = TruncSeries.from_terms(
        2,
        maxdeg,
        {
            (0, 0): -theta * (2.0 - rho),
            (1, 0): theta * (1.0 - rho),
            (0, 1): theta * (1.0 - rho),
            (1, 1): theta * rho,
        },
    )
    assert ts_exp(exponent).allclose(table_ts, tol=1e-10)


def test_eval_constant_and_product():
    assert ts_eval(TruncSeries.const(3, 4, 1.0), (0.3, 0.9, 0.1)) == 1.0
    half = TruncSeries.from_terms(2, 3, {(0, 0): 0.25, (1, 0): 0.25, (0, 1): 0.25, (1, 1): 0.25})
    assert ts_eval(half, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-15)


def test_eval_log_pgf_at_zero():
    pgf = TruncSeries(1, 20, id_pmf(Poisson(), 1.0, 20))
    assert ts_eval(ts_log(pgf), (0.0,)) == pytest.approx(-1.0, rel=1e-12)


def test_eval_at_ones_is_captured_mass():
    rng = np.random.default_rng(12)
    raw = rng.uniform(0.0, 1.0, size=(5, 5, 5))
    raw /= raw.sum() * 1.25  # leave a genuine leak
    pmf = JointPMF((0, 1, 2), 4, raw)
    total = ts_eval(ts_from_joint_pmf(pmf), (1.0, 1.0, 1.0))
    assert total == pytest.approx(1.0 - pmf.leaked, abs=1e-12)
    assert total <= 1.0


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        ts_eval(TruncSeries.const(2, 3, 1.0), (0.5,))


@st.composite
def _series(draw, elements, constant=None, shape=None):
    """A series with n in {1,2,3} and degree <= 8 (or the given shape), whose
    coefficients come from ``elements`` and constant term from ``constant``."""
    nvars, maxdeg = shape or (draw(st.integers(1, 3)), draw(st.integers(0, 8)))
    coeffs = draw(hnp.arrays(float, (maxdeg + 1,) * nvars, elements=elements))
    if constant is not None:
        coeffs[(0,) * nvars] = draw(constant)
    return TruncSeries(nvars, maxdeg, coeffs)


@PROPERTY
@given(_series(st.floats(-1.0, 1.0)))
def test_log_inverts_exp(a):
    assert ts_log(ts_exp(a)).allclose(a, tol=1e-10)


@PROPERTY
@given(_series(st.floats(-0.5, 0.5), constant=st.floats(1.0, 2.0)))
def test_exp_inverts_log(a):
    # coefficients of log a grow like (sum |a_k| / a_0)^degree, so the
    # round trip is held to a tolerance relative to that size
    log_a = ts_log(a)
    assert ts_exp(log_a).allclose(a, tol=1e-13 * max(1.0, np.abs(log_a.coeffs).max()))


def _cauchy_product(a, b):
    """Truncated product by brute force over {multi-index: coefficient} dicts."""

    def terms(s):
        return {i: s.coeffs[i] for i in np.ndindex(s.coeffs.shape) if sum(i) <= s.maxdeg}

    out = {}
    for i, x in terms(a).items():
        for j, y in terms(b).items():
            k = tuple(p + q for p, q in zip(i, j))
            if sum(k) <= a.maxdeg:
                out[k] = out.get(k, 0.0) + x * y
    return TruncSeries.from_terms(a.nvars, a.maxdeg, out)


@PROPERTY
@given(st.data())
def test_mul_is_the_cauchy_product(data):
    # small-integer coefficients keep every partial sum exact in floats
    nvars = data.draw(st.integers(1, 3))
    shape = (nvars, data.draw(st.integers(0, 8 if nvars < 3 else 6)))
    a, b = (data.draw(_series(st.integers(-3, 3).map(float), shape=shape)) for _ in range(2))
    assert ts_mul(a, b).allclose(_cauchy_product(a, b), tol=0.0)


@PROPERTY
@given(
    kind=st.sampled_from(["branching-nb", "thinning-nb", "random-measure-nb"]),
    theta=st.floats(0.2, 3.0),
    p=st.floats(0.2, 0.9),
    rho=st.floats(0.1, 0.9),
    degree=st.integers(2, 8),
)
def test_mvid_precisions_agree(kind, theta, p, rho, degree):
    spec = {
        "branching-nb": BranchingNB(theta, p, rho),
        "thinning-nb": Thinning(NegBinomial(p), theta, rho),
        "random-measure-nb": RandomMeasure(NegBinomial(p), theta, rho),
    }[kind]
    j3 = chain_joint_pmf(spec, (0, 1, 2), degree)
    std, ext = check_mvid(j3, degree), check_mvid(j3, degree, precision="extended")
    lo, hi = std.extra["min_coefficient"], ext.extra["min_coefficient"]
    assert abs(lo - hi) <= max(1e-10 * abs(hi), 1e-15)
    # a minimum at a coefficient that is 0 in exact arithmetic is rounding
    # noise in both precisions, and so is where it sits; a negative one is not
    if hi < -1e-12:
        assert std.witness == ext.witness
