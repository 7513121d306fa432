import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from misti.discrete import BranchingNB, BranchingPoisson, RandomMeasure, Thinning
from misti.idlaw import NegBinomial, Poisson, id_pmf
from misti.series import graded_exp_log, graded_order, ts_from_joint_pmf, ts_log
from misti.tables import JointPMF
from misti.verify import chain_joint_pmf, check_mvid

# deterministic examples, so that tier-1 results never depend on the run
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _truncated(coeffs):
    """A dense coefficient array with its entries of total degree > maxdeg zeroed."""
    maxdeg = coeffs.shape[0] - 1
    return np.where(np.indices(coeffs.shape).sum(axis=0) <= maxdeg, coeffs, 0.0)


def _exp(a):
    """exp of a dense coefficient array, by the recursion that ts_log inverts."""
    return graded_exp_log(a.ravel(), a.ndim, a.shape[0] - 1).reshape(a.shape)


def _const(nvars, maxdeg, value):
    out = np.zeros((maxdeg + 1,) * nvars)
    out[(0,) * nvars] = value
    return out


def _close(a, b, tol):
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)


def _random_series(rng, nvars, maxdeg):
    return _truncated(rng.uniform(-1.0, 1.0, size=(maxdeg + 1,) * nvars))


def test_exp_of_zero_is_one():
    assert _close(_exp(np.zeros((6, 6))), _const(2, 5, 1.0), tol=0.0)


def test_log_requires_positive_constant():
    with pytest.raises(ValueError):
        ts_log(np.zeros(5))


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(2024)
    for nvars in (1, 2, 3):
        for _ in range(3):
            a = _random_series(rng, nvars, 6 if nvars < 3 else 4)
            assert _close(ts_log(_exp(a)), a, tol=1e-10)


def test_log_of_poisson_pgf_series():
    # exp of theta (z - 1) is the Poisson pgf; its log comes straight back
    theta = 1.3
    a = np.zeros(9)
    a[:2] = -theta, theta
    assert _close(ts_log(_exp(a)), a, tol=1e-12)


def test_log_of_nb_pgf_gives_jump_masses():
    # log (1 - q z)^(-alpha) has coefficients alpha q^j / j
    alpha, q = 2.0, 0.5
    maxdeg = 5
    k = np.arange(maxdeg + 1)
    from scipy.special import gammaln

    coeffs = np.exp(gammaln(alpha + k) - gammaln(alpha) - gammaln(k + 1)) * q**k
    got = ts_log(coeffs)
    want = [alpha * q**j / j for j in range(1, maxdeg + 1)]
    assert got[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(got[1:], want, atol=1e-12)


def test_from_joint_pmf_point_mass():
    table = np.zeros((4, 4))
    table[0, 0] = 1.0
    pmf = JointPMF((0, 1), 3, table)
    assert _close(ts_from_joint_pmf(pmf), _const(2, 6, 1.0), tol=0.0)


def test_from_joint_pmf_product_factorizes():
    # the pgf of an independent pair is the product of its marginal pgfs, so
    # its log is their sum: no mixed coefficients
    pa = id_pmf(Poisson(), 0.8, 5)
    pb = id_pmf(NegBinomial(0.5), 1.0, 5)
    pmf = JointPMF((0, 1), 5, np.outer(pa, pb))
    joint = ts_from_joint_pmf(pmf)
    want = np.zeros((11, 11))
    want[:6, :6] = np.outer(pa, pb)
    assert _close(joint, want, tol=0.0)
    log_a, log_b = (ts_log(np.append(p, np.zeros(5))) for p in (pa, pb))
    want = np.zeros((11, 11))
    want[:, 0] += log_a
    want[0, :] += log_b
    assert _close(ts_log(joint), want, tol=1e-12)


def test_from_joint_pmf_matches_closed_form_expansion():
    # exact bivariate branching-Poisson table vs expansion of its closed-form pgf
    theta, rho, maxdeg = 1.0, 0.5, 10
    pair = chain_joint_pmf(BranchingPoisson(theta, rho), (0, 1), 12)
    table_ts = ts_from_joint_pmf(pair, maxdeg=maxdeg)
    exponent = np.zeros((maxdeg + 1, maxdeg + 1))
    exponent[0, 0] = -theta * (2.0 - rho)
    exponent[1, 0] = exponent[0, 1] = theta * (1.0 - rho)
    exponent[1, 1] = theta * rho
    assert _close(_exp(exponent), table_ts, tol=1e-10)


def test_eval_log_pgf_at_zero():
    # the log-pgf at 0 is its constant term, log P(0) = -theta for Poisson(theta)
    assert ts_log(id_pmf(Poisson(), 1.0, 20))[0] == pytest.approx(-1.0, rel=1e-12)


def test_eval_at_ones_is_captured_mass():
    # the pgf at (1, ..., 1) is the sum of its coefficients
    rng = np.random.default_rng(12)
    raw = rng.uniform(0.0, 1.0, size=(5, 5, 5))
    raw /= raw.sum() * 1.25  # leave a genuine leak
    pmf = JointPMF((0, 1, 2), 4, raw)
    total = ts_from_joint_pmf(pmf).sum()
    assert total == pytest.approx(1.0 - pmf.leaked, abs=1e-12)
    assert total <= 1.0


@st.composite
def _series(draw, elements, constant=None):
    """A series with n in {1,2,3} and degree <= 8, whose coefficients come
    from ``elements`` and constant term from ``constant``."""
    nvars, maxdeg = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    coeffs = draw(hnp.arrays(float, (maxdeg + 1,) * nvars, elements=elements))
    if constant is not None:
        coeffs[(0,) * nvars] = draw(constant)
    return _truncated(coeffs)


@PROPERTY
@given(_series(st.floats(-1.0, 1.0)))
def test_log_inverts_exp(a):
    assert _close(ts_log(_exp(a)), a, tol=1e-10)


@PROPERTY
@given(_series(st.floats(-0.5, 0.5), constant=st.floats(1.0, 2.0)))
def test_exp_inverts_log(a):
    # coefficients of log a grow like (sum |a_k| / a_0)^degree, so the
    # round trip is held to a tolerance relative to that size
    log_a = ts_log(a)
    assert _close(_exp(log_a), a, tol=1e-13 * max(1.0, np.abs(log_a).max()))


@PROPERTY
@given(nvars=st.integers(1, 3), maxdeg=st.integers(0, 8))
def test_graded_order_lists_the_pairs_of_each_degree(nvars, maxdeg):
    # brute force over {multi-index: flattened position} dicts: degree h holds
    # the indices of degree h, and for each such m in turn every pair k, r != 0
    # with k + r = m, which is the sum the exp/log recursion takes at m
    shape = (maxdeg + 1,) * nvars
    position = {m: i for i, m in enumerate(np.ndindex(shape))}
    kept = [m for m in position if sum(m) <= maxdeg]
    pairs = {}
    for k in kept:
        for r in kept:
            if any(k) and any(r) and sum(k) + sum(r) <= maxdeg:
                m = tuple(a + b for a, b in zip(k, r))
                pairs.setdefault(m, []).append((position[k], position[r]))
    levels = graded_order(nvars, maxdeg)
    assert len(levels) == maxdeg + 1
    for h, (block, left, right, offsets) in enumerate(levels):
        targets = [m for m in kept if sum(m) == h]
        assert block.tolist() == [position[m] for m in targets]
        if h < 2:
            assert left is None and not any(m in pairs for m in targets)
            continue
        groups = np.split(np.stack([left, right], axis=1), offsets[1:])
        assert len(groups) == len(targets)
        for m, group in zip(targets, groups):
            assert sorted(map(tuple, group.tolist())) == sorted(pairs[m])


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


def _per_pair(a, nvars, maxdeg, log=None):
    """graded_exp_log with deg(k) x[k] formed once per pair, the form it
    replaced: the reference its outputs must match bit for bit."""
    inverse = log is not None
    degree = np.indices((maxdeg + 1,) * nvars).sum(axis=0).ravel()
    b0 = log(a[0]) if inverse else math.exp(a[0])
    out = a / a[0] if inverse else a * b0
    out[0] = b0
    for h, (block, left, right, offsets) in enumerate(graded_order(nvars, maxdeg)[2:], 2):
        x, y = (out, a) if inverse else (a, out)
        acc = np.add.reduceat(degree[left] * x[left] * y[right], offsets) / h
        out[block] = (a[block] - acc) / a[0] if inverse else a[block] * b0 + acc
    return out


def test_graded_exp_runs_in_40_digits_given_the_mpmath_exp():
    import mpmath

    with mpmath.workdps(40):
        a = np.array([mpmath.mpf(1) / 3, mpmath.mpf(1) / 7], dtype=object)
        b = graded_exp_log(a, 1, 1, exp=mpmath.exp)
        assert isinstance(b[0], mpmath.mpf)
        want = a[1] * mpmath.exp(a[0])
        assert abs(b[1] - want) <= mpmath.mpf(10) ** -35 * abs(want)


@pytest.mark.parametrize("nvars, maxdeg", [(1, 9), (2, 7), (3, 6)])
def test_graded_exp_log_matches_the_per_pair_form_bit_for_bit(nvars, maxdeg):
    import mpmath

    rng = np.random.default_rng(nvars * 100 + maxdeg)
    a = _random_series(rng, nvars, maxdeg).ravel()
    a[0] = 0.7
    for log in (None, math.log):
        got = graded_exp_log(a.copy(), nvars, maxdeg, log)
        assert np.array_equal(got, _per_pair(a.copy(), nvars, maxdeg, log))
    with mpmath.workdps(40):
        terms = np.array([mpmath.mpf(float(c)) for c in a], dtype=object)
        for log in (None, mpmath.log):
            got = graded_exp_log(terms.copy(), nvars, maxdeg, log)
            want = _per_pair(terms.copy(), nvars, maxdeg, log)
            assert all(g == w for g, w in zip(got, want))


def test_a_log_that_overflows_is_nan_above_the_first_degree_that_does():
    # 1 / a[0] overflows degree 2 of the log; degrees 3 and up are NaN
    a = np.full((9, 9), 1 / 80)
    a[0, 0] = 1e-200
    got = ts_log(a)
    degree = np.add.outer(np.arange(9), np.arange(9))
    assert np.isfinite(got[degree < 2]).all()
    assert not np.isfinite(got[degree == 2]).any()
    assert np.isnan(got[degree > 2]).all()
