import decimal
import json
import math
import time

import numpy as np
import pytest
from _oracles import pgf2_poisson, reversibility_violation
from numpy.polynomial.polynomial import polyval2d

from misti import discrete
from misti.ctmc import NBBD, PoissonBD
from misti.discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    RandomMeasure,
    Thinning,
    misti_classify,
    nb_random_measure_020,
    nb_thinning_020,
    simulate_chain,
    thinning_transition_matrix,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson, id_pmf
from misti.tables import MAX_ENTRIES, JointPMF, increasing_times, stabilize
from misti.series import graded_exp_log, graded_order, ts_from_joint_pmf
from misti.verify import (
    VerifyReport,
    _log_coefficients,
    autocorr_exact,
    autocorr_mc,
    chain_joint_pmf,
    check_coincidence,
    check_markov_triple,
    check_mvid,
    check_reversibility,
    check_stationarity,
)

NB = NegBinomial(0.5)
LAM = math.log(2.0)

ALL_SPECS = [
    Thinning(NB, 1.0, 0.5),
    Thinning(Poisson(), 1.0, 0.5),
    Thinning(GenericLevy({1: 0.6, 2: 0.2}), 1.0, 0.4),
    RandomMeasure(NB, 1.0, 0.5),
    RandomMeasure(Poisson(), 1.0, 0.5),
    BranchingPoisson(1.0, 0.5),
    BranchingNB(1.0, 0.5, 0.5),
    IID(NB, 1.0),
    Constant(Poisson(), 1.0),
    PoissonBD(1.0, LAM),
    NBBD(1.0, 0.5, LAM),
]
CHAINS = [spec for spec in ALL_SPECS if type(spec) is not RandomMeasure]


# ---------------------------------------------------------------------------
# joint tables
# ---------------------------------------------------------------------------

def test_chain_joint_pmf_iid_is_product():
    pmf = chain_joint_pmf(IID(NB, 1.0), (0, 1, 2), 8)
    marg = id_pmf(NB, 1.0, 8)
    want = marg[:, None, None] * marg[None, :, None] * marg[None, None, :]
    assert np.max(np.abs(pmf.table - want)) <= 1e-15


def test_chain_joint_pmf_constant_is_diagonal():
    pmf = chain_joint_pmf(Constant(Poisson(), 1.0), (0, 1, 2), 6)
    marg = id_pmf(Poisson(), 1.0, 6)
    for idx in np.ndindex(pmf.table.shape):
        want = marg[idx[0]] if idx[0] == idx[1] == idx[2] else 0.0
        assert pmf.table[idx] == want


def test_chain_joint_pmf_matches_closed_form_pgf_on_grid():
    pmf = chain_joint_pmf(BranchingPoisson(1.0, 0.5), (0, 1), 35)
    grid = np.linspace(0.0, 1.0, 5)
    worst = max(
        abs(polyval2d(s, z, pmf.table) - pgf2_poisson(s, z, 1.0, 0.5)) for s in grid for z in grid
    )
    assert worst <= 1e-9



def test_chain_joint_pmf_builds_each_gap_kernel_once(monkeypatch):
    # equally spaced times share one certified kernel, and so do the three
    # tables of a stationarity check; the table is the one a kernel per pair
    # of times gives, bit for bit
    spec = PoissonBD(4, 0.5)
    k1 = spec.kernel(1, 24)
    want = (spec.marginal(24)[:, None] * k1)[..., None] * k1
    assert np.array_equal(chain_joint_pmf(spec, (0, 1, 2), 24).table, want)
    calls = []
    certify = discrete.certified_kernel

    def spy(spec, gap, kmax):
        calls.append((gap, kmax))
        return certify(spec, gap, kmax)

    monkeypatch.setattr(discrete, "certified_kernel", spy)
    check_stationarity(PoissonBD(4, 0.5), 3, 24)
    assert calls == [(1, 24)]  # one per spec, not one per table or pair of times

@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("times", [(2, 1), (0, 1, 1)])
def test_chain_joint_pmf_rejects_times_that_do_not_increase(spec, times):
    with pytest.raises(ValueError, match=r"times must be strictly increasing, got \(.*\)"):
        chain_joint_pmf(spec, times, 5)


@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
def test_shifted_starts_reject_a_shift_that_is_not_a_positive_integer(spec):
    # a shift is the gap from the start at time 0 to a table's first time
    for shifts in [(1, 0), (-3,), (1, 1.5)]:
        with pytest.raises(ValueError, match="positive integer gaps"):
            spec.shifted_starts(shifts, 5)
        with pytest.raises(ValueError, match="positive integer gaps"):
            spec.shifted_starts(shifts, 5, initial=np.eye(6)[0])


@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
def test_chain_joint_pmf_rejects_an_initial_pmf_of_the_wrong_shape(spec):
    with pytest.raises(ValueError, match=r"initial pmf must have shape \(9,\)"):
        chain_joint_pmf(spec, (0, 1), 8, initial=np.full(5, 0.2))


def test_random_measure_has_no_chain_initial_state():
    spec = RandomMeasure(NB, 1.0, 0.5)
    with pytest.raises(ValueError, match="no chain initial state"):
        chain_joint_pmf(spec, (0, 1), 8, initial=np.eye(9)[0])
    with pytest.raises(ValueError, match="no chain initial state"):
        check_stationarity(spec, 2, 8, initial=np.eye(9)[0])
    with pytest.raises(ValueError, match="no chain initial state"):
        spec.shifted_starts((1, 2), 8, initial=np.eye(9)[0])


def test_chain_joint_pmf_leak_accounting():
    pmf = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 10)
    assert pmf.leaked >= 0.0
    assert pmf.table.sum() + pmf.leaked == pytest.approx(1.0, abs=1e-12)


def test_chain_joint_pmf_noninteger_gap_rejected_for_chains():
    with pytest.raises(ValueError):
        chain_joint_pmf(BranchingPoisson(1.0, 0.5), (0.0, 0.5), 8)


def test_chain_joint_pmf_ct_restriction():
    # sampled at integer times, the continuous-time chain is the discrete one
    ct = chain_joint_pmf(PoissonBD(1.0, LAM), (0, 1, 2), 20)
    disc = chain_joint_pmf(BranchingPoisson(1.0, 0.5), (0, 1, 2), 20)
    assert np.max(np.abs(ct.table - disc.table)) <= 1e-9


def test_stabilize_failure_names_its_last_round():
    # the bound is the lattice bound itself, so it names the last lattice built
    want = r"kmax=3: at lattice bound 2051 the error bound is still 2.05e\+03 \(tolerance 1e-13\)"
    with pytest.raises(RuntimeError, match=want):
        stabilize(lambda k: (np.zeros((1, 1)), float(k)), 3, 1e-13)


def test_stabilize_fails_fast_below_its_memory_cap():
    # a bound that never falls: the loop raises before a lattice passes the cap
    lattices = []

    def build(k):
        lattices.append(k)
        return np.ones((k + 1, k + 1))[:4, :4], 1.0

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="kmax=3: .* cap of 8388608 dense entries"):
        stabilize(build, 3, 1e-13)
    assert time.perf_counter() - start < 1.0
    assert lattices[0] == 3
    last = max(lattices)  # the next lattice, 3 + 2 (last - 3), would pass the cap
    assert (last + 1) ** 2 <= MAX_ENTRIES < (2 * last - 2) ** 2


def test_stabilize_stops_at_the_first_certified_lattice():
    lattices = []

    def build(k):
        lattices.append(k)
        return np.zeros((1, 1)), 2.0 ** -k

    stabilize(build, 20, 1e-13)
    assert lattices == [20, 30, 40, 60]  # 2^-60 is the first bound within 1e-13


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_stationarity_all_specs(spec):
    report = check_stationarity(spec, 2, 16)
    assert report.passed, report
    assert report.violation <= 1e-9


@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
def test_shifted_starts_are_within_their_bounds_of_a_larger_lattice(spec):
    # the starts at times 1 and 2 from one build, against the same starts
    # evolved on a lattice 40 states larger: the larger build is closer to
    # the chain's law, so the distance is an error the stated bounds cover
    starts, record = spec.shifted_starts((1, 2), 16)
    (_, larger, _), _ = discrete._evolved_starts(spec, (1, 2), 16, record["start_lattice"] + 40)
    assert len(starts) == len(record["start_bounds"]) == 2
    for start, wider, bound in zip(starts, larger, record["start_bounds"]):
        assert np.abs(start - wider).max() <= bound + 1e-15


@pytest.mark.parametrize(
    "spec", [NBBD(1.0, 0.5, LAM), Thinning(NB, 1.0, 0.5), RandomMeasure(NB, 1.0, 0.5)], ids=lambda s: type(s).__name__
)
def test_stationarity_reports_the_lattice_and_bounds_of_its_starts(spec):
    # a chain's report names the lattice of the one build behind its starts
    # and each start's proven bound; the random measure has no starts
    report = check_stationarity(spec, 2, 16)
    record = json.loads(report.to_json())
    if isinstance(spec, RandomMeasure):
        assert "start_lattice" not in record and "start_bounds" not in record
    else:
        assert record["start_lattice"] >= 16
        assert len(record["start_bounds"]) == 2
        assert 0.0 <= min(record["start_bounds"]) and max(record["start_bounds"]) <= 1e-13
    assert {"violation", "tolerance", "pass"} <= record.keys()


def test_stationarity_constant_exact():
    assert check_stationarity(Constant(Poisson(), 1.0), 3, 10).violation == 0.0


def test_stationarity_detects_nonstationary_start():
    init = np.zeros(17)
    init[0] = 1.0
    report = check_stationarity(Thinning(Poisson(), 1.0, 0.5), 2, 16, initial=init)
    assert not report.passed
    assert report.violation > 1e-3


def _shift_gaps(spec, kmax, initial):
    """The largest entrywise gap of the pair table at times (0, 1) from each
    of its shifts by 1 and 2."""
    base = chain_joint_pmf(spec, (0, 1), kmax, initial).table
    starts, _ = spec.shifted_starts((1, 2), kmax, initial)
    return [
        np.abs(base - chain_joint_pmf(spec, (s, s + 1), kmax, start).table).max()
        for s, start in enumerate(starts, start=1)
    ]


def test_stationarity_reports_the_first_worst_shift():
    # the random measure equals its own shifts, so no shift is worst
    assert check_stationarity(RandomMeasure(NB, 1.0, 0.5), 2, 12).extra["shift"] is None
    # from a point mass an iid chain is at its marginal from time 1 on, so its
    # two shifts tie and the first is named; a thinning chain is furthest
    # from its start at the second
    point = np.eye(13)[1]
    for spec, shift, tie in ((IID(NB, 1.0), 1, True), (Thinning(Poisson(), 1.0, 0.5), 2, False)):
        gaps = _shift_gaps(spec, 12, point)
        report = check_stationarity(spec, 2, 12, initial=point)
        assert bool(gaps[0] == gaps[1]) is tie, gaps
        assert report.extra["shift"] == shift and report.violation == gaps[shift - 1] == max(gaps)


@pytest.mark.parametrize(
    "initial", [np.zeros(13), np.full(13, np.nan), 0.5 * np.eye(13)[3]], ids=["zeros", "nan", "half-point-mass"]
)
def test_stationarity_refuses_a_start_that_is_not_a_pmf(initial):
    with pytest.raises(ValueError, match="initial must be a pmf"):
        check_stationarity(Thinning(NegBinomial(0.5), 2, 0.6), 2, 12, initial=initial)


# ---------------------------------------------------------------------------
# reversibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_reversibility_all_specs(spec):
    report = check_reversibility(spec, 16)
    assert report.passed, report
    assert report.violation <= 1e-10


def test_reversibility_rejects_asymmetric_walk():
    # lazy walk drifting right on {0..3}: stationary but not reversible-symmetric
    q = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.1, 0.5, 0.4, 0.0],
            [0.0, 0.1, 0.5, 0.4],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    pi = np.full(4, 0.25)
    violation, witness = reversibility_violation(pi, q)
    assert violation > 1e-2
    assert len(witness) == 2


@pytest.mark.parametrize("spec", CHAINS, ids=lambda s: type(s).__name__)
def test_reversibility_of_a_chain_is_detailed_balance(spec):
    # a chain's pair table is its flux pi_x q(y|x), so reflecting it is
    # detailed balance, bit for bit
    want = reversibility_violation(spec.marginal(16), spec.kernel(1, 16))
    assert check_reversibility(spec, 16) == VerifyReport("reversibility", *want, 1e-10)


# ---------------------------------------------------------------------------
# the Markov factorization on triples
# ---------------------------------------------------------------------------

def test_markov_triple_thinning_nb_passes():
    j3 = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 12)
    report = check_markov_triple(j3)
    assert report.passed
    assert report.violation <= 1e-9


def test_markov_triple_rm_poisson_passes():
    j3 = chain_joint_pmf(RandomMeasure(Poisson(), 1.0, 0.5), (0, 1, 2), 12)
    assert check_markov_triple(j3).violation <= 1e-9


def test_markov_triple_rm_nb_fails():
    j3 = chain_joint_pmf(RandomMeasure(NB, 1.0, 0.5), (0, 1, 2), 28)
    report = check_markov_triple(j3)
    assert not report.passed
    # the closed forms pin the factorization gap at (0, 2, 0) exactly
    mid = id_pmf(NB, 1.0, 2)[2]
    cond_00 = j3.table[0, 2, 0] / mid
    pair_cond = nb_thinning_020(1.0, 0.5, 0.5)
    assert cond_00 == pytest.approx(nb_random_measure_020(1.0, 0.5, 0.5), abs=1e-10)
    assert abs(cond_00 - pair_cond) == pytest.approx(0.0078125, abs=1e-8)
    # the exhaustive scan finds its worst violation at (1, 2, 1), above that gap
    assert report.witness == (1, 2, 1)
    assert report.violation == pytest.approx(0.0239286, abs=2e-4)
    assert report.violation > abs(cond_00 - pair_cond)


def test_markov_triple_skips_thin_rows():
    j3 = chain_joint_pmf(Thinning(Poisson(), 0.1, 0.5), (0, 1, 2), 25)
    report = check_markov_triple(j3)
    assert report.passed
    assert report.extra["skipped_rows"] > 0


def test_markov_triple_refuses_a_table_whose_every_row_is_skipped():
    # at theta = 60 the NB marginal has P[b] < 1e-12 for every b <= 12, so no
    # row is left to check: a pass there would say nothing
    j3 = chain_joint_pmf(RandomMeasure(NB, 60.0, 0.5), (0, 1, 2), 12)
    with pytest.raises(ValueError, match="k = 12"):
        check_markov_triple(j3)


def test_markov_triple_witness_is_the_first_worst_by_b_then_a_then_c():
    # middle value 0 is independent; 1 and 2 share the worst gap 5/32, each
    # at two (a, c) points: (1, 2) and (2, 0) given b = 1, (0, 2) and (1, 0)
    # given b = 2.  Dyadic entries keep every gap exact, so the four tie.
    law = np.array([0.5, 0.25, 0.25])
    cond = np.array([[1, 2, 1], [0, 0, 2], [2, 0, 0]]) / 8
    table = np.stack([np.outer(law, law) / 2, cond / 4, cond[::-1, ::-1] / 4], axis=1)
    report = check_markov_triple(JointPMF((0, 1, 2), 2, table))
    assert report.violation == 5 / 32
    assert report.witness == (1, 1, 2)


def test_markov_triple_needs_three_times():
    with pytest.raises(ValueError):
        check_markov_triple(chain_joint_pmf(IID(NB, 1.0), (0, 1), 6))


# ---------------------------------------------------------------------------
# joint infinite divisibility
# ---------------------------------------------------------------------------

def test_mvid_branching_families_pass():
    for spec in (BranchingPoisson(1.0, 0.5), BranchingNB(1.0, 0.5, 0.5)):
        j3 = chain_joint_pmf(spec, (0, 1, 2), 12)
        report = check_mvid(j3, 8)
        assert report.passed
        assert report.extra["min_coefficient"] >= -1e-10
        assert report.witness is None


def test_mvid_thinning_nb_fails():
    j3 = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 12)
    report = check_mvid(j3, 8)
    assert not report.passed
    assert report.extra["min_coefficient"] < -1e-6
    assert report.witness is not None


def test_mvid_extended_precision_agrees():
    j3 = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 12)
    std = check_mvid(j3, 8)
    ext = check_mvid(j3, 8, precision="extended")
    assert not ext.passed
    assert ext.extra["min_coefficient"] == pytest.approx(std.extra["min_coefficient"], rel=1e-10)
    assert ext.witness == std.witness

    j3b = chain_joint_pmf(BranchingNB(1.0, 0.5, 0.5), (0, 1, 2), 12)
    assert check_mvid(j3b, 8, precision="extended").passed


# (spec, times, lattice bound, degree bound) of the extended checks timed
# against mpmath: three passing tables and one failing
EXTENDED_CASES = [
    (BranchingNB(2.0, 0.5, 0.6), (0, 1, 2), 10, 8),
    (Thinning(NB, 2.0, 0.6), (0, 1, 2), 12, 10),
    (BranchingNB(1.0, 0.5, 0.5), (0, 1, 2, 3), 8, 8),
    (RandomMeasure(Poisson(), 2.0, 0.6), (0, 1, 2), 12, 12),
]


@pytest.mark.parametrize(
    "spec, times, k, maxdeg", EXTENDED_CASES, ids=["branching-nb", "thinning-nb", "four-times", "rm-poisson"]
)
def test_extended_log_coefficients_match_a_60_digit_mpmath_run(spec, times, k, maxdeg):
    # every coefficient of the 40-digit decimal recursion, not only the
    # minimum, is within 1e-35 of the same recursion run in 60-digit mpmath
    # on the same float entries, an independent scalar type
    mpmath = pytest.importorskip("mpmath")
    pmf = chain_joint_pmf(spec, times, k)
    pgf = ts_from_joint_pmf(pmf, maxdeg)
    logs = _log_coefficients(pgf, "extended")
    assert all(type(c) is decimal.Decimal for c in logs)
    with mpmath.workdps(60):
        terms = np.array([mpmath.mpf(float(c)) for c in pgf.ravel()], dtype=object)
        want = graded_exp_log(terms, pgf.ndim, maxdeg, log=mpmath.log)
        # the entries past total degree maxdeg are zero on both sides
        assert max(abs(mpmath.mpf(str(c)) - w) for c, w in zip(logs, want)) <= mpmath.mpf(10) ** -35
        nonconstant = np.concatenate([level[0] for level in graded_order(pgf.ndim, maxdeg)[1:]])
        best = nonconstant[np.argmin(want[nonconstant])]
    report = check_mvid(pmf, maxdeg, precision="extended")
    assert report.extra["min_coefficient"] == pytest.approx(float(want[best]), rel=1e-15)
    if not report.passed:
        assert report.witness == tuple(int(i) for i in np.unravel_index(best, pgf.shape))


def _context_state():
    context = decimal.getcontext()
    return (
        context.prec,
        context.rounding,
        context.Emin,
        context.Emax,
        {signal for signal, on in context.flags.items() if on},
        {signal for signal, on in context.traps.items() if on},
    )


def test_an_extended_check_leaves_the_decimal_context_as_it_was():
    j3 = chain_joint_pmf(BranchingNB(2.0, 0.5, 0.6), (0, 1, 2), 10)
    with decimal.localcontext() as context:
        context.prec = 7
        context.clear_flags()
        context.flags[decimal.Clamped] = True
        before = _context_state()
        assert check_mvid(j3, 8, precision="extended").passed
        assert _context_state() == before


def _set_precision(context):
    context.prec = 5


def _trap_inexact(context):
    context.traps[decimal.Inexact] = True


@pytest.mark.parametrize("setting", [_set_precision, _trap_inexact])
def test_an_extended_check_ignores_the_callers_decimal_context(setting):
    # the 40 digits are the check's own: a caller's precision or traps
    # change neither its report nor whether it runs
    j3 = chain_joint_pmf(Thinning(NB, 2.0, 0.6), (0, 1, 2), 12)
    want = check_mvid(j3, 10, precision="extended")
    with decimal.localcontext() as context:
        setting(context)
        got = check_mvid(j3, 10, precision="extended")
    assert got.to_json() == want.to_json()


def test_mvid_univariate_log_coefficients_are_levy_masses():
    for law, theta in ((Poisson(), 1.0), (NB, 1.5)):
        marg = chain_joint_pmf(IID(law, theta), (0,), 20)
        report = check_mvid(marg, 10)
        assert report.passed
        from misti.series import ts_from_joint_pmf, ts_log

        coeffs = ts_log(ts_from_joint_pmf(marg, 10))
        want = law.levy(theta, 10)
        assert np.max(np.abs(coeffs[1:] - want)) <= 1e-10


def test_mvid_refuses_a_table_whose_log_coefficients_overflow():
    # a near-zero origin overflows the log recursion; its NaN or infinite
    # coefficients decide nothing, in either precision
    table = np.full((9, 9), (1 - 1e-200) / 80)
    table[0, 0] = 1e-200
    pmf = JointPMF((0, 1), 8, table)
    for precision in ("standard", "extended"):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="the check cannot decide"):
            check_mvid(pmf, 8, precision)


def test_mvid_validates_inputs():
    j3 = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 6)
    with pytest.raises(ValueError):
        check_mvid(j3, 8)  # degree bound exceeds lattice bound
    with pytest.raises(ValueError):
        check_mvid(j3, 8, precision="quad")


# ---------------------------------------------------------------------------
# structural properties of the branching families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec", [BranchingPoisson(1.0, 0.5), BranchingNB(1.0, 0.5, 0.5)], ids=lambda s: type(s).__name__
)
def test_conditional_pgf_ratio_identity(spec):
    # phi(s | j+1) phi(s | j-1) = phi(s | j)^2: the descendant pgf enters as
    # a j-fold power in the conditional generating function
    j3 = chain_joint_pmf(spec, (0, 1, 2), 25)
    pair = j3.table.sum(axis=2)
    powers = np.power.outer(np.array([0.1, 0.4, 0.8]), np.arange(26))
    for j in range(1, 5):
        phi = [powers @ (pair[:, b] / pair[:, b].sum()) for b in (j - 1, j, j + 1)]
        assert np.max(np.abs(phi[0] * phi[2] - phi[1] ** 2)) <= 1e-6


def test_quadrichotomy_on_feasible_grid():
    # Every BranchingNB has r_i = r1 (q r0)^(i-1) for i >= 1 and sum r_i = 1
    # (see BranchingNB.offspring), so r0 + r1^2 / (r1 - r2) = 1 on each NB row:
    # r0 = 1 - 0.35^2 / (0.35 - 0.11667) = 0.475 keeps r1, r2 and theta1.
    cases = [
        (0.0, 1.0, 0.0, 0.8),
        (1.0, 0.0, 0.0, 1.2),
        (0.3, 0.7, 0.0, 1.0),
        (0.6, 0.4, 0.0, 0.5),
        (0.5, 0.4, 0.08, 0.4),
        (0.475, 0.35, 0.11666666666666665, 0.9),
    ]
    for r0, r1, r2, theta1 in cases:
        spec = misti_classify(r0, r1, r2, theta1)
        assert check_stationarity(spec, 2, 16).passed
        assert check_reversibility(spec, 16).passed
        j3 = chain_joint_pmf(spec, (0, 1, 2), 12)
        assert check_markov_triple(j3).passed
        assert check_mvid(j3, 8).passed


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorr_exact_branching_poisson():
    got = autocorr_exact(BranchingPoisson(1.0, 0.5), 2, 30)
    assert got == pytest.approx(0.25, abs=1e-8)


def test_autocorr_exact_thinning_lags():
    for lag in (1, 2, 3):
        got = autocorr_exact(Thinning(NB, 1.0, 0.5), lag, 30)
        assert got == pytest.approx(0.5**lag, abs=1e-7)


def test_autocorr_exact_iid_is_zero():
    assert abs(autocorr_exact(IID(NB, 1.0), 1, 30)) <= 1e-8


def test_autocorr_exact_degenerate_flagged():
    with pytest.raises(ValueError):
        autocorr_exact(IID(GenericLevy({}), 1.0), 1, 10)


def test_autocorr_exact_fails_loudly_on_a_leaked_table():
    # NB(2, 0.1) has mean 18: on {0..10} the pair table misses 82% of its
    # mass, and its moments gave 0.767 for an autocorrelation of 0.5
    spec = BranchingNB(2.0, 0.1, 0.5)
    with pytest.raises(ValueError, match=r"\{0\.\.10\} leaked 0\.821"):
        autocorr_exact(spec, 1, 10)
    assert autocorr_exact(spec, 1, 200) == pytest.approx(0.5, abs=1e-5)


def test_autocorr_mc_matches_exact():
    rng = np.random.default_rng(1001)
    spec = BranchingPoisson(1.0, 0.5)
    traj = simulate_chain(spec, 0, 10**5, rng)
    exact = autocorr_exact(spec, 1, 30)
    se = math.sqrt((1.0 - exact**2) / len(traj))
    assert abs(autocorr_mc(traj, 1) - exact) <= 3 * se


def test_autocorr_mc_validates_lag():
    with pytest.raises(ValueError):
        autocorr_mc(np.arange(10), 0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_pass_flag_matches_tolerance():
    assert VerifyReport("x", 1e-12, None, 1e-10).passed
    assert not VerifyReport("x", 1e-9, None, 1e-10).passed


def test_report_json_line():
    report = check_markov_triple(chain_joint_pmf(RandomMeasure(NB, 1.0, 0.5), (0, 1, 2), 10))
    payload = json.loads(report.to_json())
    assert payload["name"] == "markov-triple"
    assert payload["pass"] is False
    assert payload["witness"] == list(report.witness)
    assert set(payload) >= {"name", "violation", "witness", "tolerance", "pass"}


def test_passing_reports_name_no_witness():
    # the worst point of a passing check is rounding noise; only a failure keeps one
    thinning, rm = Thinning(NB, 1.0, 0.5), RandomMeasure(NB, 1.0, 0.5)
    passing = [
        check_markov_triple(chain_joint_pmf(thinning, (0, 1, 2), 12)),
        check_stationarity(thinning, 2, 12),
        check_reversibility(thinning, 12),
        check_reversibility(rm, 12),
    ]
    for report in passing:
        assert report.passed and report.violation > 0.0 and report.witness is None, report
    failing = check_markov_triple(chain_joint_pmf(rm, (0, 1, 2), 12))
    assert not failing.passed and failing.witness == (1, 2, 1)


def test_reports_reproducible():
    a = check_mvid(chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 12), 8)
    b = check_mvid(chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 12), 8)
    assert a == b


def _pair_table(table):
    return JointPMF((0, 1), len(table) - 1, np.array(table))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: increasing_times(()), "need at least one time"),
        (lambda: JointPMF((0, 1), 2, np.zeros((3, 2))), r"table must have shape \(3, 3\)"),
        (lambda: JointPMF((0,), 1, np.array([0.5, -0.1])), "negative table entry"),
        (lambda: stabilize(lambda k: (np.zeros(k + 1), 0.0), -1, 1e-9), "kmax must be >= 0"),
    ],
    ids=["no-times", "wrong-shape", "negative-entry", "negative-kmax"],
)
def test_tables_refuse_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_tables_refuse_a_non_finite_entry(entry):
    table = np.full((3, 3, 3), 1 / 27)
    table[1, 1, 1] = entry
    with pytest.raises(ValueError, match="non-finite table entry"):
        JointPMF((0, 1, 2), 2, table)
    with pytest.raises(ValueError, match="non-finite table entry"):
        JointPMF((0, 1, 2), 2, np.full((3, 3, 3), entry))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_stationarity(Thinning(NB, 1.0, 0.5), 0, 8), "window must be >= 1, got 0"),
        (lambda: check_mvid(_pair_table([[0.0, 0.5], [0.25, 0.25]]), 1), "no mass at the origin"),
        (lambda: check_mvid(_pair_table([[0.5, 0.25], [0.25, 0.0]]), 0), "maxdeg must be >= 1, got 0"),
        (lambda: autocorr_mc(np.array([3, 3, 3, 3]), 1), "degenerate variance"),
        (lambda: autocorr_mc(np.array([1, 3, 3, 3]), 1), "degenerate variance"),
    ],
    ids=["empty-window", "no-origin-mass", "degree-zero", "constant-path", "constant-tail"],
)
def test_verify_refuses_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_autocorrelation_at_lag_zero_is_one():
    # no pair table at equal times: (0, 0) does not strictly increase
    assert autocorr_exact(Thinning(NB, 1.0, 0.5), 0, 8) == 1.0


def test_coincidence_compares_tables_over_the_same_times_and_lattice():
    thinning, rm = Thinning(Poisson(), 1.0, 0.5), RandomMeasure(Poisson(), 1.0, 0.5)
    report = check_coincidence(chain_joint_pmf(thinning, (0, 1, 2), 10), chain_joint_pmf(rm, (0, 1, 2), 10))
    assert report.passed and report.violation < 1e-15 and report.tolerance == 1e-10
    nb = chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), 10)
    failing = check_coincidence(nb, chain_joint_pmf(thinning, (0, 1, 2), 10))
    assert not failing.passed and len(failing.witness) == 3
    for other in (chain_joint_pmf(thinning, (0, 1, 3), 10), chain_joint_pmf(thinning, (0, 1, 2), 9)):
        with pytest.raises(ValueError, match="tables differ in times or lattice"):
            check_coincidence(nb, other)
