"""Acceptance suite: one pass/fail line per criterion (run with `pytest -s`).

Each criterion pins its tolerances here; nothing is deferred to later
calibration.  Criterion 3 carries a deliberately faithful assertion on the
location of the worst Markov-factorization witness that does not hold (the
pinned expectation came from the closed-form comparison at (0,2,0); the
exhaustive lattice scan, cross-checked by brute-force enumeration and
simulation, finds a strictly larger gap at (1,2,1)).  A cell enumeration of
the NB random measure (theta = 1, p = 1/2, rho = 1/2, lattice bound 30) that
does not use misti gives |P[a,c|b] - P[a|b] P[c|b]| = 1/128 at (0,2,0) and
0.0239258 at (1,2,1).  The program is right and the assertion is kept as
stated rather than loosened; see the test body and the "Fix first" list in
ROADMAP.md.
"""

import math
import time

import numpy as np
import pytest
from _helpers import chi2_gof_pvalue
from _oracles import (
    generator_residual,
    negtrinomial_pmf,
    pgf2_nb_branching,
    pgf2_nb_thinning,
    pgf2_poisson,
)
from numpy.polynomial.polynomial import polyval2d

from misti.ctmc import (
    NBBD,
    PoissonBD,
    stationary_bd,
    transition_uniformized,
)
from misti.discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    RandomMeasure,
    Thinning,
    branching_nb_transition_matrix,
    cell_measures,
    nb_random_measure_020,
    nb_thinning_020,
    simulate_chain,
    thinning_transition_matrix,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson, id_pmf
from misti.series import graded_exp_log, ts_log
from misti.verify import (
    autocorr_mc,
    chain_joint_pmf,
    check_markov_triple,
    check_mvid,
    check_reversibility,
    check_stationarity,
)

NB = NegBinomial(0.5)
LAM = math.log(2.0)


def _line(number, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.2f}s/<{budget}s) - {detail}")


def test_criterion_1_discriminating_probabilities():
    start = time.time()
    theta, p, rho = 1.0, 0.5, 0.5
    mid = id_pmf(NB, theta, 2)[2]
    thin = chain_joint_pmf(Thinning(NB, theta, rho), (0, 1, 2), 8)
    rand = chain_joint_pmf(RandomMeasure(NB, theta, rho), (0, 1, 2), 8)
    thin_enum = thin.table[0, 2, 0] / mid
    rm_enum = rand.table[0, 2, 0] / mid
    thin_closed = nb_thinning_020(theta, p, rho)
    rm_closed = nb_random_measure_020(theta, p, rho)
    elapsed = time.time() - start
    ok = (
        abs(thin_closed - 0.0703125) <= 1e-12
        and abs(rm_closed - 0.078125) <= 1e-12
        and abs(thin_enum - thin_closed) <= 1e-9
        and abs(rm_enum - rm_closed) <= 1e-9
        and abs((rm_enum - thin_enum) - 0.0078125) <= 1e-9
        and elapsed < 10
    )
    _line(1, ok, 10, elapsed,
          f"thinning {thin_enum:.10f} vs 0.0703125, random-measure {rm_enum:.10f} vs 0.078125")
    assert abs(thin_closed - 0.0703125) <= 1e-12
    assert abs(rm_closed - 0.078125) <= 1e-12
    assert abs(thin_enum - thin_closed) <= 1e-9
    assert abs(rm_enum - rm_closed) <= 1e-9
    assert abs((rm_enum - thin_enum) - 0.0078125) <= 1e-9
    assert elapsed < 10


def test_criterion_2_joint_divisibility():
    start = time.time()
    kmax, deg = 12, 8
    thin = check_mvid(chain_joint_pmf(Thinning(NB, 1.0, 0.5), (0, 1, 2), kmax), deg)
    bnb = check_mvid(chain_joint_pmf(BranchingNB(1.0, 0.5, 0.5), (0, 1, 2), kmax), deg)
    bpo = check_mvid(chain_joint_pmf(BranchingPoisson(1.0, 0.5), (0, 1, 2), kmax), deg)
    elapsed = time.time() - start
    ok = (
        thin.extra["min_coefficient"] < -1e-6
        and thin.witness is not None
        and bnb.extra["min_coefficient"] >= -1e-9
        and bpo.extra["min_coefficient"] >= -1e-9
        and elapsed < 30
    )
    _line(2, ok, 30, elapsed,
          f"thinning-nb min coeff {thin.extra['min_coefficient']:.3e} at {thin.witness}; "
          f"branching mins {bnb.extra['min_coefficient']:.1e}, {bpo.extra['min_coefficient']:.1e}")
    assert thin.extra["min_coefficient"] < -1e-6
    assert thin.witness is not None
    assert bnb.extra["min_coefficient"] >= -1e-9
    assert bpo.extra["min_coefficient"] >= -1e-9
    assert elapsed < 30


def test_criterion_3_markov_failure():
    start = time.time()
    j3 = chain_joint_pmf(RandomMeasure(NB, 1.0, 0.5), (0, 1, 2), 28)
    report = check_markov_triple(j3)
    poisson = check_markov_triple(
        chain_joint_pmf(RandomMeasure(Poisson(), 1.0, 0.5), (0, 1, 2), 12)
    )
    mid = id_pmf(NB, 1.0, 2)[2]
    gap_020 = abs(j3.table[0, 2, 0] / mid - nb_thinning_020(1.0, 0.5, 0.5))
    elapsed = time.time() - start
    stated_witness = report.witness == (0, 2, 0) and abs(report.violation - 0.0078125) <= 1e-8
    ok = (
        (not report.passed)
        and poisson.violation <= 1e-9
        and abs(gap_020 - 0.0078125) <= 1e-8
        and stated_witness
        and elapsed < 10
    )
    _line(3, ok, 10, elapsed,
          f"check fails; gap at (0,2,0) = {gap_020:.10f} (= 0.0078125); worst scan gap "
          f"{report.violation:.7f} at {report.witness}, so the stated worst-witness "
          f"location {'holds' if stated_witness else 'does not hold'}")
    assert not report.passed
    assert poisson.violation <= 1e-9
    assert abs(gap_020 - 0.0078125) <= 1e-8
    assert elapsed < 10
    # Stated expectation: the worst witness of the exhaustive scan sits at
    # (0,2,0) with gap 0.0078125.  The gap at (0,2,0) does equal 0.0078125,
    # but the scan's maximum is at (1,2,1) with gap ~0.0239 (confirmed by
    # brute-force cell enumeration and Monte Carlo), so this stays red.
    assert report.witness == (0, 2, 0)
    assert report.violation == pytest.approx(0.0078125, abs=1e-8)


def test_criterion_4_bivariate_generating_functions():
    start = time.time()
    grid = np.linspace(0.0, 1.0, 5)
    cases = [
        (BranchingPoisson(1.0, 0.5), lambda s, z: pgf2_poisson(s, z, 1.0, 0.5), 35),
        (BranchingNB(1.0, 0.5, 0.5), lambda s, z: pgf2_nb_branching(s, z, 1.0, 0.5, 0.5), 45),
        (Thinning(NB, 1.0, 0.5), lambda s, z: pgf2_nb_thinning(s, z, 1.0, 0.5, 0.5), 45),
    ]
    worsts = []
    for spec, closed, kmax in cases:
        table = chain_joint_pmf(spec, (0, 1), kmax).table
        worsts.append(
            max(abs(polyval2d(s, z, table) - closed(s, z)) for s in grid for z in grid)
        )
    elapsed = time.time() - start
    ok = max(worsts) < 1e-8 and elapsed < 5
    _line(4, ok, 5, elapsed,
          "sup errors " + ", ".join(f"{w:.2e}" for w in worsts) + " on the 5x5 grid")
    assert max(worsts) < 1e-8
    assert elapsed < 5


def test_criterion_5_continuous_time():
    start = time.time()
    pbd, nbd = PoissonBD(1.0, LAM), NBBD(2.0, 0.5, LAM)
    stat_po = np.max(np.abs(stationary_bd(pbd, 30) - id_pmf(Poisson(), 1.0, 30)))
    stat_nb = np.max(np.abs(stationary_bd(nbd, 30) - id_pmf(NegBinomial(0.5), 2.0, 30)))
    res_po = generator_residual(pbd, stationary_bd(pbd, 30), 30).interior
    res_nb = generator_residual(nbd, stationary_bd(nbd, 30), 30).interior
    unif_po = np.max(np.abs(
        transition_uniformized(pbd, 1.0, 25) - thinning_transition_matrix(Poisson(), 1.0, 0.5, 25)
    ))
    unif_nb = np.max(np.abs(
        transition_uniformized(NBBD(1.0, 0.5, LAM), 1.0, 25)
        - branching_nb_transition_matrix(1.0, 0.5, 0.5, 25)
    ))
    worst_corr = 0.0
    for model in (pbd, nbd):
        pi = stationary_bd(model, 40)
        k = np.arange(41)
        mean = pi @ k
        var = pi @ k**2 - mean**2
        for t in (0.5, 1.0, 2.0):
            p = transition_uniformized(model, t, 40)
            corr = ((pi * k) @ p @ k - mean * mean) / var
            worst_corr = max(worst_corr, abs(corr - math.exp(-model.lam * t)))
    elapsed = time.time() - start
    ok = (
        max(stat_po, stat_nb) < 1e-12
        and max(res_po, res_nb) < 1e-10
        and max(unif_po, unif_nb) < 1e-5
        and worst_corr < 1e-4
        and elapsed < 60
    )
    _line(5, ok, 60, elapsed,
          f"stationary sup {max(stat_po, stat_nb):.1e}; residual {max(res_po, res_nb):.1e}; "
          f"restriction sup {max(unif_po, unif_nb):.1e}; autocorr dev {worst_corr:.1e}")
    assert max(stat_po, stat_nb) < 1e-12
    assert max(res_po, res_nb) < 1e-10
    assert max(unif_po, unif_nb) < 1e-5
    assert worst_corr < 1e-4
    assert elapsed < 60


def test_criterion_6_property_suites():
    start = time.time()
    rng = np.random.default_rng(20260810)
    failures = []

    specs = [
        Thinning(NB, 1.0, 0.5),
        RandomMeasure(NB, 1.0, 0.5),
        BranchingPoisson(1.0, 0.5),
        BranchingNB(1.0, 0.5, 0.5),
        IID(NB, 1.0),
        Constant(Poisson(), 1.0),
    ]
    for spec in specs:
        if not check_reversibility(spec, 16).passed:
            failures.append(f"reversibility {type(spec).__name__}")
        if not check_stationarity(spec, 2, 16).passed:
            failures.append(f"stationarity {type(spec).__name__}")

    for _ in range(3):
        n = int(rng.integers(2, 5))
        times = tuple(np.cumsum(rng.integers(1, 4, size=n)))
        theta = float(rng.uniform(0.3, 2.0))
        rho = float(rng.uniform(0.1, 0.9))
        cells = cell_measures(times, theta, rho)
        if min(cells.values()) < 0:
            failures.append("cell nonnegativity")
        for m in range(n):
            cover = sum(a for (i, j), a in cells.items() if i <= m <= j)
            if abs(cover - theta) > 1e-12:
                failures.append("cell per-time sum")
        for s in range(n):
            for t in range(s + 1, n):
                both = sum(a for (i, j), a in cells.items() if i <= s and j >= t)
                if abs(both - theta * rho ** (times[t] - times[s])) > 1e-12:
                    failures.append("cell pairwise sum")

    for law in (Poisson(), NB, GenericLevy({1: 0.5, 2: 0.3})):
        t1, t2 = rng.uniform(0.2, 2.5, size=2)
        conv = np.convolve(id_pmf(law, t1, 25), id_pmf(law, t2, 25))[:26]
        if np.max(np.abs(conv - id_pmf(law, t1 + t2, 25))) > 1e-10:
            failures.append(f"semigroup {type(law).__name__}")

    for nvars in (1, 2, 3):
        shape = (7,) * nvars if nvars < 3 else (5,) * nvars
        a = np.where(np.indices(shape).sum(axis=0) < shape[0], rng.uniform(-1, 1, size=shape), 0.0)
        exp_a = graded_exp_log(a.ravel(), nvars, shape[0] - 1).reshape(shape)
        if np.max(np.abs(ts_log(exp_a) - a)) > 1e-10:
            failures.append(f"exp/log roundtrip nvars={nvars}")

    total = sum(negtrinomial_pmf(i, j, 1.0, 0.5) for i in range(41) for j in range(41))
    if abs(total - 1.0) > 1e-8:
        failures.append("negative-trinomial normalization")
    alpha, q = 1.5, 0.4
    for i in (0, 3):
        row = np.array([negtrinomial_pmf(i, j, alpha, q) for j in range(60)])
        want = id_pmf(NegBinomial(1.0 / (1.0 + q)), alpha + i, 59)
        if np.max(np.abs(row / row.sum() - want)) > 1e-10:
            failures.append("negative-trinomial row conditional")

    elapsed = time.time() - start
    ok = not failures and elapsed < 60
    _line(6, ok, 60, elapsed, "all property suites green" if not failures else "; ".join(failures))
    assert not failures
    assert elapsed < 60


def test_criterion_7_monte_carlo_sanity():
    start = time.time()
    rng = np.random.default_rng(987654321)
    n = 10**5
    results = []
    for spec, pmf in (
        (BranchingPoisson(1.0, 0.5), id_pmf(Poisson(), 1.0, 14)),
        (BranchingNB(2.0, 0.5, 0.5), id_pmf(NegBinomial(0.5), 2.0, 25)),
    ):
        traj = simulate_chain(spec, 0, n, rng)
        corr = autocorr_mc(traj, 1)
        se = math.sqrt((1.0 - spec.rho**2) / n)
        # thin before the goodness-of-fit test to decorrelate the draws
        pval = chi2_gof_pvalue(traj.values[::10], pmf)
        results.append((type(spec).__name__, corr, se, pval))
    elapsed = time.time() - start
    ok = all(abs(corr - 0.5) <= 3 * se and pval > 0.001 for _, corr, se, pval in results)
    ok = ok and elapsed < 30
    detail = "; ".join(
        f"{name}: lag-1 {corr:.4f} (3se {3 * se:.4f}), gof p={pval:.3f}"
        for name, corr, se, pval in results
    )
    _line(7, ok, 30, elapsed, detail)
    for name, corr, se, pval in results:
        assert abs(corr - 0.5) <= 3 * se, name
        assert pval > 0.001, name
    assert elapsed < 30
