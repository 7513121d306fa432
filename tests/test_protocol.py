"""The protocol of the Markov specs: ``marginal(kmax)`` and
``kernel(gap, kmax)`` on every chain, discrete and continuous-time, and
``sample_path(t0, n, rng)`` on the discrete ones; and no code in ``misti``
that asks a spec for its type instead."""

import ast
import dataclasses
import inspect
import itertools
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import reversibility_violation
from hypothesis import given, settings
from hypothesis import strategies as st

import misti
from misti import discrete
from misti.ctmc import NBBD, PoissonBD, transition_uniformized
from misti.discrete import (
    IID,
    BranchingNB,
    BranchingPoisson,
    Constant,
    Thinning,
    _evolved_starts,
    _law_tail,
    misti_classify,
    rm_joint_pmf,
    simulate_chain,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson, id_pmf, id_sample
from misti.cli import main
from misti.tables import CERTIFIED_TOL, MAX_ENTRIES, MAX_LATTICE, stabilize
from misti.verify import chain_joint_pmf, check_stationarity

# deterministic examples, so that tier-1 results never depend on the run
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

SCALES = st.floats(0.2, 4.0)
PROBS = st.floats(0.05, 0.95)
RHOS = st.floats(0.05, 0.95)
RATES = st.floats(0.1, 3.0)
LEVY = st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda masses: GenericLevy(tuple(enumerate(masses, start=1)))
)
LAWS = st.one_of(st.just(Poisson()), st.builds(NegBinomial, PROBS), LEVY)
BRANCHING = st.one_of(
    st.builds(BranchingPoisson, SCALES, RHOS), st.builds(BranchingNB, SCALES, PROBS, RHOS)
)
# one strategy per family, so that every family gets its own examples
MARKOV = {
    "thinning-poisson": st.builds(Thinning, st.just(Poisson()), SCALES, RHOS),
    "thinning-nb": st.builds(Thinning, st.builds(NegBinomial, PROBS), SCALES, RHOS),
    "thinning-levy": st.builds(Thinning, LEVY, SCALES, RHOS),
    "branching-poisson": st.builds(BranchingPoisson, SCALES, RHOS),
    "branching-nb": st.builds(BranchingNB, SCALES, PROBS, RHOS),
    "iid": st.builds(IID, LAWS, SCALES),
    "constant": st.builds(Constant, LAWS, SCALES),
    "poisson-bd": st.builds(PoissonBD, SCALES, RATES),
    # p >= 0.1 keeps the certified lattices under ~750 states; p >= 0.05
    # would make these examples ~5x slower
    "nb-bd": st.builds(NBBD, SCALES, st.floats(0.1, 0.95), RATES),
}
TIMES = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
    lambda gaps: tuple(np.cumsum([0, *gaps]).tolist())
)


@pytest.mark.parametrize("family", MARKOV)
@PROPERTY
@given(data=st.data(), gap=st.sampled_from([1, 2]), kmax=st.integers(1, 15))
def test_kernel_is_nonnegative_and_substochastic(family, data, gap, kmax):
    spec = data.draw(MARKOV[family])
    kernel = spec.kernel(gap, kmax)
    assert kernel.shape == (kmax + 1, kmax + 1)
    assert kernel.min() >= 0.0
    assert (1.0 - kernel.sum(axis=1)).min() >= -1e-15


@pytest.mark.parametrize("family", MARKOV)
@PROPERTY
@given(data=st.data(), kmax=st.integers(1, 15))
def test_kernel_is_in_detailed_balance_with_marginal(family, data, kmax):
    spec = data.draw(MARKOV[family])
    violation, _ = reversibility_violation(spec.marginal(kmax), spec.kernel(1, kmax))
    assert violation <= 1e-12


@PROPERTY
@given(spec=BRANCHING)
def test_classify_inverts_offspring(spec):
    got = misti_classify(*spec.offspring())
    assert type(got) is type(spec)
    assert dataclasses.astuple(got) == pytest.approx(dataclasses.astuple(spec), rel=1e-9)


@PROPERTY
@given(law=LAWS, theta=SCALES, rho=RHOS, times=TIMES, kmax=st.integers(1, 8))
def test_random_measure_tables_are_reflection_symmetric(law, theta, rho, times, kmax):
    reflected = tuple(times[-1] - t for t in reversed(times))
    forward = rm_joint_pmf(law, theta, rho, times, kmax)
    backward = rm_joint_pmf(law, theta, rho, reflected, kmax)
    reversed_axes = tuple(reversed(range(len(times))))
    assert np.max(np.abs(forward.reorder(reversed_axes) - backward.table)) <= 1e-14


@PROPERTY
@given(theta=SCALES, rho=RHOS, times=TIMES, kmax=st.integers(1, 12))
def test_poisson_random_measure_is_poisson_thinning(theta, rho, times, kmax):
    measure = rm_joint_pmf(Poisson(), theta, rho, times, kmax).table
    thinning = chain_joint_pmf(Thinning(Poisson(), theta, rho), times, kmax).table
    assert np.max(np.abs(measure - thinning)) <= 1e-12


@pytest.mark.parametrize("theta, rho", [(0.5, 0.2), (2.0, 0.6), (7.0, 0.9)])
def test_poisson_branching_is_poisson_thinning(theta, rho):
    # the paper's identity, on both layers: same kernels and, seed for seed,
    # the same paths
    branching, thinning = BranchingPoisson(theta, rho), Thinning(Poisson(), theta, rho)
    for gap in (1, 2, 3):
        assert np.array_equal(branching.kernel(gap, 15), thinning.kernel(gap, 15))
    for seed in range(20):
        a = simulate_chain(branching, 3, 200, np.random.default_rng(seed))
        b = simulate_chain(thinning, 3, 200, np.random.default_rng(seed))
        assert a.t0 == b.t0 == 3
        assert np.array_equal(a.values, b.values)


DISCRETE = [
    Thinning(Poisson(), 1.0, 0.5),
    Thinning(NegBinomial(0.5), 2.0, 0.6),
    BranchingPoisson(1.0, 0.5),
    BranchingNB(2.0, 0.5, 0.6),
    IID(Poisson(), 1.0),
    Constant(Poisson(), 1.0),
]


@pytest.mark.parametrize("spec", DISCRETE, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("gap", [0, -1, 1.5])
def test_discrete_kernel_rejects_non_positive_integer_gaps(spec, gap):
    with pytest.raises(ValueError, match="positive integer gaps"):
        spec.kernel(gap, 5)


MARKOV_SPECS = [*DISCRETE, PoissonBD(1.0, 0.5), NBBD(2.0, 0.5, 1.0)]


@pytest.mark.parametrize("spec", MARKOV_SPECS, ids=lambda s: type(s).__name__)
def test_the_stationary_law_of_a_markov_spec_is_its_id_law(spec):
    # the pmf and the draws of a Markov spec are those of its ID law
    assert np.array_equal(spec.marginal(30), id_pmf(spec.law, spec.theta, 30))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    draws = [spec.stationary_draw(ours) for _ in range(50)]
    assert all(type(x) is int for x in draws)
    assert draws == [int(id_sample(spec.law, spec.theta, theirs)) for _ in range(50)]
    assert ours.random() == theirs.random()  # the two used up the same stream


def test_a_slowly_decaying_birth_death_marginal_is_its_nb_law():
    # NB(1, p) is p (1 - p)^x; detailed balance needs ~4e7 terms to normalise it
    p = 1e-6
    assert np.abs(NBBD(1.0, p, 1.0).marginal(5) - p * (1.0 - p) ** np.arange(6)).max() <= 1e-18


def test_a_frozen_birth_death_chain_keeps_its_law():
    # lambda = 0: exp(tQ) is the identity, which preserves the Poisson law
    assert check_stationarity(PoissonBD(1.0, 0.0), 2, 8).passed


@pytest.mark.parametrize("spec", MARKOV_SPECS, ids=lambda s: type(s).__name__)
def test_a_spec_certifies_each_kernel_once(spec, monkeypatch):
    # the memo is the instance's own: an equal spec built apart certifies again
    calls = []
    certify = discrete.certified_kernel

    def spy(spec, gap, kmax):
        calls.append((spec, gap, kmax))
        return certify(spec, gap, kmax)

    monkeypatch.setattr(discrete, "certified_kernel", spy)
    spec, twin = dataclasses.replace(spec), dataclasses.replace(spec)
    assert spec == twin and spec is not twin
    kernel = spec.kernel(1, 8)
    assert not kernel.flags.writeable
    for gap, kmax in [(1, 8), (2, 8), (1, 9), (2, 8)]:
        spec.kernel(gap, kmax)
    assert spec.kernel(1, 8) is kernel
    assert np.array_equal(twin.kernel(1, 8), kernel)
    assert [(s is spec, gap, kmax) for s, gap, kmax in calls] == [
        (True, 1, 8),
        (True, 2, 8),
        (True, 1, 9),
        (False, 1, 8),
    ]


@pytest.mark.parametrize(
    "spec",
    [
        NBBD(2.0, 0.5, 0.5),
        PoissonBD(4.0, 0.5),
        Thinning(NegBinomial(0.5), 2.0, 0.6),
        BranchingNB(2.0, 0.5, 0.6),
    ],
    ids=lambda s: type(s).__name__,
)
def test_stationary_start_reuses_the_lattices_of_the_kernel(spec, monkeypatch):
    # the three tables of a stationarity check from time 0 certify the gap-1
    # kernel, and the stationary starts at times 1 and 2 come from one more
    # build of it: each is one build, at the lattice its stationary law states
    builds = []
    kernel_block = type(spec).kernel_block

    def spy(self, gap, k):
        builds.append((gap, k))
        return kernel_block(self, gap, k)

    monkeypatch.setattr(type(spec), "kernel_block", spy)
    report = check_stationarity(dataclasses.replace(spec), 3, 16)
    assert report.passed
    assert builds == [(1, discrete._stated_start(spec, 1, 16)), (1, discrete._stated_start(spec, 1, 16, steps=2))]
    assert report.extra["start_lattice"] == builds[1][1]


# real gaps for the birth-death chains, powers of the one-step kernel for the
# thinning chains whose laws do not compose
STATED_GAPS = {
    "poisson-bd": st.floats(0.05, 3.0),
    "nb-bd": st.floats(0.05, 3.0),
    "thinning-nb": st.integers(2, 3),
    "thinning-levy": st.integers(2, 3),
}


@pytest.mark.parametrize("family", STATED_GAPS)
@PROPERTY
@given(data=st.data(), kmax=st.integers(1, 15))
def test_the_stated_lattice_certifies_on_its_first_build(family, data, kmax):
    # the lattice the stationary law proves is past kmax, its own row bounds
    # certify it, and its kernel is the one the ladder from kmax certifies
    spec, gap = data.draw(MARKOV[family]), data.draw(STATED_GAPS[family])
    start = discrete._stated_start(spec, gap, kmax)
    block, bound = spec.kernel_block(gap, start)
    assert start > kmax
    assert bound[: kmax + 1].max() <= CERTIFIED_TOL

    def build(k):
        ladder, ladder_bound = spec.kernel_block(gap, k)
        return ladder[: kmax + 1, : kmax + 1], ladder_bound[: kmax + 1].max()

    ladder = stabilize(build, kmax, CERTIFIED_TOL)
    assert np.abs(block[: kmax + 1, : kmax + 1] - ladder).max() <= 2 * CERTIFIED_TOL


@pytest.mark.parametrize(
    "spec, gap",
    [(Thinning(Poisson(), 2.0, 0.6), 3), (Thinning(NegBinomial(0.5), 2.0, 0.6), 1), (BranchingNB(2.0, 0.5, 0.6), 2)],
    ids=["poisson-thinning", "gap-1", "branching-nb"],
)
def test_closed_form_blocks_state_no_lattice(spec, gap, monkeypatch):
    pi = spec.marginal(84)
    leave, _ = spec.exit_bound(gap, 10, pi, _law_tail(spec.law, spec.theta, pi)[10:])
    assert np.all(leave == 0.0)
    assert spec.closed_form(gap)
    # the statement stops at kmax before it builds a pmf
    pmfs = []

    def pmf_spy(law, theta, kmax):
        pmfs.append(kmax)
        return id_pmf(law, theta, kmax)

    monkeypatch.setattr(discrete, "id_pmf", pmf_spy)
    assert discrete._stated_start(spec, gap, 10) == 10
    assert pmfs == []


# specs and the gaps over which their kernel blocks are closed form; p >= 0.2
# keeps the NB branching lattices under ~200 states, where at p = 0.05 they
# reach ~800 states and a build takes ~0.4 s
CLOSED_FORM = {
    "thinning-poisson": (MARKOV["thinning-poisson"], st.integers(1, 3)),
    "thinning-nb": (MARKOV["thinning-nb"], st.just(1)),
    "thinning-levy": (MARKOV["thinning-levy"], st.just(1)),
    "branching-poisson": (MARKOV["branching-poisson"], st.integers(1, 3)),
    "branching-nb": (st.builds(BranchingNB, SCALES, st.floats(0.2, 0.95), RHOS), st.integers(1, 3)),
    "iid": (MARKOV["iid"], st.integers(1, 3)),
    "constant": (MARKOV["constant"], st.integers(1, 3)),
}


def _shared_start_certifies_on_its_first_build(spec, steps, kmax, monkeypatch):
    # the lattice stated for the starts at times 1..steps is past kmax, the
    # one build there certifies them, and they are the starts that the
    # ladder from kmax certifies
    shifts = tuple(range(1, steps + 1))
    start = discrete._stated_start(spec, 1, kmax, steps)
    assert start >= kmax
    starts, record = spec.shifted_starts(shifts, kmax)
    assert record["start_lattice"] == start
    assert max(record["start_bounds"]) <= CERTIFIED_TOL
    monkeypatch.setattr(discrete, "_stated_start", lambda spec, gap, kmax, steps=0: kmax)
    ladder, _ = spec.shifted_starts(shifts, kmax)
    for got, want in zip(starts, ladder):
        assert np.abs(got - want).max() <= 2 * CERTIFIED_TOL


@pytest.mark.parametrize("family", CLOSED_FORM)
@PROPERTY
@given(data=st.data(), kmax=st.integers(1, 15))
def test_the_stated_start_over_a_closed_form_gap_certifies_on_its_first_build(family, data, kmax):
    # the starts of a closed-form one-step kernel miss only what leaves the
    # lattice, so the lattice their tails state certifies them in one build;
    # the family's gaps serve as the number of steps
    spec, steps = (data.draw(strategy) for strategy in CLOSED_FORM[family])
    with pytest.MonkeyPatch.context() as monkeypatch:
        _shared_start_certifies_on_its_first_build(spec, steps, kmax, monkeypatch)


@pytest.mark.parametrize("family", ["poisson-bd", "nb-bd"])
@PROPERTY
@given(data=st.data(), steps=st.integers(1, 3), kmax=st.integers(1, 15))
def test_the_stated_birth_death_start_certifies_on_its_first_build(family, data, steps, kmax):
    # the uniformized blocks carry a bound, and the statement covers it too
    with pytest.MonkeyPatch.context() as monkeypatch:
        _shared_start_certifies_on_its_first_build(data.draw(MARKOV[family]), steps, kmax, monkeypatch)


@pytest.mark.parametrize(
    "spec, gap",
    [(NBBD(2.0, 1e-4, 1.0), 1.0), (Thinning(NegBinomial(1e-4), 2.0, 0.6), 2)],
    ids=["nb-bd", "thinning-nb"],
)
def test_a_start_that_cannot_be_met_stops_at_the_cap(spec, gap, monkeypatch):
    # an NB(2, 1e-4) tail falls to 1e-13 some 3e5 states out, far past the
    # largest lattice that may be built: the search reads no state past that
    # lattice, allocates no dense block, and leaves the ladder its kmax start
    tops = []
    exit_bound = type(spec).exit_bound

    def spy(self, gap, kmax, pi, tail):
        tops.append(len(pi) - 1)
        return exit_bound(self, gap, kmax, pi, tail)

    monkeypatch.setattr(type(spec), "exit_bound", spy)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        stated = [discrete._stated_start(spec, gap, 10, steps) for steps in (0, 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stated == [10, 10]
    assert max(tops) == MAX_LATTICE
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20  # the dense block of the cap lattice is 64 MB


@pytest.mark.parametrize(
    "spec", [BranchingNB(2.0, 0.5, 0.6), NBBD(2.0, 0.5, 0.5)], ids=["branching-nb", "nb-bd"]
)
def test_a_table_past_the_dense_cap_stops_before_it_is_built(spec, monkeypatch):
    # 601^3 entries are 1.6 GiB: the table raises before it certifies a kernel
    # or allocates a block, and the CLI reports it as a configuration error
    certified = []
    monkeypatch.setattr(discrete, "certified_kernel", lambda *args: certified.append(args))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cap of {MAX_ENTRIES} entries"):
            chain_joint_pmf(spec, (0, 1, 2), 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert certified == []
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    assert main(["verify", "--suite", "theorem2", "--k", "600", "--degree", "2"]) == 2


# one spec per Markov family, and gaps over which its blocks are closed form
# and, for the thinning powers and the birth-death chains, carry a bound
STATEMENTS = {
    "thinning-poisson": (Thinning(Poisson(), 2.0, 0.6), (1, 2, 3)),
    "thinning-nb": (Thinning(NegBinomial(0.5), 2.0, 0.6), (1, 2, 3)),
    "thinning-levy": (Thinning(GenericLevy(((1, 1.0), (2, 0.5), (3, 0.2))), 2.0, 0.6), (1, 2, 3)),
    "branching-poisson": (BranchingPoisson(2.0, 0.6), (1, 2, 3)),
    "branching-nb": (BranchingNB(2.0, 0.5, 0.6), (1, 2, 3)),
    "iid": (IID(NegBinomial(0.5), 2.0), (1, 2, 3)),
    "constant": (Constant(NegBinomial(0.5), 2.0), (1, 2, 3)),
    "poisson-bd": (PoissonBD(4.0, 0.5), (0.5, 1, 2.5)),
    "nb-bd": (NBBD(2.0, 0.5, 0.5), (0.5, 1, 2.5)),
}


@pytest.mark.parametrize("family", STATEMENTS)
def test_a_statement_builds_no_kernel(family, monkeypatch):
    # a lattice is stated from the stationary law alone, for the kernel and
    # for the evolved start, whether or not the blocks are closed form
    spec, gaps = STATEMENTS[family]
    builds = []
    kernel_block = type(spec).kernel_block

    def spy(self, gap, k):
        builds.append((gap, k))
        return kernel_block(self, gap, k)

    monkeypatch.setattr(type(spec), "kernel_block", spy)
    for gap, steps in itertools.product(gaps, (0, 2)):
        discrete._stated_start(spec, gap, 10, steps)
    assert builds == []
    spec.kernel(gaps[-1], 10)
    assert builds  # the spy sees the builds of a certification


@pytest.mark.parametrize("evolved", [False, True])
def test_a_birth_death_statement_builds_its_law_once_per_range(evolved, monkeypatch):
    # each searched range {0..top} builds the stationary pmf once, and both
    # the tail and the exit bound read it
    tops, pmfs = [], []
    exit_bound = NBBD.exit_bound

    def exit_spy(self, gap, kmax, pi, tail):
        tops.append(len(pi) - 1)
        return exit_bound(self, gap, kmax, pi, tail)

    def pmf_spy(law, theta, kmax):
        pmfs.append(kmax)
        return id_pmf(law, theta, kmax)

    monkeypatch.setattr(NBBD, "exit_bound", exit_spy)
    monkeypatch.setattr(discrete, "id_pmf", pmf_spy)
    # an NB(2, 0.05) tail reaches 1e-13 some 700 states out, a few ranges away
    assert discrete._stated_start(NBBD(2.0, 0.05, 1.0), 1.0, 10, steps=2 if evolved else 0) > 10
    assert len(tops) > 1
    assert pmfs == tops


@pytest.mark.parametrize("spec", [PoissonBD(1.0, 0.5), NBBD(2.0, 0.5, 1.0)])
def test_birth_death_kernel_takes_real_gaps(spec):
    assert np.array_equal(spec.kernel(0.5, 10), transition_uniformized(spec, 0.5, 10))
    with pytest.raises(ValueError):
        spec.kernel(-1, 10)


@pytest.mark.parametrize("family", MARKOV)
@PROPERTY
@given(data=st.data(), kmax=st.integers(1, 12))
def test_row_deficit_is_the_leakage(family, data, kmax):
    # on {0..kmax} a row misses exactly what a larger lattice puts beyond kmax
    spec = data.draw(MARKOV[family])
    kernel, larger = spec.kernel(1, kmax), spec.kernel(1, 2 * kmax + 10)
    leaked = 1.0 - larger[: kmax + 1, : kmax + 1].sum(axis=1)
    assert np.max(np.abs((1.0 - kernel.sum(axis=1)) - leaked)) <= 1e-13


# a few units of float rounding on entries <= 1
ROUNDING = 1e-15


@pytest.mark.parametrize("family", ["poisson-bd", "nb-bd", "thinning-nb", "thinning-levy"])
@PROPERTY
@given(data=st.data(), gap=st.integers(1, 3), k=st.integers(1, 15))
def test_truncation_bound_holds(family, data, gap, k):
    # a lattice twice as large is closer to the untruncated law on {0..k}, so
    # its distance from the block is an error the bound must cover
    spec = data.draw(MARKOV[family])
    block, bound = spec.kernel_block(gap, k)
    larger, _ = spec.kernel_block(gap, 2 * k + 1)
    error = np.abs(larger[: k + 1, : k + 1] - block).max(axis=1)
    assert np.all(error <= bound + ROUNDING)
    # and the starts at times 1..gap from one build of the one-step kernel
    shifts = tuple(range(1, gap + 1))
    (_, starts, bounds), _ = _evolved_starts(spec, shifts, k, k)
    (_, larger_starts, _), _ = _evolved_starts(spec, shifts, k, 2 * k + 1)
    for start, larger_start, start_bound in zip(starts, larger_starts, bounds):
        assert np.abs(larger_start - start).max() <= start_bound + ROUNDING


# integer gaps for every family, and real ones too for the birth-death chains
PROOF_GAPS = {family: st.integers(1, 3) for family in MARKOV} | {
    family: st.one_of(st.integers(1, 3), st.floats(0.05, 3.0)) for family in ("poisson-bd", "nb-bd")
}


@pytest.mark.parametrize("family", MARKOV)
@PROPERTY
@given(data=st.data(), kmax=st.integers(1, 12))
def test_the_stated_bounds_hold_at_every_lattice(family, data, kmax):
    # the proofs behind a statement, at every lattice it reads and not only
    # the first it states: the row bounds of each build on the rows up to
    # kmax, and the bound of the stationary starts at times 1 and 2 from
    # one build of the one-step kernel
    spec, gap = data.draw(MARKOV[family]), data.draw(PROOF_GAPS[family])
    pi = spec.marginal(kmax + 24)
    tail = _law_tail(spec.law, spec.theta, pi)[kmax:]
    leave, divisor = (np.broadcast_to(b, tail.shape) for b in spec.exit_bound(gap, kmax, pi, tail))
    step = np.broadcast_to(spec.exit_bound(1, kmax, pi, tail)[0], tail.shape)
    # a closed-form kernel is stated without a search, so its rows miss nothing
    assert not (spec.closed_form(gap) and leave.any())
    for i, k in enumerate(range(kmax, kmax + 25)):
        rows = spec.kernel_block(gap, k)[1][: kmax + 1].max()
        if leave[i] == 0.0:
            assert rows == 0.0
        else:
            assert rows <= leave[i] / divisor[i] + ROUNDING
        assert _evolved_starts(spec, (1, 2), kmax, k)[1] <= 3.0 * tail[i] + 4.0 * step[i] + ROUNDING


def _type_switches(node, scope=()):
    """(scope, source) of every isinstance call whose first argument is
    ``spec``, ``model`` or ``self``, or an attribute of one."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = (*scope, node.name)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        root = node.args[0]
        while isinstance(root, ast.Attribute):
            root = root.value
        if getattr(root, "id", None) in ("spec", "model", "self"):
            yield ".".join(scope), ast.unparse(node)
    for child in ast.iter_child_nodes(node):
        yield from _type_switches(child, scope)


def test_no_caller_switches_on_spec_type():
    # specs own their tables, kernels, samplers and offspring; the one switch
    # left is a rule of the Poisson law: binomial thinning composes over gaps
    found = [
        (path.name, *site)
        for path in sorted(Path(misti.__file__).parent.glob("*.py"))
        for site in _type_switches(ast.parse(path.read_text()))
    ]
    assert found == [("discrete.py", "_ThinningChain._raised", "isinstance(self.law, Poisson)")]


# the public API of misti: the names that misti/__init__ imports
PUBLIC_API = (
    "BDModel", "BranchingNB", "BranchingPoisson", "Constant", "EventPath", "GenericLevy", "IDLaw",
    "IID", "JointPMF", "NBBD", "NegBinomial", "Poisson", "PoissonBD", "ProcessSpec",
    "RandomMeasure", "Thinning", "Trajectory", "VerifyReport", "autocorr_exact", "autocorr_mc",
    "bd_rates", "branching_nb_transition_matrix", "branching_step_nb", "cell_measures",
    "chain_joint_pmf", "check_markov_triple", "check_mvid", "check_reversibility",
    "check_stationarity", "gillespie", "id_pmf", "id_sample", "misti_classify",
    "nb_random_measure_020", "nb_thinning_020", "pmf_from_levy", "rm_joint_pmf", "rm_simulate",
    "simulate_chain", "simulate_thinning", "stationary_bd", "thinning_conditional",
    "thinning_transition_matrix", "transition_uniformized", "ts_from_joint_pmf", "ts_log",
)


def test_the_public_api_is_declared_once():
    # the imports of misti/__init__ are the one list of the public API: no
    # module keeps an __all__ that could drift from it, and the closed forms
    # that only the tests read (tests/_oracles.py) are not in it
    found = [
        (path.name, node.lineno)
        for path in sorted(Path(misti.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert found == []
    public = (name for name, value in vars(misti).items() if not inspect.ismodule(value))
    assert tuple(sorted(name for name in public if not name.startswith("_"))) == PUBLIC_API


CACHES = ("cache", "lru_cache", "cached_property")


def _import_time_caches(node, scope=(), in_function=False):
    """(scope, source) of every cache named where a module or class body runs,
    decorators included, so not within a function body."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = (*scope, node.name)
        for decorator in node.decorator_list:
            yield from _import_time_caches(decorator, scope, in_function)
        for child in node.body:
            yield from _import_time_caches(
                child, scope, in_function or isinstance(node, ast.FunctionDef)
            )
        return
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if not in_function and isinstance(node, (ast.Name, ast.Attribute)) and name in CACHES:
        yield ".".join(scope), ast.unparse(node)
    for child in ast.iter_child_nodes(node):
        yield from _import_time_caches(child, scope, in_function)


def test_no_cache_is_keyed_by_value():
    # a cache that outlives its call and is keyed by the values of its
    # arguments would answer a repeated equal spec from memory; the two left
    # are keyed by shapes (number of variables, degree bound)
    found = [
        (path.name, *site)
        for path in sorted(Path(misti.__file__).parent.glob("*.py"))
        for site in _import_time_caches(ast.parse(path.read_text()))
    ]
    assert found == [("series.py", "_degrees", "lru_cache"), ("series.py", "graded_order", "lru_cache")]


def _instance_memos(tree):
    """(scope, entry) of every use of an instance ``__dict__``: the key of a
    subscript or the first argument of a method call on it, else the code
    that reads it."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "__dict__"):
            continue
        scope, up = [], node
        while up in parents:
            up = parents[up]
            if isinstance(up, (ast.ClassDef, ast.FunctionDef)):
                scope.insert(0, up.name)
        user = parents[node]
        if isinstance(user, ast.Subscript):
            entry = ast.unparse(user.slice)
        elif isinstance(user, ast.Attribute) and isinstance(parents[user], ast.Call):
            entry = ast.unparse(parents[user].args[0])
        else:
            entry = ast.unparse(user)
        yield ".".join(scope), entry


def test_the_only_instance_memo_is_the_certified_kernel():
    # a spec keeps its certified kernels and nothing else: no raw lattice
    # builds, and no caller reads another object's memo
    found = [
        (path.name, *site)
        for path in sorted(Path(misti.__file__).parent.glob("*.py"))
        for site in _instance_memos(ast.parse(path.read_text()))
    ]
    assert found == [("discrete.py", "_Markov.kernel", "'_kernels'")]
