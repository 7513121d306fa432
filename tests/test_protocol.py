"""The kernel protocol of the Markov specs: ``marginal(kmax)`` and
``kernel(gap, kmax)`` on every chain, discrete and continuous-time."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misti.ctmc import NBBD, PoissonBD, transition_uniformized
from misti.discrete import (
    IID,
    BranchingNB,
    BranchingPoisson,
    Constant,
    Thinning,
    misti_classify,
    r_sequence,
    rm_joint_pmf,
)
from misti.idlaw import GenericLevy, NegBinomial, Poisson
from misti.verify import chain_joint_pmf, reversibility_violation

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
    # p >= 0.2 keeps the lattice that the kernel grows to under ~100 states
    "nb-bd": st.builds(NBBD, SCALES, st.floats(0.2, 0.95), RATES),
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
def test_classify_inverts_r_sequence(spec):
    got = misti_classify(*r_sequence(spec))
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
