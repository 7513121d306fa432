"""Stationary time-reversible integer-valued processes.

Construction, exact simulation, and lattice-exact verification of the
nonnegative-integer stationary reversible process families: thinning chains
and random-measure processes over an infinitely divisible semigroup, the
Poisson and negative binomial branching chains, their degenerate constant /
iid relatives, and the matching continuous-time birth-death chains.

The imports below are the public API, listed once: no module declares an
``__all__`` of its own.  The closed forms that only the tests compare the
engine with (bivariate pgfs, the negative-trinomial pair law, the
conditional pgf of NB thinning) are not part of it.
"""

from .ctmc import (
    EventPath,
    NBBD,
    PoissonBD,
    bd_rates,
    gillespie,
    stationary_bd,
    transition_uniformized,
)
from .discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    RandomMeasure,
    Thinning,
    Trajectory,
    branching_nb_transition_matrix,
    branching_step_nb,
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
from .idlaw import (
    GenericLevy,
    IDLaw,
    NegBinomial,
    Poisson,
    id_pmf,
    id_sample,
    pmf_from_levy,
)
from .series import ts_from_joint_pmf, ts_log
from .tables import JointPMF
from .verify import (
    VerifyReport,
    autocorr_exact,
    autocorr_mc,
    chain_joint_pmf,
    check_markov_triple,
    check_mvid,
    check_reversibility,
    check_stationarity,
)

__version__ = "0.1.0"
