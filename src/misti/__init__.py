"""Stationary time-reversible integer-valued processes.

Construction, exact simulation, and lattice-exact verification of the
nonnegative-integer stationary reversible process families: thinning chains
and random-measure processes over an infinitely divisible semigroup, the
Poisson and negative binomial branching chains, their degenerate constant /
iid relatives, and the matching continuous-time birth-death chains.
"""

from .ctmc import (
    BDModel,
    EventPath,
    NBBD,
    PoissonBD,
    bd_rates,
    generator_residual,
    gillespie,
    stationary_bd,
    transition_uniformized,
)
from .discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    ProcessSpec,
    RandomMeasure,
    Thinning,
    Trajectory,
    beta_binomial_pmf,
    branching_nb_transition_matrix,
    branching_step_nb,
    cell_measures,
    cond_pgf_nb_thinning,
    misti_classify,
    nb_random_measure_020,
    nb_thinning_020,
    negtrinomial_pmf,
    pgf2_nb_branching,
    pgf2_nb_thinning,
    pgf2_poisson,
    rm_joint_pmf,
    rm_simulate,
    simulate_chain,
    simulate_thinning,
    thinning_conditional,
    thinning_transition,
    thinning_transition_matrix,
)
from .idlaw import (
    GenericLevy,
    IDLaw,
    NegBinomial,
    Poisson,
    id_pgf,
    id_pmf,
    id_sample,
    levy_masses,
    levy_total,
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
    reversibility_violation,
)

__version__ = "0.1.0"
