"""Discrete-time stationary reversible integer processes.

Three constructions share the same one-dimensional marginals and geometric
autocorrelation rho^|s-t|:

* thinning chains: consecutive states share a common component drawn from
  the scale-(rho theta) member of an ID semigroup;
* random-measure processes: states are sums of independent ID variables
  attached to the interval cells cut out by overlapping "tent" sets;
* the branching families (Poisson and negative binomial), the only
  nondegenerate chains that are simultaneously Markov, stationary,
  time-reversible and jointly infinitely divisible.

Every Markov spec (the chains here and the birth-death chains of ``ctmc``)
owns its stationary pmf ``marginal(kmax)`` and its transition matrix
``kernel(gap, kmax)`` on {0..kmax}; discrete chains take positive integer
gaps only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .idlaw import (
    GenericLevy,
    IDLaw,
    NegBinomial,
    Poisson,
    id_pmf,
    id_sample,
    levy_masses,
)
from .tables import JointPMF, stabilize

__all__ = [
    "Thinning",
    "RandomMeasure",
    "BranchingPoisson",
    "BranchingNB",
    "Constant",
    "IID",
    "ProcessSpec",
    "Trajectory",
    "CellDecomposition",
    "thinning_conditional",
    "thinning_transition",
    "thinning_transition_matrix",
    "simulate_thinning",
    "simulate_chain",
    "beta_binomial_pmf",
    "cell_measures",
    "rm_simulate",
    "rm_joint_pmf",
    "branching_step_poisson",
    "branching_step_nb",
    "branching_nb_transition_matrix",
    "pgf2_poisson",
    "pgf2_nb_branching",
    "pgf2_nb_thinning",
    "cond_pgf_nb_thinning",
    "nb_thinning_020",
    "nb_random_measure_020",
    "negtrinomial_pmf",
    "misti_classify",
    "r_sequence",
]


def _check_rho(rho):
    if not 0.0 < rho < 1.0:
        raise ValueError(
            f"rho must lie strictly in (0,1), got {rho}; "
            "rho=0 is the iid case and rho=1 the constant case"
        )


def _check_positive(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonneg(name, value):
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def _check_prob(name, value):
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {value}")


def _integer_gap(gap):
    if not (gap > 0 and float(gap).is_integer()):
        raise ValueError(f"discrete chains need positive integer gaps, got {gap}")
    return int(gap)


class _LawMarginal:
    def marginal(self, kmax):
        return id_pmf(self.law, self.theta, kmax)


@dataclass(frozen=True)
class Thinning(_LawMarginal):
    """Thinning chain over an ID semigroup: marginal mu^theta, lag-1 overlap rho."""

    law: IDLaw
    theta: float
    rho: float

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_rho(self.rho)

    def kernel(self, gap, kmax):
        """Poisson thinning is binomial thinning, which composes with rho^gap;
        general thinning kernels do not compose within their family, so their
        powers are taken on a buffered lattice."""
        gap = _integer_gap(gap)
        if gap == 1 or isinstance(self.law, Poisson):
            return thinning_transition_matrix(self.law, self.theta, self.rho**gap, kmax)
        one_step = lambda k: thinning_transition_matrix(self.law, self.theta, self.rho, k)
        power = lambda k: np.linalg.matrix_power(one_step(k), gap)[: kmax + 1, : kmax + 1]
        return stabilize(power, kmax, 1e-13)


@dataclass(frozen=True)
class RandomMeasure:
    """Random-measure process over an ID semigroup (jointly ID of all orders)."""

    law: IDLaw
    theta: float
    rho: float

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_rho(self.rho)


@dataclass(frozen=True)
class BranchingPoisson:
    """Branching chain with Poisson(theta) marginal and autocorrelation rho.  The
    branching kernels embed in the continuous-time chains, so they compose in
    rho: the gap-d kernel is the one-step kernel at rho^d, exactly."""

    theta: float
    rho: float

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_rho(self.rho)

    def marginal(self, kmax):
        return id_pmf(Poisson(), self.theta, kmax)

    def kernel(self, gap, kmax):
        return thinning_transition_matrix(Poisson(), self.theta, self.rho ** _integer_gap(gap), kmax)


@dataclass(frozen=True)
class BranchingNB:
    """Branching chain with NB(alpha, p) marginal and autocorrelation rho;
    its gap-d kernel is the one-step kernel at rho^d, as for BranchingPoisson."""

    alpha: float
    p: float
    rho: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_prob("p", self.p)
        _check_rho(self.rho)

    def marginal(self, kmax):
        return id_pmf(NegBinomial(self.p), self.alpha, kmax)

    def kernel(self, gap, kmax):
        return branching_nb_transition_matrix(self.alpha, self.p, self.rho ** _integer_gap(gap), kmax)


@dataclass(frozen=True)
class Constant(_LawMarginal):
    """Degenerate case X_t identically equal to one draw from mu^theta."""

    law: IDLaw
    theta: float

    def __post_init__(self):
        _check_positive("theta", self.theta)

    def kernel(self, gap, kmax):
        _integer_gap(gap)
        return np.eye(kmax + 1)


@dataclass(frozen=True)
class IID(_LawMarginal):
    """Degenerate case of independent draws from mu^theta."""

    law: IDLaw
    theta: float

    def __post_init__(self):
        _check_positive("theta", self.theta)

    def kernel(self, gap, kmax):
        _integer_gap(gap)
        return np.tile(self.marginal(kmax), (kmax + 1, 1))


ProcessSpec = Thinning | RandomMeasure | BranchingPoisson | BranchingNB | Constant | IID


@dataclass(frozen=True)
class Trajectory:
    """Discrete-tick path: values[i] is the state at time t0 + i."""

    t0: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty 1-d integer sequence")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


# ---------------------------------------------------------------------------
# thinning construction
# ---------------------------------------------------------------------------

def thinning_conditional(law, theta, rho, x):
    """Conditional pmf on {0..x} of the shared component given state x.

    Entry xi is mu^{rho theta}(xi) mu^{(1-rho) theta}(x - xi) / mu^theta(x).
    The normaliser is the sum of the numerators over {0..x}, which equals
    mu^theta(x) by the convolution identity mu^theta = mu^{rho theta} *
    mu^{(1-rho) theta}; summing them makes the row total 1 to rounding
    (x = 0 gives exactly [1.0]) where dividing by a separately computed
    mu^theta(x) would leave it off by a few ulps.
    """
    _check_nonneg("theta", theta)
    _check_rho(rho)
    if x < 0 or int(x) != x:
        raise ValueError(f"conditioning value must be a nonnegative integer, got {x}")
    x = int(x)
    shared = id_pmf(law, rho * theta, x)
    rest = id_pmf(law, (1.0 - rho) * theta, x)
    joint = shared * rest[::-1]
    px = joint.sum()
    if not px > 0.0:
        raise ValueError(f"conditioning value {x} has zero probability")
    return joint / px


def thinning_transition(law, theta, rho, x, y):
    """One-step transition probability q(y | x) of the thinning chain."""
    if y < 0 or int(y) != y:
        raise ValueError(f"target state must be a nonnegative integer, got {y}")
    y = int(y)
    cond = thinning_conditional(law, theta, rho, x)
    innov = id_pmf(law, (1.0 - rho) * theta, y)
    m = min(int(x), y)
    return float(np.dot(cond[: m + 1], innov[y - np.arange(m + 1)]))


def thinning_transition_matrix(law, theta, rho, kmax):
    """Transition rows q(y | x) for x, y in {0..kmax} (exact finite sums).

    Rows for states with zero marginal probability (possible only for the
    degenerate empty-jump law) are set to stay put.
    """
    _check_nonneg("theta", theta)
    _check_rho(rho)
    shared = id_pmf(law, rho * theta, kmax)
    innov = id_pmf(law, (1.0 - rho) * theta, kmax)
    rows = np.zeros((kmax + 1, kmax + 1))
    for x in range(kmax + 1):
        joint = shared[: x + 1] * innov[x :: -1]
        px = joint.sum()  # = mu^theta(x), as in thinning_conditional
        if px > 0.0:
            rows[x] = np.convolve(joint / px, innov)[: kmax + 1]
        else:
            rows[x, x] = 1.0
    return rows


def _sample_thinning_component(law, theta, rho, x, rng):
    if x == 0:
        return 0
    if isinstance(law, Poisson):
        return int(rng.binomial(x, rho))
    if isinstance(law, NegBinomial):
        # beta-binomial mixture, sampled exactly as binomial with beta prob
        return int(rng.binomial(x, rng.beta(theta * rho, theta * (1.0 - rho))))
    cond = thinning_conditional(law, theta, rho, x)
    return int(np.searchsorted(np.cumsum(cond), rng.random()))


def simulate_thinning(law, theta, rho, t0, n, rng):
    """Simulate n steps of the stationary thinning chain starting at time t0."""
    _check_nonneg("theta", theta)
    _check_rho(rho)
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    values = np.zeros(n, dtype=np.int64)
    values[0] = id_sample(law, theta, rng)
    for i in range(1, n):
        shared = _sample_thinning_component(law, theta, rho, int(values[i - 1]), rng)
        values[i] = shared + id_sample(law, (1.0 - rho) * theta, rng)
    return Trajectory(t0, values)


def beta_binomial_pmf(x, a, b):
    """Beta-binomial pmf vector on {0..x}, computed with log-gamma for stability."""
    if x < 0 or int(x) != x:
        raise ValueError(f"count must be a nonnegative integer, got {x}")
    k = np.arange(int(x) + 1)
    logp = (
        gammaln(x + 1)
        - gammaln(k + 1)
        - gammaln(x - k + 1)
        + gammaln(k + a)
        + gammaln(x - k + b)
        - gammaln(x + a + b)
        + gammaln(a + b)
        - gammaln(a)
        - gammaln(b)
    )
    return np.exp(logp)


# ---------------------------------------------------------------------------
# random-measure construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDecomposition:
    """Areas of the interval cells cut out by the tent sets of given times.

    ``areas[(i, j)]`` (0-based, i <= j inclusive) is the area of the region
    covered by exactly the tents of times[i..j]; the tents are nested enough
    that these n(n+1)/2 cells exhaust the union.
    """

    times: tuple
    theta: float
    rho: float
    areas: dict

    def area(self, i, j):
        return self.areas[(i, j)]


def cell_measures(times, theta, rho):
    """Cell areas for strictly increasing times.

    The product form theta rho^(t_j - t_i) (1 - rho^(t_i - t_{i-1}))
    (1 - rho^(t_{j+1} - t_j)) (boundary factors 1) makes nonnegativity
    explicit; per-time sums telescope to theta and pairwise sums to
    theta rho^(t - s).
    """
    _check_positive("theta", theta)
    _check_rho(rho)
    times = tuple(times)
    if len(times) < 1:
        raise ValueError("need at least one time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be strictly increasing, got {times}")
    n = len(times)
    areas = {}
    for i in range(n):
        for j in range(i, n):
            a = theta * rho ** (times[j] - times[i])
            if i > 0:
                a *= 1.0 - rho ** (times[i] - times[i - 1])
            if j < n - 1:
                a *= 1.0 - rho ** (times[j + 1] - times[j])
            areas[(i, j)] = a
    return CellDecomposition(times, theta, rho, areas)


def rm_simulate(law, theta, rho, times, rng):
    """One exact draw of the random-measure process at the given times."""
    cells = cell_measures(times, theta, rho)
    n = len(cells.times)
    out = np.zeros(n, dtype=np.int64)
    for (i, j), area in cells.areas.items():
        z = id_sample(law, area, rng)
        out[i : j + 1] += z
    return out


def rm_joint_pmf(law, theta, rho, times, kmax, budget=2 * 10**8):
    """Exact joint table of the random-measure process on {0..kmax}^n.

    Convolves the independent cell variables into the joint lattice; cell
    values above kmax can only land outside the lattice, so the restricted
    table is exact and the remainder is reported as leaked mass.
    """
    cells = cell_measures(times, theta, rho)
    n = len(cells.times)
    if len(cells.areas) * (kmax + 1) ** (n + 1) > budget:
        raise ValueError(
            f"enumeration budget exceeded for {n} times at lattice bound {kmax}"
        )
    table = np.zeros((kmax + 1,) * n)
    table[(0,) * n] = 1.0
    for (i, j), area in cells.areas.items():
        pmf = id_pmf(law, area, kmax)
        new = np.zeros_like(table)
        for v in range(kmax + 1):
            if pmf[v] == 0.0:
                continue
            dst = tuple(
                slice(v, kmax + 1) if i <= ax <= j else slice(None) for ax in range(n)
            )
            src = tuple(
                slice(0, kmax + 1 - v) if i <= ax <= j else slice(None)
                for ax in range(n)
            )
            new[dst] += pmf[v] * table[src]
        table = new
    return JointPMF(cells.times, kmax, table)


# ---------------------------------------------------------------------------
# branching families
# ---------------------------------------------------------------------------

def branching_step_poisson(x, theta, rho, rng):
    """One transition of the Poisson branching chain from state x."""
    _check_positive("theta", theta)
    _check_rho(rho)
    return int(rng.binomial(x, rho) + rng.poisson(theta * (1.0 - rho)))


def branching_step_nb(x, alpha, p, rho, rng):
    """One transition of the negative binomial branching chain from state x.

    Survivors Y ~ Binomial(x, rho p / (1 - rho q)); given Y the innovation is
    NB(alpha + Y, p / (1 - rho q)), q = 1 - p.
    """
    _check_positive("alpha", alpha)
    _check_prob("p", p)
    _check_rho(rho)
    q = 1.0 - p
    y = int(rng.binomial(x, rho * p / (1.0 - rho * q)))
    return y + int(rng.negative_binomial(alpha + y, p / (1.0 - rho * q)))


def _binomial_pmf(x, prob):
    """Binomial(x, prob) pmf on {0..x}, from the log of the exact integer
    coefficient (``gammaln`` differences lose ~1e-14 to cancellation), with
    log1p keeping (1 - prob)^(x - y) accurate for tiny prob.  The entries sum
    to 1 by the binomial theorem, so normalising removes their common
    rounding bias: within 6.2e-16 of 40-digit values for x <= 60."""
    y = np.arange(x + 1)
    log_coeff = np.array([math.log(math.comb(x, k)) for k in range(x + 1)])
    pmf = np.exp(log_coeff + xlogy(y, prob) + xlog1py(x - y, -prob))
    return pmf / pmf.sum()


def branching_nb_transition_matrix(alpha, p, rho, kmax):
    """Transition rows of the negative binomial branching chain on {0..kmax}."""
    _check_positive("alpha", alpha)
    _check_prob("p", p)
    _check_rho(rho)
    q = 1.0 - p
    bprob = rho * p / (1.0 - rho * q)
    succ = p / (1.0 - rho * q)
    rows = np.zeros((kmax + 1, kmax + 1))
    innovs = [id_pmf(NegBinomial(succ), alpha + y, kmax) for y in range(kmax + 1)]
    for x in range(kmax + 1):
        binpmf = _binomial_pmf(x, bprob)
        for y in range(x + 1):
            if binpmf[y] == 0.0:
                continue
            rows[x, y:] += binpmf[y] * innovs[y][: kmax + 1 - y]
    return rows


def simulate_chain(spec, t0, n, rng):
    """Simulate n steps of any of the Markov constructions from stationarity."""
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    if isinstance(spec, Thinning):
        return simulate_thinning(spec.law, spec.theta, spec.rho, t0, n, rng)
    values = np.zeros(n, dtype=np.int64)
    if isinstance(spec, BranchingPoisson):
        values[0] = rng.poisson(spec.theta)
        for i in range(1, n):
            values[i] = branching_step_poisson(int(values[i - 1]), spec.theta, spec.rho, rng)
    elif isinstance(spec, BranchingNB):
        values[0] = rng.negative_binomial(spec.alpha, spec.p)
        for i in range(1, n):
            values[i] = branching_step_nb(int(values[i - 1]), spec.alpha, spec.p, spec.rho, rng)
    elif isinstance(spec, IID):
        values[:] = id_sample(spec.law, spec.theta, rng, size=n)
    elif isinstance(spec, Constant):
        values[:] = id_sample(spec.law, spec.theta, rng)
    else:
        raise TypeError(f"not a Markov chain spec: {spec!r}")
    return Trajectory(t0, values)


# ---------------------------------------------------------------------------
# closed-form generating functions and pmfs
# ---------------------------------------------------------------------------

def _check_unit(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")


def pgf2_poisson(s, z, theta, rho):
    """Joint pgf at consecutive times of the Poisson branching chain."""
    _check_unit("s", s)
    _check_unit("z", z)
    return math.exp(theta * ((1.0 - rho) * (s - 1.0) + (1.0 - rho) * (z - 1.0) + rho * (s * z - 1.0)))


def pgf2_nb_branching(s, z, alpha, p, rho):
    """Joint pgf at consecutive times of the negative binomial branching chain."""
    _check_unit("s", s)
    _check_unit("z", z)
    q = 1.0 - p
    base = (1.0 - q * rho) - q * (1.0 - rho) * (s + z) + q * (q - rho) * s * z
    return p ** (2.0 * alpha) * base ** (-alpha)


def pgf2_nb_thinning(s, z, theta, p, rho):
    """Joint pgf at consecutive times of the negative binomial thinning chain."""
    _check_unit("s", s)
    _check_unit("z", z)
    q = 1.0 - p
    return (
        p ** (theta * (2.0 - rho))
        * (1.0 - q * s) ** (-theta * (1.0 - rho))
        * (1.0 - q * z) ** (-theta * (1.0 - rho))
        * (1.0 - q * s * z) ** (-theta * rho)
    )


def _hyp2f1_terminating(a, x, c, w):
    """Gauss hypergeometric 2F1(a, -x; c; w) for integer x >= 0 (finite sum)."""
    total = 1.0
    term = 1.0
    for k in range(x):
        term *= (a + k) * (-x + k) / ((c + k) * (k + 1.0)) * w
        total += term
    return total


def cond_pgf_nb_thinning(z, x, theta, p, rho):
    """Conditional pgf E[z^{X_t} | X_{t-1} = x] for the NB thinning chain.

    Equals (p / (1 - q z))^{theta (1 - rho)} 2F1(theta rho, -x; theta; 1 - z);
    the hypergeometric series terminates after x + 1 terms.
    """
    _check_unit("z", z)
    if x < 0 or int(x) != x:
        raise ValueError(f"conditioning value must be a nonnegative integer, got {x}")
    q = 1.0 - p
    return (p / (1.0 - q * z)) ** (theta * (1.0 - rho)) * _hyp2f1_terminating(
        theta * rho, int(x), theta, 1.0 - z
    )


def nb_thinning_020(theta, p, rho):
    """Closed form of P[X1=0, X3=0 | X2=2] for the NB thinning chain."""
    return float(
        (p ** (theta * (1.0 - rho)) * (1.0 - rho)) ** 2
        * ((1.0 + theta * (1.0 - rho)) / (1.0 + theta)) ** 2
    )


def nb_random_measure_020(theta, p, rho):
    """Closed form of P[X1=0, X3=0 | X2=2] for the NB random-measure process."""
    return float(
        (p ** (theta * (1.0 - rho)) * (1.0 - rho)) ** 2
        * (1.0 + theta * (1.0 - rho) ** 2)
        / (1.0 + theta)
    )


def negtrinomial_pmf(i, j, alpha, q):
    """Joint pmf of consecutive states of the NB branching chain when rho = q."""
    _check_positive("alpha", alpha)
    _check_prob("q", q)
    if i < 0 or j < 0:
        raise ValueError("states must be nonnegative")
    return float(
        math.exp(gammaln(alpha + i + j) - gammaln(alpha) - gammaln(i + 1) - gammaln(j + 1))
        * ((1.0 - q) / (1.0 + q)) ** alpha
        * (q / (1.0 + q)) ** (i + j)
    )


# ---------------------------------------------------------------------------
# classification by the jump-direction sequence
# ---------------------------------------------------------------------------

def misti_classify(r0, r1, r2, theta1, tol=1e-9):
    """Identify the unique jointly-ID reversible chain with the given data.

    (r0, r1, r2) are the first offspring probabilities (the coefficients of
    the one-step descendant pgf) and theta1 the unit jump mass of the
    marginal.  Degenerate inputs map to Constant/IID; r2 = 0 forces the
    Poisson branching family; otherwise the negative binomial family with
    q = (1 - r0 - r1) / (r0 (1 - r0)), alpha = theta1 / q and
    rho = (1 - r0)^2 / r1.  The remaining offspring probabilities must
    follow the geometric law r_i = r1 (q r0)^(i-1), which pins r2 = r1 q r0.

    Degenerate families are returned with a canonical Poisson marginal of
    mean theta1 (the inputs do not constrain jump masses beyond size 1).
    """
    for name, val in (("r0", r0), ("r1", r1), ("r2", r2)):
        if val < 0.0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    if r0 + r1 > 1.0 + tol:
        raise ValueError(f"r0 + r1 must be <= 1, got {r0 + r1}")
    if not theta1 > 0.0:
        raise ValueError(f"theta1 must be positive, got {theta1}")
    if r0 == 0.0:
        if abs(r1 - 1.0) > tol or r2 > tol:
            raise ValueError("r0 = 0 requires r1 = 1 and r2 = 0 (constant case)")
        return Constant(Poisson(), theta1)
    if r1 == 0.0:
        if abs(r0 - 1.0) > tol or r2 > tol:
            raise ValueError("r1 = 0 requires r0 = 1 and r2 = 0 (iid case)")
        return IID(Poisson(), theta1)
    if r2 == 0.0:
        if abs(r0 + r1 - 1.0) > tol:
            raise ValueError(
                "r2 = 0 forces all higher offspring probabilities to vanish, "
                f"so r0 + r1 must equal 1; got {r0 + r1}"
            )
        return BranchingPoisson(theta1, r1)
    q = (1.0 - r0 - r1) / (r0 * (1.0 - r0))
    if not 0.0 < q < 1.0:
        raise ValueError(
            f"implied geometric ratio q = {q} is infeasible (total jump mass "
            "diverges unless 0 < q < 1)"
        )
    if abs(r2 - r1 * q * r0) > tol * max(1.0, r2):
        raise ValueError(
            f"r2 = {r2} breaks the geometric law r2 = r1 q r0 = {r1 * q * r0}"
        )
    return BranchingNB(theta1 / q, 1.0 - q, (1.0 - r0) ** 2 / r1)


def r_sequence(spec):
    """Read (r0, r1, r2, theta1) off a chain spec; inverse of misti_classify."""
    if isinstance(spec, Constant):
        return 0.0, 1.0, 0.0, float(levy_masses(spec.law, spec.theta, 1)[0])
    if isinstance(spec, IID):
        return 1.0, 0.0, 0.0, float(levy_masses(spec.law, spec.theta, 1)[0])
    if isinstance(spec, BranchingPoisson):
        return 1.0 - spec.rho, spec.rho, 0.0, spec.theta
    if isinstance(spec, BranchingNB):
        q = 1.0 - spec.p
        r0 = (1.0 - spec.rho) / (1.0 - spec.rho * q)
        r1 = spec.rho * spec.p**2 / (1.0 - spec.rho * q) ** 2
        return r0, r1, r1 * q * r0, spec.alpha * q
    raise TypeError(f"no offspring sequence for {spec!r}")
