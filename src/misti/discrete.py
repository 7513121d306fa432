"""Discrete-time stationary reversible integer processes.

Three constructions share the same one-dimensional marginals and geometric
autocorrelation rho^|s-t|:

* thinning chains: consecutive states share a common component drawn from
  the scale-(rho theta) member of an ID semigroup;
* random-measure processes: states are sums of independent ID variables
  attached to the interval cells cut out by overlapping "tent" sets, i.e. a
  compound-Poisson random measure, sampled atom by atom in O(n + atoms)
  (Wolpert & Ickstadt, "Simulation of Levy random fields", 1998);
* the branching families (Poisson and negative binomial), the only
  nondegenerate chains that are simultaneously Markov, stationary,
  time-reversible and jointly infinitely divisible.

Every spec owns ``joint_pmf(times, kmax, initial=None)``, its exact joint
table on {0..kmax}^n, ``shifted_starts(shifts, kmax, initial=None)``, the
starts of its tables at shifted times (a chain's law there, proven from
one kernel build; none for the random measure, which is stationary by
construction), and ``reversal_times``, the times whose
table time reversal must leave unchanged: a pair for a Markov chain
(detailed balance), a triple for the random measure, which is not Markov.
The stationary law of every Markov spec (the chains here and the
birth-death chains of ``ctmc``, whose laws are Poisson or NB) is an ID law,
which the spec names as ``law`` at scale ``theta`` (the two NB chains
inherit both from ``_NBFamily``).  From it ``_Markov``
takes the spec's pmf ``marginal(kmax)`` and ``stationary_draw(rng)``.
Each spec owns its ``kernel_block(gap, k)``: its transition matrix built on
{0..k}, never above the kernel, and a proven bound on each row's error,
summed over the row's entries (so on each entry).  Closed-form
rows are exact (bound 0); powers and exponentials of truncated kernels
miss at most the mass that leaves the lattice.  ``kernel(gap, kmax)`` is
the block on {0..kmax} of the first lattice whose bounds certify it
(``certified_kernel``), certified once per spec instance and the only
thing a spec keeps, and a joint table is the forward product of the
marginal and those kernels.  Each spec also answers
``exit_bound(gap, kmax, pi, tail)`` (see ``tables``) with its own bound on
how much a row can miss, so the search for that lattice starts where the
stationary law proves it, and ``closed_form(gap)``, whether its rows over
the gap miss nothing, so a closed-form kernel is stated without a search.
Discrete specs take positive integer gaps only, and each also owns its
stationary sampler ``sample_path(t0, n, rng)``, which draws all
state-independent randomness in one call each.  The chains whose step has a
part that depends on the state (the thinning chains over every law, and the
NB branching chain) draw that part in ``_inversion_walk``, by inverting one
uniform of one vector draw on the CDF row of the part given the state; rows
are kept by state while their entries total at most the path length.  The
Poisson branching chain is the
Poisson thinning chain (binomial survivors plus Poisson immigrants), so
``BranchingPoisson`` only fixes the law of a thinning chain and shares its
kernel and sampler.  The chains that
``misti_classify`` returns own ``offspring()``, its inverse.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .idlaw import (
    IDLaw,
    NegBinomial,
    Poisson,
    _check_nonneg,
    _check_rho,
    _split_cdf,
    _thinning_split,
    id_pmf,
    id_sample,
    # not called here: the benchmark's tracer counts the calls of
    # misti.discrete.thinning_conditional, so the name must resolve in this
    # module (tests/test_bench_hooks.py fails without it)
    thinning_conditional,
)
from .tables import CERTIFIED_TOL, MAX_LATTICE, JointPMF, increasing_times, stabilize, table_times, tail_sums


def _check_positive(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_prob(name, value):
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {value}")


def _integer_gap(gap):
    if not (gap > 0 and float(gap).is_integer()):
        raise ValueError(f"need positive integer gaps (of a discrete chain, or shifts), got {gap}")
    return int(gap)


def _iid_kernel(spec, kmax):
    """Every row the marginal.  It is also the gap kernel of a thinning or
    branching chain whose rho^gap underflows: from x the surviving component
    has mean rho^gap x, so it is nonzero with a probability below float
    resolution on any lattice."""
    return np.tile(spec.marginal(kmax), (kmax + 1, 1))


def _exact(block):
    """A kernel block of closed-form rows: its entries need no bound."""
    return block, np.zeros(len(block))


def _stated_start(spec, gap, kmax, steps=0):
    """The first lattice k >= kmax that the stationary law proves certifies
    the kernel over gap on {0..kmax}: the first whose row bound
    leave / divisor is within ``CERTIFIED_TOL``.  For the stationary start
    evolved by ``steps`` steps of that kernel it is the first whose
    (steps + 2) pi(>k) + 2 steps leave is: ``_Markov.shifted_starts``
    proves (steps + 1) pi(>k) + 2 steps leave on its starts, and the build
    reads its bound off sums of the start and the rows, whose rounding the
    extra pi(>k) absorbs at the lattice where the tail meets the tolerance.
    Each searched range {0..top} builds pi once and hands it, with the
    bounds on pi(>k) over k = kmax..top, to ``spec.exit_bound``.  The range doubles from
    2 kmax + 64 up to ``MAX_LATTICE``, the largest lattice ``stabilize`` may
    build, and never past it; where no lattice within it is proven, the
    start is kmax.  A kernel whose rows are closed form
    (``spec.closed_form(gap)``) needs no lattice past kmax, so its statement
    builds no pi."""
    if spec.closed_form(gap) and not steps:
        return kmax
    top = kmax
    while top < MAX_LATTICE:
        top = min(2 * top + 64, MAX_LATTICE)
        pi = spec.marginal(top)
        tail = _law_tail(spec.law, spec.theta, pi)[kmax:]
        leave, divisor = spec.exit_bound(gap, kmax, pi, tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (steps + 2) * tail + 2 * steps * leave if steps else leave / divisor
        met = np.flatnonzero(bound <= CERTIFIED_TOL)
        if met.size:
            return kmax + int(met[0])
    return kmax


def certified_kernel(spec, gap, kmax):
    """``spec.kernel_block(gap, k)`` cut to {0..kmax}, from the first lattice
    whose row bounds on the kept rows are within ``CERTIFIED_TOL``, searched
    from the lattice that the spec's stationary law proves."""

    def build(k):
        block, bound = spec.kernel_block(gap, k)
        return block[: kmax + 1, : kmax + 1], bound[: kmax + 1].max()

    return stabilize(build, kmax, CERTIFIED_TOL, _stated_start(spec, gap, kmax))


def _evolved_starts(spec, shifts, kmax, k):
    """The stationary start evolved on {0..k} by the powers ``shifts`` of
    one build of the gap-1 kernel, as ``stabilize`` takes a build: (the
    lattice k, the starts cut to {0..kmax}, the bound on each one's entries
    that ``_Markov.shifted_starts`` proves), and the largest bound."""
    block, bound = spec.kernel_block(1, k)
    evolved = [spec.marginal(k)]
    for _ in range(max(shifts)):
        evolved.append(evolved[-1] @ block)
    rows = np.cumsum([v @ bound for v in evolved])
    bounds = [float(1.0 - evolved[s].sum() + rows[s - 1]) for s in shifts]
    return (k, [evolved[s][: kmax + 1] for s in shifts], bounds), max(bounds)


# log z of the Chernoff bounds on an ID marginal's tail: 2^-30 to 2^8, four
# to an octave
_LOG_Z = np.exp2(np.arange(-120, 33) / 4)


def _law_tail(law, theta, pi):
    """Upper bounds on mu^theta(>k) over k = 0..top from its pmf pi on
    {0..top}: the terms of pi summed, and past top E z^X / z^(top + 1) for
    every z >= 1 (Chernoff), taken at the best z of a fixed grid."""
    with np.errstate(all="ignore"):
        logs = np.log(law.pgf(theta, np.exp(_LOG_Z))) - len(pi) * _LOG_Z
    logs = logs[np.isfinite(logs)]
    return tail_sums(pi, math.exp(logs.min()) if logs.size else math.inf)


class _Markov:
    """Marginal, stationary draw, ``kernel(gap, kmax)`` and joint tables of a
    spec that owns ``kernel_block(gap, k)`` and names its stationary law:
    the ID law ``law`` at scale ``theta``."""

    reversal_times = (0, 1)

    def marginal(self, kmax):
        return id_pmf(self.law, self.theta, kmax)

    def stationary_draw(self, rng):
        """One draw from the stationary law."""
        return int(id_sample(self.law, self.theta, rng))

    def closed_form(self, gap):
        """Whether the kernel over gap has closed-form rows, which miss
        nothing on any lattice."""
        return True

    def exit_bound(self, gap, kmax, pi, tail):
        """(leave, divisor) over the lattices k = kmax..top, from the
        stationary pmf pi on {0..top} and the bounds tail on pi(>k): see
        ``tables``.  Closed-form rows miss nothing: (0, 1)."""
        return 0.0, 1.0

    def kernel(self, gap, kmax):
        """``certified_kernel(self, gap, kmax)``, certified once per instance:
        the block is kept read-only in a memo on the instance (as
        ``functools.cached_property`` keeps its value), so the tables of one
        check share it.  Equal specs built apart do not share a memo."""
        memo = self.__dict__.setdefault("_kernels", {})
        if (gap, kmax) not in memo:
            # a copy of a cut block, so the memo never holds a larger lattice
            block = np.ascontiguousarray(certified_kernel(self, gap, kmax))
            block.setflags(write=False)
            memo[gap, kmax] = block
        return memo[gap, kmax]

    def joint_pmf(self, times, kmax, initial=None):
        """Forward product of the start and the certified kernels over the
        gaps of ``times``.  The start is the stationary marginal, or the pmf
        vector ``initial``, which has no mass past kmax, so its product with
        a certified kernel is within the kernel's bound.  A table of more
        than ``MAX_ENTRIES`` entries raises before anything is built."""
        times = table_times(times, kmax)
        if initial is not None and np.shape(initial) != (kmax + 1,):
            raise ValueError(f"initial pmf must have shape ({kmax + 1},)")
        table = self.marginal(kmax) if initial is None else np.asarray(initial, dtype=float)
        for t_prev, t_next in zip(times, times[1:]):
            table = table[..., None] * self.kernel(t_next - t_prev, kmax)
        return JointPMF(times, kmax, table)

    def shifted_starts(self, shifts, kmax, initial=None):
        """The laws on {0..kmax} at the times ``shifts`` (positive integers,
        the gaps from time 0) of the chain started at time 0 from the pmf
        vector ``initial``, or from its stationary law, and a record for a
        report: from the stationary law, the lattice of the shared build and
        the bound on each start's entries.

        From ``initial`` a start is ``initial @ kernel(s, kmax)``, within the
        kernel's bound.  From the stationary law pi every start comes from
        one build on {0..k}, (B, bound) = ``kernel_block(1, k)``:
        v_0 = pi_k (pi on {0..k}) and v_s = v_(s-1) B, each cut to kmax.
        Each entry of v_s is within

            1 - sum(v_s) + R,  R = sum_(r<s) v_r . bound,

        of pi, the law at every time.  Proof: let K_k be the kernel cut to
        {0..k}; every block's row bound covers the summed error of its row,
        sum_y |K_k - B|(x, y) <= bound(x).  Write pi - v_s on {0..k} as
        a + b, a = pi - w_s and b = w_s - v_s, with w_s = pi_k K_k^s the mass
        that stayed in {0..k} up to time s.  Then a >= 0 and
        sum(a) = pi(<=k) - sum(w_s), and
        b = sum_(r=1..s) v_(r-1) (K_k - B) K_k^(s-r) with K_k substochastic,
        so sum |b| <= R.  An entry of a + b is at most
        sum(a) + b_y = pi(<=k) - sum(v_s) - sum_(z != y) b_z
        <= 1 - sum(v_s) + R, and at least b_y >= -R, as sum(v_s) <= 1.
        The first term, 1 - sum(v_s), is the start's tail pi(>k) plus what
        each step loses at the cut, v_r (1 - B 1); R holds the row bounds.

        The lattice is the first whose bound on every start is within
        ``CERTIFIED_TOL``, searched by ``stabilize`` from the one that
        ``_stated_start`` states over as many steps as the largest shift:
        B <= K_k, so v_r <= pi, and with the one-step exit bound ``leave``,
        which bounds pi . bound, a step loses at most pi(>k) + leave at the
        cut and its rows add at most leave."""
        shifts = [_integer_gap(s) for s in shifts]
        if initial is not None:
            return [np.asarray(initial, dtype=float) @ self.kernel(s, kmax) for s in shifts], {}
        build = functools.partial(_evolved_starts, self, shifts, kmax)
        k, starts, bounds = stabilize(build, kmax, CERTIFIED_TOL, _stated_start(self, 1, kmax, max(shifts)))
        return starts, {"start_lattice": k, "start_bounds": bounds}


class _ThinningChain(_Markov):
    """Validation, kernel and sampler of the thinning chains; subclasses give
    ``law``, ``theta`` and ``rho``."""

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_rho(self.rho)

    def _raised(self, gap):
        """Whether the kernel over an integer gap is the one-step kernel
        raised to it.  Poisson thinning is binomial thinning, which composes
        with rho^gap, and where rho^gap underflows the kernel is iid; other
        thinning kernels do not compose within their family."""
        return gap > 1 and self.rho**gap > 0.0 and not isinstance(self.law, Poisson)

    def closed_form(self, gap):
        return not self._raised(_integer_gap(gap))

    def kernel_block(self, gap, k):
        """A raised kernel K^gap on {0..k} misses a path through a state past
        k, so its rows are within the mass that leaves {0..k} in the first
        gap - 1 steps, 1 - K^(gap-1) 1; every other block is closed form."""
        gap = _integer_gap(gap)
        if self._raised(gap):
            step = thinning_transition_matrix(self.law, self.theta, self.rho, k)
            head = np.linalg.matrix_power(step, gap - 1)
            return head @ step, np.maximum(1.0 - head.sum(axis=1), 0.0)
        rho = self.rho**gap
        if rho == 0.0:
            return _exact(_iid_kernel(self, k))
        return _exact(thinning_transition_matrix(self.law, self.theta, rho, k))

    def exit_bound(self, gap, kmax, pi, tail):
        """A raised K^gap row x misses P_x(leave {0..k} in the first gap - 1
        steps) <= (gap - 1) pi(>k) / pi_x, one stationary tail per step."""
        gap = _integer_gap(gap)
        if not self._raised(gap):
            return super().exit_bound(gap, kmax, pi, tail)
        return (gap - 1) * tail, pi[: kmax + 1].min()

    def sample_path(self, t0, n, rng):
        return simulate_thinning(self.law, self.theta, self.rho, t0, n, rng)


@dataclass(frozen=True)
class Thinning(_ThinningChain):
    """Thinning chain over an ID semigroup: marginal mu^theta, lag-1 overlap rho."""

    law: IDLaw
    theta: float
    rho: float


@dataclass(frozen=True)
class RandomMeasure:
    """Random-measure process over an ID semigroup (jointly ID of all orders).
    It is not Markov, so its pair tables are symmetric whatever the law and
    reversibility is read off triples."""

    law: IDLaw
    theta: float
    rho: float

    reversal_times = (0, 1, 2)  # a class attribute, not a field
    __post_init__ = _ThinningChain.__post_init__

    def joint_pmf(self, times, kmax, initial=None):
        """``rm_joint_pmf`` at the times."""
        if initial is not None:
            raise ValueError("random-measure processes have no chain initial state")
        return rm_joint_pmf(self.law, self.theta, self.rho, times, kmax)

    def shifted_starts(self, shifts, kmax, initial=None):
        """No start for any shift: the process is stationary by construction,
        so its table at shifted times is its own law there, and it has no
        chain state to start from."""
        if initial is not None:
            raise ValueError("random-measure processes have no chain initial state")
        return [None] * len(shifts), {}

    def sample_path(self, t0, n, rng):
        return Trajectory(t0, rm_simulate(self.law, self.theta, self.rho, range(t0, t0 + n), rng))


@dataclass(frozen=True)
class BranchingPoisson(_ThinningChain):
    """Branching chain with Poisson(theta) marginal and autocorrelation rho:
    the Poisson thinning chain, whose gap-d kernel is the one-step kernel at
    rho^d, exactly."""

    law = Poisson()  # a class attribute, not a field
    theta: float
    rho: float

    def offspring(self):
        return 1.0 - self.rho, self.rho, 0.0, self.theta


class _NBFamily(_Markov):
    """The stationary law NB(alpha, p), ``NegBinomial(p)`` at scale alpha,
    and the checks of alpha and p, for the two NB chains: ``BranchingNB``
    and ``ctmc.NBBD``.  A subclass declares the fields ``alpha`` and ``p``
    and checks its own time scale."""

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_prob("p", self.p)

    @property
    def law(self):
        return NegBinomial(self.p)

    @property
    def theta(self):
        return self.alpha


@dataclass(frozen=True)
class BranchingNB(_NBFamily):
    """Branching chain with NB(alpha, p) marginal and autocorrelation rho;
    its gap-d kernel is the one-step kernel at rho^d, as for BranchingPoisson."""

    alpha: float
    p: float
    rho: float

    def __post_init__(self):
        super().__post_init__()
        _check_rho(self.rho)

    def kernel_block(self, gap, k):
        rho = self.rho ** _integer_gap(gap)
        if rho == 0.0:
            return _exact(_iid_kernel(self, k))
        return _exact(branching_nb_transition_matrix(self.alpha, self.p, rho, k))

    def offspring(self):
        q = 1.0 - self.p
        r0 = (1.0 - self.rho) / (1.0 - self.rho * q)
        r1 = self.rho * self.p**2 / (1.0 - self.rho * q) ** 2
        return r0, r1, r1 * q * r0, self.alpha * q

    def sample_path(self, t0, n, rng):
        """NB(alpha + y, s) = NB(alpha, s) + NB(y, s), so the NB(alpha, s)
        immigrants of all steps come from one call.  The survivors y of a
        state x and their NB(y, s) offspring are drawn by ``_inversion_walk``
        on the rows of ``_offspring_rows``; a state whose row is not kept
        draws its survivors and, when there are any, their NB(y, s) share."""
        keep, succ = _nb_branching_probs(self.p, self.rho)
        binomial, negative_binomial = rng.binomial, rng.negative_binomial
        x = negative_binomial(self.alpha, self.p)
        immigrants = negative_binomial(self.alpha, succ, n - 1).tolist()

        def offspring(x, i):
            y = binomial(x, keep)
            return y + negative_binomial(y, succ) if y else 0

        row = _offspring_rows(keep, succ)
        return Trajectory(t0, _inversion_walk(x, immigrants, row, lambda: offspring, rng))


@dataclass(frozen=True)
class Constant(_Markov):
    """Degenerate case X_t identically equal to one draw from mu^theta."""

    law: IDLaw
    theta: float

    def __post_init__(self):
        _check_positive("theta", self.theta)

    def kernel_block(self, gap, k):
        _integer_gap(gap)
        return _exact(np.eye(k + 1))

    def offspring(self):
        return 0.0, 1.0, 0.0, float(self.law.levy(self.theta, 1)[0])

    def sample_path(self, t0, n, rng):
        return Trajectory(t0, np.full(n, id_sample(self.law, self.theta, rng), dtype=np.int64))


@dataclass(frozen=True)
class IID(_Markov):
    """Degenerate case of independent draws from mu^theta."""

    law: IDLaw
    theta: float

    def __post_init__(self):
        _check_positive("theta", self.theta)

    def kernel_block(self, gap, k):
        _integer_gap(gap)
        return _exact(_iid_kernel(self, k))

    def offspring(self):
        return 1.0, 0.0, 0.0, float(self.law.levy(self.theta, 1)[0])

    def sample_path(self, t0, n, rng):
        return Trajectory(t0, id_sample(self.law, self.theta, rng, size=n))


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

def _additions_matrix(additions, n, rows=None):
    """Rows 0..rows - 1 (all n by default) of the n x n matrix of entries
    additions[s, y - s] for y >= s and 0 below the diagonal: the law of s plus
    a draw from the pmf additions[s] (one row per s, or one pmf for every s,
    which makes it Toeplitz)."""
    s = np.arange(n if rows is None else rows)[:, None]
    lag = np.arange(n) - s  # y - s
    added = np.broadcast_to(additions, (n, n))[s, np.maximum(lag, 0)]
    return np.where(lag >= 0, added, 0.0)


def _survivors_then_additions(survivors, additions):
    """Kernel rows sum_s survivors[x, s] additions[s, y - s] on {0..kmax}: s
    units of state x survive, then a draw from the pmf additions[s] (one row
    per s, or one pmf for every s) joins them."""
    return survivors @ _additions_matrix(additions, len(survivors))


def thinning_transition_matrix(law, theta, rho, kmax):
    """Transition rows q(y | x) for x, y in {0..kmax} (exact finite sums): the
    rows of the thinning split, then the innovation.

    Rows for states with zero marginal probability are set to stay put when
    the law has no jumps at this scale (then every x > 0 has probability 0);
    for any other law a pmf of the split has underflowed, and a stay-put row
    would be a wrong answer, so that raises.
    """
    _check_nonneg("theta", theta)
    _check_rho(rho)
    split = _thinning_split(law, theta, rho, kmax)
    zero = np.isnan(split[:, 0])
    if zero.any() and law.total(theta) > 0.0:
        x = int(np.argmax(zero))
        raise ValueError(f"state {x} underflows to probability 0 at theta={theta}, rho={rho}")
    split[zero] = np.eye(kmax + 1)[zero]
    return _survivors_then_additions(split, id_pmf(law, (1.0 - rho) * theta, kmax))


def simulate_thinning(law, theta, rho, t0, n, rng):
    """Simulate n steps of the stationary thinning chain starting at time t0.

    The innovations come from one ``id_sample`` call.  The shared component
    of a step is drawn by ``_inversion_walk`` on the ``_split_cdf`` row of the
    state, which has x + 1 entries; a state whose row is not kept takes
    ``law.keeper``'s draw.
    """
    _check_nonneg("theta", theta)
    _check_rho(rho)
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    if theta == 0.0:  # the point mass at 0; rng.beta rejects a zero parameter
        return Trajectory(t0, np.zeros(n, dtype=np.int64))
    x = int(id_sample(law, theta, rng))
    innovations = id_sample(law, (1.0 - rho) * theta, rng, size=n - 1).tolist()
    cdf = _split_cdf(law, theta, rho)

    def row(x, room):
        return cdf(x) if x < room else None

    keeper = functools.partial(law.keeper, theta, rho, n - 1, rng)
    return Trajectory(t0, _inversion_walk(x, innovations, row, keeper, rng))


def _inversion_walk(x, fixed, row, keeper, rng):
    """The path from state x whose step i goes from x to D(x) + fixed[i],
    where D(x), the part of a step that depends on the state, is drawn by
    inversion (Devroye, *Non-Uniform Random Variate Generation*, 1986,
    ch. III.2) of the uniform u_i of one ``rng.random`` call: D(x) =
    min{j : F(j) > u_i} = bisect_right(F, u_i) on the CDF row F of D given x.
    That rule never lands on an entry of probability 0, not even for u_i = 0
    or u_i equal to an entry of F.

    ``row(x, room)`` builds the row as a list, or gives None where it would
    have more than room entries.  Rows are kept in a list by state while
    their entries total at most the path length n, so memory stays O(n);
    states of n or more keep none.  Rows grow with the state and the room
    only shrinks, so once a state's row does not fit, no state at or above
    it is asked again.  Those states take keep(x, i), the spec's own draw
    of D(x) at step i, from ``keeper()``, which is called at the first step
    that needs it.
    """
    n = len(fixed) + 1
    uniforms = rng.random(n - 1).tolist()
    rows, room, limit = [None] * n, n, n

    def keep(x, i):
        nonlocal keep
        keep = keeper()
        return keep(x, i)

    values = [x]
    for i, z in enumerate(fixed):
        cdf = rows[x] if x < n else None
        if cdf is None and x < limit:
            cdf = row(x, room)
            if cdf is None:
                limit = x
            else:
                rows[x] = cdf
                room -= len(cdf)
        x = (keep(x, i) if cdf is None else bisect_right(cdf, uniforms[i])) + z
        values.append(x)
    return values


# ---------------------------------------------------------------------------
# random-measure construction
# ---------------------------------------------------------------------------

def _boundary_factors(times, theta, rho):
    """Validated times and the boundary factors a_i = 1 - rho^(t_i - t_{i-1}),
    b_j = 1 - rho^(t_{j+1} - t_j) (1 at the ends) of the cell areas
    theta rho^(t_j - t_i) a_i b_j."""
    _check_positive("theta", theta)
    _check_rho(rho)
    times = increasing_times(times)
    inner = [1.0 - rho ** (b - a) for a, b in zip(times, times[1:])]
    return times, [1.0, *inner], [*inner, 1.0]


def cell_measures(times, theta, rho):
    """Areas of the interval cells cut out by the tent sets of strictly
    increasing times, as a dict: entry (i, j) (0-based, i <= j) is the area of
    the region covered by exactly the tents of times[i..j]; the tents are
    nested enough that these n(n+1)/2 cells exhaust the union.

    The product form theta rho^(t_j - t_i) (1 - rho^(t_i - t_{i-1}))
    (1 - rho^(t_{j+1} - t_j)) (boundary factors 1) makes nonnegativity
    explicit; per-time sums telescope to theta and pairwise sums to
    theta rho^(t - s).
    """
    times, a, b = _boundary_factors(times, theta, rho)
    n = len(times)
    areas = {}
    for i in range(n):
        for j in range(i, n):
            areas[(i, j)] = theta * rho ** (times[j] - times[i]) * a[i] * b[j]
    return areas


def rm_simulate(law, theta, rho, times, rng):
    """One exact draw of the random-measure process at the given times.

    The cell variables are the restrictions of one compound-Poisson random
    measure, so it is sampled atom by atom (Wolpert & Ickstadt, "Simulation
    of Levy random fields", 1998) without building the n(n+1)/2 cells.  The
    cell (i, j) has area theta a_i rho^(t_j - t_i) b_j, and the areas of the
    cells that start at i sum to theta a_i (the b_j telescope), so:

    * Poisson(theta sum(a) law.total(1)) atoms;
    * each atom's first time i with probability proportional to a_i;
    * its reach E / log(1/rho), E standard exponential, which covers the
      lag t_j - t_i with probability rho^(t_j - t_i), so its last time is j
      with probability rho^(t_j - t_i) b_j; no rho^(-t) is formed;
    * its size from ``law.jumps``, added to the states i..j through a
      difference array.

    The times must be integers.  Lags are compared in exact integer offsets
    from the first time (int64, or Python ints past its range), so time
    indices of any size keep their law.  The cost is O(n + atoms) in a
    fixed number of numpy calls.
    """
    times, a, _ = _boundary_factors(times, theta, rho)
    if any(int(t) != t for t in times):
        raise ValueError(f"times must be integers, got {times}")
    offsets = np.array([int(t) - int(times[0]) for t in times])
    n = len(times)
    mass = np.cumsum(a)
    atoms = rng.poisson(theta * mass[-1] * law.total(1.0))
    first = np.searchsorted(mass, rng.random(atoms) * mass[-1], side="right")
    first = np.minimum(first, n - 1)  # u * mass[-1] may round up to mass[-1]
    # an integer lag is covered iff it is at most floor(reach), capped at 2^62
    # for int64 and at the rest of the span to keep the sum inside the offsets
    reach = rng.standard_exponential(atoms) / -math.log(rho)
    lag = np.minimum(np.floor(reach), 2.0**62).astype(np.int64)
    start = offsets[first]
    last = np.searchsorted(offsets, start + np.minimum(lag, offsets[-1] - start), side="right") - 1
    sizes = law.jumps(rng, atoms)
    diff = np.zeros(n + 1, dtype=np.int64)
    np.add.at(diff, first, sizes)
    np.add.at(diff, last + 1, -sizes)
    return np.cumsum(diff[:-1])


def rm_joint_pmf(law, theta, rho, times, kmax):
    """Exact joint table of the random-measure process on {0..kmax}^n.

    Convolves the independent cell variables into the joint lattice.  Every
    value only grows, so cutting values above kmax at each step loses
    nothing: the restricted table is exact and the remainder is reported as
    leaked mass.

    The table starts as the point mass at 0 on a box of one entry, and the
    times join it one at a time.  The cells of time j go by their first time
    i = 0..j, so the cell of j alone comes last.  Each multiplies the table
    along axis j by the triangular Toeplitz matrix of the cell's pmf; axes
    past j still have length 1, so that is one contiguous matrix product.
    After the cell (i, j), i < j, axis j holds the sum s of the cells
    (0..i, j), which are the cells of time j that cover time i, and the shear
    out[..., x, ..., s] = table[..., x - s, ..., s] (0 where x < s) adds s
    to axis i once.

    Per time j that is j + 1 products, the first on a new axis of length 1
    and the other j on the full box of (kmax + 1)^(j + 1) entries, and j
    shears: about (n - 1) (kmax + 1)^(n + 1) multiply-adds in all, where the
    n(n+1)/2 cells on the full box would take n(n+1)/2 (kmax + 1)^(n + 1).
    The build holds at most two tables at once.  A table of more than
    ``MAX_ENTRIES`` entries raises before anything is built.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    times = table_times(times, kmax)
    cells = cell_measures(times, theta, rho)
    size = kmax + 1
    table = np.ones((1,) * len(times))
    for j in range(len(times)):
        for i in range(j + 1):
            toeplitz = _additions_matrix(id_pmf(law, cells[i, j], kmax), size, rows=table.shape[j])
            table = (table.reshape(-1, len(toeplitz)) @ toeplitz).reshape((size,) * (j + 1) + table.shape[j + 1 :])
            if i < j:
                table = _shear(table, i, size)
    return JointPMF(times, kmax, table)


def _shear(table, i, size):
    """out[..., x, ..., s] = table[..., x - s, ..., s], and 0 where x < s, for
    x on axis i and s on the last axis longer than 1, of a table whose axes
    up to that one have length ``size``."""
    box = table.reshape(size**i, size, -1, size)
    out = np.zeros_like(box)
    for s in range(size):
        out[:, s:, :, s] = box[:, : size - s, :, s]
    return out.reshape(table.shape)


# ---------------------------------------------------------------------------
# branching families
# ---------------------------------------------------------------------------

def _nb_branching_probs(p, rho):
    """(survival probability rho p / (1 - rho q), offspring success
    probability p / (1 - rho q)) of the NB branching chain, q = 1 - p."""
    q = 1.0 - p
    return rho * p / (1.0 - rho * q), p / (1.0 - rho * q)


def _offspring_rows(keep, succ):
    """row(x, room): the CDF row, as a list, of W = Y + NB(Y, succ) with
    Y ~ Binomial(x, keep), the survivors of state x of the NB branching
    chain and their offspring; None where it has more than room entries.
    The pgf of W is f(z)^x, f(z) = 1 + keep (z - 1) / (1 - c z),
    c = 1 - succ.

    The row covers {0..m-1}, where m is the first length at which the
    Chernoff bound P(W >= m) <= f(z)^x / z^m, at the best z of the grid of
    ``_law_tail`` with c z < 1, falls below 2^-53, the spacing of the values
    of ``rng.random()``.  That tail goes on the last entry, which is 1.0.
    Since E z^W >= z^(E W), the bound is 1 or more for every m <= E W =
    x keep / succ, so a state whose mean reaches room is refused before its
    bound is taken.

    The entries are the inverse real FFT of f^x at the L-th roots of unity,
    cut to m, where L >= m is a length of small prime factors; the mass of W
    past L folds onto them, below 2^-53 in all.  f - 1 and log f come from
    expm1 and log1p, and log f at the roots is kept by L; a row is built
    only where it fits, so those logs hold no more values than the rows
    kept have entries.  The rounding of the transform leaves each entry within
    about x 1e-16 of the exact sum: against a direct convolution of the
    binomial and NB pmfs, within 3.2e-14 for p in [0.001, 0.99], rho in
    [0.1, 0.999] and x <= 1500, and within 1.3e-13 at rho = 1e-12 and
    1 - 1e-12.  Residues below 0 are set to 0.
    """
    c = 1.0 - succ

    def log_f(t):
        """log f(e^t)."""
        return np.log1p(keep * np.expm1(t) / (1.0 - c * np.exp(t)))

    log_z = _LOG_Z[c * np.exp(_LOG_Z) < 1.0]
    tail, at_roots = log_f(log_z), {}

    def row(x, room):
        if x * keep / succ >= room:
            return None
        bound = ((x * tail + 53.0 * math.log(2.0)) / log_z).min(initial=math.inf)
        if not bound <= room:
            return None
        m = max(math.ceil(bound), 1)
        step = 1 << max(m.bit_length() - 4, 0)
        size = -(-m // step) * step
        if size not in at_roots:
            at_roots[size] = log_f(-2j * math.pi * np.arange(size // 2 + 1) / size)
        cdf = np.cumsum(np.maximum(np.fft.irfft(np.exp(x * at_roots[size]), size)[:m], 0.0))
        cdf[-1] = 1.0
        return cdf.tolist()

    return row


def branching_step_nb(x, alpha, p, rho, rng):
    """One transition of the negative binomial branching chain from state x.

    Survivors Y ~ Binomial(x, rho p / (1 - rho q)); given Y the innovation is
    NB(alpha + Y, p / (1 - rho q)), q = 1 - p.
    """
    _check_positive("alpha", alpha)
    _check_prob("p", p)
    _check_rho(rho)
    keep, succ = _nb_branching_probs(p, rho)
    y = int(rng.binomial(x, keep))
    return y + int(rng.negative_binomial(alpha + y, succ))


def _binomial_pmf(x, prob):
    """Binomial(x, prob) pmf on {0..x} for 0 < prob < 1, from the log of the
    exact integer coefficient, with log1p keeping (1 - prob)^(x - y) accurate
    for tiny prob.  The coefficients of a row come from one exact recursion,
    C(x, y + 1) = C(x, y) (x - y) // (y + 1), not one ``math.comb`` each.
    The entries sum to 1 by the binomial theorem, so normalising removes
    their common rounding bias: within 6.2e-16 of 40-digit values for
    x <= 60."""
    y = np.arange(x + 1)
    coeffs = itertools.accumulate(range(x), lambda c, k: c * (x - k) // (k + 1), initial=1)
    log_coeff = np.array([math.log(c) for c in coeffs])
    pmf = np.exp(log_coeff + y * math.log(prob) + (x - y) * math.log1p(-prob))
    return pmf / pmf.sum()


def branching_nb_transition_matrix(alpha, p, rho, kmax):
    """Transition rows of the negative binomial branching chain on {0..kmax}."""
    _check_positive("alpha", alpha)
    _check_prob("p", p)
    _check_rho(rho)
    bprob, succ = _nb_branching_probs(p, rho)
    survivors = np.zeros((kmax + 1, kmax + 1))
    for x in range(kmax + 1):
        survivors[x, : x + 1] = _binomial_pmf(x, bprob)
    # for rho near 1, p / (1 - rho q) can round to 1: the innovation is then the point mass at 0
    if succ >= 1.0:
        return _survivors_then_additions(survivors, np.eye(kmax + 1)[0])
    innovs = [id_pmf(NegBinomial(succ), alpha + y, kmax) for y in range(kmax + 1)]
    return _survivors_then_additions(survivors, np.array(innovs))


def simulate_chain(spec, t0, n, rng):
    """Simulate n steps of any of the Markov constructions from stationarity."""
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    return spec.sample_path(t0, n, rng)


# ---------------------------------------------------------------------------
# closed-form discriminating probabilities
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# classification by the jump-direction sequence
# ---------------------------------------------------------------------------

def misti_classify(r0, r1, r2, theta1):
    """Identify the unique jointly-ID reversible chain with the given data.

    (r0, r1, r2) are the first offspring probabilities (the coefficients of
    the one-step descendant pgf) and theta1 the unit jump mass of the
    marginal.  Degenerate inputs map to Constant/IID; r2 = 0 with
    r0 + r1 = 1 is the Poisson branching family; otherwise the negative
    binomial family with q = (1 - r0 - r1) / (r0 (1 - r0)),
    alpha = theta1 / q and rho = (1 - r0)^2 / r1.  The remaining offspring
    probabilities must follow the geometric law r_i = r1 (q r0)^(i-1), which
    pins r2 = r1 q r0.

    Degenerate families are returned with a canonical Poisson marginal of
    mean theta1 (the inputs do not constrain jump masses beyond size 1).
    The identities above are checked to within 1e-9, the Poisson ones too:
    r2 and 1 - r0 - r1 both within 1e-9 of 0 give the Poisson family, where
    the NB formulas would divide rounding noise: (0.59343, 0.40657 - 1e-16,
    1e-16, 2) would give q = 4e-16, alpha = 4e15 and an ``offspring()``
    with theta1 = 1.93.  The returned spec's ``offspring()`` gives
    (r0, r1, r2, theta1) back.
    """
    tol = 1e-9
    for name, val in (("r0", r0), ("r1", r1), ("r2", r2)):
        _check_nonneg(name, val)
    _check_positive("theta1", theta1)
    if r0 + r1 > 1.0 + tol:
        raise ValueError(f"r0 + r1 must be <= 1, got {r0 + r1}")
    if r0 == 0.0:
        if abs(r1 - 1.0) > tol or r2 > tol:
            raise ValueError("r0 = 0 requires r1 = 1 and r2 = 0 (constant case)")
        return Constant(Poisson(), theta1)
    if r1 == 0.0:
        if abs(r0 - 1.0) > tol or r2 > tol:
            raise ValueError("r1 = 0 requires r0 = 1 and r2 = 0 (iid case)")
        return IID(Poisson(), theta1)
    if r2 <= tol and abs(1.0 - r0 - r1) <= tol:
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

