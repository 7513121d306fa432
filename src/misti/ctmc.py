"""Continuous-time linear birth-death chains with Poisson / NB stationary laws.

The Poisson model is a linear death process with immigration (birth rate
lambda*theta, death rate lambda*j); the negative binomial model adds linear
births (birth rate lambda*(alpha+j)(1-p)/p, death rate lambda*j/p).  Both
are time-reversible with autocorrelation exp(-lambda |s-t|), and sampled at
integer times they reduce to the discrete branching chains with
rho = exp(-lambda).  So, as for every Markov spec, the stationary law pi is
the ID law ``law`` at scale ``theta`` (Poisson(theta), NB(alpha, p)), and
the marginal and the stationary draw come from that law.
``stationary_bd`` derives pi a second way, from detailed balance, and stays
as the reference the law is checked against.

Kernels exp(tQ) come from the generator, not from the branching identity,
so ``check_stationarity`` on these chains checks that exp(tQ) preserves the
Poisson or NB law.  They are built by uniformization over
t/2^s <= 1/(largest exit rate), then s squarings, all in nonnegative
matrices on a lattice whose top birth edge is dropped.  So a row deficit is the mass killed at the cut, which bounds the
error of every entry of that row (the finite state projection theorem of
Munsky & Khammash, J. Chem. Phys. 124, 044104, 2006), and the kernel is
taken from the first lattice where those bounds are within 1e-13.  The
dropped edge leads to a cemetery state past the lattice, whose column
carries the deficits: the series of about 20 terms is one matrix
polynomial in that augmented matrix, evaluated in about 2 sqrt(20) dense
products (Paterson-Stockmeyer), and the s squarings square it too, so a
build on {0..k} is about 9 + s products of (k + 2)^2 matrices, O(k^3)
each.  Entries below 1e-150 are moved into their row's deficit before each
squaring and at the end, so no product runs on subnormals.

That lattice is stated before any is built, from the stationary law pi.
Row x on {0..k} misses P_x(the chain reaches k + 1 within t).  A chain
started from pi reaches k + 1 within t only if it starts past k or crosses
up from k within t, and up-crossings from k come at rate pi_k birth_k, so
P_pi(reach k + 1 within t) <= pi(>k) + t pi_k birth_k.  A path from
x <= kmax to k + 1 passes every state m in [kmax, k] first, so by the
strong Markov property P_x(reach) <= P_m(reach) <= P_pi(reach) / pi_m, and
the row bound is that over max_{kmax <= m <= k} pi_m (``exit_bound``,
handed pi and its tail bounds).

Both chains are linear: immigration at a constant rate plus individuals that
each give birth and die at constant rates, independently (Kendall, Ann. Math.
Statist. 19, 1948).  So ``gillespie`` draws a path as immigration plus
independent families, one generation at a time, exact in law; it keeps its
event-by-event name only because the benchmark's tracer looks it up.  A
spec's ``sample_path(t0, n, rng)`` reads such paths, one per segment of at
most ``_SEGMENT`` unit times, at integer times, so ``simulate_chain`` serves
these chains as it serves the discrete ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import Trajectory, _check_nonneg, _check_positive, _Markov, _NBFamily, _whole
from .idlaw import Poisson


def _finite_time(gap):
    """A gap t as a float, checked to be finite and >= 0: exp(tQ) at t = inf
    is no kernel that a lattice can certify."""
    if not 0.0 <= gap < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {gap}")
    return float(gap)


# the longest horizon of one ``gillespie`` path in ``sample_path``: at the
# ~8 events per unit time of NBBD(2, 0.5, 1) one such draw peaks at ~2 MB
_SEGMENT = 4096


class _BirthDeath(_Markov):
    """The gap rule of ``discrete._Markov`` for exp(tQ): any finite gap
    t >= 0, never closed form."""

    def kernel_block(self, gap, k):
        return _uniformized_block(self, _finite_time(gap), k)

    def closed_form(self, gap):
        return False

    def sample_path(self, t0, n, rng):
        """The chain at times t0..t0+n-1 from the stationary draw:
        ``gillespie`` paths over horizons of at most ``_SEGMENT``, each from
        the state where the last one ended (exact by the Markov property),
        read at integer times.  So memory is O(n) plus the events of one
        segment, not O(events).  At integer times it is the branching chain
        with rho = exp(-lambda)."""
        values, x = [], self.stationary_draw(rng)
        for start in range(0, n, _SEGMENT):
            path = gillespie(self, x, min(_SEGMENT, n - start), rng)
            values.append(path.at(np.arange(path.horizon)))
            x = path.states[-1]
        return Trajectory(t0, np.concatenate(values))

    def exit_bound(self, gap, kmax, pi, tail):
        """The bound of the module docstring on the lattices kmax..top."""
        gap = _finite_time(gap)
        births = self.rates(np.arange(kmax, len(pi), dtype=float))[0]
        pi = pi[kmax:]
        return tail + gap * pi * births, np.maximum.accumulate(pi)


@dataclass(frozen=True)
class PoissonBD(_BirthDeath):
    """Birth-death chain with Poisson(theta) stationary law and time scale lambda."""

    law = Poisson()  # a class attribute, not a field
    theta: float
    lam: float

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_nonneg("lambda", self.lam)

    def rates(self, j):
        """(birth rate, death rate) out of the state(s) j; 0 j broadcasts the
        constant immigration rate over an array of states."""
        return self.lam * self.theta + 0.0 * j, self.lam * j


@dataclass(frozen=True)
class NBBD(_BirthDeath, _NBFamily):
    """Birth-death chain with NB(alpha, p) stationary law and time scale lambda."""

    alpha: float
    p: float
    lam: float

    def __post_init__(self):
        super().__post_init__()
        _check_nonneg("lambda", self.lam)

    def rates(self, j):
        """(birth rate, death rate) out of the state(s) j."""
        return self.lam * (self.alpha + j) * (1.0 - self.p) / self.p, self.lam * j / self.p


def bd_rates(model, j):
    """(birth rate, death rate) out of state j."""
    if j < 0 or int(j) != j:
        raise ValueError(f"state must be a nonnegative integer, got {j}")
    return model.rates(j)


@dataclass(frozen=True)
class EventPath:
    """Piecewise-constant path stored as change points (times[i], states[i]).

    ``states[i]`` holds on [times[i], times[i+1]); the path is defined up to
    ``horizon``.  The times must strictly increase and stay below the
    horizon, and the states be whole numbers >= 0, or ``at`` would misread
    the path; a query time must lie in [times[0], horizon].
    Grid sampling is index arithmetic on the stored arrays, no copy of the
    path is made.
    """

    times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = _whole("states", self.states)
        if t.shape != s.shape or t.ndim != 1 or t.size < 1:
            raise ValueError("times and states must be matching nonempty 1-d arrays")
        if not (np.all(t[1:] > t[:-1]) and t[-1] < self.horizon):
            raise ValueError(f"times must strictly increase and stay below the horizon {self.horizon}")
        if np.any(s < 0):
            raise ValueError("states must be >= 0")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def at(self, when):
        """State of the path at the given time(s)."""
        when = np.asarray(when, dtype=float)
        if not (np.all(when >= self.times[0]) and np.all(when <= self.horizon)):  # NaN is outside
            raise ValueError("query time outside the simulated window")
        idx = np.searchsorted(self.times, when, side="right") - 1
        out = self.states[idx]
        return int(out) if out.ndim == 0 else out


def gillespie(model, x0, horizon, rng):
    """Exact path of the chain on [0, horizon] from state x0.

    The chain is immigration at rate a plus linear birth-death: each
    individual gives birth at rate b and dies at rate d, independently of
    the others (a = rates(0)[0], b = rates(1)[0] - a, d = rates(1)[1]).  So
    a path is drawn one generation at a time, not one event at a time.
    Each individual lives Exp(d) and has Poisson(b w) children at uniform
    times within w, its time alive before the horizon.  The x0 individuals
    alive at time 0 cost nothing each: Binomial(x0, 1 - e^(-d horizon)) of
    them die before the horizon, at Exp(d) times conditioned below it, and
    the survivors share one Poisson(b horizon survivors) count of children
    at uniform times.  Those children and Poisson(a horizon) immigrants at
    uniform times are the first generation born.  The mean number of
    children is at most b/d = 1 - p < 1, so the generations end.  The path
    is the sorted birth (+1) and death (-1) times and their running sum
    from x0.

    Events that land on one float time (a few paths in 10^6 at 10^5 events
    each) keep births first and move up to the next representable times, so
    the times strictly increase, every step is +-1 and no state is negative;
    an event moved to the horizon is dropped.  The name is kept for the
    benchmark's tracer.
    """
    _check_positive("horizon", horizon)
    if x0 < 0 or int(x0) != x0:
        raise ValueError(f"initial state must be a nonnegative integer, got {x0}")
    horizon, x0 = float(horizon), int(x0)
    immigration = model.rates(0)[0]
    birth, death = model.rates(1)
    birth -= immigration
    dies = -math.expm1(-death * horizon)
    with np.errstate(divide="ignore"):  # a frozen chain (lambda = 0) never dies
        # capped, as rounding may carry a conditioned death past the horizon
        end = np.minimum(-np.log1p(-dies * rng.random(rng.binomial(x0, dies))) / death, horizon)
        kids = rng.poisson(birth * end)
        alive = np.concatenate((  # birth times of one generation
            horizon * rng.random(rng.poisson(immigration * horizon)),
            np.repeat(end, kids) * rng.random(kids.sum()),
            horizon * rng.random(rng.poisson(birth * horizon * (x0 - end.size))),
        ))
        births, deaths = [alive], [end]
        while alive.size:
            end = alive + rng.standard_exponential(alive.size) / death
            deaths.append(end[end < horizon])
            window = np.minimum(end, horizon) - alive
            kids = rng.poisson(birth * window)
            alive = np.repeat(alive, kids) + rng.random(kids.sum()) * np.repeat(window, kids)
            alive = alive[alive < horizon]
            births.append(alive)
    births, deaths = np.concatenate(births), np.concatenate(deaths)
    births.sort()
    deaths.sort()
    times = np.concatenate(([0.0], births, deaths))
    times[1:].sort()
    # the running sum from x0 of the steps: birth i follows i births and the
    # deaths strictly before it, so births come first at a tie
    states = np.full(times.size, -1)
    states[0] = x0
    states[np.searchsorted(deaths, births) + np.arange(1, births.size + 1)] = 1
    np.cumsum(states, out=states)
    tied = np.flatnonzero(times[1:] <= times[:-1])
    while tied.size:
        times[tied + 1] = np.nextafter(times[tied], np.inf)
        tied = np.flatnonzero(times[1:] <= times[:-1])
    kept = np.searchsorted(times, horizon)
    return EventPath(times[:kept], states[:kept], horizon)


def stationary_bd(model, kmax):
    """Stationary pmf on {0..kmax}.

    Detailed balance gives pi_i proportional to prod_{j<i} birth_j / death_{j+1},
    summed as logs and exponentiated after subtracting their maximum, so large
    theta or alpha cannot overflow.  The normalizing constant sums the whole
    series until its terms fall below 1e-18 of the largest, so the returned
    entries are the true stationary probabilities and 1 - sum(pi) is the
    (reported, never folded back) tail mass; if that takes more than
    kmax + 10**6 terms it raises ``ValueError`` rather than normalize a
    truncated series.  The log weights come from the broadcasting
    ``model.rates`` over doubling ranges of states.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    cap = kmax + 10**6
    size = kmax + 32
    while True:
        size = min(2 * size, cap)
        births, deaths = model.rates(np.arange(size + 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            logw = np.concatenate(([0.0], np.cumsum(np.log(births[:-1] / deaths[1:]))))
        if np.isnan(logw).any():
            raise ValueError(f"detailed balance does not fix the weights of {model!r}")
        # the first state past kmax whose weight is below 1e-18 of the largest so far
        tail = logw <= np.maximum.accumulate(logw) + math.log(1e-18)
        tail[: kmax + 1] = False
        if tail.any():
            break
        if size == cap:
            raise ValueError(
                f"stationary weights of {model!r} are still above 1e-18 of the largest "
                f"at the cap of kmax + 10**6 = {kmax + 10**6} terms"
            )
    logw = logw[: np.argmax(tail) + 1]
    weights = np.exp(logw - logw.max())
    return weights[: kmax + 1] / weights.sum()


def _uniformized_block(model, t, kint):
    """exp(tQ) on {0..kint} and its row deficits; the top birth edge is
    dropped (kept in the diagonal exit rate) so lost mass shows up as row
    deficit, and the deficit of a row bounds the error of each of its
    entries.

    With M = I + Q/lam >= 0, exp(uQ) = sum_j Pois(j; lam u) M^j, and at
    u = t/2^s <= 1/lam the weights fall below 1e-20 within about 20 terms.
    The dropped edge leads to a cemetery state kint + 1: A = [[M, l], [0, 1]],
    with l the top birth edge, is stochastic, and the last column of A^j is
    the deficit 1 - M^j 1.  So the series is one matrix polynomial in A,
    evaluated by Paterson and Stockmeyer (SIAM J. Comput. 2, 60, 1973): the
    powers A^0..A^(q-1), q = isqrt(J) + 1 for J + 1 terms, weight each chunk
    of q terms in one product, and Horner's rule in A^q joins the chunks, so
    the series costs about 2 sqrt(J) dense products where term by term it
    cost J banded ones.  The s squarings square A itself, so the deficits
    d + E d ride along in its last column: about 2 sqrt(J) + s products of
    (kint + 2)^2 matrices in all.  Every factor and weight is nonnegative,
    so nothing cancels and the finite state projection bound holds.  Before
    each squaring, and at the end, E's rows are rescaled to sum to 1 - d,
    since the row sums of a 2^s-fold product carry 2^s-fold rounding, which
    could pass for negative leakage, and then the entries below 1e-150 move
    into their row's deficit: the block stays below the untruncated kernel
    and E 1 + d = 1 still holds, so the deficit is still a bound, no
    squaring runs on subnormals, and none is returned (at a tiny t the
    entries t rate are subnormal).  Once E holds no mass (rates so large
    that every row leaves the lattice at once), a squaring keeps E = 0 and
    d, so the squarings stop there.
    """
    births, deaths = model.rates(np.arange(kint + 1.0))
    lam = float(np.max(births + deaths))
    n = kint + 1
    if lam == 0.0 or t == 0.0:
        return np.eye(n), np.zeros(n)
    # M with the cemetery: births / lam above the diagonal, the last the edge to it
    a = np.diag(np.append(1.0 - (births + deaths) / lam, 1.0)) + np.diag(births / lam, 1)
    a += np.diag(np.append(deaths[1:], 0.0) / lam, -1)
    squarings = max(0, math.ceil(math.log2(lam * t)))
    mu = lam * t / 2.0**squarings
    weights = [math.exp(-mu)]
    while weights[-1] > 1e-20:
        weights.append(weights[-1] * mu / len(weights))
    q = math.isqrt(len(weights) - 1) + 1
    powers = [np.eye(n + 1), a]
    while len(powers) <= q:
        powers.append(powers[-1] @ a)
    weights += [0.0] * (-len(weights) % q)
    # chunk i is sum_m w_(iq+m) A^m; Horner in A^q from the last chunk down
    chunks = (np.reshape(weights, (-1, q)) @ np.reshape(powers[:q], (q, -1))).reshape(-1, n + 1, n + 1)
    out = chunks[-1]
    for chunk in chunks[-2::-1]:
        out = out @ powers[q] + chunk
    out[n, n] = 1.0  # the cemetery keeps its mass, so squarings keep d + E d
    for i in range(squarings + 1):
        block, deficit = out[:n, :n], out[:n, n]
        sums = block.sum(axis=1)
        block *= np.divide(np.maximum(1.0 - deficit, 0.0), sums, out=np.zeros(n), where=sums > 0.0)[:, None]
        tiny = block < 1e-150
        deficit += block.sum(axis=1, where=tiny)
        block[tiny] = 0.0
        if i == squarings or not block.any():
            break
        out = out @ out
    return np.ascontiguousarray(out[:n, :n]), out[:n, n].copy()


def transition_uniformized(model, t, kmax):
    """Transition matrix exp(tQ) restricted to {0..kmax}.

    Scaling and squaring of the uniformized chain (``_uniformized_block``) on
    the first lattice {0..k}, k >= kmax, whose row deficits on the kept rows
    are at most 1e-13.  Every step stays in nonnegative matrices, so a
    deficit is the mass killed at the lattice's cut, and by the finite state
    projection theorem it bounds the error of every entry of its row: each
    returned entry is proven within 1e-13 of the untruncated kernel, up to
    float rounding.  It is ``model.kernel(t, kmax)``: read-only, and
    certified once per model instance.
    """
    return model.kernel(t, kmax)
