"""Continuous-time linear birth-death chains with Poisson / NB stationary laws.

The Poisson model is a linear death process with immigration (birth rate
lambda*theta, death rate lambda*j); the negative binomial model adds linear
births (birth rate lambda*(alpha+j)(1-p)/p, death rate lambda*j/p).  Both
are time-reversible with autocorrelation exp(-lambda |s-t|), and sampled at
integer times they reduce to the discrete branching chains with
rho = exp(-lambda).

Kernels exp(tQ) come from the generator, not that identity, which stays an
independent check: uniformization over t/2^s <= 1/(largest exit rate), then
s squarings, all in nonnegative matrices on a lattice whose top birth edge is
dropped.  So a row deficit is the mass killed at the cut, which bounds the
error of every entry of that row (the finite state projection theorem of
Munsky & Khammash, J. Chem. Phys. 124, 044104, 2006), and the kernel is
taken from the first lattice where those bounds are within 1e-13.  The
series terms are products with the tridiagonal uniformized matrix, O(k^2)
each on {0..k}; only the s squarings are dense, O(k^3) each.

Both chains are linear: immigration at a constant rate plus individuals that
each give birth and die at constant rates, independently (Kendall, Ann. Math.
Statist. 19, 1948).  So ``gillespie`` draws a path as immigration plus
independent families, one generation at a time, exact in law; it keeps its
event-by-event name only because the benchmark's tracer looks it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import _check_nonneg, _check_positive, _check_prob, certified_kernel

__all__ = [
    "PoissonBD",
    "NBBD",
    "BDModel",
    "EventPath",
    "GeneratorResidual",
    "bd_rates",
    "gillespie",
    "stationary_bd",
    "generator_residual",
    "transition_uniformized",
]

class _BirthDeath:
    """Kernel protocol of the Markov specs (see ``discrete``); any gap t >= 0."""

    def marginal(self, kmax):
        return stationary_bd(self, kmax)

    def kernel(self, gap, kmax):
        return transition_uniformized(self, gap, kmax)

    def kernel_block(self, gap, k):
        if not gap >= 0.0:
            raise ValueError(f"time must be >= 0, got {gap}")
        return _uniformized_block(self, float(gap), k)


@dataclass(frozen=True)
class PoissonBD(_BirthDeath):
    """Birth-death chain with Poisson(theta) stationary law and time scale lambda."""

    theta: float
    lam: float

    def __post_init__(self):
        _check_positive("theta", self.theta)
        _check_nonneg("lambda", self.lam)

    def rates(self, j):
        """(birth rate, death rate) out of the state(s) j; 0 j broadcasts the
        constant immigration rate over an array of states."""
        return self.lam * self.theta + 0.0 * j, self.lam * j

    def stationary_draw(self, rng):
        """One draw from the stationary Poisson(theta) law."""
        return int(rng.poisson(self.theta))


@dataclass(frozen=True)
class NBBD(_BirthDeath):
    """Birth-death chain with NB(alpha, p) stationary law and time scale lambda."""

    alpha: float
    p: float
    lam: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_prob("p", self.p)
        _check_nonneg("lambda", self.lam)

    def rates(self, j):
        """(birth rate, death rate) out of the state(s) j."""
        return self.lam * (self.alpha + j) * (1.0 - self.p) / self.p, self.lam * j / self.p

    def stationary_draw(self, rng):
        """One draw from the stationary NB(alpha, p) law."""
        return int(rng.negative_binomial(self.alpha, self.p))


BDModel = PoissonBD | NBBD


def bd_rates(model, j):
    """(birth rate, death rate) out of state j."""
    if j < 0 or int(j) != j:
        raise ValueError(f"state must be a nonnegative integer, got {j}")
    return model.rates(j)


@dataclass(frozen=True)
class EventPath:
    """Piecewise-constant path stored as change points (times[i], states[i]).

    ``states[i]`` holds on [times[i], times[i+1]); the path is defined up to
    ``horizon``.  Grid sampling is index arithmetic on the stored arrays, no
    copy of the path is made.
    """

    times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=np.int64)
        if t.shape != s.shape or t.ndim != 1 or t.size < 1:
            raise ValueError("times and states must be matching nonempty 1-d arrays")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def at(self, when):
        """State of the path at the given time(s)."""
        when = np.asarray(when, dtype=float)
        if np.any(when < self.times[0]) or np.any(when > self.horizon):
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
    Generation 0 is the x0 individuals alive at time 0 and Poisson(a
    horizon) immigrants at uniform times; each individual lives Exp(d) and
    has Poisson(b w) children at uniform times within w, its time alive
    before the horizon.  The mean number of children is at most b/d = 1 - p
    < 1, so the generations end.  The path is the sorted birth (+1) and
    death (-1) times and their running sum from x0.

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
    born = horizon * rng.random(rng.poisson(immigration * horizon))
    births, deaths = [born], []
    alive = np.concatenate((np.zeros(x0), born))  # birth times of one generation
    with np.errstate(divide="ignore"):  # a frozen chain (lambda = 0) never dies
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


class GeneratorResidual(NamedTuple):
    interior: float
    boundary: float


def generator_residual(model, pmf, kmax):
    """Max |sum_i pi_i Q_ij| of the truncated balance equations.

    Columns 0..kmax-1 are complete on the truncated space ("interior"); the
    last column is missing the inflow from state kmax+1 and is reported
    separately instead of being mixed into the headline residual.
    """
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape != (kmax + 1,):
        raise ValueError(f"pmf must have shape ({kmax + 1},), got {pmf.shape}")
    births, deaths = model.rates(np.arange(kmax + 1.0))
    resid = -pmf * (births + deaths)
    resid[1:] += pmf[:-1] * births[:-1]
    resid[:-1] += pmf[1:] * deaths[1:]
    interior = float(np.max(np.abs(resid[:kmax]))) if kmax > 0 else 0.0
    return GeneratorResidual(interior, float(abs(resid[kmax])))


def _uniformized_block(model, t, kint):
    """exp(tQ) on {0..kint} and its row deficits; the top birth edge is
    dropped (kept in the diagonal exit rate) so lost mass shows up as row
    deficit, and the deficit of a row bounds the error of each of its
    entries.

    With M = I + Q/lam >= 0, exp(uQ) = sum_j Pois(j; lam u) M^j, and at
    u = t/2^s <= 1/lam the weights fall below 1e-20 within about 20 terms.
    The deficits 1 - M^j 1 = leak + M (1 - M^(j-1) 1) ride along as a last
    column, and M is tridiagonal, so each term is one banded product: three
    shifted row updates, O(kint^2).  Per squaring the deficits are d + E d.
    Both add nonnegative terms only; rows are rescaled to sum to 1 - d, since
    the row sums of a 2^s-fold product carry 2^s-fold rounding, which could
    pass for negative leakage.
    """
    births, deaths = model.rates(np.arange(kint + 1.0))
    lam = float(np.max(births + deaths))
    n = kint + 1
    if lam == 0.0 or t == 0.0:
        return np.eye(n), np.zeros(n)
    # M's diagonal, its edges j -> j+1 (up) and j+1 -> j (down), as columns
    diag = (1.0 - (births + deaths) / lam)[:, None]
    up, down = (births[:-1] / lam)[:, None], (deaths[1:] / lam)[:, None]
    leak = births[-1] / lam  # 1 - M 1 in the last row: the dropped birth edge
    squarings = max(0, math.ceil(math.log2(lam * t)))
    mu = lam * t / 2.0**squarings
    weight = math.exp(-mu)
    term = np.eye(n, n + 1)  # [M^j | 1 - M^j 1]
    out = weight * term
    j = 0
    while weight > 1e-20:
        j += 1
        weight *= mu / j
        term, previous = diag * term, term  # M @ term in three shifted row updates
        term[:-1] += up * previous[1:]
        term[1:] += down * previous[:-1]
        term[-1, -1] += leak
        out += weight * term
    out, deficit = np.ascontiguousarray(out[:, :-1]), out[:, -1].copy()
    for i in range(squarings + 1):
        sums = out.sum(axis=1)
        out *= np.divide(np.maximum(1.0 - deficit, 0.0), sums, out=np.zeros(n), where=sums > 0.0)[:, None]
        if i < squarings:
            out, deficit = out @ out, deficit + out @ deficit
    return out, deficit


def transition_uniformized(model, t, kmax):
    """Transition matrix exp(tQ) restricted to {0..kmax}.

    Scaling and squaring of the uniformized chain (``_uniformized_block``) on
    the first lattice {0..k}, k >= kmax, whose row deficits on the kept rows
    are at most 1e-13.  Every step stays in nonnegative matrices, so a
    deficit is the mass killed at the lattice's cut, and by the finite state
    projection theorem it bounds the error of every entry of its row: each
    returned entry is proven within 1e-13 of the untruncated kernel, up to
    float rounding.
    """
    return certified_kernel(model, t, kmax)
