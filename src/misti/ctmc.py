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
dropped, so row deficits are the honest leakage out of the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tables import stabilize

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
        return transition_uniformized(self, float(gap), kmax)


@dataclass(frozen=True)
class PoissonBD(_BirthDeath):
    """Birth-death chain with Poisson(theta) stationary law and time scale lambda."""

    theta: float
    lam: float

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class NBBD(_BirthDeath):
    """Birth-death chain with NB(alpha, p) stationary law and time scale lambda."""

    alpha: float
    p: float
    lam: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


BDModel = PoissonBD | NBBD


def bd_rates(model, j):
    """(birth rate, death rate) out of state j."""
    if j < 0 or int(j) != j:
        raise ValueError(f"state must be a nonnegative integer, got {j}")
    if isinstance(model, PoissonBD):
        return model.lam * model.theta, model.lam * j
    if isinstance(model, NBBD):
        return (
            model.lam * (model.alpha + j) * (1.0 - model.p) / model.p,
            model.lam * j / model.p,
        )
    raise TypeError(f"not a birth-death model: {model!r}")


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

    def occupancy(self, kmax):
        """Fraction of time spent in each state of {0..kmax}."""
        durations = np.append(self.times[1:], self.horizon) - self.times
        keep = self.states <= kmax
        out = np.bincount(self.states[keep], durations[keep], minlength=kmax + 1)
        return out / (self.horizon - self.times[0])


def gillespie(model, x0, horizon, rng):
    """Event-driven simulation of the chain on [0, horizon] from state x0."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if x0 < 0 or int(x0) != x0:
        raise ValueError(f"initial state must be a nonnegative integer, got {x0}")
    t, x = 0.0, int(x0)
    times, states = [0.0], [x]
    while True:
        birth, death = bd_rates(model, x)
        rate = birth + death
        if rate == 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        x = x + 1 if rng.random() < birth / rate else x - 1
        times.append(t)
        states.append(x)
    return EventPath(np.array(times), np.array(states), float(horizon))


def stationary_bd(model, kmax):
    """Stationary pmf on {0..kmax}.

    Detailed balance gives pi_i proportional to prod_{j<i} birth_j / death_{j+1},
    summed as logs and exponentiated after subtracting their maximum, so large
    theta or alpha cannot overflow.  The normalizing constant sums the whole
    series until its terms fall below 1e-18 of the largest, so the returned
    entries are the true stationary probabilities and 1 - sum(pi) is the
    (reported, never folded back) tail mass.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    logw, top = [0.0], 0.0
    for i in range(kmax + 10**6 + 1):
        if i > kmax and logw[-1] <= top + math.log(1e-18):
            break
        logw.append(logw[-1] + math.log(bd_rates(model, i)[0] / bd_rates(model, i + 1)[1]))
        top = max(top, logw[-1])
    weights = np.exp(np.array(logw) - top)
    return weights[: kmax + 1] / weights.sum()


class GeneratorResidual(NamedTuple):
    interior: float
    boundary: float


def _rates(model, kmax):
    """Arrays of the birth and the death rates out of the states 0..kmax."""
    return np.array([bd_rates(model, j) for j in range(kmax + 1)]).T


def generator_residual(model, pmf, kmax):
    """Max |sum_i pi_i Q_ij| of the truncated balance equations.

    Columns 0..kmax-1 are complete on the truncated space ("interior"); the
    last column is missing the inflow from state kmax+1 and is reported
    separately instead of being mixed into the headline residual.
    """
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape != (kmax + 1,):
        raise ValueError(f"pmf must have shape ({kmax + 1},), got {pmf.shape}")
    births, deaths = _rates(model, kmax)
    resid = -pmf * (births + deaths)
    resid[1:] += pmf[:-1] * births[:-1]
    resid[:-1] += pmf[1:] * deaths[1:]
    interior = float(np.max(np.abs(resid[:kmax]))) if kmax > 0 else 0.0
    return GeneratorResidual(interior, float(abs(resid[kmax])))


def _uniformized_block(model, t, kint):
    """exp(tQ) on {0..kint}; the top birth edge is dropped (kept in the
    diagonal exit rate) so lost mass shows up as row deficit.

    With M = I + Q/lam >= 0, exp(uQ) = sum_j Pois(j; lam u) M^j, and at
    u = t/2^s <= 1/lam the weights fall below 1e-20 within about 20 terms.
    The deficits 1 - M^j 1 = leak + M (1 - M^(j-1) 1) and, per squaring,
    d + E d add nonnegative terms only; rows are rescaled to sum to 1 - d,
    since the row sums of a 2^s-fold product carry 2^s-fold rounding, which
    could pass for negative leakage.
    """
    births, deaths = _rates(model, kint)
    lam = float(np.max(births + deaths))
    n = kint + 1
    if lam == 0.0 or t == 0.0:
        return np.eye(n)
    m = np.eye(n) - np.diag(births + deaths) / lam
    m += np.diag(births[:-1] / lam, k=1) + np.diag(deaths[1:] / lam, k=-1)
    leak = np.eye(n)[-1] * births[-1] / lam  # 1 - M 1: the dropped birth edge
    squarings = max(0, math.ceil(math.log2(lam * t)))
    mu = lam * t / 2.0**squarings
    weight = math.exp(-mu)
    term, term_deficit = np.eye(n), np.zeros(n)
    out, deficit = weight * term, np.zeros(n)
    j = 0
    while weight > 1e-20:
        j += 1
        weight *= mu / j
        term, term_deficit = term @ m, leak + m @ term_deficit
        out += weight * term
        deficit += weight * term_deficit
    for i in range(squarings + 1):
        sums = out.sum(axis=1)
        out *= np.divide(np.maximum(1.0 - deficit, 0.0), sums, out=np.zeros(n), where=sums > 0.0)[:, None]
        if i < squarings:
            out, deficit = out @ out, deficit + out @ deficit
    return out


def transition_uniformized(model, t, kmax, block_tol=1e-12):
    """Transition matrix exp(tQ) restricted to {0..kmax}.

    Scaling and squaring of the uniformized chain (``_uniformized_block``) on
    a larger lattice, grown by ``tables.stabilize`` until the returned block
    stops moving, so boundary truncation does not contaminate it.  Every step
    stays in nonnegative matrices, so the row deficits 1 - row.sum() are the
    honest leakage to states > kmax.
    """
    if not t >= 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if t == 0.0:
        return np.eye(kmax + 1)
    return stabilize(
        lambda k: _uniformized_block(model, t, k)[: kmax + 1, : kmax + 1], kmax, block_tol
    )
