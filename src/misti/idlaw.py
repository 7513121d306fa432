"""Infinitely divisible laws on the nonnegative integers.

A law here stands for a whole convolution semigroup {mu^theta : theta >= 0},
mu^{t1} * mu^{t2} = mu^{t1+t2}, described by its jump-mass sequence
nu_j >= 0 (j >= 1): the scale-theta member has probability generating
function exp{ sum_j (z^j - 1) theta nu_j }.  The scale theta is passed per
call so the semigroup structure stays explicit.

The Poisson and negative binomial pmfs follow first-order ratio recursions
(Panjer's (a, b, 0) class): P(k+1)/P(k) = theta/(k+1) for Poisson and
(theta+k) q/(k+1) for NB(theta, p), q = 1 - p.  ``id_pmf`` exponentiates the
running sums of the log ratios anchored at the exact log P(0) =
-levy_total(law, theta), i.e. -theta and theta log p.

Every member is compound Poisson: Poisson(levy_total(law, theta)) jumps,
each drawn by ``law.jumps(rng, size)`` from the normalised jump masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Poisson",
    "NegBinomial",
    "GenericLevy",
    "IDLaw",
    "levy_masses",
    "levy_total",
    "pmf_from_levy",
    "id_pmf",
    "id_pgf",
    "id_sample",
]


@dataclass(frozen=True)
class Poisson:
    """Poisson family: scale theta is the mean; all jump mass sits at size 1."""

    def jumps(self, rng, size):
        """``size`` jump sizes from the normalised jump masses: all ones."""
        return np.ones(size, dtype=np.int64)


@dataclass(frozen=True)
class NegBinomial:
    """Negative binomial family: the scale-theta member is NB(theta, p).

    pmf(k) = Gamma(theta+k)/(Gamma(theta) k!) p^theta (1-p)^k, mean
    theta (1-p)/p.
    """

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"success probability must lie in (0,1), got {self.p}")

    def jumps(self, rng, size):
        """``size`` jump sizes from the normalised jump masses q^j / (j log(1/p)):
        the logarithmic law with parameter q = 1 - p."""
        return rng.logseries(1.0 - self.p, size)


@dataclass(frozen=True)
class GenericLevy:
    """Family given by a finite jump-mass table {j: nu_j} with j >= 1.

    Any law with positive total mass must put mass on unit jumps, so every
    member with theta > 0 has full support on the nonnegative integers;
    tables violating that are rejected.  The empty table is allowed and is
    the degenerate point mass at zero.
    """

    nu: tuple = ()

    def __post_init__(self):
        items = sorted(dict(self.nu).items()) if self.nu else []
        clean = []
        for j, mass in items:
            if int(j) != j or j < 1:
                raise ValueError(f"jump sizes must be integers >= 1, got {j!r}")
            if not (mass >= 0.0 and math.isfinite(mass)):
                raise ValueError(f"jump mass at {j} must be finite and >= 0, got {mass!r}")
            if mass > 0.0:
                clean.append((int(j), float(mass)))
        if clean and clean[0][0] != 1:
            raise ValueError("a nonzero jump-mass table needs positive mass at jump size 1")
        object.__setattr__(self, "nu", tuple(clean))

    def jumps(self, rng, size):
        """``size`` jump sizes from the normalised jump masses."""
        if not self.nu:
            return np.zeros(size, dtype=np.int64)
        sizes, masses = np.array(self.nu).T
        return rng.choice(sizes.astype(np.int64), size=size, p=masses / masses.sum())


IDLaw = Poisson | NegBinomial | GenericLevy


def _check_theta(theta):
    if not (theta >= 0.0 and math.isfinite(theta)):
        raise ValueError(f"semigroup scale must be finite and >= 0, got {theta}")


def levy_masses(law, theta, jmax):
    """Jump masses (nu_1, ..., nu_jmax) of the scale-theta member."""
    _check_theta(theta)
    if jmax < 1:
        raise ValueError(f"jmax must be >= 1, got {jmax}")
    if isinstance(law, Poisson):
        out = np.zeros(jmax)
        out[0] = theta
        return out
    if isinstance(law, NegBinomial):
        j = np.arange(1, jmax + 1)
        return theta * (1.0 - law.p) ** j / j
    if isinstance(law, GenericLevy):
        out = np.zeros(jmax)
        for j, mass in law.nu:
            if j <= jmax:
                out[j - 1] = theta * mass
        return out
    raise TypeError(f"not an ID law: {law!r}")


def levy_total(law, theta):
    """Total jump mass of the scale-theta member (exact, no truncation)."""
    _check_theta(theta)
    if isinstance(law, Poisson):
        return float(theta)
    if isinstance(law, NegBinomial):
        return -theta * math.log(law.p)
    if isinstance(law, GenericLevy):
        return theta * sum(m for _, m in law.nu)
    raise TypeError(f"not an ID law: {law!r}")


def pmf_from_levy(masses, total, kmax):
    """Exact pmf on {0..kmax} of the law with the given jump masses.

    Uses the compound recursion P(0) = exp(-total) and
    k P(k) = sum_{j=1..k} j nu_j P(k-j), which is exact on the truncated
    support as long as ``masses`` covers jumps up to kmax; ``total`` must be
    the full jump mass including anything beyond kmax.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    p = np.zeros(kmax + 1)
    p[0] = math.exp(-total)
    masses = np.asarray(masses, dtype=float)
    weighted = np.arange(1, kmax + 1) * masses[:kmax] if kmax else np.zeros(0)
    for k in range(1, kmax + 1):
        p[k] = np.dot(weighted[:k], p[k - 1 :: -1]) / k
    return p


def _ratio_pmf(log_p0, log_ratios):
    """pmf on {0..len(log_ratios)} from log P(0) and log P(k+1)/P(k), k >= 0."""
    return np.exp(log_p0 + np.concatenate(([0.0], np.cumsum(log_ratios))))


def id_pmf(law, theta, kmax):
    """pmf of the scale-theta member on {0..kmax}."""
    _check_theta(theta)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if theta == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    k = np.arange(kmax)
    if isinstance(law, Poisson):
        return _ratio_pmf(-levy_total(law, theta), np.log(theta / (k + 1)))
    if isinstance(law, NegBinomial):
        return _ratio_pmf(-levy_total(law, theta), np.log((theta + k) * (1.0 - law.p) / (k + 1)))
    if isinstance(law, GenericLevy):
        nu = levy_masses(law, theta, max(kmax, 1))
        return pmf_from_levy(nu, levy_total(law, theta), kmax)
    raise TypeError(f"not an ID law: {law!r}")


def id_pgf(law, theta, z):
    """Probability generating function of the scale-theta member at z in [0,1]."""
    _check_theta(theta)
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("pgf argument must lie in [0,1]")
    if isinstance(law, Poisson):
        val = np.exp(theta * (z - 1.0))
    elif isinstance(law, NegBinomial):
        q = 1.0 - law.p
        val = np.exp(theta * (math.log(law.p) - np.log1p(-q * z)))
    elif isinstance(law, GenericLevy):
        expo = np.zeros_like(z)
        for j, mass in law.nu:
            expo = expo + theta * mass * (z**j - 1.0)
        val = np.exp(expo)
    else:
        raise TypeError(f"not an ID law: {law!r}")
    return float(val) if val.ndim == 0 else val


def id_sample(law, theta, rng, size=None):
    """Draw from the scale-theta member using a caller-owned numpy Generator."""
    _check_theta(theta)
    if theta == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    if isinstance(law, Poisson):
        return rng.poisson(theta, size)
    if isinstance(law, NegBinomial):
        return rng.negative_binomial(theta, law.p, size)
    if isinstance(law, GenericLevy):
        counts = rng.poisson(levy_total(law, theta), size)
        draws = law.jumps(rng, int(np.sum(counts)))
        if size is None:
            return int(draws.sum())
        owner = np.repeat(np.arange(np.size(counts)), np.ravel(counts))
        sums = np.bincount(owner, weights=draws, minlength=np.size(counts))
        return sums.astype(np.int64).reshape(np.shape(counts))
    raise TypeError(f"not an ID law: {law!r}")
