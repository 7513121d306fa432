"""Infinitely divisible laws on the nonnegative integers.

A law here stands for a whole convolution semigroup {mu^theta : theta >= 0},
mu^{t1} * mu^{t2} = mu^{t1+t2}, described by its jump-mass sequence
nu_j >= 0 (j >= 1): the scale-theta member has probability generating
function exp{ sum_j (z^j - 1) theta nu_j }.  The scale theta is passed per
call so the semigroup structure stays explicit.

The Poisson and negative binomial pmfs follow first-order ratio recursions
(Panjer's (a, b, 0) class): P(k+1)/P(k) = theta/(k+1) for Poisson and
(theta+k) q/(k+1) for NB(theta, p), q = 1 - p.  Their ``log_pmf`` is the
running sums of the log ratios anchored at the exact log P(0) =
-levy_total(law, theta), i.e. -theta and theta log p, and ``pmf`` its exp.

Every member is compound Poisson: Poisson(levy_total(law, theta)) jumps,
each drawn by ``law.jumps(rng, size)`` from the normalised jump masses.

Each law class owns its formulas for arguments already checked: ``levy``,
``total``, ``pmf``, ``log_pmf``, ``pgf`` and ``sample`` of the scale-theta
member, and
``keeper(theta, rho, size, rng)``, its own draw of the split mu^theta =
mu^{rho theta} * mu^{(1-rho) theta} for the thinning chains: it makes the
draws of ``size`` steps that do not depend on the state, one call for all,
and returns keep(x, i), the shared component of step i from a state x.  A
thinning chain draws that component by inverting one uniform on the CDF row
of the split (``_split_cdf``) for every law, and calls the keeper only for
the states whose rows it does not keep.  The module functions check their
arguments, take the theta = 0 shortcuts and call the method.  The
conditional pmfs of the split given the state, which the thinning kernels,
``thinning_conditional`` and ``_split_cdf`` read, come from one routine over
the ``log_pmf`` of the two scales, so they stay representable where
mu^theta(x) underflows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Poisson:
    """Poisson family: scale theta is the mean; all jump mass sits at size 1."""

    def levy(self, theta, jmax):
        out = np.zeros(jmax)
        out[0] = theta
        return out

    def total(self, theta):
        return float(theta)

    def log_pmf(self, theta, kmax):
        k = np.arange(kmax)
        return _ratio_log_pmf(-self.total(theta), np.log(theta / (k + 1)))

    def pmf(self, theta, kmax):
        return np.exp(self.log_pmf(theta, kmax))

    def pgf(self, theta, z):
        return np.exp(theta * (z - 1.0))

    def sample(self, theta, rng, size):
        return rng.poisson(theta, size)

    def keeper(self, theta, rho, size, rng):
        """The shared part given x is Binomial(x, rho), with no state-free draws."""
        binomial = rng.binomial
        return lambda x, i: binomial(x, rho)

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

    def levy(self, theta, jmax):
        j = np.arange(1, jmax + 1)
        return theta * (1.0 - self.p) ** j / j

    def total(self, theta):
        return -theta * math.log(self.p)

    def log_pmf(self, theta, kmax):
        k = np.arange(kmax)
        return _ratio_log_pmf(-self.total(theta), np.log((theta + k) * (1.0 - self.p) / (k + 1)))

    def pmf(self, theta, kmax):
        return np.exp(self.log_pmf(theta, kmax))

    def pgf(self, theta, z):
        q = 1.0 - self.p
        return np.exp(theta * (math.log(self.p) - np.log1p(-q * z)))

    def sample(self, theta, rng, size):
        return rng.negative_binomial(theta, self.p, size)

    def keeper(self, theta, rho, size, rng):
        """The shared part given x is beta-binomial, sampled exactly as
        Binomial(x, B) with B ~ Beta(rho theta, (1 - rho) theta), one B per step."""
        binomial = rng.binomial
        probs = rng.beta(theta * rho, theta * (1.0 - rho), size).tolist()
        return lambda x, i: binomial(x, probs[i])

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

    def levy(self, theta, jmax):
        out = np.zeros(jmax)
        for j, mass in self.nu:
            if j <= jmax:
                out[j - 1] = theta * mass
        return out

    def total(self, theta):
        return theta * sum(m for _, m in self.nu)

    def pmf(self, theta, kmax):
        return pmf_from_levy(self.levy(theta, max(kmax, 1)), self.total(theta), kmax)

    def log_pmf(self, theta, kmax):
        with np.errstate(divide="ignore"):
            return np.log(self.pmf(theta, kmax))

    def pgf(self, theta, z):
        expo = np.zeros_like(z)
        for j, mass in self.nu:
            expo = expo + theta * mass * (z**j - 1.0)
        return np.exp(expo)

    def sample(self, theta, rng, size):
        counts = rng.poisson(self.total(theta), size)
        draws = self.jumps(rng, int(np.sum(counts)))
        if size is None:
            return int(draws.sum())
        owner = np.repeat(np.arange(np.size(counts)), np.ravel(counts))
        sums = np.bincount(owner, weights=draws, minlength=np.size(counts))
        return sums.astype(np.int64).reshape(np.shape(counts))

    def keeper(self, theta, rho, size, rng):
        """The shared part given x by inversion of one uniform per step on
        the ``_split_cdf`` row of x, built at each call and not kept: the law
        has no scalar draw of its split, and a chain keeps the rows it can
        hold itself."""
        uniforms = rng.random(size).tolist()
        cdf = _split_cdf(self, theta, rho)
        return lambda x, i: bisect.bisect_right(cdf(x), uniforms[i])

    def jumps(self, rng, size):
        """``size`` jump sizes from the normalised jump masses."""
        if not self.nu:
            return np.zeros(size, dtype=np.int64)
        sizes, masses = np.array(self.nu).T
        return rng.choice(sizes.astype(np.int64), size=size, p=masses / masses.sum())


IDLaw = Poisson | NegBinomial | GenericLevy


def _check_nonneg(name, value):
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def _check_rho(rho):
    if not 0.0 < rho < 1.0:
        raise ValueError(
            f"rho must lie strictly in (0,1), got {rho}; "
            "rho=0 is the iid case and rho=1 the constant case"
        )


def levy_masses(law, theta, jmax):
    """Jump masses (nu_1, ..., nu_jmax) of the scale-theta member."""
    _check_nonneg("theta", theta)
    if jmax < 1:
        raise ValueError(f"jmax must be >= 1, got {jmax}")
    return law.levy(theta, jmax)


def levy_total(law, theta):
    """Total jump mass of the scale-theta member (exact, no truncation)."""
    _check_nonneg("theta", theta)
    return law.total(theta)


def pmf_from_levy(masses, total, kmax):
    """Exact pmf on {0..kmax} of the law with the given jump masses.

    Uses the compound recursion P(0) = exp(-total) and
    k P(k) = sum_{j=1..k} j nu_j P(k-j), which is exact on the truncated
    support as long as ``masses`` covers jumps up to kmax; ``total`` must be
    the full jump mass including anything beyond kmax.  The sum runs over
    the J nonzero masses only, O(kmax J) in all.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    masses = np.asarray(masses, dtype=float)[:kmax].tolist()
    weighted = [(j, j * mass) for j, mass in enumerate(masses, start=1) if mass != 0.0]
    p = [math.exp(-total)]
    for k in range(1, kmax + 1):
        acc = 0.0
        for j, w in weighted:
            if j > k:
                break
            acc += w * p[k - j]
        p.append(acc / k)
    return np.array(p)


def _ratio_log_pmf(log_p0, log_ratios):
    """log pmf on {0..len(log_ratios)} from log P(0) and log P(k+1)/P(k), k >= 0."""
    return log_p0 + np.concatenate(([0.0], np.cumsum(log_ratios)))


def id_pmf(law, theta, kmax):
    """pmf of the scale-theta member on {0..kmax}."""
    _check_nonneg("theta", theta)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if theta == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    return law.pmf(theta, kmax)


def id_sample(law, theta, rng, size=None):
    """Draw from the scale-theta member using a caller-owned numpy Generator."""
    _check_nonneg("theta", theta)
    if theta == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return law.sample(theta, rng, size)


def _split(logs):
    """Rows of the thinning split from the logs of their numerators along
    the last axis: entry xi of row x is mu^{rho theta}(xi)
    mu^{(1-rho) theta}(x - xi) / mu^theta(x), and its log is -inf past x.
    The row of a state of probability 0 is NaN.

    The numerators are formed from log pmfs and scaled by their largest one
    before exponentiating, and the normaliser is their sum, which equals
    mu^theta(x) by the convolution identity mu^theta = mu^{rho theta} *
    mu^{(1-rho) theta}.  So a row is representable whenever the split is,
    even where mu^theta(x) itself underflows, and it sums to 1 to rounding
    (x = 0 gives exactly [1.0]).
    """
    with np.errstate(invalid="ignore"):
        joint = np.exp(logs - logs.max(axis=-1, keepdims=True))
        return joint / joint.sum(axis=-1, keepdims=True)


def _thinning_split(law, theta, rho, kmax, first=0):
    """Rows x = first..kmax of the thinning split, on {0..kmax}."""
    x = np.arange(first, kmax + 1)[:, None]
    xi = np.arange(kmax + 1)
    with np.errstate(divide="ignore"):  # theta = 0 logs the zero pmf entries
        shared, rest = law.log_pmf(rho * theta, kmax), law.log_pmf((1.0 - rho) * theta, kmax)
    return _split(np.where(xi <= x, shared + rest[x - xi], -np.inf))


def thinning_conditional(law, theta, rho, x):
    """Conditional pmf on {0..x} of the shared component given state x: the
    row x of the thinning split."""
    _check_nonneg("theta", theta)
    _check_rho(rho)
    if x < 0 or int(x) != x:
        raise ValueError(f"conditioning value must be a nonnegative integer, got {x}")
    row = _thinning_split(law, theta, rho, int(x), first=int(x))[0]
    if np.isnan(row[0]):
        raise ValueError(f"conditioning value {x} has zero probability")
    return row


def _split_cdf(law, theta, rho):
    """cdf(x): the CDF of the thinning split given a state x of positive
    probability, as a list on {0..x} whose last entry is 1.0, so a uniform
    above the rounded top of the row keeps all of x.

    Rows are sliced from the log pmfs of the two scales on {0..k}, built once
    and again on a lattice twice as large when a state passes k.  The ratio
    and jump-mass recursions of ``log_pmf`` are prefix-stable, so a row does
    not depend on k and is the row of ``thinning_conditional``.
    """
    top, shared, rest = -1, None, None

    def cdf(x):
        nonlocal top, shared, rest
        if x > top:
            top = max(2 * top, x)
            shared, rest = law.log_pmf(rho * theta, top), law.log_pmf((1.0 - rho) * theta, top)
        row = np.cumsum(_split(shared[: x + 1] + rest[x::-1]))
        if np.isnan(row[0]):
            raise ValueError(f"state {x} has zero probability")
        row[-1] = 1.0
        return row.tolist()

    return cdf
