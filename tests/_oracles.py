"""Closed forms and explicit formulas that the tests hold the engine to.

None of these is called by ``misti``: each states a law or a property in a
form of its own, and a test compares it with what the engine builds.

* ``thinning_transition``: q(y | x) of a thinning chain as the finite sum
  over the shared component, sum_xi P(xi | x) mu^{(1-rho) theta}(y - xi),
  one entry at a time.  It checks ``thinning_transition_matrix``, which
  builds the whole kernel in one matrix product.
* ``beta_binomial_pmf``: the beta-binomial(x; a, b) pmf from its ratio
  recursion.  The NB thinning split given the state x is beta-binomial with
  a = theta rho, b = theta (1 - rho), which checks ``thinning_conditional``
  (the log-pmf split of ``idlaw``).
* ``pgf2_poisson``, ``pgf2_nb_branching``, ``pgf2_nb_thinning``: the joint
  pgfs of consecutive states of the Poisson branching chain, the NB
  branching chain and the NB thinning chain.  They check the pair tables of
  ``chain_joint_pmf``: the marginal times the certified kernel.
* ``cond_pgf_nb_thinning``: E[z^{X_t} | X_{t-1} = x] of the NB thinning
  chain, (p / (1 - q z))^{theta (1 - rho)} 2F1(theta rho, -x; theta; 1 - z),
  a 2F1 series that terminates after x + 1 terms.  It is pinned against the
  coefficients of ``pgf2_nb_thinning``: the row x of the NB thinning kernel
  in closed form.
* ``negtrinomial_pmf``: the negative-trinomial law of consecutive states of
  the NB branching chain at rho = q.  It checks the pair table of
  ``BranchingNB`` from ``branching_nb_transition_matrix``.
* ``generator_residual`` (and its ``GeneratorResidual``): the balance
  equations pi Q = 0 of a birth-death generator, interior columns apart from
  the last one.  It checks ``stationary_bd`` against the generator whose
  exponential ``transition_uniformized`` builds.
* ``reversibility_violation``: detailed balance sup |pi_x q(y|x) - pi_y q(x|y)|
  for an explicit (pi, Q).  It checks ``check_reversibility``, which reflects
  the pair table of the spec, and the certified kernels themselves.
* ``id_pgf``: the pgf exp{theta sum_j (z^j - 1) nu_j} of an ID law from
  ``law.pgf``.  It checks ``id_pmf``: the partial sums of the pmf against
  the pgf, within the missing tail.
"""

import math
from typing import NamedTuple

import numpy as np

from misti.discrete import _check_positive, _check_prob
from misti.idlaw import _check_nonneg, _ratio_log_pmf, id_pmf, thinning_conditional
from misti.verify import _worst


def thinning_transition(law, theta, rho, x, y):
    """One-step transition probability q(y | x) of the thinning chain."""
    if y < 0 or int(y) != y:
        raise ValueError(f"target state must be a nonnegative integer, got {y}")
    y = int(y)
    cond = thinning_conditional(law, theta, rho, x)
    innov = id_pmf(law, (1.0 - rho) * theta, y)
    m = min(int(x), y)
    return float(np.dot(cond[: m + 1], innov[y - np.arange(m + 1)]))


def beta_binomial_pmf(x, a, b):
    """Beta-binomial pmf vector on {0..x}, from its ratio recursion in logs:
    P(0) = prod_{i<x} (b+i)/(a+b+i) and P(k+1)/P(k) = (x-k)(a+k)/((k+1)(b+x-k-1))."""
    if x < 0 or int(x) != x:
        raise ValueError(f"count must be a nonnegative integer, got {x}")
    k = np.arange(int(x))
    log_p0 = np.sum(np.log((b + k) / (a + b + k)))
    return np.exp(_ratio_log_pmf(log_p0, np.log((x - k) * (a + k) / ((k + 1) * (b + x - k - 1)))))


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


def negtrinomial_pmf(i, j, alpha, q):
    """Joint pmf of consecutive states of the NB branching chain when rho = q."""
    _check_positive("alpha", alpha)
    _check_prob("q", q)
    if i < 0 or j < 0:
        raise ValueError("states must be nonnegative")
    return float(
        math.exp(
            math.lgamma(alpha + i + j) - math.lgamma(alpha) - math.lgamma(i + 1) - math.lgamma(j + 1)
        )
        * ((1.0 - q) / (1.0 + q)) ** alpha
        * (q / (1.0 + q)) ** (i + j)
    )


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


def reversibility_violation(pmf, trans):
    """sup |pi_x q(y|x) - pi_y q(x|y)| and its witness for explicit (pi, Q)."""
    flux = np.asarray(pmf)[:, None] * np.asarray(trans)
    return _worst(np.abs(flux - flux.T))


def id_pgf(law, theta, z):
    """Probability generating function of the scale-theta member at z in [0,1]."""
    _check_nonneg("theta", theta)
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("pgf argument must lie in [0,1]")
    val = law.pgf(theta, z)
    return float(val) if val.ndim == 0 else val
