"""Executable checks on exact truncated tables.

Every check reduces a distributional property (stationarity, reversibility,
the Markov factorization, joint infinite divisibility) to a worst-case
violation over a truncated lattice, reported with its witness point.  Checks
are pure functions of their inputs and reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .discrete import RandomMeasure, rm_joint_pmf
from .series import graded_exp_log, graded_order, ts_from_joint_pmf, ts_log
from .tables import JointPMF, stabilize

__all__ = [
    "VerifyReport",
    "chain_joint_pmf",
    "check_stationarity",
    "check_reversibility",
    "reversibility_violation",
    "check_markov_triple",
    "check_mvid",
    "autocorr_exact",
    "autocorr_mc",
]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check: passes iff violation <= tolerance."""

    name: str
    violation: float
    witness: tuple | None
    tolerance: float
    passed: bool = field(init=False)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.violation <= self.tolerance))

    def to_json(self):
        payload = {
            "name": self.name,
            "violation": self.violation,
            "witness": list(self.witness) if self.witness is not None else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        payload.update(self.extra)
        return json.dumps(payload)


# ---------------------------------------------------------------------------
# exact joint tables for every construction
# ---------------------------------------------------------------------------

def _evolved_marginal(spec, initial, gap, kmax):
    """Distribution after a gap, computed on a buffered lattice."""

    def evolved(k):
        if initial is None:
            start = spec.marginal(k)
        else:
            start = np.zeros(k + 1)
            start[: len(initial)] = initial
        return (start @ spec.kernel(gap, k))[: kmax + 1]

    return stabilize(evolved, kmax, 1e-13)


def chain_joint_pmf(spec, times, kmax, initial=None, origin=None):
    """Exact joint table of the process at the given times on {0..kmax}^n.

    Markov constructions use forward products of ``spec.marginal`` and
    ``spec.kernel`` rows; the random-measure construction convolves its cell
    variables.  With ``initial`` (a pmf vector) and ``origin`` the chain is
    started from that distribution at time ``origin`` instead of from
    stationarity, which is how non-stationary starts are probed.
    """
    times = tuple(times)
    if isinstance(spec, RandomMeasure):
        if initial is not None:
            raise ValueError("random-measure processes have no chain initial state")
        return rm_joint_pmf(spec.law, spec.theta, spec.rho, times, kmax)
    if initial is not None and np.shape(initial) != (kmax + 1,):
        raise ValueError(f"initial pmf must have shape ({kmax + 1},)")
    if origin is not None and times[0] != origin:
        marg = _evolved_marginal(spec, initial, times[0] - origin, kmax)
    elif initial is not None:
        marg = np.asarray(initial, dtype=float)
    else:
        marg = spec.marginal(kmax)
    table = marg
    for t_prev, t_next in zip(times, times[1:]):
        table = table[..., None] * spec.kernel(t_next - t_prev, kmax)
    return JointPMF(times, kmax, table)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_stationarity(spec, window, kmax, tolerance=1e-9, shifts=(1, 2), initial=None):
    """Compare the window-joint law with its time shifts.

    Both tables start from the same reference distribution at time 0 (the
    stationary marginal unless ``initial`` overrides it) and are evolved to
    the window, so a kernel that fails to preserve the marginal shows up as
    a shift violation.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    base = chain_joint_pmf(spec, tuple(range(window)), kmax, initial=initial, origin=0)
    worst, witness, worst_shift = 0.0, None, None
    for s in shifts:
        shifted = chain_joint_pmf(
            spec, tuple(range(s, s + window)), kmax, initial=initial, origin=0
        )
        diff = np.abs(base.table - shifted.table)
        if diff.max() > worst:
            worst = float(diff.max())
            witness = tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
            worst_shift = s
    return VerifyReport(
        "stationarity", worst, witness, tolerance, extra={"shift": worst_shift}
    )


def reversibility_violation(pmf, trans):
    """sup |pi_x q(y|x) - pi_y q(x|y)| and its witness for explicit (pi, Q)."""
    flux = np.asarray(pmf)[:, None] * np.asarray(trans)
    diff = np.abs(flux - flux.T)
    witness = tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
    return float(diff.max()), witness


def check_reversibility(spec, kmax, tolerance=1e-10):
    """Detailed balance for chains; reflection symmetry of triples otherwise."""
    if isinstance(spec, RandomMeasure):
        j3 = chain_joint_pmf(spec, (0, 1, 2), kmax)
        diff = np.abs(j3.table - j3.reorder((2, 1, 0)))
        witness = tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
        return VerifyReport("reversibility", float(diff.max()), witness, tolerance)
    violation, witness = reversibility_violation(spec.marginal(kmax), spec.kernel(1, kmax))
    return VerifyReport("reversibility", violation, witness, tolerance)


def check_markov_triple(j3, tolerance=1e-9, row_floor=1e-12):
    """Conditional independence of the outer times given the middle one.

    Violation is the worst |P[a,c|b] - P[a|b] P[c|b]| over middle values b
    with P[b] >= row_floor (thinner rows are skipped and counted, never
    divided through).
    """
    if j3.ntimes != 3:
        raise ValueError(f"need a table over exactly 3 times, got {j3.ntimes}")
    mid = j3.table.sum(axis=(0, 2))
    worst, witness, skipped = 0.0, None, 0
    for b in range(j3.k + 1):
        if mid[b] < row_floor:
            skipped += 1
            continue
        joint = j3.table[:, b, :] / mid[b]
        outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        diff = np.abs(joint - outer)
        if diff.max() > worst:
            worst = float(diff.max())
            a, c = np.unravel_index(diff.argmax(), diff.shape)
            witness = (int(a), int(b), int(c))
    return VerifyReport(
        "markov-triple", worst, witness, tolerance, extra={"skipped_rows": skipped}
    )


def check_mvid(pmf, maxdeg, precision="standard", tolerance=None):
    """Joint infinite divisibility test: all non-constant log-pgf coefficients >= 0.

    Coefficients up to total degree ``maxdeg`` are determined by the exact
    lattice entries alone (hence ``maxdeg <= pmf.k`` is required), so a
    negative minimum is attributable to the law, not the truncation.  Both
    precisions run the same recursion, ``series.graded_exp_log``; they differ
    only in the scalar type (float or 40-digit ``mpmath.mpf``) and in the
    tolerance, which only absorbs rounding noise.
    """
    if precision not in ("standard", "extended"):
        raise ValueError(f"precision must be 'standard' or 'extended', got {precision!r}")
    n = pmf.ntimes
    if pmf.table[(0,) * n] <= 0.0:
        raise ValueError("table has no mass at the origin; log-pgf undefined")
    if maxdeg < 1:
        raise ValueError(f"maxdeg must be >= 1, got {maxdeg}")
    if maxdeg > pmf.k:
        raise ValueError(
            f"degree bound {maxdeg} exceeds lattice bound {pmf.k}; "
            "coefficients would depend on missing entries"
        )
    if tolerance is None:
        tolerance = 1e-8 if precision == "standard" else 1e-12
    pgf = ts_from_joint_pmf(pmf, maxdeg)
    if precision == "extended":
        import mpmath

        with mpmath.workdps(40):
            terms = np.array([mpmath.mpf(float(c)) for c in pgf.coeffs.ravel()], dtype=object)
            logs = graded_exp_log(terms, n, maxdeg, log=mpmath.log)
    else:
        logs = ts_log(pgf).coeffs.ravel()
    nonconstant = np.concatenate([level[0] for level in graded_order(n, maxdeg)[1:]])
    best = nonconstant[np.argmin(logs[nonconstant])]  # the first minimum by degree
    min_coeff = float(logs[best])
    witness = tuple(int(i) for i in np.unravel_index(best, pgf.coeffs.shape))
    return VerifyReport(
        "mvid",
        max(0.0, -min_coeff),
        witness,
        tolerance,
        extra={"min_coefficient": min_coeff, "precision": precision},
    )


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def autocorr_exact(spec, lag, kmax):
    """Autocorrelation at the given lag from the exact bivariate table."""
    if lag == 0:
        return 1.0
    pair = chain_joint_pmf(spec, (0, lag), kmax)
    k = np.arange(kmax + 1)
    pa, pb = pair.table.sum(axis=1), pair.table.sum(axis=0)
    ma, mb = pa @ k, pb @ k
    va, vb = pa @ k**2 - ma**2, pb @ k**2 - mb**2
    if va <= 1e-12 * max(1.0, ma**2) or vb <= 1e-12 * max(1.0, mb**2):
        raise ValueError("degenerate variance; autocorrelation undefined")
    cross = k @ pair.table @ k
    return float((cross - ma * mb) / math.sqrt(va * vb))


def autocorr_mc(trajectory, lag):
    """Sample autocorrelation of a trajectory (or plain value array) at a lag."""
    values = np.asarray(getattr(trajectory, "values", trajectory), dtype=float)
    if lag < 1 or lag >= values.size:
        raise ValueError(f"lag must be in [1, {values.size - 1}], got {lag}")
    a, b = values[:-lag], values[lag:]
    if a.std() == 0.0 or b.std() == 0.0:
        raise ValueError("degenerate variance; autocorrelation undefined")
    return float(np.corrcoef(a, b)[0, 1])
