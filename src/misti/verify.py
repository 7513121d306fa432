"""Executable checks on exact truncated tables.

Every check reduces a distributional property (stationarity, reversibility,
the Markov factorization, joint infinite divisibility) to a worst-case
violation over a truncated lattice, reported with its witness point when the
check fails.  The tables come from the specs (``spec.joint_pmf``), so no
check asks which construction it reads.  Checks are pure functions of their
inputs and reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .series import graded_exp_log, graded_order, ts_from_joint_pmf, ts_log

@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check: passes iff violation <= tolerance.

    A passing report carries no witness: its worst point is rounding noise,
    and where it sits says nothing of the law.
    """

    name: str
    violation: float
    witness: tuple | None
    tolerance: float
    passed: bool = field(init=False)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.violation <= self.tolerance))
        if self.passed:
            object.__setattr__(self, "witness", None)

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

def chain_joint_pmf(spec, times, kmax, initial=None, origin=None):
    """Exact joint table of the process at the given times on {0..kmax}^n,
    ``spec.joint_pmf``.  With ``initial`` (a pmf vector) and ``origin`` a
    chain is started from that distribution at time ``origin`` instead of
    from stationarity, which is how non-stationary starts are probed."""
    return spec.joint_pmf(tuple(times), kmax, initial, origin)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _worst(diff):
    """The largest entry of an array of violations and the index where it sits."""
    return float(diff.max()), tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))


def check_stationarity(spec, window, kmax, initial=None):
    """Compare the window-joint law with its shifts by 1 and 2 (tolerance 1e-9).

    Both tables start from the same reference distribution at time 0 (the
    stationary marginal unless ``initial`` overrides it) and are evolved to
    the window, so a kernel that fails to preserve the marginal shows up as
    a shift violation.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    base = chain_joint_pmf(spec, tuple(range(window)), kmax, initial=initial, origin=0)
    worst, witness, worst_shift = 0.0, None, None
    for s in (1, 2):
        shifted = chain_joint_pmf(
            spec, tuple(range(s, s + window)), kmax, initial=initial, origin=0
        )
        violation, at = _worst(np.abs(base.table - shifted.table))
        if violation > worst:
            worst, witness, worst_shift = violation, at, s
    return VerifyReport(
        "stationarity", worst, witness, 1e-9, extra={"shift": worst_shift}
    )


def check_reversibility(spec, kmax):
    """Reflection symmetry of the table at ``spec.reversal_times`` (tolerance
    1e-10); for a chain's pair table pi_x q(y|x) that is detailed balance."""
    table = chain_joint_pmf(spec, spec.reversal_times, kmax)
    reflected = table.reorder(tuple(reversed(range(table.ntimes))))
    return VerifyReport("reversibility", *_worst(np.abs(table.table - reflected)), 1e-10)


def check_coincidence(a, b):
    """Entrywise agreement of two joint tables over the same times and lattice
    (tolerance 1e-10), such as the Poisson thinning chain's and the Poisson
    random measure's."""
    if a.times != b.times or a.k != b.k:
        raise ValueError(f"tables differ in times or lattice: {a.times} on {{0..{a.k}}}, {b.times} on {{0..{b.k}}}")
    return VerifyReport("coincidence", *_worst(np.abs(a.table - b.table)), 1e-10)


def check_markov_triple(j3):
    """Conditional independence of the outer times given the middle one.

    Violation is the worst |P[a,c|b] - P[a|b] P[c|b]| over middle values b
    with P[b] >= 1e-12 (thinner rows are skipped and counted, never divided
    through); the tolerance is 1e-9.  A table whose every middle row is
    skipped has nothing to check, so it raises.
    """
    if j3.ntimes != 3:
        raise ValueError(f"need a table over exactly 3 times, got {j3.ntimes}")
    mid = j3.table.sum(axis=(0, 2))
    worst, witness, skipped = 0.0, None, 0
    for b in range(j3.k + 1):
        if mid[b] < 1e-12:
            skipped += 1
            continue
        joint = j3.table[:, b, :] / mid[b]
        violation, (a, c) = _worst(np.abs(joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))))
        if violation > worst:
            worst, witness = violation, (a, b, c)
    if skipped == j3.k + 1:
        raise ValueError(f"every middle value 0..{j3.k} has P[b] < 1e-12: no row to check at k = {j3.k}")
    return VerifyReport(
        "markov-triple", worst, witness, 1e-9, extra={"skipped_rows": skipped}
    )


def _log_coefficients(pgf, precision):
    """The flattened log coefficients of a dense pgf array, in floats or, for
    ``precision="extended"``, in ``decimal.Decimal`` at 40 digits.  Each float
    entry converts to a Decimal exactly, and the arithmetic runs in a context
    of its own, so the caller's decimal context neither changes the result
    nor is changed by it."""
    if precision == "standard":
        return ts_log(pgf).ravel()
    import decimal

    with decimal.localcontext(decimal.Context(prec=40)):
        terms = np.array([decimal.Decimal(float(c)) for c in pgf.ravel()], dtype=object)
        return graded_exp_log(terms, pgf.ndim, pgf.shape[0] - 1, log=decimal.Decimal.ln)


def check_mvid(pmf, maxdeg, precision="standard"):
    """Joint infinite divisibility test: all non-constant log-pgf coefficients >= 0.

    Coefficients up to total degree ``maxdeg`` are determined by the exact
    lattice entries alone (hence ``maxdeg <= pmf.k`` is required), so a
    negative minimum is attributable to the law, not the truncation.  Both
    precisions run the same recursion, ``series.graded_exp_log``; they differ
    only in the scalar type (float or 40-digit ``decimal.Decimal``) and in the
    tolerance (1e-8 or 1e-12), which only absorbs rounding noise.
    """
    tolerance = {"standard": 1e-8, "extended": 1e-12}.get(precision)
    if tolerance is None:
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
    pgf = ts_from_joint_pmf(pmf, maxdeg)
    logs = _log_coefficients(pgf, precision)
    nonconstant = np.concatenate([level[0] for level in graded_order(n, maxdeg)[1:]])
    best = nonconstant[np.argmin(logs[nonconstant])]  # the first minimum by degree
    min_coeff = float(logs[best])
    return VerifyReport(
        "mvid",
        max(0.0, -min_coeff),
        tuple(int(i) for i in np.unravel_index(best, pgf.shape)),
        tolerance,
        extra={"min_coefficient": min_coeff, "precision": precision},
    )


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def autocorr_exact(spec, lag, kmax):
    """Autocorrelation at the given lag from the exact bivariate table.  The
    moments read only the table, so a table that leaked more than 1e-6 of
    its mass past kmax raises ``ValueError`` instead of giving the moments
    of a truncated law."""
    if lag == 0:
        return 1.0
    pair = chain_joint_pmf(spec, (0, lag), kmax)
    if pair.leaked > 1e-6:
        raise ValueError(f"the pair table on {{0..{kmax}}} leaked {pair.leaked:.3g} of its mass; raise kmax")
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
