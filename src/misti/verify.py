"""Executable checks on exact truncated tables.

Every check reduces a distributional property (stationarity, reversibility,
the Markov factorization, joint infinite divisibility) to an array of
violations over a truncated lattice, and one reducer, ``_worst``, finds its
worst point: the largest violation, reported with its witness point when the
check fails.  Ties go to the first point in the array's order, and a worst
point that is not finite raises ``ValueError``, so a NaN or an overflow is
never read as a pass.  The tables come from the specs (``spec.joint_pmf``),
so no check asks which construction it reads.  Checks are pure functions of
their inputs and reproducible bit for bit.
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

    def to_json(self, **fields):
        """The report as one JSON object; ``fields`` are set after its own keys."""
        payload = {
            "name": self.name,
            "violation": self.violation,
            "witness": list(self.witness) if self.witness is not None else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        payload.update(self.extra, **fields)
        return json.dumps(payload)


# ---------------------------------------------------------------------------
# exact joint tables for every construction
# ---------------------------------------------------------------------------

def chain_joint_pmf(spec, times, kmax, initial=None):
    """Exact joint table of the process at the given times on {0..kmax}^n,
    ``spec.joint_pmf``.  With ``initial`` (a pmf vector) a chain is started
    from that distribution at ``times[0]`` instead of from stationarity,
    which is how non-stationary starts are probed."""
    return spec.joint_pmf(tuple(times), kmax, initial)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _worst(diff):
    """The largest entry of an array of violations and the index where it sits.

    Ties go to the first index in C order, and a largest entry that is not
    finite (a NaN anywhere, or an infinity on top) raises ``ValueError``:
    no verdict can be read from it.
    """
    at = tuple(int(i) for i in np.unravel_index(diff.argmax(), diff.shape))
    worst = float(diff[at])
    if not math.isfinite(worst):
        raise ValueError(f"the worst violation is {worst}: the check cannot decide")
    return worst, at


def check_stationarity(spec, window, kmax, initial=None):
    """Compare the window-joint law with its shifts by 1 and 2 (tolerance 1e-9).

    The chain starts at time 0 from the stationary marginal, or from
    ``initial``, a pmf on {0..kmax}, and every table is evolved from it: the
    shifted ones from the spec's ``shifted_starts``, the chain's laws at
    times 1 and 2.  So a kernel that fails to preserve the marginal shows up
    as a shift violation.  ``extra`` records the worst shift (the first on
    ties, None when no entry differs) and the spec's record of its starts
    (the lattice of their build and each start's proven bound).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if initial is not None and not (np.min(initial) >= 0.0 and abs(np.sum(initial) - 1.0) <= 1e-9):
        raise ValueError("initial must be a pmf: finite entries >= 0 that sum to 1 within 1e-9")
    base = chain_joint_pmf(spec, tuple(range(window)), kmax, initial)
    starts, provenance = spec.shifted_starts((1, 2), kmax, initial)
    shifts = [
        _worst(np.abs(base.table - chain_joint_pmf(spec, tuple(range(s, s + window)), kmax, start).table))
        for s, start in enumerate(starts, start=1)
    ]
    worst, (at,) = _worst(np.array([violation for violation, _ in shifts]))
    return VerifyReport(
        "stationarity", worst, shifts[at][1], 1e-9, extra={"shift": at + 1 if worst else None, **provenance}
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
    through), its witness the first worst (a, b, c) by b, then a, then c;
    the tolerance is 1e-9.  A table whose every middle row is skipped has
    nothing to check, so it raises.
    """
    if j3.ntimes != 3:
        raise ValueError(f"need a table over exactly 3 times, got {j3.ntimes}")
    mid = j3.table.sum(axis=(0, 2))
    kept = np.flatnonzero(mid >= 1e-12)
    if kept.size == 0:
        raise ValueError(f"every middle value 0..{j3.k} has P[b] < 1e-12: no row to check at k = {j3.k}")
    # the kept rows read as (b, a, c) but left in the table's (a, b, c) memory
    # order, so each row sums in the order it would on its own
    joint = j3.table[:, kept, :].transpose(1, 0, 2)
    joint /= mid[kept, None, None]
    gaps = joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
    violation, (row, a, c) = _worst(np.abs(np.subtract(joint, gaps, out=gaps), out=gaps))
    return VerifyReport(
        "markov-triple", violation, (a, int(kept[row]), c), 1e-9, extra={"skipped_rows": j3.k + 1 - kept.size}
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
    # Decimal coefficients become floats before the sign flips: negating a
    # Decimal here would round it in the caller's decimal context
    worst, (at,) = _worst(-logs[nonconstant].astype(float))  # the first minimum by degree
    witness = tuple(int(i) for i in np.unravel_index(nonconstant[at], pgf.shape))
    extra = {"min_coefficient": -worst, "precision": precision}
    return VerifyReport("mvid", max(0.0, worst), witness, tolerance, extra=extra)


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
