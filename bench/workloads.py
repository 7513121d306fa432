"""The benchmark's workloads: each a fixed list of operations with an output gate.

A CLI operation is an argv for ``misti``; its gate reads ``(exit code,
stdout)``.  A library operation is a call on the ``misti`` package; its gate
reads the returned object.  Every gate returns ``(ok, note, states)``, where
``states`` counts the states a sampler emitted (0 for exact computations).

Exact outputs are compared with the values recorded at the seed commit in
``reference.json``, each number within the tolerance of the check that made
it.  Sampled paths are compared with their exact stationary mean and lag-1
autocorrelation, never with particular draws, so a rewritten sampler that is
still right passes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TABLE_TOL = 1e-10  # exact tables and kernels that carry no tolerance of their own
TABLE_DEV_TOL = 1e-12  # closed form vs enumeration in `misti table`
GATE_Z = 5.0
# Bartlett's lag-1 standard error assumes a linear Gaussian process; on the
# five sampled processes here the lag-1 autocorrelation spreads 1.2-1.4 times
# wider, so the gate allows twice Bartlett's error.
ACF_SE_FACTOR = 2.0


@dataclass(frozen=True)
class Op:
    """One operation.  Its output is gated either by ``check`` or, for exact
    results, by comparing ``summary(output)`` with the recorded reference."""

    name: str
    argv: tuple = ()  # CLI operation
    call: object = None  # library operation: call(misti, rng) -> result
    check: object = None  # check(*output) -> (ok, note, states)
    summary: object = None  # summary(*output) -> dict, or a string saying what failed

    @property
    def is_cli(self):
        return self.call is None

    def gate(self, *output):
        if self.summary is None:
            return self.check(*output)
        got = self.summary(*output)
        if isinstance(got, str):
            return False, got, 0
        want = load_reference().get(self.name)
        if want is None:
            return False, "no reference value recorded", 0
        bad = compare(got, want)
        return bad is None, bad or "matches reference", 0


# ---------------------------------------------------------------------------
# statistical gate for sampled paths
# ---------------------------------------------------------------------------

def path_gate_check(values, mean, var, rho, z=GATE_Z):
    """Sample mean and lag-1 autocorrelation against exact values.

    The mean's standard error is the exact one of a stationary series with
    autocorrelation rho^|h|: sqrt(var / n * (1 + rho) / (1 - rho)).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 100:
        return False, f"only {n} states"
    m = x.mean()
    se_mean = math.sqrt(var / n * (1.0 + rho) / (1.0 - rho))
    centred = x - m
    denom = float(centred @ centred)
    if denom == 0.0:
        return False, "constant path"
    r1 = float(centred[:-1] @ centred[1:]) / denom
    se_r1 = ACF_SE_FACTOR * math.sqrt((1.0 - rho * rho) / n)
    dm, dr = (m - mean) / se_mean, (r1 - rho) / se_r1
    note = f"mean {m:.4f} vs {mean:.4f} ({dm:+.2f} se), r1 {r1:.4f} vs {rho:.4f} ({dr:+.2f} se)"
    return abs(dm) <= z and abs(dr) <= z, note


def _cli_path_gate(steps, mean, var, rho):
    def gate(rc, text):
        if rc != 0:
            return False, f"exit code {rc}", 0
        lines = text.splitlines()
        if lines[:1] != ["t,x"] or len(lines) != steps + 1:
            return False, f"expected header t,x and {steps} rows, got {len(lines)} lines", 0
        values = np.array([int(line.split(",")[1]) for line in lines[1:]])
        if values.min() < 0:
            return False, "negative state", 0
        ok, note = path_gate_check(values, mean, var, rho)
        return ok, note, steps

    return gate


def _ct_path_gate(horizon, mean, var, rho):
    """Change-point path sampled on the integer grid 0..horizon-1."""

    def gate(rc, text):
        if rc != 0:
            return False, f"exit code {rc}", 0
        lines = text.splitlines()
        if lines[:1] != ["time,state"] or len(lines) < 2:
            return False, "expected header time,state and rows", 0
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        times, states = rows[:, 0], rows[:, 1]
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0) or times[-1] >= horizon:
            return False, "change points not increasing within [0, horizon)", 0
        if np.any(np.abs(np.diff(states)) != 1.0) or states.min() < 0:
            return False, "a birth-death path must move by +-1 within N", 0
        grid = np.arange(int(horizon))
        sampled = states[np.searchsorted(times, grid, side="right") - 1]
        ok, note = path_gate_check(sampled, mean, var, rho)
        return ok, note, len(times)

    return gate


def _trajectory_gate(steps, mean, var, rho):
    def gate(traj):
        values = np.asarray(traj.values)
        if values.shape != (steps,) or values.min() < 0:
            return False, f"expected {steps} nonnegative states", 0
        ok, note = path_gate_check(values, mean, var, rho)
        return ok, note, steps

    return gate


# ---------------------------------------------------------------------------
# gates against the seed-commit reference
# ---------------------------------------------------------------------------

def summarize(result):
    """Comparable summary of an exact result: a check report, a table or a matrix.

    Arrays are summarized by their sum and three projections on fixed random
    weights per axis, which move if any entry moves.
    """
    if hasattr(result, "violation"):
        out = {
            "violation": float(result.violation),
            "tolerance": float(result.tolerance),
            "pass": bool(result.passed),
        }
        if "min_coefficient" in result.extra:
            out["min_coefficient"] = float(result.extra["min_coefficient"])
        return out
    if hasattr(result, "table"):
        out = summarize(np.asarray(result.table))
        out["leaked"] = float(result.leaked)
        return out
    arr = np.asarray(result, dtype=float)
    projections = []
    for j in range(3):
        weights = np.random.default_rng(1000 + j)
        proj = arr
        for size in arr.shape:
            proj = np.tensordot(weights.random(size), proj, axes=(0, 0))
        projections.append(float(proj))
    return {"shape": list(arr.shape), "sum": float(arr.sum()), "projections": projections}


def compare(got, want, tol=TABLE_TOL, path=""):
    """First mismatch between two summaries, or None.  Floats match within
    the summary's own ``tolerance`` field when it has one, else ``tol``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: fields {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"
        tol = want.get("tolerance", tol)
        for key in want:
            bad = compare(got[key], want[key], tol, f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {got} != {want}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = compare(g, w, tol, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, float) and not isinstance(got, bool):
        return None if abs(got - want) <= tol else f"{path}: {got!r} vs {want!r} (tol {tol:g})"
    return None if got == want else f"{path}: {got!r} != {want!r}"


@functools.cache
def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def summarize_verify(rc, text):
    """Per-check summary of `misti verify` JSON lines; a string on failure."""
    if rc != 0:
        return f"exit code {rc}"
    out = {}
    for line in text.splitlines():
        rec = json.loads(line)
        if not rec["matched"]:
            return f"check {rec['name']} landed on the wrong side of its polarity"
        out[rec["name"]] = {
            "violation": float(rec["violation"]),
            "tolerance": float(rec["tolerance"]),
            "pass": bool(rec["pass"]),
        }
    return out


def table_gate(rc, text):
    if rc != 0:
        return False, f"exit code {rc}", 0
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != 27:
        return False, f"expected 27 grid rows, got {len(rows)}", 0
    worst = max(max(float(r["thinning_dev"]), float(r["rm_dev"])) for r in rows)
    return worst <= TABLE_DEV_TOL, f"worst deviation {worst:.3g}", 0


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

NB_MEAN, NB_VAR = 2.0, 4.0  # NB(2, 0.5): theta q / p and theta q / p^2
LEVY = ((1, 1.0), (2, 0.5), (3, 0.2))
LEVY_MEAN = 2.0 * sum(j * m for j, m in LEVY)
LEVY_VAR = 2.0 * sum(j * j * m for j, m in LEVY)


def _verify_op(suite, *flags):
    return Op(f"verify-{suite}", ("verify", "--suite", suite, *flags), summary=summarize_verify)


def _simulate_argv(process, *flags):
    return ("simulate", "--process", process, *flags)


NB_FLAGS = ("--law", "nb", "--theta", "2", "--p", "0.5", "--rho", "0.6")


def _library_ops():
    def levy(m):
        return m.GenericLevy(LEVY)

    def branching_triple(m):
        return m.chain_joint_pmf(m.BranchingNB(2.0, 0.5, 0.6), (0, 1, 2), 10)

    calls = [
        ("stationarity-nbbd", lambda m, rng: m.check_stationarity(m.NBBD(2, 0.5, 0.5), 2, 16)),
        ("stationarity-poissonbd", lambda m, rng: m.check_stationarity(m.PoissonBD(4, 0.5), 3, 24)),
        ("transition-uniformized", lambda m, rng: m.transition_uniformized(m.NBBD(2, 0.5, 1.0), 1.0, 30)),
        ("joint-pmf-nbbd", lambda m, rng: m.chain_joint_pmf(m.NBBD(2, 0.5, 1.0), (0, 0.5, 2.0), 20)),
        (
            "stationarity-thinning-nb",
            lambda m, rng: m.check_stationarity(m.Thinning(m.NegBinomial(0.5), 2, 0.6), 3, 30),
        ),
        (
            "stationarity-thinning-levy",
            lambda m, rng: m.check_stationarity(m.Thinning(levy(m), 2, 0.6), 3, 20),
        ),
        (
            "reversibility-rm-nb",
            lambda m, rng: m.check_reversibility(m.RandomMeasure(m.NegBinomial(0.5), 2, 0.6), 40),
        ),
        ("rm-joint-pmf-levy", lambda m, rng: m.rm_joint_pmf(levy(m), 2.0, 0.6, (0, 1, 3, 4), 16)),
        ("mvid-standard", lambda m, rng: m.check_mvid(branching_triple(m), 8, "standard")),
        ("mvid-extended", lambda m, rng: m.check_mvid(branching_triple(m), 8, "extended")),
    ]
    ops = [Op(name, call=call, summary=summarize) for name, call in calls]
    ops.append(
        Op(
            "simulate-thinning-levy",
            call=lambda m, rng: m.simulate_chain(m.Thinning(levy(m), 2.0, 0.6), 0, 10**4, rng),
            check=_trajectory_gate(10**4, LEVY_MEAN, LEVY_VAR, 0.6),
        )
    )
    return ops


WORKLOADS = {
    # Cold CLI; the log-series engine does about half the work and cold start
    # about 40%, kernels and rm_joint_pmf under 0.1 s.
    "verify-exact": [
        _verify_op("theorem2", "--k", "16", "--degree", "10"),
        _verify_op("poisson-coincidence", "--k", "30", "--degree", "10"),
        _verify_op("theorem3"),
        Op(
            "table",
            ("table", "--theta-grid", "0.5,1,2", "--p-grid", "0.3,0.5,0.7", "--rho-grid", "0.2,0.5,0.8"),
            check=table_gate,
        ),
    ],
    # Cold CLI; samplers and CSV output do the work and the series engine is
    # never called.
    "simulate-paths": [
        Op(
            "simulate-random-measure",
            _simulate_argv("random-measure", *NB_FLAGS, "--steps", "1000"),
            check=_cli_path_gate(1000, NB_MEAN, NB_VAR, 0.6),
        ),
        Op(
            "simulate-branching-nb",
            _simulate_argv(
                "branching-nb", "--alpha", "2", "--p", "0.5", "--rho", "0.6", "--steps", "100000"
            ),
            check=_cli_path_gate(10**5, NB_MEAN, NB_VAR, 0.6),
        ),
        Op(
            "simulate-thinning-nb",
            _simulate_argv("thinning", *NB_FLAGS, "--steps", "100000"),
            check=_cli_path_gate(10**5, NB_MEAN, NB_VAR, 0.6),
        ),
        Op(
            "simulate-ct-nb-bd",
            _simulate_argv("ct-nb-bd", "--alpha", "2", "--p", "0.5", "--lambda", "1", "--horizon", "20000"),
            check=_ct_path_gate(20000.0, NB_MEAN, NB_VAR, math.exp(-1.0)),
        ),
    ],
    # One warm interpreter; the ctmc kernels, the float and mpmath log paths
    # and the GenericLevy thinning sampler, which the CLI cannot reach.
    "library-api": _library_ops(),
}
