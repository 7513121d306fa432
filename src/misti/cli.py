"""Command-line front door: simulate, tabulate, verify, classify.

Commands are deterministic given (config, seed).  Trajectories and tables
stream as CSV, verification reports as JSON lines.  Exit codes: 0 success,
1 a verification check landed on the wrong side of its expected polarity,
2 configuration error, 141 (128 + SIGPIPE) when the reader of stdout closes
it early, as ``misti simulate ... | head`` does; that exit prints nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ctmc import NBBD, PoissonBD, gillespie
from .discrete import (
    BranchingNB,
    BranchingPoisson,
    Constant,
    IID,
    NegBinomial,
    Poisson,
    RandomMeasure,
    Thinning,
    misti_classify,
    nb_random_measure_020,
    nb_thinning_020,
    rm_simulate,
    simulate_chain,
)
from .idlaw import id_pmf
from .verify import VerifyReport, _worst, chain_joint_pmf, check_markov_triple, check_mvid

# the settings of a time axis: ticks from t0, or an event path from x0 up to
# a horizon; explicit --times replace the ticks
TICKS, EVENTS = ("steps", "t0"), ("x0", "horizon")
# process -> (spec class, takes a --law marginal, the settings that follow it,
# the settings of its time axis)
PROCESSES = {
    "thinning": (Thinning, True, ("rho",), TICKS),
    "random-measure": (RandomMeasure, True, ("rho",), (*TICKS, "times")),
    "branching-poisson": (BranchingPoisson, False, ("theta", "rho"), TICKS),
    "branching-nb": (BranchingNB, False, ("alpha", "p", "rho"), TICKS),
    "iid": (IID, True, (), TICKS),
    "constant": (Constant, True, (), TICKS),
    "ct-poisson-bd": (PoissonBD, False, ("theta", "lam"), EVENTS),
    "ct-nb-bd": (NBBD, False, ("alpha", "p", "lam"), EVENTS),
}
FAMILIES = {cls: name for name, (cls, *_) in PROCESSES.items()}
CT_PROCESSES = tuple(name for name, (*_, axis) in PROCESSES.items() if axis == EVENTS)
# --law -> (law class, the settings that build it); theta follows as the scale
LAWS = {"poisson": (Poisson, ()), "nb": (NegBinomial, ("p",))}
# every setting that some process reads
PROCESS_SETTINGS = {
    "law",
    "theta",
    *(name for _, names in LAWS.values() for name in names),
    *(name for *_, names, axis in PROCESSES.values() for name in (*names, *axis)),
}


def _mvid(degree, table):
    return check_mvid(table, degree)


def _markov(degree, table):
    return check_markov_triple(table)


def _coincide(degree, a, b):
    return VerifyReport("tables-coincide-poisson", *_worst(np.abs(a.table - b.table)), 1e-10)


# suite -> rows (label, check, the specs whose (0, 1, 2) tables it reads, as a
# function of (theta, p, rho), expected pass)
SUITES = {
    "theorem2": (
        ("mvid-thinning-nb", _mvid, lambda t, p, r: [Thinning(NegBinomial(p), t, r)], False),
        ("mvid-branching-nb", _mvid, lambda t, p, r: [BranchingNB(t, p, r)], True),
        ("mvid-branching-poisson", _mvid, lambda t, p, r: [BranchingPoisson(t, r)], True),
    ),
    "theorem3": (
        ("markov-rm-nb", _markov, lambda t, p, r: [RandomMeasure(NegBinomial(p), t, r)], False),
        ("markov-rm-poisson", _markov, lambda t, p, r: [RandomMeasure(Poisson(), t, r)], True),
        ("markov-thinning-nb", _markov, lambda t, p, r: [Thinning(NegBinomial(p), t, r)], True),
    ),
    "poisson-coincidence": (
        (
            "tables-coincide-poisson",
            _coincide,
            lambda t, p, r: [Thinning(Poisson(), t, r), RandomMeasure(Poisson(), t, r)],
            True,
        ),
        ("markov-rm-poisson", _markov, lambda t, p, r: [RandomMeasure(Poisson(), t, r)], True),
        ("mvid-rm-poisson", _mvid, lambda t, p, r: [RandomMeasure(Poisson(), t, r)], True),
    ),
}
FORMATS = ("csv", "jsonl")

# Settings that may come from a flag or from a --config file, so they are
# checked after the merge rather than by argparse.
CHOICES = {
    "process": tuple(PROCESSES),
    "suite": tuple(SUITES),
    "law": tuple(LAWS),
    "format": FORMATS,
}
REQUIRED = {
    "simulate": ("process",),
    "verify": ("suite",),
    "classify": ("r0", "r1", "r2", "theta1"),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one command; dumps to / parses from `key = value` lines."""

    command: str
    process: str | None = None
    law: str | None = None
    theta: float | None = None
    alpha: float | None = None
    p: float | None = None
    rho: float | None = None
    lam: float | None = None
    steps: int | None = None
    t0: int = 0
    x0: int | None = None
    horizon: float | None = None
    times: tuple | None = None
    k: int = 12
    degree: int = 8
    seed: int = 0
    out: str = "-"
    format: str | None = None
    suite: str | None = None
    theta_grid: tuple | None = None
    p_grid: tuple | None = None
    rho_grid: tuple | None = None
    r0: float | None = None
    r1: float | None = None
    r2: float | None = None
    theta1: float | None = None

    def dump(self):
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            elif isinstance(value, float):
                value = _fmt(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


# rows per CSV template: at 2^14 a chunk's Python floats and strings reuse
# memory the sampler freed (writing a 161k-row ct-nb-bd path raised the peak
# RSS by 6.7 MB at 2^16 rows, and not at all at 2^14)
_ROW_CHUNK = 1 << 14


def _fmt(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_value(name, raw):
    kind = _FIELD_TYPES[name]
    if kind in ("int", "int | None"):
        return int(raw)
    if kind in ("float", "float | None"):
        return float(raw)
    if kind == "tuple | None":
        return _times_arg(raw) if name == "times" else _grid_arg(raw)
    return raw


def parse_config_lines(text):
    """Parse `key = value` lines into a field dict; unknown keys are rejected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not `key = value`: {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        out[key] = _parse_value(key, raw)
    return out


def _grid_arg(raw):
    return tuple(float(v) for v in raw.split(","))


def _times_arg(raw):
    return tuple(int(v) for v in raw.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="misti",
        description="Simulate, tabulate, and verify stationary reversible integer processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key = value config file; flags override it")
        sp.add_argument("--dump-config", help="write the resolved config to this path")
        sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
        sp.add_argument("--out", help="output path, '-' for stdout (default)")
        sp.add_argument("--format", choices=FORMATS, help="output format")
        sp.add_argument("--k", type=int, help="lattice bound for exact tables (default 12)")
        sp.add_argument("--degree", type=int, help="total-degree bound for log-pgf scans (default 8)")

    sim = sub.add_parser("simulate", help="simulate one trajectory")
    add_common(sim)
    sim.add_argument("--process", choices=tuple(PROCESSES), help="process to simulate (required)")
    sim.add_argument("--law", choices=tuple(LAWS), help="marginal family for thinning/random-measure/iid/constant")
    sim.add_argument("--theta", type=float)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--p", type=float)
    sim.add_argument("--rho", type=float)
    sim.add_argument("--lambda", dest="lam", type=float, help="continuous-time rate scale")
    sim.add_argument("--steps", type=int, help="number of discrete ticks")
    sim.add_argument("--t0", type=int, help="first time index (default 0)")
    sim.add_argument("--x0", type=int, help="continuous-time initial state (default: stationary draw)")
    sim.add_argument("--horizon", type=float, help="continuous-time horizon")
    sim.add_argument("--times", type=_times_arg, help="explicit comma-separated times (random-measure)")

    tab = sub.add_parser("table", help="discriminating-probability table over a parameter grid")
    add_common(tab)
    tab.add_argument("--theta-grid", type=_grid_arg, dest="theta_grid")
    tab.add_argument("--p-grid", type=_grid_arg, dest="p_grid")
    tab.add_argument("--rho-grid", type=_grid_arg, dest="rho_grid")

    ver = sub.add_parser("verify", help="run a named check suite with expected polarities")
    add_common(ver)
    ver.add_argument("--suite", choices=tuple(SUITES), help="check suite to run (required)")
    ver.add_argument("--theta", type=float)
    ver.add_argument("--p", type=float)
    ver.add_argument("--rho", type=float)

    cls = sub.add_parser("classify", help="identify the family from (r0, r1, r2, theta1)")
    add_common(cls)
    cls.add_argument("--r0", type=float, help="required")
    cls.add_argument("--r1", type=float, help="required")
    cls.add_argument("--r2", type=float, help="required")
    cls.add_argument("--theta1", type=float, help="required")

    return parser


def resolve_config(args):
    """Merge config-file values under explicit CLI flags into a RunConfig.

    Required settings and choice-valued settings are checked on the merged
    result, so either source may supply them.
    """
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    merged = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            merged.update(parse_config_lines(fh.read()))
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    merged["command"] = args.command
    cfg = RunConfig(**merged)
    _require(cfg, *REQUIRED.get(cfg.command, ()))
    for name, allowed in CHOICES.items():
        value = getattr(cfg, name)
        if value is not None and value not in allowed:
            raise ValueError(
                f"--{name} must be one of {', '.join(allowed)}; got {value!r}"
            )
    return cfg


def _open_out(cfg):
    if cfg.out == "-":
        return sys.stdout, False
    return open(cfg.out, "w", encoding="utf-8", newline="\n"), True


def _write_rows(cfg, header, columns, default_format="csv"):
    """Write the rows whose columns are given, one homogeneous sequence (ints,
    floats or strings) per header name, ``_ROW_CHUNK`` rows at a time.  A CSV
    chunk is one ``%`` template over its flattened rows, ``%.17g`` for float
    columns and ``%s`` otherwise: the bytes of ``_fmt`` cells."""
    fmt = cfg.format or default_format
    columns = [np.asarray(column) for column in columns]
    row = ",".join("%.17g" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    stream, owned = _open_out(cfg)
    try:
        if fmt == "csv":
            stream.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROW_CHUNK):
            chunk = [column[start : start + _ROW_CHUNK].tolist() for column in columns]
            if fmt == "csv":
                stream.write(row * len(chunk[0]) % tuple(itertools.chain.from_iterable(zip(*chunk))))
            else:
                lines = (json.dumps(dict(zip(header, values))) for values in zip(*chunk))
                stream.write("\n".join(lines) + "\n")
    finally:
        if owned:
            stream.close()


def _flag(name):
    return "--" + {"lam": "lambda"}.get(name, name).replace("_", "-")


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"{_flag(name)} is required for this invocation")


def _marginal_law(cfg):
    _require(cfg, "law")
    cls, names = LAWS[cfg.law]
    _require(cfg, "theta", *names)
    return cls(*(getattr(cfg, name) for name in names)), cfg.theta


def _build_spec(cfg):
    cls, takes_law, names, _ = PROCESSES[cfg.process]
    lead = _marginal_law(cfg) if takes_law else ()
    _require(cfg, *names)
    return cls(*lead, *(getattr(cfg, name) for name in names))


def _refuse_unread(cfg):
    """Reject every process setting that differs from its default but that
    ``--process`` (with its ``--law``) does not read."""
    _, takes_law, names, axis = PROCESSES[cfg.process]
    if cfg.times is not None and "times" in axis:
        axis = ("times",)
    read = {*(("law", "theta", *LAWS[cfg.law][1]) if takes_law else ()), *names, *axis}
    unread = PROCESS_SETTINGS - read
    for f in dataclasses.fields(RunConfig):
        if f.name in unread and getattr(cfg, f.name) != f.default:
            raise ValueError(f"{_flag(f.name)} does not apply to --process {cfg.process}")


def cmd_simulate(cfg):
    spec = _build_spec(cfg)
    _refuse_unread(cfg)
    rng = np.random.default_rng(cfg.seed)
    if cfg.process in CT_PROCESSES:
        _require(cfg, "horizon")
        x0 = cfg.x0 if cfg.x0 is not None else spec.stationary_draw(rng)
        path = gillespie(spec, x0, cfg.horizon, rng)
        _write_rows(cfg, ("time", "state"), (path.times, path.states))
        return 0
    if cfg.times is not None:  # only the random measure reads --times
        columns = (cfg.times, rm_simulate(spec.law, spec.theta, spec.rho, cfg.times, rng))
    else:
        _require(cfg, "steps")
        if cfg.steps < 1:
            raise ValueError("--steps must be >= 1")
        traj = simulate_chain(spec, cfg.t0, cfg.steps, rng)
        columns = (np.arange(traj.t0, traj.t0 + len(traj)), traj.values)
    _write_rows(cfg, ("t", "x"), columns)
    return 0


# the processes that ``table`` compares: (column prefix, NB spec class, closed
# form of P[X1=0, X3=0 | X2=2])
TABLE_PROCESSES = (("thinning", Thinning, nb_thinning_020), ("rm", RandomMeasure, nb_random_measure_020))


def cmd_table(cfg):
    """P[X1=0, X3=0 | X2=2] for the NB thinning chain vs the NB random-measure
    process: closed forms next to exact-enumeration columns and deviations."""
    rows = []
    for theta, p, rho in itertools.product(cfg.theta_grid or (1.0,), cfg.p_grid or (0.5,), cfg.rho_grid or (0.5,)):
        law = NegBinomial(p)
        mid = id_pmf(law, theta, 2)[2]
        row = [theta, p, rho]
        for _, spec, closed_form in TABLE_PROCESSES:
            closed = closed_form(theta, p, rho)
            enum = float(chain_joint_pmf(spec(law, theta, rho), (0, 1, 2), 2).table[0, 2, 0] / mid)
            row += [closed, enum, abs(closed - enum)]
        rows.append(row)
    columns = (f"{name}_{column}" for name, *_ in TABLE_PROCESSES for column in ("closed", "enum", "dev"))
    _write_rows(cfg, ("theta", "p", "rho", *columns), tuple(zip(*rows)))
    return 0


def _suite_checks(cfg):
    """(label, report, expected_pass) triples for the named suite; each joint
    table is built once, however many checks read it."""
    theta = cfg.theta if cfg.theta is not None else 1.0
    p = cfg.p if cfg.p is not None else 0.5
    rho = cfg.rho if cfg.rho is not None else 0.5
    table = functools.cache(lambda spec: chain_joint_pmf(spec, (0, 1, 2), cfg.k))
    return [
        (label, check(cfg.degree, *map(table, specs(theta, p, rho))), expected)
        for label, check, specs, expected in SUITES[cfg.suite]
    ]


def cmd_verify(cfg):
    checks = _suite_checks(cfg)
    fmt = cfg.format or "jsonl"
    stream, owned = _open_out(cfg)
    all_matched = True
    try:
        if fmt == "csv":
            stream.write("name,violation,witness,tolerance,pass,expected_pass,matched\n")
        for label, report, expected in checks:
            matched = report.passed == expected
            all_matched &= matched
            if fmt == "jsonl":
                payload = json.loads(report.to_json())
                payload["name"] = label
                payload["expected_pass"] = expected
                payload["matched"] = matched
                stream.write(json.dumps(payload) + "\n")
            else:
                witness = "" if report.witness is None else ";".join(map(str, report.witness))
                stream.write(
                    f"{label},{_fmt(report.violation)},{witness},"
                    f"{_fmt(report.tolerance)},{report.passed},{expected},{matched}\n"
                )
    finally:
        if owned:
            stream.close()
    return 0 if all_matched else 1


def cmd_classify(cfg):
    spec = misti_classify(cfg.r0, cfg.r1, cfg.r2, cfg.theta1)
    family = FAMILIES[type(spec)]
    _, takes_law, names, _ = PROCESSES[family]
    # a degenerate family's law is the canonical Poisson of mean theta1
    fields = {"theta1": spec.theta} if takes_law else {name: getattr(spec, name) for name in names}
    columns = [[value] for value in (family, *fields.values())]
    _write_rows(cfg, ("family", *fields), columns, default_format="jsonl")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if getattr(args, "dump_config", None):
            with open(args.dump_config, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(cfg.dump())
        handler = {
            "simulate": cmd_simulate,
            "table": cmd_table,
            "verify": cmd_verify,
            "classify": cmd_classify,
        }[cfg.command]
        code = handler(cfg)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the "Note on SIGPIPE" of the ``signal`` docs: stdout goes to devnull,
        # so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
