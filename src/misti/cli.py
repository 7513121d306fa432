"""Command-line front door: simulate, tabulate, verify, classify.

Commands are deterministic given (config, seed).  Trajectories and tables
stream as CSV, verification reports as JSON lines.  Exit codes: 0 success,
1 a verification check landed on the wrong side of its expected polarity,
2 configuration error, 141 (128 + SIGPIPE) when the reader of stdout closes
it early, as ``misti simulate ... | head`` does; that exit prints nothing.

Each setting is declared once, as a ``RunConfig`` field that states how its
value parses, the commands that read it, its help, and its choices or that
it is required.  Each subcommand's flags, the parsing of ``--config`` files
and the checks of the merged settings all come from those fields.

A process's settings are the fields of its spec class and those of its
time axis: ``simulate`` builds the spec from the settings its fields name,
and fills a ``law`` field with the law class that ``--law`` names, built
from its own fields alike; ``classify`` reports the fields of the spec it
finds.  A setting that the command (for ``simulate``, ``--process`` with
its ``--law``) does not read is refused: as a flag, since that subcommand
does not define it, and from a config file whenever it differs from its
default, so a file written by ``--dump-config`` reads back; a file whose
``command`` is another command is refused too.  ``--seed``, ``--out`` and
``--format`` are on every command.  Every output opens its stream in
``_output``, and every CSV is written by ``_write_rows``.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .verify import chain_joint_pmf, check_coincidence, check_markov_triple, check_mvid

# the settings of a time axis: ticks from t0, or an event path from x0 up to
# a horizon; explicit --times replace the ticks
TICKS, EVENTS = ("steps", "t0"), ("x0", "horizon")
# process -> (spec class, the settings of its time axis); the settings that
# build the spec are its fields
PROCESSES = {
    "thinning": (Thinning, TICKS),
    "random-measure": (RandomMeasure, (*TICKS, "times")),
    "branching-poisson": (BranchingPoisson, TICKS),
    "branching-nb": (BranchingNB, TICKS),
    "iid": (IID, TICKS),
    "constant": (Constant, TICKS),
    "ct-poisson-bd": (PoissonBD, EVENTS),
    "ct-nb-bd": (NBBD, EVENTS),
}
FAMILIES = {cls: name for name, (cls, _) in PROCESSES.items()}
# --law -> the law class of a spec's ``law`` field, built from its own fields
LAWS = {"poisson": Poisson, "nb": NegBinomial}


def _mvid(degree, table):
    return check_mvid(table, degree)


def _markov(degree, table):
    return check_markov_triple(table)


def _coincide(degree, a, b):
    return check_coincidence(a, b)


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
# command -> its help
COMMANDS = {
    "simulate": "simulate one trajectory",
    "table": "discriminating-probability table over a parameter grid",
    "verify": "run a named check suite with expected polarities",
    "classify": "identify the family from (r0, r1, r2, theta1)",
}
# the commands that read a setting
SIM, VERIFY, ALL = ("simulate",), ("verify",), tuple(COMMANDS)


def _expecting(what, convert):
    """The parser of a setting's value: ``convert``, whose refusal of a value
    says what was expected."""

    def parse(raw):
        try:
            return convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {raw!r}") from None

    return parse


_int, _float = _expecting("an integer", int), _expecting("a number", float)
_integers = _expecting("comma-separated integers", lambda raw: tuple(int(v) for v in raw.split(",")))
_numbers = _expecting("comma-separated numbers", lambda raw: tuple(float(v) for v in raw.split(",")))


def _setting(parse, commands, help=None, default=None, choices=None, required=False):
    """A ``RunConfig`` field that is a CLI setting: how a flag or config value
    parses, the commands that read it, its help, its choices, and whether
    those commands need it (from a flag or from a config file)."""
    if required:
        help = f"{help} (required)"
    return dataclasses.field(
        default=default,
        metadata={"parse": parse, "commands": commands, "help": help, "choices": choices, "required": required},
    )


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one command; dumps to / parses from `key = value` lines.
    Every field but ``command`` is the one declaration of a setting."""

    command: str
    process: str | None = _setting(str, SIM, "process to simulate", choices=tuple(PROCESSES), required=True)
    law: str | None = _setting(str, SIM, "marginal family for thinning/random-measure/iid/constant", choices=tuple(LAWS))
    theta: float | None = _setting(_float, ("simulate", "verify"))
    alpha: float | None = _setting(_float, SIM)
    p: float | None = _setting(_float, ("simulate", "verify"))
    rho: float | None = _setting(_float, ("simulate", "verify"))
    lam: float | None = _setting(_float, SIM, "continuous-time rate scale")
    steps: int | None = _setting(_int, SIM, "number of discrete ticks")
    t0: int = _setting(_int, SIM, "first time index (default 0)", default=0)
    x0: int | None = _setting(_int, SIM, "continuous-time initial state (default: stationary draw)")
    horizon: float | None = _setting(_float, SIM, "continuous-time horizon")
    times: tuple | None = _setting(_integers, SIM, "explicit comma-separated times (random-measure)")
    k: int = _setting(_int, VERIFY, "lattice bound for exact tables (default 12)", default=12)
    degree: int = _setting(_int, VERIFY, "total-degree bound for log-pgf scans (default 8)", default=8)
    seed: int = _setting(_int, ALL, "RNG seed (default 0)", default=0)
    out: str = _setting(str, ALL, "output path, '-' for stdout (default)", default="-")
    format: str | None = _setting(str, ALL, "output format", choices=FORMATS)
    suite: str | None = _setting(str, VERIFY, "check suite to run", choices=tuple(SUITES), required=True)
    theta_grid: tuple | None = _setting(_numbers, ("table",))
    p_grid: tuple | None = _setting(_numbers, ("table",))
    rho_grid: tuple | None = _setting(_numbers, ("table",))
    r0: float | None = _setting(_float, ("classify",), "probability of no offspring", required=True)
    r1: float | None = _setting(_float, ("classify",), "probability of one offspring", required=True)
    r2: float | None = _setting(_float, ("classify",), "probability of two offspring", required=True)
    theta1: float | None = _setting(_float, ("classify",), "unit jump mass of the marginal", required=True)

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


FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
SETTINGS = [f for name, f in FIELDS.items() if name != "command"]


# rows per CSV template: at 2^14 a chunk's Python floats and strings reuse
# memory the sampler freed (writing a 161k-row ct-nb-bd path raised the peak
# RSS by 6.7 MB at 2^16 rows, and not at all at 2^14)
_ROW_CHUNK = 1 << 14


def _fmt(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


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
        if key not in FIELDS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        try:
            out[key] = FIELDS[key].metadata.get("parse", str)(raw)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="misti",
        description="Simulate, tabulate, and verify stationary reversible integer processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help in COMMANDS.items():
        # no abbreviations: ``table --theta`` must not be read as --theta-grid
        sp = sub.add_parser(command, help=help, allow_abbrev=False)
        sp.add_argument("--config", help="key = value config file; flags override it")
        sp.add_argument("--dump-config", help="write the resolved config to this path")
        for f in SETTINGS:
            meta = f.metadata
            if command in meta["commands"]:
                sp.add_argument(_flag(f.name), dest=f.name, type=meta["parse"], choices=meta["choices"], help=meta["help"])
    return parser


def resolve_config(args):
    """Merge config-file values under explicit CLI flags into a RunConfig.

    Required, choice-valued and unread settings are checked on the merged
    result, so either source may supply them.
    """
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            merged.update(parse_config_lines(fh.read()))
    for f in SETTINGS:
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    if merged.setdefault("command", args.command) != args.command:
        raise ValueError(f"config is for {merged['command']}, not {args.command}")
    cfg = RunConfig(**merged)
    for f in SETTINGS:
        value, choices = getattr(cfg, f.name), f.metadata["choices"]
        if f.metadata["required"] and cfg.command in f.metadata["commands"]:
            _require(cfg, f.name)
        if value is not None and choices and value not in choices:
            raise ValueError(f"{_flag(f.name)} must be one of {', '.join(choices)}; got {value!r}")
    _refuse_unread(cfg)
    return cfg


def _output(cfg):
    """The stream of ``--out``: stdout, left open, or the file, closed on exit."""
    if cfg.out == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(cfg.out, "w", encoding="utf-8", newline="\n")


def _write_rows(cfg, header, columns, default_format="csv"):
    """Write the rows whose columns are given, one homogeneous sequence (ints,
    floats or strings) per header name, ``_ROW_CHUNK`` rows at a time.  A CSV
    chunk is one ``%`` template over its flattened rows, ``%.17g`` for float
    columns and ``%s`` otherwise: the bytes of ``_fmt`` cells."""
    fmt = cfg.format or default_format
    columns = [np.asarray(column) for column in columns]
    row = ",".join("%.17g" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    with _output(cfg) as stream:
        if fmt == "csv":
            stream.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROW_CHUNK):
            chunk = [column[start : start + _ROW_CHUNK].tolist() for column in columns]
            if fmt == "csv":
                stream.write(row * len(chunk[0]) % tuple(itertools.chain.from_iterable(zip(*chunk))))
            else:
                lines = (json.dumps(dict(zip(header, values))) for values in zip(*chunk))
                stream.write("\n".join(lines) + "\n")


def _flag(name):
    return "--" + {"lam": "lambda"}.get(name, name).replace("_", "-")


def _require(cfg, name):
    """The value of a setting, refused when it is missing."""
    value = getattr(cfg, name)
    if value is None:
        raise ValueError(f"{_flag(name)} is required for this invocation")
    return value


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _build(cfg, cls):
    """The spec or law class ``cls`` built from the settings its fields name;
    a ``law`` field holds the law class that ``--law`` names, built alike."""
    values = {name: _require(cfg, name) for name in _names(cls)}
    if "law" in values:
        values["law"] = _build(cfg, LAWS[cfg.law])
    return cls(**values)


def _refuse_unread(cfg):
    """Reject every setting that differs from its default but that the command
    does not read, or, in ``simulate``, that ``--process`` (with its
    ``--law``, or with every law when none is given) does not read."""
    unread = {f.name: cfg.command for f in SETTINGS if cfg.command not in f.metadata["commands"]}
    if cfg.command == "simulate":
        cls, axis = PROCESSES[cfg.process]
        if cfg.times is not None and "times" in axis:
            axis = ("times",)
        read = {"process", *_names(cls), *axis}
        if "law" in read:
            read.update(*map(_names, [LAWS[cfg.law]] if cfg.law else LAWS.values()))
        for f in SETTINGS:
            if f.name not in read and f.metadata["commands"] != ALL:
                unread.setdefault(f.name, f"--process {cfg.process}")
    for f in SETTINGS:
        if f.name in unread and getattr(cfg, f.name) != f.default:
            raise ValueError(f"{_flag(f.name)} does not apply to {unread[f.name]}")


def cmd_simulate(cfg):
    cls, axis = PROCESSES[cfg.process]
    spec = _build(cfg, cls)
    rng = np.random.default_rng(cfg.seed)
    if axis == EVENTS:
        horizon = _require(cfg, "horizon")
        x0 = cfg.x0 if cfg.x0 is not None else spec.stationary_draw(rng)
        path = gillespie(spec, x0, horizon, rng)
        _write_rows(cfg, ("time", "state"), (path.times, path.states))
        return 0
    if cfg.times is not None:  # only the random measure reads --times
        columns = (cfg.times, rm_simulate(spec.law, spec.theta, spec.rho, cfg.times, rng))
    else:
        if _require(cfg, "steps") < 1:
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
    """One row per check of the suite: a CSV row of ``_write_rows``, or the
    report's JSON object with its label, polarity and match."""
    rows = [(label, report, expected, report.passed == expected) for label, report, expected in _suite_checks(cfg)]
    if cfg.format == "csv":
        header = ("name", "violation", "witness", "tolerance", "pass", "expected_pass", "matched")
        cells = [
            (label, r.violation, ";".join(map(str, r.witness or ())), r.tolerance, r.passed, expected, matched)
            for label, r, expected, matched in rows
        ]
        _write_rows(cfg, header, tuple(zip(*cells)))
    else:
        with _output(cfg) as stream:
            for label, report, expected, matched in rows:
                stream.write(report.to_json(name=label, expected_pass=expected, matched=matched) + "\n")
    return 0 if all(matched for *_, matched in rows) else 1


def cmd_classify(cfg):
    spec = misti_classify(cfg.r0, cfg.r1, cfg.r2, cfg.theta1)
    names = _names(type(spec))
    # a degenerate family's law is the canonical Poisson of mean theta1
    fields = {"theta1": spec.theta} if "law" in names else {name: getattr(spec, name) for name in names}
    columns = [[value] for value in (FAMILIES[type(spec)], *fields.values())]
    _write_rows(cfg, ("family", *fields), columns, default_format="jsonl")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a flag of another command's setting is one this command does not read
        for flag in (token.partition("=")[0] for token in extra):
            if flag in {_flag(f.name) for f in SETTINGS}:
                raise ValueError(f"{flag} does not apply to {args.command}")
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        cfg = resolve_config(args)
        if args.dump_config:
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
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
