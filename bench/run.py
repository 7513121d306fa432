"""misti benchmark: time what a user of misti waits for, and check the outputs.

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of this checkout.
With ``--trace 0`` the workload's CLI operations run as fresh ``misti``
subprocesses (cold start counts) and its library calls in this interpreter,
and the last stdout line carries the end-to-end metrics.  With ``--trace 1``
every operation runs in this interpreter, CLI ones through
``misti.cli.main(argv)``, alternating traced and untraced passes, and the
last line carries the per-layer metrics.  One client, closed loop: each
operation starts when the previous one has finished.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
CLI_STUB = "import sys; from misti.cli import console_main; sys.argv[0] = 'misti'; console_main()"
# The keys of workloads.WORKLOADS, named here because importing that module
# loads numpy, which must wait until `import misti.cli` has been timed.
WORKLOAD_NAMES = ("verify-exact", "simulate-paths", "library-api")

# Traced functions, by the module that defines them.  ``timed`` and
# ``count`` leaves are called up to ~10^5 times per pass, too often for a
# span each.
TRACE_TARGETS = [
    ("cli", "cmd_simulate", "span"),
    ("cli", "cmd_table", "span"),
    ("cli", "cmd_verify", "span"),
    ("series", "ts_log", "span"),
    ("series", "ts_from_joint_pmf", "span"),
    ("verify", "check_mvid", "span"),
    ("verify", "check_stationarity", "span"),
    ("verify", "check_reversibility", "span"),
    ("verify", "check_markov_triple", "span"),
    ("verify", "chain_joint_pmf", "span"),
    ("ctmc", "transition_uniformized", "span"),
    ("ctmc", "stationary_bd", "span"),
    ("ctmc", "gillespie", "span"),
    ("discrete", "rm_simulate", "span"),
    ("discrete", "rm_joint_pmf", "span"),
    ("discrete", "cell_measures", "span"),
    ("discrete", "simulate_chain", "span"),
    ("discrete", "simulate_thinning", "span"),
    ("discrete", "thinning_transition_matrix", "span"),
    ("discrete", "branching_nb_transition_matrix", "span"),
    ("tables", "JointPMF.__post_init__", "span"),
    ("idlaw", "id_sample", "timed"),
    ("idlaw", "id_pmf", "count"),
    ("discrete", "thinning_conditional", "count"),
    ("discrete", "branching_step_nb", "count"),
    ("ctmc", "bd_rates", "count"),
]


LAYER_FIELDS = {
    "span": (("s", "s"), ("self_s", "s"), ("calls", "count")),
    "timed": (("s", "s"), ("calls", "count")),
    "count": (("calls", "count"),),
}


def layer_metric_names():
    """(layer, field, unit) of every per-layer metric taken from the tracer."""
    for module, attr, kind in TRACE_TARGETS:
        for field, unit in LAYER_FIELDS[kind]:
            yield f"{module}.{attr.split('.')[0]}", field, unit


def set_environment():
    """Cap BLAS/OpenMP threads at nproc and import misti from src/, here and
    in every subprocess."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    return nproc


def run_child(argv):
    """Run ``python3 argv`` to completion: (exit code, stdout, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
        if proc.returncode not in (0, 1):
            err.seek(0)
            sys.stderr.write(err.read().decode()[-2000:])
    return proc.returncode, text, wall, usage.ru_maxrss / 1024.0


def measure_setup():
    """Median wall time of a fresh interpreter importing misti.cli (one
    untimed import first, so bytecode caches exist as after installation)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        rc, _, wall, _ = run_child(["-c", "import misti.cli"])
        if rc != 0:
            raise RuntimeError("`import misti.cli` failed in a fresh interpreter")
        if i:
            samples.append(wall)
    return samples


def run_cli_inprocess(misti_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = misti_cli.main(list(argv))
    return rc, out.getvalue()


class Pass:
    """One pass over a workload's operations, with every gate applied."""

    def __init__(self, ops, seed, runner):
        self.records = []
        self.wall_s = 0.0
        for op in ops:
            record = {"op": op.name}
            start = time.perf_counter()
            try:
                output, extra = runner(op, seed)
                elapsed = time.perf_counter() - start
                record.update(extra)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                elapsed = time.perf_counter() - start
                record.update(ok=False, note=f"crashed: {exc!r}", states=0)
                traceback.print_exc(file=sys.stderr)
            else:
                try:
                    ok, note, states = op.gate(*output)
                except Exception as exc:
                    ok, note, states = False, f"gate could not read the output: {exc!r}", 0
                record.update(ok=bool(ok), note=note, states=states)
            record["wall_s"] = record.get("wall_s", elapsed)
            self.wall_s += record["wall_s"]
            self.records.append(record)

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.records)

    def sampler_time_states(self):
        sampled = [r for r in self.records if r["states"]]
        return sum(r["wall_s"] for r in sampled), sum(r["states"] for r in sampled)


def make_runner(misti, cold):
    """Run one op: CLI ops as fresh subprocesses when ``cold``, else through
    ``misti.cli.main`` in this interpreter; library ops always here."""

    def run(op, seed):
        if not op.is_cli:
            return (op.call(misti, seeded_rng(seed)),), {}
        argv = (*op.argv, "--seed", str(seed))
        if cold:
            rc, text, wall, rss = run_child(["-c", CLI_STUB, *argv])
            return (rc, text), {"wall_s": wall, "rss_mb": rss}
        return run_cli_inprocess(misti.cli, argv), {}

    return run


def seeded_rng(seed):
    import numpy as np

    return np.random.default_rng(seed)


def environment(nproc, seed):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def run_untraced(workload_name, seed, seconds):
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    misti = None
    if any(not op.is_cli for op in workload):
        import misti  # before timing: setup_s measures the import
    runner = make_runner(misti, cold=True)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(Pass(workload, seed, runner))
    if misti is not None:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    else:
        rss = [max(r.get("rss_mb", 0.0) for r in p.records) for p in passes]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return passes, metrics, {}


def run_traced(workload_name, seed, seconds):
    start = time.perf_counter()
    import misti.cli

    import_s = time.perf_counter() - start
    import misti
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.WORKLOADS[workload_name]
    runner = make_runner(misti, cold=False)
    tracer = Tracer()
    traced, plain, layers, spans = [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        tracer.install(TRACE_TARGETS)
        try:
            traced.append(Pass(workload, seed, runner))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.spans, tracer.calls, tracer.leaf_s))
        spans.append([list(s) for s in tracer.spans])
        tracer.reset()
        plain.append(Pass(workload, seed, runner))

    metrics = {"cli.import_s": (import_s, "s")}
    for name, field, unit in layer_metric_names():
        values = [layer.get(name, {}).get(field, 0) for layer in layers]
        metrics[f"{name}.{field}"] = (statistics.median(values), unit)
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in plain
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    sampler_s, states = map(sum, zip(*(p.sampler_time_states() for p in plain)))
    metrics["samplers.steps_per_s"] = (states / sampler_s if sampler_s else 0.0, "1/s")

    spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, pass_spans in enumerate(spans):
            for name, t0, t1, parent, leaf in pass_spans:
                record = {"pass": i, "name": name, "start": t0, "end": t1, "parent": parent,
                          "leaf_s": leaf}
                fh.write(json.dumps(record) + "\n")
    detail = {"import_s": import_s, "spans_file": spans_path.name}
    return traced + plain, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "misti" / "__init__.py").is_file():
        print(f"error: no misti sources under {SRC}", file=sys.stderr)
        return 2

    nproc = set_environment()
    OUT_DIR.mkdir(exist_ok=True)
    setup_samples = measure_setup()
    if args.trace:
        passes, metrics, detail = run_traced(args.workload, args.seed, args.seconds)
    else:
        passes, metrics, detail = run_untraced(args.workload, args.seed, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_samples), "s"), **metrics}

    attempted = sum(len(p.records) for p in passes)
    failed = sum(p.failed for p in passes)
    sampler_s, states = map(sum, zip(*(p.sampler_time_states() for p in passes)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        environment=environment(nproc, args.seed),
        setup_samples_s=setup_samples,
        ops_failed_frac=failed / attempted,
        sim_steps_per_s=states / sampler_s if states else None,
        passes=[{"wall_s": p.wall_s, "ops": p.records} for p in passes],
        result=result,
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for p in passes:
        for r in p.records:
            if not r["ok"]:
                print(f"FAILED {r['op']}: {r['note']}", file=sys.stderr)
    summary = ("workload", "trace", "environment", "ops_failed_frac", "sim_steps_per_s")
    print(json.dumps({key: detail[key] for key in summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
