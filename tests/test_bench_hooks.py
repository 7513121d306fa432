"""The benchmark's hooks into the program hold, so a change that breaks one
fails here.

``bench/run.py`` resolves every ``TRACE_TARGETS`` entry by name when it
traces a workload; its table is read with ``ast``.  Every workload's output
gates pass on one warm pass of its operations.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import misti

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN_PY = BENCH / "run.py"


@functools.cache
def _bench_module(name):
    """A module of ``bench/``, loaded from its file as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_targets():
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "TRACE_TARGETS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no TRACE_TARGETS")


def test_every_trace_target_resolves():
    targets = _trace_targets()
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(f"misti.{module}")
        if "." in attr:  # the tracer rebinds a method in its class's own namespace
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), f"misti.{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"misti.{module}.{attr}"


def test_verify_calls_the_traced_ts_log():
    # the tracer rebinds ts_log in every misti namespace that holds the same object
    assert misti.verify.ts_log is misti.series.ts_log


@pytest.mark.parametrize("name", _bench_module("run").WORKLOAD_NAMES)
def test_every_benchmark_gate_passes(name):
    # the gates the benchmark applies, on one in-process pass at its seed 11:
    # a change that moves a gated number fails here first
    run, workloads = _bench_module("run"), _bench_module("workloads")
    done = run.Pass(workloads.WORKLOADS[name], 11, run.make_runner(misti, cold=False))
    assert done.failed == 0, [f"{r['op']}: {r['note']}" for r in done.records if not r["ok"]]
