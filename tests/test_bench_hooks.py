"""The functions the benchmark traces exist, so deleting one fails here.

``bench/run.py`` resolves every ``TRACE_TARGETS`` entry by name when it
traces a workload; its table is read with ``ast``, without running the bench.
"""

import ast
import importlib
from pathlib import Path

import misti

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


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
