"""List the raise and return statements of ``src/misti`` that a test run never executes.

Runs pytest in this interpreter under ``sys.settrace`` (no ``coverage``
package is needed) and prints each statement that no traced line reached, as
``module.py:line``.  Only this interpreter is traced: a path that the tests
reach only in a child process, such as the exit-141 branch of ``cli.main``
that a test reaches through ``python -m misti.cli``, is listed too.

Usage: python3 tools/uncovered.py [PYTEST ARGS...]   (default: the tier-1 suite)
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "misti"


def exits(path):
    """The line ranges of the raise and return statements of a source file."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return sorted(
        (range(n.lineno, n.end_lineno + 1) for n in nodes if isinstance(n, (ast.Raise, ast.Return))),
        key=lambda lines: lines.start,
    )


def main(argv):
    statements = {str(path): exits(path) for path in sorted(SRC.glob("*.py"))}
    seen = {name: set() for name in statements}

    def trace(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, ranges in statements.items():
        for lines in ranges:
            if seen[name].isdisjoint(lines):
                print(f"{Path(name).name}:{lines.start}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
