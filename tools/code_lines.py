"""Print the code lines of each module of a package, and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring; a docstring is any statement that is a bare string literal.

Usage: python3 tools/code_lines.py [DIRECTORY]   (default: src/misti)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source):
    """The number of code lines of the Python source text."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip():
            skipped.add(token.start[0])
    lines = source.splitlines()
    return sum(1 for number, line in enumerate(lines, start=1) if line.strip() and number not in skipped)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "misti")
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(sys.argv)
