"""Print the size of each Python module of the package: lines, code lines and AST nodes.

A code line is a line that is not blank, not a comment alone and not part
of a docstring (the leading string literal of a module, class or function).
The node count is the number of nodes ``ast.walk`` visits in the parsed
module.  Stdlib only::

    python tools/src_size.py            # every module of src/subortrim, and the total
    python tools/src_size.py PATH ...   # the given files, or the modules of the given directories
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subortrim"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def measure(text: str) -> tuple[int, int, int]:
    """``(lines, code lines, ast.walk nodes)`` of one module's source."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code, sum(1 for _ in ast.walk(tree))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [_PACKAGE]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    totals = [0, 0, 0]
    print(f"{'module':<24}{'lines':>8}{'code':>8}{'nodes':>8}")
    for f in files:
        sizes = measure(f.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, sizes)]
        print(f"{f.name:<24}" + "".join(f"{v:>8}" for v in sizes))
    print(f"{'total':<24}" + "".join(f"{v:>8}" for v in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
