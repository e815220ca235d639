"""List the `raise` statements in src/daqflow that the test suite never executes.

Not a test module (pytest collects only test_*.py): run it from the root of a
checkout, with any extra pytest arguments after it,

    python tests/raise_sites.py [-k expr ...]

It runs the suite in process under `sys.settrace`, records each executed
line of a `raise` statement in the package, and prints the unreached ones as
file:line with the total count.  Lines run only in worker processes (sweeps
with --jobs > 1) are not seen.  Pass --hypothesis-seed=0 for a verdict that
does not depend on which inputs the property tests happen to draw.  The exit code is pytest's when the suite
fails, and 1 when it passes but leaves a raise unreached.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daqflow"


def raise_lines() -> dict[str, set[int]]:
    """{file name: line numbers of its raise statements} for the package."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites[str(path)] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return sites


def main(argv: list[str]) -> int:
    import pytest

    sites = raise_lines()
    reached: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        lines = sites.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = sum(map(len, sites.values()))
    unreached = [
        f"{Path(name).relative_to(ROOT)}:{line}"
        for name, lines in sites.items()
        for line in sorted(lines)
        if (name, line) not in reached
    ]
    print("\n".join(unreached))
    print(f"{len(unreached)} of {total} raise statements never executed")
    return int(code) or int(bool(unreached))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
