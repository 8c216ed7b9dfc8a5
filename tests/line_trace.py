"""Statements of `src/fedclust` that no test executes.

    PYTHONPATH=src python tests/line_trace.py [pytest args]

Runs the test suite (by default the pytest configuration's test paths) in
this process under `sys.settrace` and `threading.settrace`, recording the
lines run by frames whose code lives under `src/fedclust`. It then prints
each statement that no test reached as `file:line source`. Definitions,
imports, docstrings and `global`/`nonlocal` lines are left out: they run at
import or hold no code. A compound statement counts as run when its header
line is, a simple one when any of its lines is. The exit code is pytest's.

Tests that use the `benchmark` fixture are deselected, because they only
time code that other tests reach. Tests that start a subprocess (the
installed entry point, the perfbench hooks) run, but the lines their child
process executes are not traced. Only `src/fedclust` frames are traced line
by line; on a 2-vCPU machine the suite took 83 s under the tracer against
71 s without it.
pytest does not collect this script (no test_ prefix).
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fedclust"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)


def statements(path: Path) -> dict[int, range]:
    """Each traceable statement of a source file: its first line and the lines
    whose execution counts for it."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        last = node.body[0].lineno - 1 if isinstance(node, COMPOUND) else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


class DeselectBenchmarks:
    """pytest plugin: drop the tests that take the `benchmark` fixture."""

    @staticmethod
    def pytest_collection_modifyitems(config, items):
        timed = [item for item in items if "benchmark" in getattr(item, "fixturenames", ())]
        if timed:
            config.hook.pytest_deselected(items=timed)
            items[:] = [item for item in items if item not in timed]


def main(argv: list[str]) -> int:
    hit: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[DeselectBenchmarks()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        ran = hit.get(str(path), set())
        for first, span in sorted(statements(path).items()):
            if ran.isdisjoint(span):
                missed.append(f"{path.relative_to(ROOT)}:{first} {lines[first - 1].strip()}")
    print(f"\n{len(missed)} statements under {SRC.relative_to(ROOT)} ran in no test"
          " (lines run in a subprocess are not traced):")
    print("\n".join(missed))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
