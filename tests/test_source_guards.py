"""Invariants of the library source that no run of it would show."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "horizonddp"

# the library runs in its caller's thread: a signal handler, thread or
# process of its own could race the caller's (a benchmark's timer, say)
_CONCURRENCY = {"signal", "threading", "multiprocessing", "subprocess",
                "concurrent"}


def _imported(tree):
    """Top-level names of the absolute modules an AST imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_no_concurrency_module():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = {(path.name, name) for path in sources
             for name in _imported(ast.parse(path.read_text()))
             if name in _CONCURRENCY}
    assert found == set()


def test_only_trajectory_reads_the_simulation_mark():
    # which model object simulated a trajectory is tested in one place,
    # Trajectory._simulated_under, which assert_consistent and tail share
    found = {path.name for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr == "_simulated_by"}
    assert found <= {"trajectory.py"}
