"""Invariants of the library source, and of what the benchmark and tools
take from its package root, that no run of them would show."""

import ast
from pathlib import Path

import horizonddp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "horizonddp"

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


def _root_names(tree):
    """Names an AST takes from the package root: ``from horizonddp import
    <name>``, and ``<alias>.<name>`` anywhere in the file once it binds
    ``<alias>`` to the root by ``import horizonddp[.<sub>] [as <alias>]``."""
    aliases = {alias.asname or "horizonddp"
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if alias.name == "horizonddp" or (
                   alias.name.startswith("horizonddp.") and not alias.asname)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "horizonddp"):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield node.attr


def test_harness_takes_only_exported_names_from_the_root():
    # the benchmark, the fingerprint and the acceptance contract import
    # from the package root only what it exports (or a submodule), so
    # trimming the root cannot break them unseen
    sources = (sorted((ROOT / "perfbench").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    taken = {(path.name, name) for path in sources
             for name in _root_names(ast.parse(path.read_text()))}
    assert {"run.py", "fingerprint.py", "test_acceptance.py"} <= {
        file for file, _ in taken}
    found = {(file, name) for file, name in taken
             if name not in horizonddp.__all__
             and not (PACKAGE / f"{name}.py").exists()
             and not (name.startswith("__") and name.endswith("__"))}
    assert found == set()
