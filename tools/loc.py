"""Code lines of each module of a source tree's ``horizonddp`` package.

Usage: python3 tools/loc.py [<tree> [<other-tree>]]

Counts the lines of every ``<tree>/src/horizonddp/*.py`` (the tree
defaults to the current directory) that hold code: blank lines,
comment-only lines and docstrings (the leading string of a module, class
or function) are skipped.  Prints one line per module and the total.
Given a second tree, each line holds both counts and their difference,
the second less the first; a module missing from one tree counts 0 there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token other than a comment, outside
    every docstring."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def module_counts(tree: Path) -> dict:
    """Code lines of each module of ``tree``'s package, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in (tree / "src" / "horizonddp").glob("*.py")}


def main(argv: list) -> int:
    tables = [module_counts(Path(tree)) for tree in argv[1:3] or ["."]]
    names = sorted(set().union(*tables))
    rows = [(name, [t.get(name, 0) for t in tables]) for name in names]
    rows.append(("total", [sum(t.values()) for t in tables]))
    for name, counts in rows:
        cells = [f"{c:6d}" for c in counts]
        if len(counts) == 2:
            cells.append(f"{counts[1] - counts[0]:+6d}")
        print("  ".join(cells + [name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
