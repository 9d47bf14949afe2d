"""``tools/loc.py``: code lines per module of one tree, or of two side by
side with their difference."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)


def _tree(root: Path, modules: dict) -> Path:
    package = root / "src" / "horizonddp"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source)
    return root


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '"""Module."""\n\n# note\ndef f():\n    """Doc."""\n    return 1\n'
    assert loc.code_lines(source) == 2


def test_one_tree_and_two_trees(tmp_path, capsys):
    before = _tree(tmp_path / "a", {"x.py": "a = 1\nb = 2\n",
                                    "gone.py": "c = 3\n"})
    after = _tree(tmp_path / "b", {"x.py": "a = 1\n", "new.py": "d = 4\n"})
    assert loc.main(["loc.py", str(before)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  gone.py", "     2  x.py", "     3  total"]
    assert loc.main(["loc.py", str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1       0      -1  gone.py",
        "     0       1      +1  new.py",
        "     2       1      -1  x.py",
        "     3       2      -1  total"]
