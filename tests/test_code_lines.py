"""ci/code_lines.py, the code-line count that simplicity changes report."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location("code_lines", ROOT / "ci" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    x = [
        1,
    ]

    def f(self):
        """Function docstring,

        over three lines.
        """
        "a string that is not first is code"
        return os.sep
'''


def test_blanks_comments_and_docstrings_do_not_count(tmp_path):
    # import, class, the three lines of x, def, the late string, return
    (tmp_path / "m.py").write_text(SAMPLE)
    assert code_lines.code_lines(tmp_path / "m.py") == 8


def test_a_directory_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["8", str(tmp_path / "a.py"), "1", str(tmp_path / "b.py"), "9", "total"]
