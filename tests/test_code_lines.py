"""tools/code_lines.py, the package's code-line count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_counted():
    source = '''"""Module docstring
over two lines."""

# a comment
import math  # a trailing comment counts as its line


class Box:
    """Class docstring."""

    def area(self):
        """Function
        docstring."""
        # another comment

        return math.pi
'''
    # import, class, def, return
    assert code_lines.code_lines(source) == 4


def test_each_line_of_a_statement_counts():
    source = 'total = (\n    1\n    + 2\n)\ntext = """not a\ndocstring"""\n'
    assert code_lines.code_lines(source) == 6


def _run(package):
    return subprocess.run([sys.executable, str(TOOL), str(package)],
                          capture_output=True, text=True)


def test_exits_0_on_the_package_and_1_on_a_directory_without_modules(tmp_path):
    done = _run(ROOT / "src" / "rankcp")
    assert done.returncode == 0
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
    assert "evaluate" in {module for _, module in rows}
    (tmp_path / "notes.txt").write_text("no modules here\n")
    done = _run(tmp_path)
    assert done.returncode == 1
    assert done.stderr == f"no Python modules in {tmp_path}\n"
