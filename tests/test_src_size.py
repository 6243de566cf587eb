"""The source size counter (``tools/src_size.py``) and its definition of a code line."""

import importlib.util
import os
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "src_size.py"
)

#: Eight code lines: the docstrings of the module, the class and both
#: functions, the comments and the blank lines do not count, and a string
#: that is not the first statement of its scope counts line by line.
KNOWN = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Shape:
    """One line."""

    # A comment alone.
    def area(self):
        """A docstring
        over three
        lines."""
        return math.pi


def text():
    x = 1
    return """not a
docstring"""
'''


@pytest.fixture(scope="module")
def src_size():
    spec = importlib.util.spec_from_file_location("_src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_code_lines_and_nodes_of_a_known_file(src_size, tmp_path, capsys):
    path = tmp_path / "known.py"
    path.write_text(KNOWN, encoding="utf-8")
    lines, code, nodes = src_size.measure(KNOWN)
    assert (lines, code) == (21, 8)
    assert nodes == 26
    assert src_size.main([str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["known.py", "21", "8", "26"]
    assert rows[2].split() == ["total", "21", "8", "26"]
