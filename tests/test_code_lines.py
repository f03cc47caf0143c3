"""tools/code_lines.py, the line count of CI's code-lines table: every line
that holds a token other than a comment, without blank lines and without
the lines of module, class and function docstrings; a token over several
lines counts on each."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# the counted lines end in "# counted", the two lines of TEXT included
SOURCE = '''"""Module docstring,
over two lines."""

import os  # counted
TEXT = """a string token  # counted
over two lines"""  # counted


# a comment line
@staticmethod  # counted
def f(x):  # counted
    """Function docstring."""
    "a string statement that is not first"  # counted
    return os.path.join(  # counted
        x,  # counted
        "y",  # counted
    )  # counted


class C:  # counted
    """Class docstring,

    with a blank line inside."""

    def m(self):  # counted
        return 1  # counted
'''


def test_counts_code_lines_only():
    counted = sum(line.endswith("# counted") for line in SOURCE.splitlines())
    assert counted == 13
    assert code_lines(SOURCE) == counted


def test_reads_the_source_from_stdin():
    out = subprocess.run([sys.executable, str(TOOL)], input=SOURCE,
                         capture_output=True, text=True, check=True).stdout
    assert out == "13\n"
