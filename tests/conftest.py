"""Puts tools/ on the import path, so that the tests reach tools/memos.py,
the one home of what a memo table is and how to empty or swap one, as
`memos`, tools/outputs.py, the frozen output set, as `outputs`, and
tools/code_lines.py, the line count, as `code_lines`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
