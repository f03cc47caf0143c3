"""Cold start: importing the CLI and the check suite loads only the modules a
normal run uses.  A module that only an error branch needs is imported
inside that branch (see the README, "Command line")."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# stdlib modules that no run needs at import time; `dataclasses` alone
# brings in inspect, ast, dis, tokenize and linecache
OFF_THE_IMPORT_PATH = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                       "linecache", "traceback", "typing")

_PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
import qlg2.cli, qlg2.checks
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


def test_cli_and_checks_import_no_error_only_module():
    # -S: no site, so no .pth file or sitecustomize can load these first
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROGRAM, str(SRC), *OFF_THE_IMPORT_PATH],
        capture_output=True, text=True, timeout=120, check=True)
    loaded = proc.stdout.split()
    assert not loaded, f"importing qlg2.cli and qlg2.checks loads {loaded}"
