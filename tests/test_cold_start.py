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

# argv[1] is a path put first on sys.path, and the rest module names; the
# program prints the names that are loaded once the import line has run
_PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
{imports}
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


def _loaded(imports):
    # -S: no site, so no .pth file or sitecustomize can load these first
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROGRAM.format(imports=imports), str(SRC),
         *OFF_THE_IMPORT_PATH],
        capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_cli_and_checks_import_no_error_only_module():
    # a module the bare interpreter holds before any import is not loaded
    # by qlg2: CPython 3.13 loads linecache at start-up, 3.10 to 3.12 none
    bare = _loaded("")
    if sys.version_info < (3, 13):
        assert not bare
    loaded = [m for m in _loaded("import qlg2.cli, qlg2.checks") if m not in bare]
    assert not loaded, f"importing qlg2.cli and qlg2.checks loads {loaded}"
