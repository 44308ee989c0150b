"""Each subpackage imports cleanly when it is the first one loaded.

coverage.bottleneck imports concolic.symexpr, and the concolic package
imports drive, which imports coverage.covmap.  That works only while
each side imports the other's submodules, not its package names.  A
fresh interpreter per subpackage keeps a cycle from hiding behind the
import order of the test session.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "module", ["sctest.coverage", "sctest.concolic", "sctest.fuzzing", "sctest.evm"]
)
def test_subpackage_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
