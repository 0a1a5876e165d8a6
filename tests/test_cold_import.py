"""The library and its CLI run on numpy alone: a cold import loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "import gentropy": "import gentropy",
    "import gentropy.cli": "import gentropy.cli",
    "eval": "import gentropy.cli; gentropy.cli.main(['eval', '--entropy', 'bg', '--dist', 'uniform:4'])",
}


@pytest.mark.parametrize("code", CASES.values(), ids=CASES.keys())
def test_no_scipy_module_is_loaded(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"{code}; import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == ""
