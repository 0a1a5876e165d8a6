"""Cold imports: the library and its CLI load no scipy, and the exact half executes no numpy."""

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

# `import gentropy` and the exact subcommands; numpy's module may be bound, but it is never executed
EXACT_CASES = {
    "import gentropy": "import gentropy",
    "group-law": "import gentropy.cli; gentropy.cli.main(['group-law', '--entropy', 'tsallis', '--q', '1/2', "
                 "'--order', '8'])",
    "expand": "import gentropy.cli; gentropy.cli.main(['expand', '--entropy', 's_iii', '--q', '4/5', '--count', '8'])",
    "catalog": "import gentropy.cli; gentropy.cli.main(['catalog'])",
}


def output(code: str) -> list[str]:
    """The lines that ``code`` prints in a fresh interpreter importing gentropy from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("code", CASES.values(), ids=CASES.keys())
def test_no_scipy_module_is_loaded(code):
    probe = f"{code}; import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert output(probe)[-1] == ""


@pytest.mark.parametrize("code", EXACT_CASES.values(), ids=EXACT_CASES.keys())
def test_numpy_is_not_executed(code):
    assert output(f"{code}; import sys; print('numpy._core' in sys.modules)")[-1] == "False"


@pytest.mark.parametrize("code", list(EXACT_CASES.values())[1:], ids=list(EXACT_CASES)[1:])
def test_exact_subcommands_load_neither_thermo_nor_axioms(code):
    probe = f"{code}; import sys; print('gentropy.thermo' in sys.modules, 'gentropy.axioms' in sys.modules)"
    assert output(probe)[-1] == "False False"


def test_import_gentropy_loads_no_float_module():
    probe = "import gentropy, sys; print(*sorted(m for m in sys.modules if m.startswith('gentropy.')))"
    assert output(probe)[-1].split() == ["gentropy._lazy", "gentropy.catalog", "gentropy.series"]


# The float subcommands, each run on an energy file of levels 0..3 where it reads one
ENERGIES = "open('levels.txt', 'w').write('0\\n1\\n2\\n3\\n'); "
FLOAT_CASES = {
    "eval": CASES["eval"],
    "maxent": f"{ENERGIES}import gentropy.cli; gentropy.cli.main(['maxent', '--entropy', 'tsallis', '--q', '1/2', "
              "'--beta', '1', '--energies', 'levels.txt'])",
    "occupation": "import gentropy.cli; gentropy.cli.main(['occupation', '--entropy', 'kaniadakis', "
                  "'--kappa', '1/3', '--nmax', '20'])",
    "check": "import gentropy.cli; gentropy.cli.main(['check', '--entropy', 'tsallis', '--q', '1/2', "
             "'--axiom', 'all'])",
    "scan": "import gentropy.cli; gentropy.cli.main(['scan', '--spec', 'tsallis:q=1/2'])",
}


@pytest.mark.parametrize("code", FLOAT_CASES.values(), ids=FLOAT_CASES.keys())
def test_float_subcommands_load_neither_groups_nor_dataclasses(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    probe = f"{code}; import sys; print('gentropy.groups' in sys.modules, 'dataclasses' in sys.modules)"
    assert output(probe)[-1] == "False False"


def test_group_law_loads_no_dataclasses():
    probe = f"{EXACT_CASES['group-law']}; import sys; print('dataclasses' in sys.modules)"
    assert output(probe)[-1] == "False"


def test_eval_executes_numpy_and_prints_its_value():
    probe = f"{CASES['eval']}; import sys; print('numpy._core' in sys.modules)"
    assert output(probe) == ["1.3862943611198906e+00", "True"]
