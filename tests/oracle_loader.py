"""``benchmark/oracles.py``, loaded from its file for the tests that compare with it.

Its exact references compute apart from gentropy: Lagrange inversion, Horner
composition and products of coefficient lists, and the power table of F.  The
module is loaded the way ``tests/test_spans.py`` loads ``spans.py``; nothing in
``benchmark/`` changes.
"""

import importlib.util
from pathlib import Path

ORACLES = Path(__file__).resolve().parents[1] / "benchmark" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("benchmark_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


o = load_oracles()
