"""The traced benchmark run wraps gentropy names from outside; each must resolve.

A renamed function or method that ``benchmark/spans.py`` still names would
break ``benchmark/run.py --trace 1``; this test fails first.  It reads
``benchmark/`` and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

from gentropy import axioms, cli, thermo  # noqa: F401  (with their imports, every module the spans wrap)

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """A copy of every gentropy module's and module-defined class's namespace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "gentropy" or name.startswith("gentropy."):
            out[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_traced_names_resolve_and_are_restored():
    spans = load_spans()
    before = namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for modname, path in spans.TARGETS.values():
            *outer, attr = path.split(".")
            key = ".".join([modname, *outer])
            owner = sys.modules[modname]
            for part in outer:
                owner = getattr(owner, part)
            assert owner.__dict__[attr].__wrapped__ is before[key][attr], path
    finally:
        tracer.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert [n for n, v in names.items() if after[key].get(n) is not v] == [], key
