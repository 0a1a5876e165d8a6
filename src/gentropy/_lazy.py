"""numpy, bound at import and executed on first use.

The exact half of gentropy (series, groups, the exact side of catalog) never
touches numpy; every module that does imports ``np`` from here, so that
``import gentropy`` and the exact CLI subcommands do not pay for numpy.
"""

import importlib.util
import sys


def lazy_numpy():
    """The numpy module: the loaded one if there is one, else one that executes on first attribute use.

    ``importlib.util.LazyLoader`` takes no lock before Python 3.12, so a first
    use of numpy from two threads at the same moment is unsupported there.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = lazy_numpy()
