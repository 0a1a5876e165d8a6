"""Per-layer sweep of the float MaxEnt and occupation-law layers.

Times ``maxent_solve`` at fixed beta = 1 and at target U = 1.5 on L = 20,
100 and 1,000 levels 5 i / (L - 1), and ``occupation_law`` at N_max = 1,000,
for four float specs, and F alone at L = 1, 20, 301 and 1,000 points
300 i / L, i = 1..L, for three specs with a numeric F (the series-defined one
at order 12, past its degree 3), in-process, and prints one JSON object: the median
milliseconds of 7 calls per layer, spec and size, with the git sha of the
checkout timed and the machine (nproc, Python and numpy versions).

    python3 tools/thermo_layers.py                      # this checkout
    python3 tools/thermo_layers.py --root ../other      # another checkout's src/

Each spec is built once, outside its clock; no call reuses an earlier solve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

LEVELS = (20, 100, 1000)
N_MAX = 1000
BETA, TARGET_U = 1.0, 1.5
REPEATS = 7
SPECS = {
    "tsallis 1/2": lambda g: g.Tsallis(Fraction(1, 2)),
    "kaniadakis 1/3": lambda g: g.Kaniadakis(Fraction(1, 3)),
    "borges_roditi (1/2, -1/3)": lambda g: g.BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
    "generic (1, 1/8, 1/10)": lambda g: g.GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
}
F_POINTS = (1, 20, 301, 1000)
F_SPECS = {
    "borges_roditi (1/2, -1/3)": SPECS["borges_roditi (1/2, -1/3)"],
    "s_iii 4/5": lambda g: g.SThird(Fraction(4, 5)),
    "generic (1, 1/8, 1/10) order 12": lambda g: g.GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], order=12),
}


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 3)


def sweep() -> dict:
    import numpy

    import gentropy as g

    out = {}
    for name, build in SPECS.items():
        spec = build(g)
        rows = out[name] = {}
        for L in LEVELS:
            levels = tuple(5 * i / (L - 1) for i in range(L))
            fixed = g.MaxEntProblem(spec, levels, beta=BETA)
            target = g.MaxEntProblem(spec, levels, target_U=TARGET_U)
            rows[f"maxent_fixed_beta L={L}"] = median_ms(lambda: g.maxent_solve(fixed), REPEATS)
            rows[f"maxent_target_u L={L}"] = median_ms(lambda: g.maxent_solve(target), REPEATS)
        rows[f"occupation_law N_max={N_MAX}"] = median_ms(lambda: g.occupation_law(spec, N_MAX), REPEATS)
    for name, build in F_SPECS.items():
        spec = build(g)
        rows = out.setdefault(name, {})
        for L in F_POINTS:
            s = numpy.arange(1, L + 1) * (300 / L)
            rows[f"F L={L}"] = median_ms(lambda: spec.F(s), REPEATS)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ is timed (default: this one)")
    root = ap.parse_args(argv).root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy

    sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
    result = {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ms": sweep(),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
