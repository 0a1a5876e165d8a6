"""Per-layer sweep of the exact group-law engine.

Times ``TruncatedSeries.revert``, ``group_law_from_exponential``,
``check_axioms`` and ``formal_inverse`` at total degree N = 12, 24, 32 and 48
for four group exponentials, in-process, and prints one JSON object: the
median milliseconds of 7 calls per layer, spec and order (3 for
``check_axioms``), with the git sha of the checkout timed and the machine
(nproc, Python and numpy versions).  ``check_axioms_perturbed`` times
``check_axioms`` on the law's table plus -3/7 x^2 y^2, a symmetric term that
is no cocycle, so that associativity fails at total degree 4.

    python3 tools/exact_layers.py                      # this checkout
    python3 tools/exact_layers.py --root ../other      # another checkout's src/

The last two are ``--series`` literals that bring a new prime in at each
degree, so the divided-power scale D is their product (1155, and 111546435
for the primes 3 to 23) rather than one small prime: the integers of the
exact kernel grow as D^(k-1).  Each layer's input is built once, outside its
clock.
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

ORDERS = (12, 24, 32, 48)
REPEATS = 7
SPECS = {
    "s_iii 4/5": lambda g, n: g.SThird(Fraction(4, 5)).exp_series(n),
    "s_alpha_beta_q (3/4, 3/16, 7/8)":
        lambda g, n: g.SAlphaBetaQ(Fraction(3, 4), Fraction(3, 16), Fraction(7, 8)).exp_series(n),
    "series 1, 1/3, 1/5, 1/7, 1/11": lambda g, n: g.normalized_from_literal("1, 1/3, 1/5, 1/7, 1/11", n),
    "series 1, 1/3, 1/5, ..., 1/23":
        lambda g, n: g.normalized_from_literal("1, 1/3, 1/5, 1/7, 1/11, 1/13, 1/17, 1/19, 1/23", n),
}


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 3)


def sweep() -> dict:
    import gentropy as g

    out = {}
    for name, build in SPECS.items():
        rows = out[name] = {}
        for n in ORDERS:
            G = build(g, n)
            law = g.group_law_from_exponential(G)
            table = law.c_table()
            table[(2, 2)] = table.get((2, 2), 0) + Fraction(-3, 7)
            perturbed = g.law_from_table(table, n)
            rows[str(n)] = {
                "revert": median_ms(G.revert, REPEATS),
                "group_law_from_exponential": median_ms(lambda: g.group_law_from_exponential(G), REPEATS),
                "check_axioms": median_ms(lambda: g.check_axioms(law.phi), REPEATS // 2),
                "check_axioms_perturbed": median_ms(lambda: g.check_axioms(perturbed), REPEATS // 2),
                "formal_inverse": median_ms(lambda: g.formal_inverse(law), REPEATS),
            }
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
