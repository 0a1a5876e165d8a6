"""Per-layer sweep of the exact group-law engine, the float MaxEnt and occupation-law layers, a spec's fixed cost and io.

Runs four sweeps in-process and one in new interpreters, and prints one JSON
object: the git sha of the checkout timed, the machine (nproc, Python and
numpy versions), under "ms" the median milliseconds of 7 calls per layer,
spec and size, with the exact sweep under "exact", the float one under
"thermo", the job sweep under "jobs" and the io sweep under "io", and the
import sweep under "imports".  Under "counts", each MaxEnt row
of the float sweep has the work of one of its solves: the evaluations of h
(``thermo._stationarity``, the monotonicity check, the level solves and the
residual included) and the level solves (``thermo._invert_h``).  "counts"
also has, untimed, target U near an extreme level: at 1e-6, 1e-9 and 1e-12
of the span from the lowest of the L = 20 levels.  Only the counts compare
across checkouts: two sweeps run minutes apart differ by up to 1.7 times on
rows whose code is the same.

    python3 tools/layers.py                      # this checkout
    python3 tools/layers.py --root ../other      # another checkout's src/

The exact sweep times ``TruncatedSeries.revert``, ``group_law_from_exponential``,
``check_axioms`` (3 calls) and ``formal_inverse`` at total degree N = 12, 24,
32 and 48 for four group exponentials.  ``check_axioms_perturbed`` times
``check_axioms`` on the law's table plus -3/7 x^2 y^2, a symmetric term that
is no cocycle, so that associativity fails at total degree 4; that law
differs from its rebuild G(F(y) + F(z)) in one term only.
``check_axioms_perturbed_x3y`` adds -3/7 (x^3 y + x y^3) instead, the
exact-laws workload's other perturbation: it changes the logarithm the check
rebuilds from, so the law differs from the rebuild in many terms, of which
the check turns only the lowest into a ``Fraction``.  The last two
exponentials are ``--series`` literals that bring a new prime in at each
degree, so the divided-power scale D is their product (1155, and 111546435
for the primes 3 to 23) rather than one small prime: the integers of the
exact kernel grow as D^(k-1).  ``law_from_table_perturbed`` times building
that perturbed law from its table.  The "inputs" rows time what the
exact-laws workload does before the kernel, at the same N: building each of
its eight kinds (``abel_exponential`` and ``generic`` among them) and its
exponential series, construction inside the clock.

The float sweep times ``maxent_solve`` at fixed beta = 1 and at target
U = 1.5 on L = 20, 100 and 1,000 levels 5 i / (L - 1), and ``occupation_law``
at N_max = 1,000, for four float specs, and F alone at L = 1, 20, 301 and
1,000 points 300 i / L, i = 1..L, for three specs with a numeric F (the
series-defined one at order 12, past its degree 3).  Its "log_inverse L=20"
rows time E(y) = exp(F(y)) at y = -beta E on the 20 levels 5 i / 19 at
beta = 1, as ``maxent``'s Z sums it, for bg, tsallis 1/2 (cut off past
y = -2), tsallis 1 - 10^-12 and kaniadakis 1/3, in batches of 100 calls.

The job sweep, under "jobs", times the fixed cost of one spec of each
maxent-thermo kind: building it with its first G call, which rounds its float
tables (``spec + first G``), and ``extensivity_check`` at the workload's
N_max = 300 on a spec whose law ``occupation_law`` has built, for the kinds
whose law is admissible (a checkout that does not keep the law on the spec
solves F again there).  Its "occupation op" row times the workload's
occupation op on a new spec per call, construction inside the clock:
``occupation_law`` and then, where the law is admissible, ``extensivity_check``,
called as the workload calls them.  Under "counts", that row has the solves
of F (calls of the spec's ``_F``) of one op.  Each of these calls takes well
under 1 ms, so each of its 7 timings is the mean of a batch of 100 calls.

The io sweep times ``read_distribution_file`` on a seeded file shaped like
the cli-batch workload's: a comment header, then 10^4 lines, half
``repr(w / total)`` and half ``w/total``, three chunks of the reader.  Two
more rows read the same weights written in one form each, every line
``repr(w / total)`` ("decimal") or every line ``w/total`` ("p/q"), so that
the cost of each form shows apart.  ``read_energy_file`` rows read seeded
(Random(44)) energy files of 20 and 10^4 levels ``repr(round(x, 9))``, x
uniform on [0, 10]: the cli-batch workload's size and a long one.  It also
times ``tsv_table`` of a 300-row, 5-column occupation table, the rows of
``extensivity_check`` on kaniadakis 1/3 at N_max = 300 with W = e^ln_W, as
the CLI ``occupation`` command prints it.  All are timed in batches of 100
calls, like the job sweep.

The import sweep, under "imports", runs new interpreters.  Under "us" it has,
for the package and each of its modules, the self and cumulative microseconds
that ``python -X importtime`` reports for ``import <module>`` alone, each the
median of 5 interpreters, the modules taken in turn in each of 5 rounds.  The
row read is the one of the import that executed the module: for a module that
``gentropy/__init__.py`` imports, its own subtree; for any other, the
package's ``__init__`` is inside its cumulative time.  The sweep inherits the
environment, so whether a bytecode cache is read or written is the caller's
(``PYTHONDONTWRITEBYTECODE``).  Under "subcommands" it has the
gentropy modules that one command line per CLI subcommand (``SUBCOMMANDS``)
has loaded when ``main`` returns.

Each layer's input is built once, outside its clock, except the specs that
the ``spec + first G`` and "occupation op" rows build; no call reuses an
earlier solve but the ``extensivity_check`` row's, which reads its law.  A
spec keeps its occupation law, so each ``occupation_law`` call of the float
sweep takes a new spec, built with its first G call outside the clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

REPEATS = 7
BATCH = 100  # calls per timing in the job sweep

ORDERS = (12, 24, 32, 48)
EXACT_SPECS = {
    "s_iii 4/5": lambda g, n: g.SThird(Fraction(4, 5)).exp_series(n),
    "s_alpha_beta_q (3/4, 3/16, 7/8)":
        lambda g, n: g.SAlphaBetaQ(Fraction(3, 4), Fraction(3, 16), Fraction(7, 8)).exp_series(n),
    "series 1, 1/3, 1/5, 1/7, 1/11": lambda g, n: g.normalized_from_literal("1, 1/3, 1/5, 1/7, 1/11", n),
    "series 1, 1/3, 1/5, ..., 1/23":
        lambda g, n: g.normalized_from_literal("1, 1/3, 1/5, 1/7, 1/11, 1/13, 1/17, 1/19, 1/23", n),
}
# the exact-laws workload's kinds, spec construction included
INPUT_SPECS = {
    "tsallis 3/4": lambda g, n: g.Tsallis(Fraction(3, 4)).exp_series(n),
    "kaniadakis 2/5": lambda g, n: g.Kaniadakis(Fraction(2, 5)).exp_series(n),
    "borges_roditi (1/2, -1/3)": lambda g, n: g.BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)).exp_series(n),
    "s_iii 4/5": EXACT_SPECS["s_iii 4/5"],
    "s_iv 3/5": lambda g, n: g.SFourth(Fraction(3, 5)).exp_series(n),
    "s_alpha_beta_q (3/4, 3/16, 7/8)": EXACT_SPECS["s_alpha_beta_q (3/4, 3/16, 7/8)"],
    "abel_exponential (1/2, -1/3)": lambda g, n: g.abel_exponential(Fraction(1, 2), Fraction(-1, 3), n),
    "generic (1, 1/2, -1/3, 3/4)":
        lambda g, n: g.GenericEntropy([1, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)], order=n).exp_series(n),
}

LEVELS = (20, 100, 1000)
N_MAX = 1000
BETA, TARGET_U = 1.0, 1.5
NEAR = (1e-6, 1e-9, 1e-12)  # the counted targets' distances from the lowest level, in spans
THERMO_SPECS = {
    "tsallis 1/2": lambda g: g.Tsallis(Fraction(1, 2)),
    "kaniadakis 1/3": lambda g: g.Kaniadakis(Fraction(1, 3)),
    "borges_roditi (1/2, -1/3)": lambda g: g.BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
    "generic (1, 1/8, 1/10)": lambda g: g.GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
}
F_POINTS = (1, 20, 301, 1000)
F_SPECS = {
    "borges_roditi (1/2, -1/3)": THERMO_SPECS["borges_roditi (1/2, -1/3)"],
    "s_iii 4/5": lambda g: g.SThird(Fraction(4, 5)),
    "generic (1, 1/8, 1/10) order 12": lambda g: g.GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], order=12),
}
# log_inverse's specs: BG, a q-exponential that is cut off, one 10^-12 from BG, and one with exp of a closed F
LOG_INVERSE_SPECS = {
    "bg": lambda g: g.BoltzmannGibbs(),
    "tsallis 1/2": THERMO_SPECS["tsallis 1/2"],
    "tsallis 1 - 10^-12": lambda g: g.Tsallis(1 - Fraction(1, 10 ** 12)),
    "kaniadakis 1/3": THERMO_SPECS["kaniadakis 1/3"],
}
# one spec of each maxent-thermo kind, at parameters that workload draws
JOB_SPECS = {
    "bg": lambda g: g.BoltzmannGibbs(),
    "tsallis 3/4": lambda g: g.Tsallis(Fraction(3, 4)),
    "tsallis 5/4": lambda g: g.Tsallis(Fraction(5, 4)),
    "kaniadakis 2/5": lambda g: g.Kaniadakis(Fraction(2, 5)),
    "borges_roditi (1/2, -3/10)": lambda g: g.BorgesRoditi(Fraction(1, 2), Fraction(-3, 10)),
    "s_iii 17/20": lambda g: g.SThird(Fraction(17, 20)),
    "generic (1, 1/8, 1/10) order 12": lambda g: g.GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], order=12),
}
JOB_N_MAX = 300
DIST_LINES = 10_000
ENERGY_LINES = (20, 10_000)
IMPORT_REPEATS = 5
# one command line per CLI subcommand; "ENERGIES" stands for a file of the levels 0, 1, 2, 3
SUBCOMMANDS = {
    "eval": ["eval", "--entropy", "bg", "--dist", "uniform:4"],
    "expand": ["expand", "--entropy", "s_iii", "--q", "4/5", "--count", "8"],
    "group-law": ["group-law", "--entropy", "tsallis", "--q", "1/2", "--order", "8"],
    "check": ["check", "--entropy", "tsallis", "--q", "1/2", "--axiom", "all"],
    "maxent": ["maxent", "--entropy", "tsallis", "--q", "1/2", "--beta", "1", "--energies", "ENERGIES"],
    "occupation": ["occupation", "--entropy", "kaniadakis", "--kappa", "1/3", "--nmax", "20"],
    "scan": ["scan", "--spec", "tsallis:q=1/2"],
    "catalog": ["catalog"],
}


def median_ms(call, repeats: int, number: int = 1) -> float:
    """The median over ``repeats`` timings of the mean ms per call of ``number`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t0) / number)
    return round(1e3 * statistics.median(times), 4 if number > 1 else 3)


def exact_sweep(g) -> dict:
    out = {}
    for name, build in EXACT_SPECS.items():
        rows = out[name] = {}
        for n in ORDERS:
            G = build(g, n)
            law = g.group_law_from_exponential(G)
            table, x3y = law.c_table(), law.c_table()
            table[(2, 2)] = table.get((2, 2), 0) + Fraction(-3, 7)
            for m in ((3, 1), (1, 3)):
                x3y[m] = x3y.get(m, 0) + Fraction(-3, 7)
            perturbed, perturbed_x3y = g.law_from_table(table, n), g.law_from_table(x3y, n)
            rows[str(n)] = {
                "revert": median_ms(G.revert, REPEATS),
                "group_law_from_exponential": median_ms(lambda: g.group_law_from_exponential(G), REPEATS),
                "check_axioms": median_ms(lambda: g.check_axioms(law.phi), REPEATS // 2),
                "check_axioms_perturbed": median_ms(lambda: g.check_axioms(perturbed), REPEATS // 2),
                "check_axioms_perturbed_x3y": median_ms(lambda: g.check_axioms(perturbed_x3y), REPEATS // 2),
                "formal_inverse": median_ms(lambda: g.formal_inverse(law), REPEATS),
                "law_from_table_perturbed": median_ms(lambda: g.law_from_table(table, n), REPEATS),
            }
    out["inputs"] = {name: {str(n): median_ms(lambda: build(g, n), REPEATS) for n in ORDERS}
                     for name, build in INPUT_SPECS.items()}
    return out


def solve_counts(g, problem) -> dict:
    """The evaluations of h and the level solves of one ``maxent_solve(problem)``."""
    from gentropy import thermo

    counts = {"h": 0, "level_solves": 0}
    stationarity, invert_h = thermo._stationarity, thermo._invert_h

    def counted_h(*args):
        counts["h"] += 1
        return stationarity(*args)

    def counted_solve(*args):
        counts["level_solves"] += 1
        return invert_h(*args)

    thermo._stationarity, thermo._invert_h = counted_h, counted_solve
    try:
        g.maxent_solve(problem)
    finally:
        thermo._stationarity, thermo._invert_h = stationarity, invert_h
    return counts


def thermo_sweep(g, numpy) -> tuple[dict, dict]:
    """The float sweep's milliseconds, and the counts of its MaxEnt rows."""
    out, counts = {}, {}
    for name, build in THERMO_SPECS.items():
        spec = build(g)
        rows, row_counts = out[name], counts[name] = {}, {}
        for L in LEVELS:
            levels = tuple(5 * i / (L - 1) for i in range(L))
            problems = {f"maxent_fixed_beta L={L}": g.MaxEntProblem(spec, levels, beta=BETA),
                        f"maxent_target_u L={L}": g.MaxEntProblem(spec, levels, target_U=TARGET_U)}
            for row, problem in problems.items():
                rows[row] = median_ms(lambda: g.maxent_solve(problem), REPEATS)
                row_counts[row] = solve_counts(g, problem)
        levels = tuple(5 * i / 19 for i in range(20))
        for f in NEAR:
            row_counts[f"maxent_target_u L=20 at {f:g} of the span"] = solve_counts(
                g, g.MaxEntProblem(spec, levels, target_U=5 * f))
        # a spec keeps its law, so each call takes a new one, its float tables rounded outside the clock
        fresh = [build(g) for _ in range(REPEATS)]
        for new in fresh:
            new.G(1.0)
        rows[f"occupation_law N_max={N_MAX}"] = median_ms(lambda: g.occupation_law(fresh.pop(), N_MAX), REPEATS)
    for name, build in F_SPECS.items():
        spec = build(g)
        rows = out.setdefault(name, {})
        for L in F_POINTS:
            s = numpy.arange(1, L + 1) * (300 / L)
            rows[f"F L={L}"] = median_ms(lambda: spec.F(s), REPEATS)
    y = -numpy.array(tuple(5 * i / 19 for i in range(20)))  # -beta E on the 20 levels at beta = 1
    for name, build in LOG_INVERSE_SPECS.items():
        spec = build(g)
        out.setdefault(name, {})["log_inverse L=20"] = median_ms(lambda: spec.log_inverse(y), REPEATS, BATCH)
    return out, counts


def occupation_op(g, spec) -> None:
    """The maxent-thermo workload's occupation op on ``spec``: the law, then its extensivity rows."""
    if g.occupation_law(spec, JOB_N_MAX).valid:
        g.extensivity_check(spec, JOB_N_MAX)


def f_solves(g, spec) -> int:
    """The calls of ``spec._F`` that one ``occupation_op`` on ``spec`` makes."""
    calls, solve = [], spec._F

    def counted(s):
        calls.append(s)
        return solve(s)

    spec._F = counted
    occupation_op(g, spec)
    return len(calls)


def job_sweep(g) -> tuple[dict, dict]:
    """The job sweep's milliseconds, and the F solves of its occupation op rows."""
    out, counts = {}, {}
    for name, build in JOB_SPECS.items():
        rows = out[name] = {"spec + first G": median_ms(lambda: build(g).G(1.0), REPEATS, BATCH)}
        spec = build(g)
        if g.occupation_law(spec, JOB_N_MAX).valid:
            rows[f"extensivity_check N_max={JOB_N_MAX}"] = median_ms(
                lambda: g.extensivity_check(spec, JOB_N_MAX), REPEATS, BATCH)
        rows[f"occupation op N_max={JOB_N_MAX}"] = median_ms(lambda: occupation_op(g, build(g)), REPEATS, BATCH)
        counts[name] = {f"occupation op N_max={JOB_N_MAX}": {"F": f_solves(g, build(g))}}
    return out, counts


def io_sweep(g, numpy, workdir: Path) -> dict:
    """The io sweep's milliseconds: distribution and energy files read, and an occupation table formatted."""
    from gentropy import io

    rng = random.Random(41)
    weights = [rng.randint(1, 1000) for _ in range(DIST_LINES)]
    total = sum(weights)
    forms = {"": [f"{w}/{total}" if rng.random() < 0.5 else repr(w / total) for w in weights],
             "decimal ": [repr(w / total) for w in weights],
             "p/q ": [f"{w}/{total}" for w in weights]}
    out = {}
    for form, lines in forms.items():
        path = workdir / "dist.txt"
        path.write_text("# generated distribution\n" + "\n".join(lines) + "\n")
        out[f"read_distribution_file {DIST_LINES} {form}lines"] = median_ms(
            lambda: io.read_distribution_file(str(path)), REPEATS, BATCH)
    rng = random.Random(44)
    for lines in ENERGY_LINES:
        path = workdir / "energies.txt"
        path.write_text("".join(f"{round(rng.uniform(0.0, 10.0), 9)!r}\n" for _ in range(lines)))
        out[f"read_energy_file {lines} lines"] = median_ms(lambda: io.read_energy_file(str(path)), REPEATS, BATCH)
    N, lw, s, resid, _ = zip(*g.extensivity_check(THERMO_SPECS["kaniadakis 1/3"](g), JOB_N_MAX).rows)
    table = N, lw, numpy.exp(lw), s, resid
    out[f"tsv_table {len(N)} x {len(table)}"] = median_ms(lambda: io.tsv_table(*table), REPEATS, BATCH)
    return out


def fresh(code: str, src: Path, *flags: str) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter that imports gentropy from ``src``."""
    return subprocess.run([sys.executable, *flags, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)


def import_sweep(src: Path, workdir: Path) -> dict:
    """Per gentropy module, the self and cumulative microseconds of ``python -X importtime``, each the median
    of IMPORT_REPEATS new interpreters that import that module alone; and the gentropy modules each CLI
    subcommand has loaded when it returns, in a new interpreter per subcommand."""
    modules = ["gentropy"] + sorted(f"gentropy.{p.stem}" for p in (src / "gentropy").glob("*.py")
                                    if p.stem != "__init__")
    samples = {module: [] for module in modules}
    for _ in range(IMPORT_REPEATS):  # each round imports every module once, so that drift spreads over all
        for module in modules:
            for line in fresh(f"import {module}", src, "-X", "importtime").stderr.splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[2].strip() == module:
                    # the row of the import that executed it; a module the package imports has a
                    # second row, for the top-level statement, that spans the whole package
                    samples[module].append((int(fields[0]), int(fields[1])))
                    break
    us = {module: {"self": statistics.median(s for s, _ in runs), "cumulative": statistics.median(c for _, c in runs)}
          for module, runs in samples.items()}
    energies = workdir / "levels.txt"
    energies.write_text("0\n1\n2\n3\n")
    loaded = {}
    for name, argv in SUBCOMMANDS.items():
        argv = [str(energies) if a == "ENERGIES" else a for a in argv]
        probe = (f"import contextlib, io, json, sys, gentropy.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    gentropy.cli.main({argv!r})\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gentropy.'))))")
        loaded[name] = json.loads(fresh(probe, src).stdout)
    return {"us": us, "subcommands": loaded}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ is timed (default: this one)")
    root = ap.parse_args(argv).root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy

    import gentropy as g

    sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
    thermo_ms, counts = thermo_sweep(g, numpy)
    jobs_ms, job_counts = job_sweep(g)
    with tempfile.TemporaryDirectory() as workdir:
        io_ms = io_sweep(g, numpy, Path(workdir))
        imports = import_sweep(root / "src", Path(workdir))
    result = {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ms": {"exact": exact_sweep(g), "thermo": thermo_ms, "jobs": jobs_ms, "io": io_ms},
        "counts": {**counts, **job_counts},
        "imports": imports,
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
