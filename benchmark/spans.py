"""Per-module spans, installed from outside the program for one traced run.

``Tracer.install`` replaces module-level functions and methods of gentropy
with wrappers and ``uninstall`` puts the originals back.  Each wrapper opens
a span on a stack; when it closes, its duration is added to its parent's
child time, so a span's self time (duration minus the time its child spans
cover) is exact however deeply spans nest.  Spans are aggregated by name as
they close rather than kept one by one: the maxent layers make millions of
calls per run.

``import_breakdown`` reads ``python -X importtime`` of a workload's imports
in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import wraps

# span name -> (module, attribute path); brentq is scipy's, wrapped per module
TARGETS = {
    "series.mul": ("gentropy.series", "TruncatedSeries.__mul__"),
    "series.compose": ("gentropy.series", "TruncatedSeries.compose"),
    "series.revert": ("gentropy.series", "TruncatedSeries.revert"),
    "groups.group_law_from_exponential": ("gentropy.groups", "group_law_from_exponential"),
    "groups.check_axioms": ("gentropy.groups", "check_axioms"),
    "groups.formal_inverse": ("gentropy.groups", "formal_inverse"),
    "groups.substitute_univariate": ("gentropy.groups", "MultiPoly.substitute_univariate"),
    "groups.substitute_pair": ("gentropy.groups", "MultiPoly.substitute_pair"),
    "groups.multipoly_mul": ("gentropy.groups", "MultiPoly.__mul__"),
    "catalog.G": ("gentropy.catalog", "Entropy.G"),
    "catalog.F": ("gentropy.catalog", "Entropy.F"),
    "catalog.numeric_inverse": ("gentropy.catalog", "_numeric_inverse"),
    "catalog.brentq": ("gentropy.catalog", "brentq"),
    "catalog.evaluate": ("gentropy.catalog", "Entropy.evaluate"),
    "catalog.distribution": ("gentropy.catalog", "Distribution.__init__"),
    "thermo.maxent_solve": ("gentropy.thermo", "maxent_solve"),
    "thermo.solve_fixed_beta": ("gentropy.thermo", "_solve_fixed_beta"),
    "thermo.invert_h": ("gentropy.thermo", "_invert_h"),
    "thermo.stationarity": ("gentropy.thermo", "_stationarity"),
    "thermo.brentq": ("gentropy.thermo", "brentq"),
    "thermo.check_monotone": ("gentropy.thermo", "_check_monotone"),
    "thermo.partition_value": ("gentropy.thermo", "_partition_value"),
    "thermo.extensivity_check": ("gentropy.thermo", "extensivity_check"),
    "thermo.occupation_law": ("gentropy.thermo", "occupation_law"),
    "thermo.asymptotic_scan": ("gentropy.thermo", "asymptotic_scan"),
    "axioms.check_sk2_maximum": ("gentropy.axioms", "check_sk2_maximum"),
    "axioms.check_weak_composability": ("gentropy.axioms", "check_weak_composability"),
    "axioms.check_strict_composability": ("gentropy.axioms", "check_strict_composability"),
    "io.read_distribution_file": ("gentropy.io", "read_distribution_file"),
    "io.read_energy_file": ("gentropy.io", "read_energy_file"),
    "io.tsv_line": ("gentropy.io", "tsv_line"),
    "cli.main": ("gentropy.cli", "main"),
    "cli.build_parser": ("gentropy.cli", "build_parser"),
    "cli.build_entropy": ("gentropy.cli", "build_entropy"),
}

# the per-layer metrics a traced run prints: (name, unit)
PER_LAYER = [
    ("series.mul.calls", "count"),
    ("series.mul.self_ms", "ms"),
    ("series.compose.self_ms", "ms"),
    ("series.revert.calls", "count"),
    ("series.revert.self_ms", "ms"),
    ("groups.group_law_from_exponential.self_ms", "ms"),
    ("groups.check_axioms.self_ms", "ms"),
    ("groups.formal_inverse.self_ms", "ms"),
    ("groups.substitute_univariate.self_ms", "ms"),
    ("groups.substitute_pair.calls", "count"),
    ("groups.substitute_pair.self_ms", "ms"),
    ("groups.multipoly_mul.calls", "count"),
    ("groups.multipoly_mul.self_ms", "ms"),
    ("catalog.G.calls", "count"),
    ("catalog.G.self_ms", "ms"),
    ("catalog.F.calls", "count"),
    ("catalog.F.self_ms", "ms"),
    ("catalog.numeric_inverse.calls", "count"),
    ("catalog.numeric_inverse.self_ms", "ms"),
    ("catalog.brentq.calls", "count"),
    ("catalog.brentq.fevals", "count"),
    ("catalog.evaluate.calls", "count"),
    ("catalog.evaluate.self_ms", "ms"),
    ("catalog.distribution.calls", "count"),
    ("thermo.maxent_solve.self_ms", "ms"),
    ("thermo.solve_fixed_beta.calls", "count"),
    ("thermo.invert_h.calls", "count"),
    ("thermo.stationarity.calls", "count"),
    ("thermo.stationarity.self_ms", "ms"),
    ("thermo.brentq.calls", "count"),
    ("thermo.brentq.fevals", "count"),
    ("thermo.check_monotone.self_ms", "ms"),
    ("thermo.partition_value.self_ms", "ms"),
    ("thermo.extensivity_check.self_ms", "ms"),
    ("thermo.occupation_law.calls", "count"),
    ("thermo.occupation_law.self_ms", "ms"),
    ("thermo.asymptotic_scan.self_ms", "ms"),
    ("axioms.check_sk2_maximum.self_ms", "ms"),
    ("axioms.check_weak_composability.self_ms", "ms"),
    ("axioms.check_strict_composability.self_ms", "ms"),
    ("io.read_distribution_file.self_ms", "ms"),
    ("io.read_energy_file.self_ms", "ms"),
    ("io.tsv_line.calls", "count"),
    ("io.tsv_line.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.build_parser.self_ms", "ms"),
    ("cli.build_entropy.self_ms", "ms"),
    ("setup.import.numpy_ms", "ms"),
    ("setup.import.scipy_ms", "ms"),
    ("setup.import.gentropy_ms", "ms"),
    ("trace.job_ms_p50", "ms"),
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.fevals: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, count_fevals: bool):
        stack, calls, self_s, fevals = self._stack, self.calls, self.self_s, self.fevals
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if not count_fevals:
                    return fn(*args, **kwargs)
                # brentq: ask for the iteration record, hand back what was asked
                full = kwargs.get("full_output", False)
                root, record = fn(*args, **{**kwargs, "full_output": True})
                fevals[name] += record.function_calls
                return (root, record) if full else root
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gentropy" or n.startswith("gentropy.")]
        for name, (modname, path) in TARGETS.items():
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._span(name, original, name.endswith(".brentq"))
            if outer or name.endswith(".brentq"):
                holders = [owner]
            else:  # also the copies that `from .x import f` made in other modules
                holders = [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def per_job(self, jobs: int) -> dict[str, float]:
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name] / jobs
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / jobs
            out[f"{name}.fevals"] = self.fevals[name] / jobs
        return out


def _parse_importtime(stderr: str) -> list[tuple[str, int, float]]:
    """(name, depth, cumulative ms) per import, in the order they finished."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((name.strip(), depth, int(cumulative) / 1e3))
    return entries


# an import counts towards a package unless a listed import encloses it
_ENCLOSING = {"numpy": ("numpy", "scipy"), "scipy": ("scipy",), "gentropy": ("gentropy",)}


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _package_ms(entries) -> dict[str, float]:
    """Cumulative ms of each package's outermost imports.

    numpy modules that scipy pulls in count towards scipy, and numpy and
    scipy both count towards gentropy, which imports them.
    """
    totals = dict.fromkeys(_ENCLOSING, 0.0)
    ancestors: list[tuple[int, str]] = []
    # children finish before their parent: walk backwards to meet parents first
    for name, depth, ms in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for package, enclosing in _ENCLOSING.items():
            if _in_package(name, package) and not any(
                _in_package(a, p) for _, a in ancestors for p in enclosing
            ):
                totals[package] += ms
        ancestors.append((depth, name))
    return totals


def import_breakdown(src: str, imports: tuple[str, ...], repeats: int = 3) -> dict[str, float]:
    """Median numpy, scipy and gentropy import times in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {src!r}); " + "; ".join(f"import {m}" for m in imports)
    samples: dict[str, list[float]] = {package: [] for package in _ENCLOSING}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        for package, ms in _package_ms(_parse_importtime(proc.stderr)).items():
            samples[package].append(ms)
    return {f"setup.import.{k}_ms": statistics.median(v) for k, v in samples.items()}
