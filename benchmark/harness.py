"""Jobs, ops and the closed loop that times them.

A job is a fixed sequence of ops.  An op's ``call`` does nothing but call
into gentropy; its ``check`` compares the result with a reference after the
job's clock has stopped.  A failed op is counted and the job goes on, so a
later fix changes the failure count and not the job mix.

Times are CPU times scaled to a nominal machine speed.  On a shared virtual
machine the CPU time of the same work drifts by up to 40 % between runs
minutes apart, and by 15 % within seconds, as other guests load the host.  A
fixed stdlib calibration loop runs between every two jobs; a job's time is
its CPU time times CALIBRATION_REF_S over the loop's time around it, that is
the CPU time the job would take where the loop takes CALIBRATION_REF_S.

This module imports only the standard library: the set-up probe imports it
before it starts its clock.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None  # known fault (F1..F7) this op shows while unmended


@dataclass
class Job:
    kind: str
    ops: list[Op]
    ctx: dict = field(default_factory=dict)  # results shared by later ops


@dataclass
class Failure:
    job: int
    kind: str
    op: str
    tag: str  # the op's known fault, or "new"
    reason: str


def cpu_clock() -> float:
    """CPU seconds of this process, its threads and its waited-for children.

    The job loop is single-threaded and never waits on anything but the CPU,
    so this is its wall time less the time the machine gives to others: on a
    shared virtual machine, CPU stolen by other guests made wall time swing by
    up to 20 % between runs minutes apart, and CPU time by half that or less.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


CALIBRATION_REF_S = 0.010  # nominal CPU seconds of one calibration loop
CALIBRATION_WINDOW = 3  # samples each side of a job that set its speed


def calibration_work():
    """A fixed stdlib workload shaped like gentropy's three layers.

    It never calls gentropy, so no change to the program moves it; only the
    speed the machine gives this process does.
    """
    # truncated product of two bivariate rational series, as the exact layer does
    a = {(i, j): Fraction(i - j + 1, 2 * i + 3 * j + 1) for i in range(12) for j in range(12 - i)}
    prod: dict = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            if i + j + k + m <= 11:
                key = (i + k, j + m)
                prod[key] = prod.get(key, 0) + c * d
    # scalar float root finding, as the float layer does
    roots = []
    for n in range(1, 240):
        lo, hi = 0.0, 10.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(-mid / n) + math.log1p(mid) < n * 0.05:
                lo = mid
            else:
                hi = mid
        roots.append(mid)
    # number formatting and parsing, as the file layer does
    text = "\n".join(repr(r / 7.0) for r in roots * 10)
    return prod, sum(float(x) for x in text.split())


def calibrate() -> float:
    """CPU seconds of one calibration loop, with the collector off.

    With gc off, the size of the program's heap does not enter the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = cpu_clock()
        calibration_work()
        return cpu_clock() - c0
    finally:
        if enabled:
            gc.enable()


def speed_factors(calibrations: list[float]) -> list[float]:
    """Per job, nominal over local calibration time (below 1 on a slow stretch).

    ``calibrations[i]`` is the loop run just before job i, and the last one
    follows the last job.  Job i's factor uses the median of the samples within
    CALIBRATION_WINDOW of it, so one disturbed loop does not set it.
    """
    w = CALIBRATION_WINDOW
    return [
        CALIBRATION_REF_S / statistics.median(calibrations[max(0, i + 1 - w):i + 1 + w])
        for i in range(len(calibrations) - 1)
    ]


def run_job(job: Job) -> tuple[float, float, list]:
    """Run every op; return the CPU and wall seconds of the calls, and their results."""
    cpu = wall = 0.0
    results = []
    for op in job.ops:
        c0, t0 = cpu_clock(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising op is checked like any other result
            out = exc
        wall += time.perf_counter() - t0
        cpu += cpu_clock() - c0
        results.append(out)
    return cpu, wall, results


def check_job(index: int, job: Job, results: list) -> list[Failure]:
    failures = []
    for op, out in zip(job.ops, results):
        try:
            op.check(out)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            if isinstance(out, BaseException):
                reason = "".join(traceback.format_exception_only(type(out), out)).strip()
            failures.append(Failure(index, job.kind, op.name, op.fault or "new", reason[:300]))
    return failures


def no_error(out) -> None:
    """Re-raise an exception an op returned, so its check fails with it."""
    if isinstance(out, BaseException):
        raise out


class Stratified:
    """Seeded uniform draws in [0, 1) that cover the interval evenly.

    Successive draws for one key fall in distinct slices of width 1/n, in a
    seeded order, so n jobs of a kind always see the same spread of
    parameters.  A seed then changes which job gets which value, and the
    values themselves, but not the mix of costs a run has to time.
    """

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n = rng, n
        self.slots: dict[str, list[int]] = {}

    def __call__(self, key: str) -> float:
        slots = self.slots.get(key)
        if not slots:
            slots = self.slots[key] = list(range(self.n))
            self.rng.shuffle(slots)
        return (slots.pop() + self.rng.random()) / self.n

    def choice(self, key: str, options):
        return options[int(self(key) * len(options))]

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self(key)

    def rational(self, key: str, lo, hi, dens, avoid=()) -> Fraction:
        """A rational in [lo, hi], not in `avoid`, with a denominator from `dens`."""
        den = self.choice(key + "/den", dens)
        num = round(self.uniform(key, float(lo), float(hi)) * den)
        for cand in (num, num + 1, num - 1, num + 2, num - 2):
            x = Fraction(cand, den)
            if lo <= x <= hi and x not in avoid:
                return x
        raise ValueError(f"no rational for {key} in [{lo}, {hi}] with denominator {den}")


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """In-process ``gentropy.cli.main(argv)`` with stdout and stderr captured.

    An exception that escapes ``main`` propagates: the CLI contract says it
    never should.
    """
    from gentropy import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())
