"""The gentropy benchmark: one workload, one seed, one closed-loop run.

    python3 benchmark/run.py --workload exact-laws --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it imports gentropy from the
checkout's ``src/``.  From the seed it generates the workload's job list:
whole rounds of one job per kind, the first round as warm-up, and enough
rounds that at least MIN_TIMED_JOBS jobs are timed, more as --seconds grows.
The work of a run is fixed by the seed and --seconds, never by the clock.
Every op's output is checked against the benchmark's own references after
its job's timer stops.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the job list runs again under per-module spans and the
metrics are the per-layer ones (see spans.py).
"""

from __future__ import annotations

import os

# one thread per numpy pool, in this process and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# workload -> (module, nominal seconds of one round on a 2-CPU x86 machine)
WORKLOADS = {
    "exact-laws": ("exact_laws", 1.75),
    "maxent-thermo": ("maxent_thermo", 0.8),
    "cli-batch": ("cli_batch", 1.35),
}
MIN_TIMED_JOBS = 100  # so that job_ms_p90 has ten samples beyond it
SETUP_PROBES = 5
END_TO_END = (("jobs_per_s", "1/s"), ("job_ms_p50", "ms"), ("job_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def rounds_for(workload: str, seconds: int) -> int:
    """Warm-up round plus timed rounds, from --seconds and never from the clock."""
    module, nominal_round_s = WORKLOADS[workload]
    per_round = importlib.import_module(module).JOBS_PER_ROUND
    return 1 + max(math.ceil(MIN_TIMED_JOBS / per_round), round(seconds / nominal_round_s))


def setup_seconds(workload: str, seed: int, rounds: int) -> float:
    """Median over fresh interpreters of import-to-first-job time."""
    samples = []
    workdir = OUT / f"setup-{workload}-{os.getpid()}"
    try:
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(rounds), str(workdir)],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            samples.append(float(proc.stdout.split()[-1]))
    finally:  # a probe killed on the way out leaves its files
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    from harness import calibrate, check_job, run_job, speed_factors

    wl = importlib.import_module(WORKLOADS[workload][0])
    workdir = OUT / f"{workload}-{os.getpid()}"
    rounds = rounds_for(workload, seconds)
    values: dict[str, float] = {}
    if traced:
        import spans

        values.update(spans.import_breakdown(str(SRC), wl.IMPORTS))
    else:
        values["setup_s"] = setup_seconds(workload, seed, rounds)

    for name in wl.IMPORTS:
        importlib.import_module(name)
    per_round = wl.JOBS_PER_ROUND
    jobs = wl.make_jobs(seed, rounds, workdir)
    attempted = 0
    failures = []
    times = []  # (cpu, wall) seconds of each job
    calibrations = [calibrate()]  # before each job, and after the last
    tracer = None
    try:
        for index, job in enumerate(jobs):
            if index == per_round and traced:
                tracer = spans.Tracer()
                tracer.install()
            wl.prepare(job)
            cpu, wall, results = run_job(job)
            failures += check_job(index, job, results)
            wl.release(job)
            attempted += len(job.ops)
            times.append((cpu, wall))
            calibrations.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # the first round warms up
    factors = speed_factors(calibrations)[per_round:]
    times = times[per_round:]
    job_ms = [1e3 * cpu * f for (cpu, _), f in zip(times, factors)]
    cpu_s, wall_s = (sum(t[i] for t in times) for i in (0, 1))
    if traced:
        values.update(tracer.per_job(len(times)))
        values["trace.job_ms_p50"] = statistics.median(job_ms)
        wanted = spans.PER_LAYER
    else:
        values["jobs_per_s"] = 1e3 * len(times) / sum(job_ms)
        values["job_ms_p50"] = statistics.median(job_ms)
        values["job_ms_p90"] = statistics.quantiles(job_ms, n=10, method="inclusive")[8]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = END_TO_END

    by_tag = Counter(f.tag for f in failures)
    print(f"# {workload} seed={seed}: {len(times)} timed jobs, {attempted} ops, "
          f"failed by fault: {json.dumps(dict(sorted(by_tag.items())))}; "
          f"timed jobs took {cpu_s:.3f} s of CPU in {wall_s:.3f} s of wall time, "
          f"{sum(job_ms) / 1e3:.3f} s at nominal speed "
          f"(calibration loop median {1e3 * statistics.median(calibrations):.3f} ms)")
    for f in failures:
        if f.tag == "new":
            print(f"new failure: job {f.job} {f.kind} {f.op}: {f.reason}", file=sys.stderr)
    return {
        "correct": by_tag.get("new", 0) == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gentropy" / "__init__.py").is_file():
        print(f"error: no gentropy sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    # on SIGTERM, unwind: the finally blocks remove the run's files, and
    # subprocess.run kills a set-up probe that is still running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the program's float warnings would land in captured CLI stderr once per site
    warnings.simplefilter("ignore", RuntimeWarning)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
