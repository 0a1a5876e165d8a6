"""Set-up time of one workload in this fresh interpreter.

    python3 benchmark/setup_probe.py <workload> <seed> <rounds> <workdir>

Prints the CPU seconds (see harness.cpu_clock) from just before gentropy is
imported to the return of the first job of the run's job list, scaled to
nominal speed by calibration loops run before and after (see harness).  Job
inputs are generated, and files written, before the clock starts; nothing
imports numpy before it.  run.py starts several of
these and reports the median as setup_s.
"""

import importlib
import shutil
import statistics
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import CALIBRATION_REF_S, calibrate, cpu_clock, run_job  # noqa: E402
from run import WORKLOADS  # noqa: E402

CALIBRATIONS = 5  # loops before and after the measured set-up


def main() -> int:
    workload, seed, rounds, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    warnings.simplefilter("ignore", RuntimeWarning)
    wl = importlib.import_module(WORKLOADS[workload][0])
    job = wl.make_jobs(seed, rounds, workdir)[0]
    wl.prepare(job)
    if "numpy" in sys.modules or "gentropy" in sys.modules:
        print("error: imported before the clock started", file=sys.stderr)
        return 2
    try:
        calibrations = [calibrate() for _ in range(CALIBRATIONS)]
        t0 = cpu_clock()
        for name in wl.IMPORTS:
            importlib.import_module(name)
        run_job(job)
        elapsed = cpu_clock() - t0
        calibrations += [calibrate() for _ in range(CALIBRATIONS)]
    finally:
        wl.release(job)
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed * CALIBRATION_REF_S / statistics.median(calibrations)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
