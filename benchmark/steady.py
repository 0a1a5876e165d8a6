"""Steadiness of the benchmark: repeat a workload over seeds and show spreads.

    python3 benchmark/steady.py --workload cli-batch --seeds 1 2 3 4 5
    python3 benchmark/steady.py --workload cli-batch --seeds 1 2 3 --traced

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json; a spread
at or above a third of the bound is marked.  It also checks that the share
of failed ops is identical in every run.  With --traced it runs the traced
run twice on the first seed, checks that every count repeats exactly and
prints the tracing overhead (traced against untraced median job time).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds, 0)
        results.append(res)
        summary = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {summary}",
              flush=True)

    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed/attempted {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>8}")
    ok = len(shares) == 1 and all(r["correct"] for r in results)
    for metric in BENCHMARK["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        steady = spread < metric["bound"] / 3 or metric["name"] == "setup_s"
        ok = ok and steady
        print(f"{metric['name']:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.2%}"
              f"{metric['bound']:>8.0%}{'' if steady else '  spread >= bound/3'}")

    if args.traced:
        first, second = (run_once(args.workload, args.seeds[0], args.seconds, 1) for _ in range(2))
        counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
        differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
        untraced = statistics.median(r["metrics"]["job_ms_p50"]["value"] for r in results)
        traced = first["metrics"]["trace.job_ms_p50"]["value"]
        print()
        for name, m in first["metrics"].items():
            print(f"{name:<45}{m['value']:>14.6g} {m['unit']}")
        print(f"traced runs: {len(counts)} counts, differing between two runs: {differ or 'none'}")
        print(f"tracing overhead: job_ms_p50 {traced:.4g} ms traced against {untraced:.4g} ms "
              f"untraced, x{traced / untraced:.2f}")
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
