"""Benchmark jobs as tier-1 checks: each op against its own oracle.

One round of exact-laws, maxent-thermo and cli-batch jobs, made by each
workload's ``make_jobs`` at fixed seeds, run through ``harness.run_job`` and
``check_job`` as ``benchmark/run.py`` runs them.  A round is one job of each
kind (two of each for cli-batch, one per exit-code probe); every op's result
is checked against ``benchmark/oracles.py`` or the workload's own checks,
which compute apart from gentropy.  This reads ``benchmark/`` and changes
nothing in it; cli-batch's files go to a temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))  # the workload modules import harness and oracles by name
    try:
        yield importlib.import_module("harness")
    finally:
        sys.path.remove(str(BENCH))


def round_failures(harness, workload, seed, workdir=None):
    """The failed ops of one round of ``workload``'s jobs at ``seed``.

    A round is ``JOBS_PER_ROUND`` jobs that take the kinds in turn;
    cli-batch writes its jobs' files under ``workdir``.
    """
    jobs = workload.make_jobs(seed, 1, workdir)
    kinds = workload.KINDS
    assert [job.kind for job in jobs] == [kinds[i % len(kinds)] for i in range(workload.JOBS_PER_ROUND)]
    failures = []
    for index, job in enumerate(jobs):
        workload.prepare(job)
        _, _, results = harness.run_job(job)
        failures += harness.check_job(index, job, results)
        workload.release(job)
    return failures


@pytest.mark.parametrize("seed", [7, 61, 201])
def test_one_round_of_exact_laws_passes_its_oracles(harness, seed):
    assert round_failures(harness, importlib.import_module("exact_laws"), seed) == []


@pytest.mark.parametrize("seed", [7, 61, 201])
def test_one_round_of_maxent_thermo_passes_its_oracles(harness, seed):
    assert round_failures(harness, importlib.import_module("maxent_thermo"), seed) == []


@pytest.mark.parametrize("seed", [7, 61, 201])
def test_one_round_of_cli_batch_passes_its_oracles(harness, seed, tmp_path):
    assert round_failures(harness, importlib.import_module("cli_batch"), seed, tmp_path) == []
