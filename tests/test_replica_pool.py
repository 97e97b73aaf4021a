"""The replica driver shared by every replicated experiment.

``experiments._replicate`` runs one closure per replica, beta-major with
seed base + replica index, in a pool of forked workers, one per CPU the
process may use.  These tests pin the order, the seeds and the row prefix,
that each run's files are its report (rows as CSV, the rest as JSON),
that the CPU count changes no output byte, that no worker outlives a run,
normal or failed, that the first failing replica raises without waiting
for the replicas after it, and that a closure replaced at module level
runs in the workers.
A pool that hangs fails its test through ``SIGALRM`` instead of stalling
the suite.
"""

import csv
import io
import json
import multiprocessing
import os
import signal
import time

import pytest

from isingkit import experiments
from isingkit.experiments import (GrowthModelParams, RunConfig,
                                  growth_model_files, infection_files,
                                  json_text, nucleation_files,
                                  run_growth_model, run_infection_microscopic,
                                  run_nucleation, run_stc_audit,
                                  stc_audit_files)

# seconds a test may take before the alarm fails it
POOL_TIMEOUT = 120


@pytest.fixture(autouse=True)
def alarm():
    def expire(signum, frame):
        raise TimeoutError(f"pool test ran past {POOL_TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(POOL_TIMEOUT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# (run, files, config) of each replicated experiment: six replicas each
RUNS = {
    "stc_audit": (run_stc_audit, stc_audit_files, RunConfig(
        experiment="stc_audit", dims=[6, 6], h="sqrt2/2", beta=[2.0],
        replicas=6, seed=0)),
    "nucleation_rejection_free": (run_nucleation, nucleation_files, RunConfig(
        experiment="nucleation", dims=[4, 4], h="sqrt2/2", beta=[1.5, 2.0],
        replicas=3, seed=11)),
    "nucleation_graphical": (run_nucleation, nucleation_files, RunConfig(
        experiment="nucleation", dims=[3], h="0.5", beta=[2.0, 3.0],
        replicas=3, seed=12, mode="graphical")),
    "infection": (run_infection_microscopic, infection_files, RunConfig(
        experiment="infection", dims=[8], h="0.5", beta=[2.0, 3.0],
        replicas=3, seed=13, block_side=4)),
}


def run_with_cpus(monkeypatch, name, cpus):
    run, files, config = RUNS[name]
    monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)
    report = run(config)
    return report["rows"], files(report)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_independent_of_worker_count(monkeypatch, name):
    serial = run_with_cpus(monkeypatch, name, 1)
    # 16 CPUs: more than the six replicas, so the pool is capped at six
    for cpus in (2, 3, 16):
        assert run_with_cpus(monkeypatch, name, cpus) == serial
        assert multiprocessing.active_children() == []
    assert experiments._TASK is None


@pytest.mark.parametrize("name", ["stc_audit", "nucleation_graphical",
                                  "infection"])
def test_rows_record_applied_flips(monkeypatch, name):
    rows, files = run_with_cpus(monkeypatch, name, 2)
    assert all(r["events"] >= 1 for r in rows)
    header = next(iter(files.values())).splitlines()[0]
    assert header.endswith(",stop_reason,events")


# every replicated experiment's (run, files, config), the growth model too
FILE_RUNS = {**RUNS, "growth_model": (
    run_growth_model, growth_model_files, GrowthModelParams(
        d=1, gamma=1.5, kappa_prev=0.0, L=1.0, betas=[4.0, 6.0], replicas=2,
        seed=0))}


@pytest.mark.parametrize("name", sorted(FILE_RUNS))
def test_files_are_the_report(name):
    # the CSV header is the row keys, and the JSON file every other key
    run, files, config = FILE_RUNS[name]
    report = run(config)
    written = files(report)
    [table] = [text for n, text in written.items() if n.endswith(".csv")]
    [summary] = [text for n, text in written.items() if n.endswith(".json")]
    assert len(written) == 2
    assert next(csv.reader(io.StringIO(table))) == list(report["rows"][0])
    rest = {k: v for k, v in report.items() if k != "rows"}
    assert json.loads(summary) == json.loads(json_text(rest))


def test_replaced_hitting_time_runs_in_workers(monkeypatch, tmp_path):
    # a local closure, as the benchmark's probes install: the pool must not
    # try to pickle it
    serial = run_with_cpus(monkeypatch, "stc_audit", 1)
    log = tmp_path / "pids"
    original = experiments.hitting_time

    def hooked(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "hitting_time", hooked)
    assert run_with_cpus(monkeypatch, "stc_audit", 2) == serial
    pids = log.read_text().split()
    assert len(pids) == 6
    assert str(os.getpid()) not in pids and len(set(pids)) <= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_replica_error_raised_and_no_worker_left(monkeypatch, name, cpus):
    seed = RUNS[name][2].seed + 1
    original = experiments.hitting_time

    def failing(*args, **kwargs):
        if kwargs["seed"] == seed:
            raise ValueError("replica failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "hitting_time", failing)
    with pytest.raises(ValueError, match="replica failed"):
        run_with_cpus(monkeypatch, name, cpus)
    assert multiprocessing.active_children() == []
    assert experiments._TASK is None


def test_first_failing_replica_raises_without_waiting(monkeypatch):
    # replica 0 fails at once while the seven others would sleep 7 s in
    # all (3.5 s on the two workers): the error comes back before them
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    nap = 1.0

    def run(beta, seed):
        if seed == 0:
            raise ValueError("replica 0 failed")
        time.sleep(nap)
        return {}

    start = time.monotonic()
    with pytest.raises(ValueError, match="replica 0 failed"):
        experiments._replicate([1.0], 8, 0, run)
    assert time.monotonic() - start < 1.5 * nap
    assert multiprocessing.active_children() == []
    assert experiments._TASK is None


def test_replicate_keeps_beta_major_order(monkeypatch):
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 3)
    betas = [3.0, 1.0, 2.0]  # unsorted: the driver keeps the given order
    offset = 7  # a closure over local state, as every experiment's run is

    def run(beta, seed):
        return {"value": (beta, seed + offset)}

    assert experiments._replicate(betas, 4, 11, run) == [
        {"replica": rep, "seed": 11 + rep, "beta": beta,
         "value": (beta, 11 + rep + offset)}
        for beta in betas for rep in range(4)]
    assert multiprocessing.active_children() == []
    assert experiments._TASK is None
