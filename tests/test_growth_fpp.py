"""Tests of the first-passage growth simulator of ``isingkit.experiments``.

The library computes origin-coverage times by one Dijkstra sweep over clocks
drawn in blocks; the per-event simulator kept in ``growth_oracle`` draws one
holding time per infection.  Their seeded streams differ, so the two are
compared in law; the sweep itself is checked exactly against a brute-force
fixed-point iteration of T(x) = min(N(x), E(x) + min over neighbours T(y)).
"""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import growth_oracle as oracle
from isingkit import experiments
from isingkit.experiments import (GrowthModelParams, _first_passage,
                                  _growth_single, _padded, growth_model_files,
                                  run_growth_model)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


LAW_CASES = [
    dict(d=1, gamma=1.5, kappa_prev=0.0, L=1.0),
    dict(d=2, gamma=2.0, kappa_prev=0.5, L=0.7),
    dict(d=3, gamma=2.0, kappa_prev=0.5, L=0.5),
    dict(d=2, gamma=1.0, kappa_prev=math.inf, L=0.5),
]


@pytest.mark.parametrize("case", LAW_CASES,
                         ids=["d1", "d2", "d3", "frozen_growth"])
def test_coverage_time_law_matches_oracle(case):
    params = GrowthModelParams(betas=[4.0], replicas=1, **case)
    n = 600
    new = np.array([_growth_single(params, 4.0, s)[0] for s in range(n)])
    old = np.array([oracle._growth_single(params, 4.0, 10_000 + s)[0]
                    for s in range(n)])
    se = math.sqrt(new.var(ddof=1) / n + old.var(ddof=1) / n)
    assert abs(new.mean() - old.mean()) <= 4 * se
    # two-sample KS at level 0.001: c(alpha) = 1.95
    assert ks_statistic(new, old) <= 1.95 * math.sqrt(2 / n)


def test_frozen_growth_mean_is_nucleation_time():
    params = GrowthModelParams(d=2, gamma=1.0, kappa_prev=math.inf, L=0.5,
                               betas=[4.0], replicas=1)
    times = np.array([_growth_single(params, 4.0, s)[0] for s in range(2000)])
    se = times.std(ddof=1) / math.sqrt(times.size)
    assert abs(times.mean() - math.exp(4.0)) <= 4 * se


def fixed_point(nuc, gro):
    """Iterate T <- min(N, E + min over box neighbours of T) from T = N."""
    t = nuc.copy()
    while True:
        nb = np.full(t.shape, math.inf)
        for axis in range(t.ndim):
            for step in (1, -1):
                shifted = np.roll(t, step, axis=axis)
                edge = [slice(None)] * t.ndim
                edge[axis] = 0 if step == 1 else -1
                shifted[tuple(edge)] = math.inf
                nb = np.minimum(nb, shifted)
        new = np.minimum(nuc, gro + nb)
        if np.array_equal(new, t):
            return t
        t = new


clock = st.one_of(st.floats(min_value=0.0, max_value=50.0),
                  st.just(math.inf))


@st.composite
def boxes(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    nuc = draw(st.lists(clock, min_size=size, max_size=size))
    gro = draw(st.lists(clock, min_size=size, max_size=size))
    return (np.array(nuc).reshape(shape), np.array(gro).reshape(shape))


@settings(max_examples=150, deadline=None)
@given(boxes())
def test_sweep_equals_fixed_point(box):
    nuc, gro = box
    expected = fixed_point(nuc, gro)
    pad_nuc, pad_gro = _padded(nuc), _padded(gro)
    for site in np.ndindex(nuc.shape):
        target = int(np.ravel_multi_index(tuple(c + 1 for c in site),
                                          pad_nuc.shape))
        t, reason, events = _first_passage(pad_nuc, pad_gro, target,
                                           max_events=10**9)
        want = expected[site]
        if math.isinf(want):
            assert (t, reason) == (None, "frozen")
            assert events == int(np.sum(np.isfinite(expected)))
        else:
            assert (t, reason) == (want, "origin")
            # settled in time order: every earlier site, then some ties
            assert np.sum(expected < want) < events <= np.sum(expected <= want)


GROWTH = GrowthModelParams(d=2, gamma=2.0, kappa_prev=0.5, L=0.7,
                           betas=[4.0], replicas=1)


def test_event_cap_counts_the_origin_event():
    t, reason, events = _growth_single(GROWTH, 4.0, 3)
    assert reason == "origin" and events > 1
    at_cap = dataclasses.replace(GROWTH, max_events=events)
    assert _growth_single(at_cap, 4.0, 3)[1:] == ("event_cap", events)
    assert _growth_single(at_cap, 4.0, 3)[0] is None
    above = dataclasses.replace(GROWTH, max_events=events + 1)
    assert _growth_single(above, 4.0, 3)[0] == t
    assert _growth_single(above, 4.0, 3)[1:] == ("origin", events)
    one = dataclasses.replace(GROWTH, max_events=1)
    assert _growth_single(one, 4.0, 3)[1:] == ("event_cap", 1)


def test_censored_replicas_counted_by_reason():
    capped = dataclasses.replace(GROWTH, betas=[4.0, 6.0], replicas=3,
                                 max_events=2)
    report = run_growth_model(capped)
    assert report["flags"]["censored"] == {"event_cap": 6, "frozen": 0}
    assert all(r["stop_reason"] == "event_cap" and r["events"] == 2
               and r["censored"] for r in report["rows"])
    assert "error" in report["fit"]
    # exp(-beta * gamma) underflows to 0.0: nothing can ever nucleate
    frozen = GrowthModelParams(d=1, gamma=1000.0, kappa_prev=0.0, L=0.5,
                               betas=[1.0], replicas=2)
    report = run_growth_model(frozen)
    assert report["flags"]["censored"] == {"event_cap": 0, "frozen": 2}
    assert [(r["stop_reason"], r["events"]) for r in report["rows"]] == \
        [("frozen", 0)] * 2


def test_fit_skips_betas_with_censored_replicas():
    partly = dataclasses.replace(GROWTH, betas=[4.0, 5.0, 6.0], replicas=3,
                                 max_events=1200)
    report = run_growth_model(partly)
    censored = {r["beta"] for r in report["rows"] if r["censored"]}
    assert censored == {6.0} and report["flags"]["censored_betas"] == [6.0]
    assert report["fit"]["betas"] == [4.0, 5.0]


def test_uncensored_rows_record_origin_and_events():
    report = run_growth_model(dataclasses.replace(GROWTH, replicas=4))
    assert all(r["stop_reason"] == "origin" and r["events"] >= 1
               and not r["censored"] for r in report["rows"])
    assert report["flags"]["censored"] == {"event_cap": 0, "frozen": 0}


@pytest.mark.parametrize("bad", [
    {"d": 0}, {"d": 1.5}, {"replicas": 0}, {"replicas": None},
    {"betas": []}, {"betas": [4.0, 0.0]}, {"betas": [-1.0]},
    {"betas": None}, {"max_events": 0}, {"max_events": 2.5},
    {"max_events": True}, {"seed": -1},
    {"gamma": math.nan}, {"gamma": math.inf}, {"gamma": -math.inf},
    {"gamma": None}, {"L": math.nan}, {"L": math.inf}, {"L": "0.7"},
    {"kappa_prev": math.nan}, {"kappa_prev": -math.inf},
    # exp(beta * L), exp(-beta * gamma), exp(-beta * kappa_prev) and the
    # cone exp(beta * (kappa - kappa_prev)) overflow
    {"L": 1e6}, {"L": 100.0, "betas": [4.0, 8.0]}, {"gamma": -1000.0},
    {"kappa_prev": -1000.0}, {"gamma": 3000.0},
])
def test_bad_params_rejected(bad):
    kw = dict(d=2, gamma=2.0, kappa_prev=0.5, L=0.7, betas=[4.0])
    kw.update(bad)
    with pytest.raises(ValueError) as exc:
        GrowthModelParams(**kw)
    # the message names the parameter ("beta values" for betas)
    assert next(iter(bad)).rstrip("s") in str(exc.value)


@pytest.mark.parametrize("kw,beta", [
    # the unclipped window exp(beta * L) = e^100 per side
    (dict(d=1, gamma=400.0, kappa_prev=0.0, L=100.0, betas=[1.0, 2.0]), "1.0"),
    # a window clipped to 3 cones, still 7,027,061 sites per side at
    # beta 4 (119 at beta 1)
    (dict(d=2, gamma=12.0, kappa_prev=1.0, L=10.0, betas=[1.0, 4.0]), "4.0"),
])
def test_window_over_site_bound_rejected(kw, beta):
    with pytest.raises(ValueError) as exc:
        GrowthModelParams(**kw)
    msg = str(exc.value)
    assert msg.startswith("L out of range") and f"beta {beta}" in msg
    assert str(experiments.MAX_WINDOW_SITES) in msg


def test_window_at_site_bound_accepted():
    # at d = 1 the bound allows any odd side up to MAX_WINDOW_SITES
    bound = experiments.MAX_WINDOW_SITES
    L = math.log(bound - 2)
    params = GrowthModelParams(d=1, gamma=30.0, kappa_prev=0.0, L=L,
                               betas=[1.0], replicas=1, max_events=5)
    side, clipped = params.window(1.0)
    assert side <= bound and not clipped
    assert _growth_single(params, 1.0, 0)[1:] == ("event_cap", 5)


# nine replicas over three temperatures
POOLED = dataclasses.replace(GROWTH, betas=[4.0, 5.0, 6.0], replicas=3)


def run_with_cpus(monkeypatch, params, cpus):
    monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)
    return growth_model_files(run_growth_model(params))


def test_outputs_independent_of_worker_count(monkeypatch):
    serial = run_with_cpus(monkeypatch, POOLED, 1)
    # 16 CPUs: more than the nine tasks, so the pool is capped at nine
    for cpus in (2, 3, 16):
        assert run_with_cpus(monkeypatch, POOLED, cpus) == serial
        assert multiprocessing.active_children() == []


def test_replaced_simulator_runs_in_workers(monkeypatch, tmp_path):
    # a local closure, as the benchmark's per-replica hook installs: the
    # pool must not try to pickle it
    serial = run_with_cpus(monkeypatch, POOLED, 1)
    log = tmp_path / "pids"
    original = experiments._growth_single

    def hooked(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(experiments, "_growth_single", hooked)
    assert run_with_cpus(monkeypatch, POOLED, 2) == serial
    pids = log.read_text().split()
    assert len(pids) == 9
    assert str(os.getpid()) not in pids and len(set(pids)) <= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_replica_error_raised_and_no_worker_left(monkeypatch, cpus):
    original = experiments._growth_single

    def failing(params, beta, seed):
        if beta == 5.0 and seed == params.seed + 1:
            raise ValueError("replica failed")
        return original(params, beta, seed)

    monkeypatch.setattr(experiments, "_growth_single", failing)
    with pytest.raises(ValueError, match="replica failed"):
        run_with_cpus(monkeypatch, POOLED, cpus)
    assert multiprocessing.active_children() == []


def test_import_leaves_multiprocessing_unloaded():
    # the pool imports it on first use, so plain imports do not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, isingkit.cli; "
         "assert 'multiprocessing' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
