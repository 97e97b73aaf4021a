"""Tests of the first-passage growth simulator of ``isingkit.experiments``.

The library computes origin-coverage times by one Dijkstra sweep over clocks
drawn in blocks; the per-event simulator kept in ``growth_oracle`` draws one
holding time per infection.  Their seeded streams differ, so the two are
compared in law; the sweep itself is checked exactly against a brute-force
fixed-point iteration of T(x) = min(N(x), E(x) + min over neighbours T(y)).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import growth_oracle as oracle
from isingkit.experiments import (GrowthModelParams, _first_passage,
                                  _growth_single, _padded, run_growth_model)


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
    t, _, _, reason, events = _growth_single(GROWTH, 4.0, 3)
    assert reason == "origin" and events > 1
    at_cap = dataclasses.replace(GROWTH, max_events=events)
    assert _growth_single(at_cap, 4.0, 3)[3:] == ("event_cap", events)
    assert _growth_single(at_cap, 4.0, 3)[0] is None
    above = dataclasses.replace(GROWTH, max_events=events + 1)
    assert _growth_single(above, 4.0, 3)[0] == t
    assert _growth_single(above, 4.0, 3)[3:] == ("origin", events)
    one = dataclasses.replace(GROWTH, max_events=1)
    assert _growth_single(one, 4.0, 3)[3:] == ("event_cap", 1)


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
])
def test_bad_params_rejected(bad):
    kw = dict(d=2, gamma=2.0, kappa_prev=0.5, L=0.7, betas=[4.0])
    kw.update(bad)
    with pytest.raises(ValueError):
        GrowthModelParams(**kw)
