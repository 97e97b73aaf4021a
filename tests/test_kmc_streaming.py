"""Differential tests: the streaming graphical sampler of ``isingkit.kmc``
against the restart-per-window sampler kept in ``kmc_oracle``.

Both read the same arrivals in the same order, so seeded runs must agree
exactly: hitting time, censoring, and the trajectory's events, end time,
stop reason and hitting time.
"""

import numpy as np
import pytest

import kmc_oracle as oracle
from isingkit.energy import MagneticField
from isingkit.kmc import (EventStream, evolve_graphical, evolve_restricted,
                          hitting_time, pred_all_plus, pred_exits_set)
from isingkit.landscape import critical_constants, restricted_ensemble
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)

# (box, beta, field): hitting times of all-plus from all-minus spread over
# the first few windows and well beyond them
BOXES = {
    (3,): (2.0, "0.5"),
    (3, 3): (1.5, "sqrt2/2"),
    (4, 4): (1.2, "sqrt2/2"),
    (8, 8): (0.9, "sqrt2/2"),
}
_CONTEXTS = {}


def context(dims):
    if dims not in _CONTEXTS:
        _CONTEXTS[dims] = build_context(BoxGeometry(dims),
                                        BoundaryCondition.all_minus(),
                                        MagneticField(BOXES[dims][1]))
    return _CONTEXTS[dims]


def observed(res):
    traj = res.trajectory
    return (res.time, res.censored, traj.events, traj.t_end,
            traj.stop_reason, traj.hitting_time)


@pytest.mark.parametrize("max_events", [3, 5, 200_000])
@pytest.mark.parametrize("time_cap", [None, 3, 50, 100, 256])
@pytest.mark.parametrize("dims", list(BOXES))
def test_hitting_time_matches_restarts(dims, time_cap, max_events):
    ctx = context(dims)
    beta = BOXES[dims][0]
    alpha = Configuration.all_minus(ctx.geometry)
    for seed in (11, 12):
        new = hitting_time("graphical", ctx, alpha, beta, pred_all_plus(),
                           seed=seed, time_cap=time_cap,
                           max_events=max_events)
        old = oracle.hitting_time_graphical(
            ctx, alpha, beta, pred_all_plus(), seed=seed, time_cap=time_cap,
            max_events=max_events)
        assert observed(new) == observed(old)


@pytest.mark.parametrize("time_cap", [None, 50])
@pytest.mark.parametrize("dims", [(3,), (3, 3), (4, 4)])
def test_stateful_nucleation_predicate(dims, time_cap):
    # the run_nucleation predicate: records the first exit from the
    # restricted ensemble and stops at all-plus
    ctx = context(dims)
    d = len(dims)
    ens = restricted_ensemble(ctx, d, critical_constants(d, ctx.field))
    exit_pred, plus_pred = pred_exits_set(ens), pred_all_plus()
    alpha = Configuration.all_minus(ctx.geometry)

    def run(sampler, seed):
        first_exit = []

        def stop(state):
            if not first_exit and exit_pred(state):
                first_exit.append(state.time)
            return plus_pred(state)

        res = sampler(ctx, alpha, BOXES[dims][0], stop, seed)
        return observed(res), first_exit

    for seed in (21, 22, 23):
        new = run(lambda *a: hitting_time("graphical", *a, time_cap=time_cap),
                  seed)
        old = run(lambda *a: oracle.hitting_time_graphical(
            *a, time_cap=time_cap), seed)
        assert new == old


def _trajectory(traj):
    return (traj.events, traj.t_end, traj.stop_reason, traj.hitting_time)


@pytest.mark.parametrize("horizon", [6.0, 40.0, 300.0])
@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
def test_doubling_windows_match_one_window(dims, horizon):
    ctx = context(dims)
    alpha = Configuration.all_minus(ctx.geometry)
    beta = BOXES[dims][0]
    for stop in (None, pred_all_plus()):
        new = evolve_graphical(EventStream(31), ctx, alpha, beta, stop=stop,
                               horizon=horizon)
        old = oracle.evolve_graphical(EventStream(31), ctx, alpha, beta,
                                      stop=stop, horizon=horizon)
        assert _trajectory(new) == _trajectory(old)


@pytest.mark.parametrize("horizon", [6.0, 40.0, 300.0])
@pytest.mark.parametrize("dims, bc", [((2,), BoundaryCondition.n_pm(1)),
                                      ((3, 3), BoundaryCondition.all_minus())])
def test_doubling_windows_match_one_window_restricted(dims, bc, horizon):
    ctx = build_context(BoxGeometry(dims), bc, MagneticField("sqrt2/2"))
    d = len(dims)
    ens = restricted_ensemble(ctx, d, critical_constants(d, ctx.field))
    alpha = Configuration.all_minus(ctx.geometry)
    for beta in (0.5, 1.5):
        new = evolve_graphical(EventStream(41), ctx, alpha, beta,
                               horizon=horizon, restrict=ens)
        old = oracle.evolve_graphical(EventStream(41), ctx, alpha, beta,
                                      horizon=horizon, restrict=ens)
        assert _trajectory(new) == _trajectory(old)
        restricted = evolve_restricted(EventStream(41), ctx, alpha, beta,
                                       ensemble=ens, horizon=horizon)
        assert _trajectory(restricted) == _trajectory(old)


def test_unbounded_graphical_run_rejected():
    ctx = context((3,))
    with pytest.raises(ValueError):
        evolve_graphical(EventStream(1), ctx,
                         Configuration.all_minus(ctx.geometry), 2.0,
                         stop=pred_all_plus(), horizon=None, max_events=None)


def lone_site():
    return build_context(BoxGeometry((1,)), BoundaryCondition.all_minus(),
                         MagneticField("0.5"))


def test_rejecting_run_stops_at_tick_cap():
    # a lone site at beta = 2000: the up rate underflows to 0.0, so every
    # tick is rejected and only the tick cap ends the run
    ctx = lone_site()
    stream = EventStream(5)
    traj = evolve_graphical(stream, ctx, Configuration.all_minus(ctx.geometry),
                            2000.0, horizon=None, max_events=1,
                            max_ticks=10_000)
    assert traj.stop_reason == "tick_cap" and traj.events == []
    # the run ends with the first doubling window that reaches the cap
    read = stream.window(ctx, 0.0, traj.t_end)[0].size
    assert traj.ticks_read == traj.ticks_rejected == read >= 10_000
    assert stream.window(ctx, 0.0, traj.t_end / 2)[0].size < 10_000
    summary = traj.summary()
    assert summary["ticks_read"] == summary["ticks_rejected"] == read


def test_tick_cap_censors_hitting_time():
    ctx = lone_site()
    alpha = Configuration.all_minus(ctx.geometry)
    res = hitting_time("graphical", ctx, alpha, 2000.0, pred_all_plus(),
                       seed=5, max_ticks=100)
    assert res.censored and res.trajectory.stop_reason == "tick_cap"
    assert res.time == res.trajectory.t_end
    with pytest.raises(ValueError):
        hitting_time("rejection_free", ctx, alpha, 2000.0, pred_all_plus(),
                     seed=5, max_ticks=100)


@pytest.mark.parametrize("dims", list(BOXES))
def test_tick_counts(dims):
    ctx = context(dims)
    beta = BOXES[dims][0]
    stream = EventStream(13)
    traj = evolve_graphical(stream, ctx, Configuration.all_minus(ctx.geometry),
                            beta, horizon=20.0)
    assert traj.ticks_read == stream.window(ctx, 0.0, 20.0)[0].size
    assert traj.ticks_rejected == traj.ticks_read - len(traj.events)
    hit = evolve_graphical(stream, ctx, Configuration.all_minus(ctx.geometry),
                           beta, stop=pred_all_plus(), horizon=None,
                           max_events=10 ** 6)
    times = stream.window(ctx, 0.0, 2.0 * hit.t_end)[0]
    assert hit.stop_reason == "stopped"
    assert hit.ticks_read == np.searchsorted(times, hit.t_end, side="right")
