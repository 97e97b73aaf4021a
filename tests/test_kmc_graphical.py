"""Differential tests: ``isingkit.kmc.evolve_graphical`` (list copies of the
window, neighbour sums read inline) against ``evolve_graphical_scalar`` kept
in ``kmc_oracle`` (numpy scalars, ``neighbor_spin_sum`` and ``apply_flip``
per arrival).

Both read the same windows of the same stream, so seeded runs must agree
exactly: events, ticks read and rejected, end time, stop reason and hitting
time, and every state a stop predicate is shown.  Every run is repeated
under each row block and walk chunk of ``kmc_chunks``.
"""

import pytest
from hypothesis import given, settings, strategies as st

import kmc_oracle as oracle
from box_strategy import boxes
from isingkit.energy import MagneticField
from isingkit.kmc import EventStream, evolve_graphical, pred_all_plus, \
    pred_spin_up_at
from isingkit.landscape import critical_constants, restricted_ensemble
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)
from kmc_chunks import chunk_sizes


def recorder(limit):
    """A stateful predicate: logs every state it is shown (time, energy pair
    and spins) and holds once it has been asked ``limit`` times."""
    seen = []

    def check(state):
        seen.append((state.time, state.bonds, state.pluses,
                     state.spins.tobytes()))
        return len(seen) > limit
    return check, seen


def ensemble(ctx):
    """The restricted ensemble that matches the box's boundary, if any."""
    label = ctx.bc.label()
    if label == "all_plus":
        return None
    d = ctx.geometry.dimension
    n = d if label == "all_minus" else int(label.rsplit("_", 1)[1])
    return restricted_ensemble(ctx, n, critical_constants(n, ctx.field))


@st.composite
def runs(draw):
    # not 1/20: its 3-d critical constants, which ``ensemble`` needs, take
    # seconds
    ctx, alpha = draw(boxes(fields=("0.5", "sqrt2/2", "sqrt3/3")))
    kwargs = {"beta": draw(st.sampled_from([0.5, 1.5, 1000.0])),
              # 3 reads one window, 100 five doubling windows
              "horizon": draw(st.sampled_from([3.0, 20.0, 100.0, None])),
              "max_events": draw(st.none() | st.integers(1, 40)),
              "max_ticks": draw(st.none() | st.integers(1, 3000))}
    if kwargs["horizon"] is None and kwargs["max_ticks"] is None:
        kwargs["max_ticks"] = 3000
    if draw(st.booleans()):
        kwargs["restrict"] = ensemble(ctx)
    stop = draw(st.sampled_from(["none", "all_plus", "spin_up", "recorder"]))
    site = draw(st.integers(0, ctx.n_sites - 1))
    limit = draw(st.integers(0, 30))
    return ctx, alpha, kwargs, stop, site, limit


def predicate(kind, site, limit):
    if kind == "all_plus":
        return pred_all_plus(), None
    if kind == "spin_up":
        return pred_spin_up_at(site), None
    if kind == "recorder":
        return recorder(limit)
    return None, None


def observed(traj):
    return (traj.events, traj.ticks_read, traj.ticks_rejected, traj.t_end,
            traj.stop_reason, traj.hitting_time)


class TestGraphicalAgainstScalarLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=runs(), seed=st.integers(0, 2**32 - 1))
    def test_same_trajectory(self, case, seed):
        ctx, alpha, kwargs, kind, site, limit = case
        for _ in chunk_sizes():
            stop, seen = predicate(kind, site, limit)
            new = evolve_graphical(EventStream(seed), ctx, alpha, stop=stop,
                                   **kwargs)
            stop, seen_old = predicate(kind, site, limit)
            old = oracle.evolve_graphical_scalar(EventStream(seed), ctx,
                                                 alpha, stop=stop, **kwargs)
            assert observed(new) == observed(old)
            assert seen == seen_old


@pytest.mark.parametrize("kwargs, reason, ticks", [
    # the recorder holds at row 5747 of the window (0, 8]: past its first
    # 4096 rows, and inside a chunk of 3
    ({"stop": 400, "max_ticks": 10**6}, "stopped", 5747),
    # both caps are read at the end of the window that reaches them: (0, 8]
    # holds 9253 arrivals and applies 878 flips
    ({"max_events": 200}, "event_cap", 9253),
    ({"max_ticks": 5000}, "tick_cap", 9253),
], ids=["stop", "event_cap", "tick_cap"])
def test_stops_and_caps_across_chunks(kwargs, reason, ticks):
    ctx = build_context(BoxGeometry((24, 24)), BoundaryCondition.all_minus(),
                        MagneticField("sqrt2/2"))
    alpha = Configuration.all_minus(ctx.geometry)
    kwargs = dict(kwargs)
    limit = kwargs.pop("stop", None)
    for _ in chunk_sizes():
        both = []
        for evolve in (evolve_graphical, oracle.evolve_graphical_scalar):
            stop, seen = recorder(limit) if limit else (None, None)
            traj = evolve(EventStream(11), ctx, alpha, 1.0, stop=stop,
                          horizon=None, **kwargs)
            both.append((observed(traj), seen))
        assert both[0] == both[1]
        assert (traj.stop_reason, traj.ticks_read) == (reason, ticks)
