"""Differential tests: ``isingkit.stc.track`` (live sites resolved by
``find`` on demand, merges by size, initial pluses fed through the event
loop as time-0 flips) against the relabel-every-flip tracker kept in
``stc_oracle``, which opens each initial plus component as one cluster.
From an all-minus start the ledgers must agree exactly: diameter events,
crossing times, clusters and segments.  From a start with pluses a
component may open several clusters that merge at time 0, so cluster ids
and the time-0 diameter events may differ; everything else must agree:
the clusters without their ids, crossing times, segments, the largest
diameter overall and at time 0, the diameter events after time 0 and the
doubling witnesses without their ids.  Likewise
``isingkit.stc.diam_infty_window`` (the window re-tracked) against the
clipped-segment union-find kept there, on every window that ends before the
horizon; at the horizon it must equal the oracle at a time between the last
flip and the horizon, where open segments are not clipped.  It must also
equal, on every window, the same function reading a list of event tuples
(``tuple_window``), which it replaced by reading the event columns.
"""

from bisect import bisect_right
from collections import Counter
from operator import itemgetter

from hypothesis import given, settings, strategies as st

import stc_oracle as oracle
from box_strategy import boxes
from isingkit.energy import MagneticField
from isingkit.kmc import (EventStream, Trajectory, evolve_graphical,
                          evolve_rejection_free)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)
from isingkit.stc import diam_infty_window, doubling_extraction, track

SQRT2_2 = MagneticField("sqrt2/2")


@st.composite
def trajectories(draw):
    """A 1-3 d box with sides from 1 up (``box_strategy.boxes``), a random
    initial configuration, and valid flips at random sites and increasing
    times."""
    ctx, initial = draw(boxes())
    n = ctx.n_sites
    sites = draw(st.lists(st.integers(0, n - 1), max_size=150))
    current = initial.spins.tolist()
    events = []
    t = 0.0
    for site in sites:
        t += draw(st.integers(1, 4)) / 8.0
        current[site] = -current[site]
        events.append((t, site, current[site]))
    traj = Trajectory(initial=initial, events=events, t_end=t + 1.0,
                      stop_reason="scripted", beta=0.0,
                      h_token=ctx.field.token, bc_label=ctx.bc.label())
    return ctx, traj


def id_free(ledger):
    """What a ledger says that names no cluster id and no time-0 step."""
    events = ledger.diameter_events
    at_zero = max((d for t, _, d in events if t == 0.0), default=0)
    doubling = [doubling_extraction(ledger, k)
                for k in range(at_zero, ledger.max_diameter() + 2)]
    return {
        "clusters": Counter((v.segments, v.lo, v.hi, v.birth, v.death,
                             v.diameter) for v in ledger.clusters()),
        "crossing_times": ledger.crossing_times,
        "segments": sorted(ledger.all_segments()),
        "max_diameter": ledger.max_diameter(),
        "max_diameter_at_zero": at_zero,
        "events_after_zero": [(t, d) for t, _, d in events if t > 0.0],
        "doubling": [hit and (hit[0], hit[2]) for hit in doubling],
    }


def assert_equal_ledgers(new, old):
    assert new.diameter_events == old.diameter_events
    assert new.crossing_times == old.crossing_times
    assert new.clusters() == old.clusters()
    assert sorted(new.all_segments()) == sorted(old.all_segments())


def assert_same_ledger(new, old):
    """Equal up to ids from a start with pluses, exactly from all minus."""
    assert id_free(new) == id_free(old)
    if not (new.trajectory.initial.spins == 1).any():
        assert_equal_ledgers(new, old)


class TestTrackAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=trajectories())
    def test_random_trajectories(self, case):
        ctx, traj = case
        assert_same_ledger(track(ctx, traj), oracle.track(ctx, traj))

    @settings(max_examples=100, deadline=None)
    @given(case=trajectories())
    def test_initial_pluses_are_time_zero_flips(self, case):
        # the same flips replayed from all minus, the initial pluses first
        # in site order: the library's ledger is the same, and equals the
        # oracle's exactly, ids included
        ctx, traj = case
        opens = [(0.0, site, 1) for site in traj.initial.plus_sites()]
        replay = Trajectory(Configuration.all_minus(ctx.geometry),
                            opens + list(traj.events), traj.t_end,
                            traj.stop_reason, traj.beta, traj.h_token,
                            traj.bc_label)
        ledger = track(ctx, replay)
        assert_equal_ledgers(track(ctx, traj), ledger)
        assert_same_ledger(ledger, oracle.track(ctx, replay))

    def test_sampled_trajectories(self):
        # growing droplets on 16x16, where merges of large clusters occur
        ctx = build_context(BoxGeometry((16, 16)),
                            BoundaryCondition.all_minus(), SQRT2_2)
        alpha = Configuration.all_minus(ctx.geometry)
        for seed in range(3):
            traj = evolve_rejection_free(seed, ctx, alpha, 1.2,
                                         max_events=3000)
            assert_same_ledger(track(ctx, traj), oracle.track(ctx, traj))


class TestClusterDeath:
    @settings(max_examples=100, deadline=None)
    @given(case=trajectories())
    def test_dead_exactly_when_no_segment_is_open(self, case):
        # a cluster dies when its last plus site closes, and only then
        ctx, traj = case
        for view in track(ctx, traj).clusters():
            still_open = any(end is None for _, _, end in view.segments)
            assert (view.death is None) == still_open


def walked_max_diameter(ledger):
    """The largest diameter over every cluster record, walked at the end."""
    return max((ledger._diam(rec) for rec in ledger._records.values()),
               default=0)


class TestMaxDiameter:
    @settings(max_examples=150, deadline=None)
    @given(case=trajectories(), frac=st.floats(0.0, 1.0))
    def test_running_maximum_equals_the_walk(self, case, frac):
        # on the whole trajectory and on a prefix of it
        ctx, traj = case
        cut = int(frac * len(traj.events))
        prefix = Trajectory(traj.initial, traj.events[:cut], traj.t_end,
                            traj.stop_reason, traj.beta, traj.h_token,
                            traj.bc_label)
        for run in (traj, prefix):
            ledger = track(ctx, run)
            assert ledger.max_diameter() == walked_max_diameter(ledger)

    def test_sampled_trajectories(self):
        # growing droplets on 16x16, where merges of large clusters occur
        ctx = build_context(BoxGeometry((16, 16)),
                            BoundaryCondition.all_minus(), SQRT2_2)
        alpha = Configuration.all_minus(ctx.geometry)
        for seed in range(3):
            ledger = track(ctx, evolve_rejection_free(seed, ctx, alpha, 1.2,
                                                      max_events=3000))
            assert ledger.max_diameter() == walked_max_diameter(ledger) > 0


class TestPrefixConsistency:
    @settings(max_examples=60, deadline=None)
    @given(case=trajectories(), frac=st.floats(0.0, 1.0))
    def test_prefix_reproduces_dead_clusters(self, case, frac):
        # clusters that died by the cut are identical between the ledger of
        # the full trajectory and that of its prefix
        ctx, traj = case
        if not traj.events:
            return
        cut = traj.events[int(frac * (len(traj.events) - 1))][0]
        prefix = Trajectory(initial=traj.initial,
                            events=[e for e in traj.events if e[0] <= cut],
                            t_end=cut, stop_reason="prefix", beta=traj.beta,
                            h_token=traj.h_token, bc_label=traj.bc_label)

        def dead(ledger):
            return {v.segments for v in ledger.clusters()
                    if v.death is not None and v.death <= cut}

        assert dead(track(ctx, traj)) == dead(track(ctx, prefix))


class TestWindowAgainstOracle:
    @staticmethod
    def assert_same_window(ledger, s, t):
        end = ledger.t_end
        if t < end:
            assert diam_infty_window(ledger, s, t) == \
                oracle.diam_infty_window(ledger, s, t)
            return
        # no flip in (last, end], and every open segment covers the time
        # halfway there, so the oracle sees the clusters alive at the horizon
        last = max((e[0] for e in ledger.trajectory.events if e[0] <= end),
                   default=0.0)
        halfway = (last + end) / 2
        if s < halfway:
            assert diam_infty_window(ledger, s, end) == \
                oracle.diam_infty_window(ledger, s, halfway)

    @settings(max_examples=150, deadline=None)
    @given(case=trajectories(), data=st.data())
    def test_random_windows(self, case, data):
        # window faces from 0, the flip times, random times and t_end
        ctx, traj = case
        ledger = track(ctx, traj)
        faces = [0.0, traj.t_end] + [e[0] for e in traj.events]
        face = st.one_of(st.sampled_from(faces),
                         st.floats(0.0, traj.t_end))
        for _ in range(8):
            s, t = sorted((data.draw(face), data.draw(face)))
            if s < t:
                self.assert_same_window(ledger, s, t)
            if s < traj.t_end:
                self.assert_same_window(ledger, s, traj.t_end)

    def test_sampled_windows(self):
        # criterion 09's windows on graphical runs, horizon left open
        ctx = build_context(BoxGeometry((4, 4)),
                            BoundaryCondition.all_minus(), SQRT2_2)
        alpha = Configuration.all_minus(ctx.geometry)
        for seed in range(10):
            traj = evolve_graphical(EventStream(seed), ctx, alpha, beta=0.9,
                                    horizon=4.0)
            ledger = track(ctx, traj)
            for u in [e[0] for e in traj.events][1:-1:3]:
                for s, t in ((0.0, u), (u, traj.t_end), (0.0, traj.t_end)):
                    self.assert_same_window(ledger, s, t)


def tuple_window(ledger, s, t):
    """``diam_infty_window`` as it read a list of event tuples: bisect by
    ``itemgetter(0)``, then replay the prefix tuple by tuple."""
    traj = ledger.trajectory
    events = list(traj.events)
    first = bisect_right(events, s, key=itemgetter(0))
    last = bisect_right(events, t, lo=first, key=itemgetter(0))
    spins = traj.initial.spins.tolist()
    for _, site, spin in events[:first]:
        spins[site] = spin
    window = track(ledger.ctx, Trajectory(
        Configuration(traj.initial.geometry, spins), events[first:last], t,
        traj.stop_reason, traj.beta, traj.h_token, traj.bc_label))
    meeting = other = 0
    for rec in window._records.values():
        diam = window._diam(rec)
        if rec["birth"] == 0.0 or rec["death"] is None:
            meeting += diam
        else:
            other = max(other, diam)
    return max(meeting, other)


class TestWindowColumns:
    @settings(max_examples=150, deadline=None)
    @given(case=trajectories(), data=st.data())
    def test_equals_the_tuple_window(self, case, data):
        # s at a flip time (a flip exactly at s), at 0 or anywhere before
        # the horizon; t after it, the horizon included
        ctx, traj = case
        ledger = track(ctx, traj)
        times = [e[0] for e in traj.events]
        face = st.one_of(st.sampled_from([0.0] + times),
                         st.floats(0.0, traj.t_end))
        for _ in range(6):
            s = data.draw(face)
            if s >= traj.t_end:
                continue
            t = data.draw(st.one_of(st.just(traj.t_end),
                                    st.floats(s, traj.t_end)))
            if s < t:
                assert diam_infty_window(ledger, s, t) == \
                    tuple_window(ledger, s, t)
        for s in times:
            if s < traj.t_end:
                assert diam_infty_window(ledger, s, traj.t_end) == \
                    tuple_window(ledger, s, traj.t_end)
