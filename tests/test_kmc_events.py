"""Tests of ``isingkit.kmc.Events``, the typed columns a trajectory keeps its
flips in.

An ``Events`` must read as the list of ``(time, site, new_spin)`` tuples it
replaces: same length, items, slices, iteration and equality (with lists
from either side), and the same ``to_csv`` bytes as a writer over the
tuples.  Its columns must take at most 16 bytes per event, where a list of
tuples takes about 92.
"""

import io
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from isingkit.energy import MagneticField
from isingkit.kmc import Events, Trajectory, evolve_rejection_free
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)

FLIPS = [(0.125, 3, 1), (0.5, 300, -1), (2.0, 3, -1), (7.25, 70000, 1)]

flip_lists = st.lists(st.tuples(
    st.floats(0.0, 1e300, allow_nan=False), st.integers(0, 2 ** 31 - 1),
    st.sampled_from([-1, 1])), max_size=40)


def trajectory(events, dims=(4,)):
    geometry = BoxGeometry(dims)
    return Trajectory(initial=Configuration.all_minus(geometry),
                      events=events, t_end=10.0, stop_reason="scripted",
                      beta=1.0, h_token="sqrt2/2", bc_label="all_minus")


def tuple_csv(events):
    """``Trajectory.to_csv`` as it wrote a list of tuples."""
    fh = io.StringIO()
    fh.write("time,site,new_spin\n")
    for t, site, spin in events:
        fh.write(f"{t!r},{site},{spin}\n")
    return fh.getvalue()


class TestSequence:
    def test_length_items_and_iteration(self):
        events = Events(FLIPS)
        assert len(events) == 4 and len(Events()) == 0
        assert events[0] == (0.125, 3, 1)
        assert events[-1] == (7.25, 70000, 1)
        assert events[-4] == events[0]
        assert list(events) == FLIPS
        assert all(type(a) is type(b) for item in events
                   for a, b in zip(item, FLIPS[0]))

    def test_index_out_of_range(self):
        events = Events(FLIPS)
        for index in (4, -5):
            with pytest.raises(IndexError):
                events[index]

    def test_slice_is_events(self):
        events = Events(FLIPS)
        for part, want in ((events[1:3], FLIPS[1:3]),
                           (events[:0], []), (events[::-2], FLIPS[::-2])):
            assert isinstance(part, Events)
            assert part == want

    def test_equality_with_lists_both_ways(self):
        events = Events(FLIPS)
        assert events == FLIPS and FLIPS == events
        assert events == tuple(FLIPS) and tuple(FLIPS) == events
        assert Events() == [] and [] == Events()
        assert events != FLIPS[:3] and FLIPS[:3] != events
        changed = FLIPS[:3] + [(7.25, 70000, -1)]
        assert events != changed and changed != events
        assert events == Events(FLIPS) and events != Events(FLIPS[1:])
        assert events != "abc" and events != 4

    def test_pickle_round_trip(self):
        events = Events(FLIPS)
        back = pickle.loads(pickle.dumps(events))
        assert isinstance(back, Events) and back == events == FLIPS

    @settings(max_examples=100, deadline=None)
    @given(flips=flip_lists)
    def test_holds_every_flip_exactly(self, flips):
        events = Events(flips)
        assert events == flips and list(events) == flips
        assert [events[i] for i in range(-len(flips), 0)] == flips


class TestTrajectory:
    def test_list_converted_once_events_kept(self):
        traj = trajectory(FLIPS)
        assert isinstance(traj.events, Events) and traj.events == FLIPS
        events = Events(FLIPS)
        assert trajectory(events).events is events

    @settings(max_examples=100, deadline=None)
    @given(flips=flip_lists)
    def test_csv_bytes_equal_the_tuple_writer(self, flips):
        fh = io.StringIO()
        trajectory(flips).to_csv(fh)
        assert fh.getvalue() == tuple_csv(flips)

    def test_columns_take_at_most_16_bytes_per_event(self):
        n = 200_000
        ctx = build_context(BoxGeometry((8, 8)),
                            BoundaryCondition.all_minus(),
                            MagneticField("sqrt2/2"))
        traj = evolve_rejection_free(5, ctx, Configuration.all_minus(
            ctx.geometry), 1.0, max_events=n)
        events = traj.events
        assert len(events) == n and traj.stop_reason == "event_cap"
        columns = sum(map(sys.getsizeof,
                          (events.times, events.sites, events.spins)))
        assert columns <= 16 * n
        # the same flips as a list of tuples, each with its own float
        tuples = list(events)
        held = sys.getsizeof(tuples) + sum(
            sys.getsizeof(e) + sys.getsizeof(e[0]) for e in tuples)
        assert held >= 5 * columns
