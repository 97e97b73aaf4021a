"""Differential tests of the exact landscape's construction steps.

The enumeration by doubling, the lookup of state positions, the level
index and the level order are each compared, exactly, with the
implementation they replaced: the chunked int64 enumerator, the
``np.unique`` lookup and the intp-keyed level index kept in
``landscape_oracle``, and the int32 stable ``argsort`` with
``searchsorted`` for the level order.  The memory the level index holds
is measured with tracemalloc, and the slow 4x6 barrier in a fresh
interpreter.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isingkit
import landscape_oracle as oracle
from isingkit.energy import MagneticField
from isingkit.landscape import (LevelIndex, bottom_of, enumerate_landscape,
                                truncate_landscape)
from isingkit.lattice import BoundaryCondition, BoxGeometry, build_context

FIELDS = ("sqrt2/2", "sqrt3/3", "0.5", "1/20")


@st.composite
def contexts(draw, max_sites=16):
    """A 1-d to 4-d box of at most ``max_sites`` sites, under any boundary
    label and one of the test fields."""
    d = draw(st.integers(1, 4))
    dims = []
    for axis in range(d):
        room = max_sites // math.prod(dims) if dims else max_sites
        # leave at least one site for each axis still to come
        dims.append(draw(st.integers(1, max(1, room // 2 ** (d - axis - 1)))))
    bc = draw(st.sampled_from(["all_minus", "all_plus"]
                              + [f"n_pm_{n}" for n in range(d + 1)]))
    h = draw(st.sampled_from(FIELDS))
    return build_context(BoxGeometry(tuple(dims)),
                         BoundaryCondition.from_label(bc), MagneticField(h))


def assert_same_arrays(got, want):
    """The narrow int16 bonds and int8 pluses hold exactly the values of
    the int64 oracle."""
    assert got._bonds.dtype == np.int16 and got._pluses.dtype == np.int8
    for a, b in ((got._bonds, want._bonds), (got._pluses, want._pluses)):
        assert b.dtype == np.int64
        np.testing.assert_array_equal(a.astype(np.int64), b)


class TestEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(ctx=contexts())
    def test_doubling_matches_chunked_oracle(self, ctx):
        assert_same_arrays(enumerate_landscape(ctx), oracle.enumerate_landscape(ctx))

    @pytest.mark.parametrize("bc", ["all_minus", "n_pm_1"])
    def test_4x5_matches_chunked_oracle(self, bc):
        ctx = build_context(BoxGeometry((4, 5)), BoundaryCondition.from_label(bc),
                            MagneticField("sqrt2/2"))
        assert_same_arrays(enumerate_landscape(ctx), oracle.enumerate_landscape(ctx))

    @pytest.mark.parametrize("bc", ["all_plus", "n_pm_1", "n_pm_2", "n_pm_3",
                                    "n_pm_4"])
    def test_4d_20_sites_match_chunked_oracle(self, bc):
        # a 4-d box of 20 sites: eight bond slots per site, the most
        # boundary bonds under all_plus and each face split of n_pm
        ctx = build_context(BoxGeometry((2, 2, 5, 1)),
                            BoundaryCondition.from_label(bc),
                            MagneticField("sqrt2/2"))
        assert_same_arrays(enumerate_landscape(ctx),
                           oracle.enumerate_landscape(ctx))

    def test_narrow_columns_refuse_a_box_they_cannot_hold(self):
        # pluses reach 128 on 128 sites, past int8; a raised cap fails
        # before any state is built, rather than wrapping
        ctx = build_context(BoxGeometry((128,)), BoundaryCondition.all_plus(),
                            MagneticField("sqrt2/2"))
        with pytest.raises(ValueError, match="overflows"):
            enumerate_landscape(ctx, cap=128)


def shapes(draw, g):
    """A maker of one collection of states of ``g``, in one of the shapes
    callers pass; each call makes it afresh, so generators can be read
    twice."""
    states = g.states()
    kind = draw(st.sampled_from(["list", "range", "generator", "frozenset",
                                 "ascending", "empty"]))
    if kind == "range":
        lo = draw(st.integers(0, len(states)))
        hi = draw(st.integers(lo, len(states)))
        step = draw(st.sampled_from([1, 2, 3, -1, -2]))
        # ascending, stepped or descending; for a truncation, a slice of its
        # sorted list of states
        return lambda: states[lo:hi][::step]
    picked = draw(st.lists(st.sampled_from(states), max_size=40))
    if kind == "list":
        return lambda: picked + picked[:len(picked) // 2]
    if kind == "generator":
        return lambda: (s for s in picked)
    if kind == "frozenset":
        return lambda: frozenset(picked)
    if kind == "ascending":
        return lambda: np.unique(np.array(picked, dtype=np.int64))
    return set


@st.composite
def landscapes(draw):
    """A full landscape on at most 9 sites, or a truncation of one."""
    g = enumerate_landscape(draw(contexts(max_sites=9)))
    if draw(st.booleans()):
        g = truncate_landscape(g, draw(st.integers(1, g.n_states)))
    return g


class TestPositions:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mask_matches_unique_oracle(self, data):
        g = data.draw(landscapes())
        make = shapes(data.draw, g)
        lv = g.levels()
        got, want = lv.positions(make()), oracle.positions(g, make())
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(g=landscapes())
    def test_states_outside_raise(self, g):
        lv = g.levels()
        inside = g.states()[0]
        dropped = sorted(set(range(1 << g.n_sites)) - set(g.states()))
        # -1, a state below every negative index, 2^n, dropped states;
        # unordered, and as a strictly ascending array
        far = -1 - (1 << g.n_sites)
        for s in [-1, far, 1 << g.n_sites] + dropped[:3]:
            for states in ([s], [inside, s, inside],
                           np.array(sorted({inside, s}), dtype=np.int64)):
                with pytest.raises(ValueError):
                    lv.positions(states)

    @settings(max_examples=40, deadline=None)
    @given(g=landscapes(), data=st.data())
    def test_ascending_arrays_read_as_they_are(self, g, data):
        # a position is its state, so an ascending int64 array of states
        # is its own position list, full landscape or truncated
        states = np.array(sorted(data.draw(st.sets(st.sampled_from(
            g.states()), max_size=40))), dtype=np.int64)
        got = g.levels().positions(states)
        assert got is states
        np.testing.assert_array_equal(got, oracle.positions(g, states))


class TestLevelOrder:
    @staticmethod
    def assert_order_as_int32_argsort(lv, kept):
        """``order`` is the int32 stable argsort of the levels cut to the
        ``kept`` states, which it holds exactly: a truncation's dropped
        states read level ``n_levels``, sort last and are never placed."""
        level = lv.level_of(np.arange(lv.n))
        want = np.argsort(level, kind="stable")
        np.testing.assert_array_equal(lv.order, want[:len(kept)])
        np.testing.assert_array_equal(np.sort(lv.order), kept)
        assert np.all(lv.where[want[len(kept):]] == lv.n)
        np.testing.assert_array_equal(
            lv.starts, np.searchsorted(level[want], np.arange(lv.n_levels + 1)))

    @settings(max_examples=40, deadline=None)
    @given(g=landscapes())
    def test_landscapes(self, g):
        self.assert_order_as_int32_argsort(g.levels(), g.states())

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(FIELDS), n_sites=st.integers(1, 12),
           spread=st.sampled_from([3, 40, 3000]), seed=st.integers(0, 2 ** 32 - 1),
           keep=st.sampled_from([1.0, 0.5]))
    def test_many_levels(self, field, n_sites, spread, seed, keep):
        """Synthetic pairs with up to thousands of levels, so the sort key
        takes 8, 16 and 32 bits."""
        rng = np.random.default_rng(seed)
        kept = None
        if keep < 1.0:
            kept = rng.random(1 << n_sites) < keep
            kept[0] = True
        bonds = rng.integers(-spread, spread, 1 << n_sites).astype(np.int64)
        pluses = rng.integers(0, n_sites + 1, 1 << n_sites).astype(np.int64)
        lv = LevelIndex(bonds, pluses, MagneticField(field), n_sites, kept)
        self.assert_order_as_int32_argsort(
            lv, np.arange(1 << n_sites) if kept is None else np.flatnonzero(kept))


def assert_placed_as_full_sort(lv, stop):
    """``place(stop)`` leaves a prefix of whole levels, at least the levels
    below ``stop``, placed as one stable sort of every level places them,
    and every other state unplaced (``where`` n, and not in ``order``)."""
    order, where = lv.place(stop)
    n = lv.n
    level = lv.level_of(np.arange(n))
    want = np.argsort(level, kind="stable")
    m = np.count_nonzero(where < n)
    assert m >= lv.starts[stop] and m in lv.starts
    np.testing.assert_array_equal(order, want[:m])
    np.testing.assert_array_equal(where[want[:m]], np.arange(m))
    assert np.all(where[want[m:]] == n)
    np.testing.assert_array_equal(
        lv.starts, np.searchsorted(level[want], np.arange(lv.n_levels + 1)))


class TestPlacement:
    """The level order placed on request, a prefix of levels at a time."""

    @settings(max_examples=60, deadline=None)
    @given(g=landscapes(), data=st.data())
    def test_requests_place_prefixes_of_the_full_sort(self, g, data):
        lv = g.levels()
        stops = data.draw(st.lists(st.integers(0, lv.n_levels), max_size=4))
        for stop in stops:
            assert_placed_as_full_sort(lv, stop)
        TestLevelOrder.assert_order_as_int32_argsort(lv, g.states())

    @pytest.mark.parametrize("dims,field", [((3, 3), "sqrt2/2"),
                                            ((3, 3), "0.5"),
                                            ((2, 5), "1/20")])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_every_first_request(self, dims, field, truncate):
        # every first stop, on a full landscape, a truncated one, and under
        # rational fields whose levels hold several pairs; the first stops
        # within 1/16 of the states take the masked pass
        ctx = build_context(BoxGeometry(dims), BoundaryCondition.all_minus(),
                            MagneticField(field))
        make = (lambda: truncate_landscape(enumerate_landscape(ctx), 300)) \
            if truncate else (lambda: enumerate_landscape(ctx))
        n_levels = make().levels().n_levels
        for first in range(1, n_levels + 1):
            lv = make().levels()
            for stop in (first, first, min(first + 1, n_levels), n_levels):
                assert_placed_as_full_sort(lv, stop)

    @settings(max_examples=60, deadline=None)
    @given(g=landscapes(), frac=st.one_of(st.floats(0.0, 1 / 16),
                                          st.floats(0.0, 1.0)))
    def test_truncation_as_from_the_full_order(self, g, frac):
        # the kept states are those a fully placed order gives, whether
        # the truncation placed a prefix or every state
        k = max(1, int(frac * g.n_states))
        fresh = truncate_landscape(g, k)
        g.levels().order
        assert fresh.states() == truncate_landscape(g, k).states()


def assert_same_index(lv, want, stops):
    """The level index equals the intp oracle column for column: the
    placements after each stop in turn and after every level, then the
    sorted pairs and the per-state ranks and levels."""
    for stop in [*stops, lv.n_levels]:
        (order, where), (o, w) = lv.place(stop), want.place(stop)
        assert order.dtype == np.int32 and where.dtype == np.int32
        np.testing.assert_array_equal(order, o)
        np.testing.assert_array_equal(where, w)
    assert [v.pair() for v in lv.values] == [v.pair() for v in want.values]
    assert lv.level_rank == want.level_rank
    for name in ("rank_level", "starts", "rank"):
        got, ref = getattr(lv, name), getattr(want, name)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(lv.level_of(np.arange(lv.n)), want.level)


def both_indexes(bonds, pluses, field, n_sites, kept=None):
    return (LevelIndex(bonds, pluses, field, n_sites, kept),
            oracle.IntpLevelIndex(bonds, pluses, field, n_sites, kept))


class TestNarrowKey:
    """The level index keyed in the least unsigned dtype equals the one
    keyed in intp, on full, truncated and rational-field landscapes, and
    with its counts and tie scan cut into blocks of any size."""

    @pytest.mark.parametrize("block", [5, LevelIndex._BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(g=landscapes(), data=st.data())
    def test_landscapes(self, block, g, data):
        with mock.patch.object(LevelIndex, "_BLOCK", block):
            lv, want = both_indexes(g._bonds, g._pluses, g.ctx.field,
                                    g.n_sites, g._kept)
        assert lv._key.dtype.kind == "u" and lv._key.dtype.itemsize <= 2
        stops = data.draw(st.lists(st.integers(0, lv.n_levels), max_size=3))
        assert_same_index(lv, want, stops)

    @pytest.mark.parametrize("dims,field,bc", [((3, 3), "0.5", "n_pm_1"),
                                               ((2, 5), "1/3", "all_minus"),
                                               ((4, 5), "0.5", "n_pm_1")])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_ties_across_blocks(self, dims, field, bc, truncate):
        # rational fields whose levels hold several pairs, so the tie scan
        # orders them; 4x5 holds sixteen blocks of the key, and each
        # truncation keeps some of its ties
        ctx = build_context(BoxGeometry(dims), BoundaryCondition.from_label(bc),
                            MagneticField(field))
        g = enumerate_landscape(ctx)
        if truncate:
            g = truncate_landscape(g, min(g.n_states * 3 // 4, 3000))
        lv, want = both_indexes(g._bonds, g._pluses, ctx.field, g.n_sites,
                                g._kept)
        assert len(lv.values) > lv.n_levels
        assert lv._key.dtype == (np.uint16 if g.n_sites == 20 else np.uint8)
        assert_same_index(lv, want, [1, lv.n_levels // 2])

    @settings(max_examples=30, deadline=None)
    @given(field=st.sampled_from(FIELDS), seed=st.integers(0, 2 ** 32 - 1),
           keep=st.sampled_from([1.0, 0.5]), data=st.data())
    def test_key_past_16_bits(self, field, seed, keep, data):
        """A synthetic bonds column whose key needs 32 bits: 6000 bond
        values times 13 plus counts pass 2^16."""
        n_sites = 12
        rng = np.random.default_rng(seed)
        kept = None
        if keep < 1.0:
            kept = rng.random(1 << n_sites) < keep
            kept[0] = True
        bonds = rng.integers(-3000, 3000, 1 << n_sites).astype(np.int64)
        bonds[:2] = -3000, 2999
        pluses = rng.integers(0, n_sites + 1, 1 << n_sites).astype(np.int8)
        lv, want = both_indexes(bonds, pluses, MagneticField(field), n_sites,
                                kept)
        assert lv._key.dtype == np.uint32
        stops = data.draw(st.lists(st.integers(0, lv.n_levels), max_size=3))
        assert_same_index(lv, want, stops)


MIB = 2 ** 20


class TestMemory:
    def test_4x5_index_and_bottom_of(self):
        # the key is two bytes a state and ``where`` four: 6 MiB over the
        # 2^20 states, where an intp key made it 12; ``bottom_of`` reads
        # the levels of its states alone, not a 4 MiB level column
        ctx = build_context(BoxGeometry((4, 5)), BoundaryCondition.all_minus(),
                            MagneticField("sqrt2/2"))
        g = enumerate_landscape(ctx)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g.levels()
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bottom = bottom_of(g, [5, 77, 1 << 19])
            spent = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held <= 6.5 * MIB
        assert spent < MIB
        assert bottom == oracle.bottom_of(g, [5, 77, 1 << 19])


# the 4x6 minus-to-plus barrier in a fresh interpreter, which prints the
# barrier's pair and its own peak RSS in MB (ru_maxrss is in KiB on Linux)
BARRIER_4X6 = """
import json, resource
from isingkit.energy import MagneticField
from isingkit.landscape import communication_energy, enumerate_landscape
from isingkit.lattice import BoundaryCondition, BoxGeometry, build_context
ctx = build_context(BoxGeometry((4, 6)), BoundaryCondition.all_minus(),
                    MagneticField("sqrt2/2"))
e = communication_energy(enumerate_landscape(ctx), [0], [(1 << 24) - 1])
print(json.dumps([e.pair(),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


@pytest.mark.slow
def test_4x6_barrier_in_a_fresh_interpreter():
    # 2^24 states at the enumeration cap: the int16 and int8 energy
    # columns, the uint16 key and ``where`` make 144 MiB; an intp key
    # made the run peak at 295 MB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(isingkit.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", BARRIER_4X6], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    pair, peak_mb = json.loads(out)
    assert tuple(pair) == (12, 7)
    assert peak_mb < 250
