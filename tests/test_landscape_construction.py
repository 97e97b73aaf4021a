"""Differential tests of the exact landscape's construction steps.

The enumeration by doubling, the mask lookup of state positions and the
level order are each compared, exactly, with the implementation they
replaced: the chunked enumerator and the ``np.unique`` lookup kept in
``landscape_oracle``, and the int32 stable ``argsort`` with ``searchsorted``
for the level order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landscape_oracle as oracle
from isingkit.energy import MagneticField
from isingkit.landscape import LevelIndex, enumerate_landscape, truncate_landscape
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
    for a, b in ((got._bonds, want._bonds), (got._pluses, want._pluses)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


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


def shapes(draw, g):
    """A maker of one collection of states of ``g``, in one of the shapes
    callers pass; each call makes it afresh, so generators can be read
    twice."""
    states = g.states()
    kind = draw(st.sampled_from(["list", "range", "generator", "frozenset",
                                 "empty"]))
    if kind == "range":
        lo = draw(st.integers(0, len(states)))
        hi = draw(st.integers(lo, len(states)))
        # for a truncation, a slice of its sorted list of states
        return lambda: states[lo:hi]
    picked = draw(st.lists(st.sampled_from(states), max_size=40))
    if kind == "list":
        return lambda: picked + picked[:len(picked) // 2]
    if kind == "generator":
        return lambda: (s for s in picked)
    if kind == "frozenset":
        return lambda: frozenset(picked)
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
        got, want = lv.positions(make()), oracle.positions(lv, make())
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(g=landscapes())
    def test_states_outside_raise(self, g):
        lv = g.levels()
        inside = g.states()[0]
        dropped = sorted(set(range(1 << g.n_sites)) - set(g.states()))
        # -1, a state below every negative index, 2^n, dropped states
        far = -1 - (1 << g.n_sites)
        for s in [-1, far, 1 << g.n_sites] + dropped[:3]:
            for states in ([s], [inside, s, inside]):
                with pytest.raises(ValueError):
                    lv.positions(states)


class TestLevelOrder:
    @staticmethod
    def assert_order_as_int32_argsort(lv):
        want = np.argsort(lv.level, kind="stable")
        assert lv.level.dtype == np.int32
        np.testing.assert_array_equal(lv.order, want)
        np.testing.assert_array_equal(
            lv.starts, np.searchsorted(lv.level[want], np.arange(lv.n_levels + 1)))

    @settings(max_examples=40, deadline=None)
    @given(g=landscapes())
    def test_landscapes(self, g):
        self.assert_order_as_int32_argsort(g.levels())

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(FIELDS), n_sites=st.integers(1, 12),
           spread=st.sampled_from([3, 40, 3000]), seed=st.integers(0, 2 ** 32 - 1),
           keep=st.sampled_from([1.0, 0.5]))
    def test_many_levels(self, field, n_sites, spread, seed, keep):
        """Synthetic pairs with up to thousands of levels, so the sort key
        takes 8, 16 and 32 bits."""
        rng = np.random.default_rng(seed)
        ids = np.arange(1 << n_sites, dtype=np.int64)
        if keep < 1.0:
            ids = ids[rng.random(len(ids)) < keep]
            if not len(ids):
                ids = np.zeros(1, dtype=np.int64)
        bonds = rng.integers(-spread, spread, len(ids)).astype(np.int64)
        pluses = rng.integers(0, n_sites + 1, len(ids)).astype(np.int64)
        lv = LevelIndex(ids, bonds, pluses, MagneticField(field), n_sites)
        self.assert_order_as_int32_argsort(lv)


def assert_placed_as_full_sort(lv, stop):
    """``place(stop)`` leaves a prefix of whole levels, at least the levels
    below ``stop``, placed as one stable sort of every level places them,
    and every other state unplaced (``where`` n, and not in ``order``)."""
    order, where = lv.place(stop)
    n = len(lv.ids)
    want = np.argsort(lv.level, kind="stable")
    m = np.count_nonzero(where < n)
    assert m >= lv.starts[stop] and m in lv.starts
    np.testing.assert_array_equal(order, want[:m])
    np.testing.assert_array_equal(where[want[:m]], np.arange(m))
    assert np.all(where[want[m:]] == n)
    np.testing.assert_array_equal(
        lv.starts, np.searchsorted(lv.level[want], np.arange(lv.n_levels + 1)))


class TestPlacement:
    """The level order placed on request, a prefix of levels at a time."""

    @settings(max_examples=60, deadline=None)
    @given(g=landscapes(), data=st.data())
    def test_requests_place_prefixes_of_the_full_sort(self, g, data):
        lv = g.levels()
        stops = data.draw(st.lists(st.integers(0, lv.n_levels), max_size=4))
        for stop in stops:
            assert_placed_as_full_sort(lv, stop)
        TestLevelOrder.assert_order_as_int32_argsort(lv)

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
