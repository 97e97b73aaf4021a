"""Differential tests: the level index and sublevel merge tree of
``isingkit.landscape`` against the per-state sweeps kept in
``landscape_oracle``.

Under an irrational field every exact pair must agree: barriers, block
state sets, and the exit, height and depth pairs.  Under a rational field
distinct pairs can share a value, and the library names such a value by a
fixed rule, so there state sets and exit values must agree.

Against the union-find sweep over the same level index (the merge-tree
oracle) everything must agree exactly under any field: barrier pairs,
block order, every pair of every block, bottoms and tie events.
"""

import io
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import landscape_oracle as oracle
from isingkit import landscape
from isingkit.energy import NEG_INF_ENERGY, MagneticField
from isingkit.landscape import (CyclePartition, _compounds,
                                bottom_of, communication_energy,
                                enumerate_landscape, landscape_to_csv,
                                maximal_compounds, maximal_cycles,
                                partition_to_csv, truncate_landscape)
from isingkit.lattice import BoundaryCondition, BoxGeometry, build_context

BOUNDARIES = (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1),
              BoundaryCondition.n_pm(2))
_GRAPHS = {}


def graph(dims, bc, token):
    key = (dims, bc.label(), token)
    if key not in _GRAPHS:
        _GRAPHS[key] = enumerate_landscape(
            build_context(BoxGeometry(dims), bc, MagneticField(token)))
    return _GRAPHS[key]


def _pair(e):
    return None if e is None or e is NEG_INF_ENERGY else e.pair()


def exact_blocks(part):
    return {b.states: (_pair(b.exit_energy), _pair(b.height), _pair(b.depth),
                       b.bottom)
            for b in part.blocks}


def valued_blocks(part):
    return {b.states: (None if b.exit_energy is None
                       else b.exit_energy.exact_value())
            for b in part.blocks}


def assert_partitions_agree(g, y):
    if g.ctx.field.is_irrational:
        view = exact_blocks
    else:
        view = valued_blocks
    assert view(maximal_cycles(g, y)) == view(oracle.maximal_cycles(g, y))
    assert view(maximal_compounds(g, y)) == \
        view(oracle.maximal_compounds(g, y))


@pytest.mark.parametrize("token", ["sqrt2/2", "sqrt3/3", "sqrt5/5"])
def test_criterion_03_grid_matches_oracle(token):
    for dims in ((2, 2), (2, 3), (3, 3)):
        for bc in BOUNDARIES:
            g = graph(dims, bc, token)
            full = (1 << g.n_sites) - 1
            assert communication_energy(g, [0], [full]).pair() == \
                oracle.communication_energy(g, [0], [full]).pair()
            everything = frozenset(g.states())
            bottom = min(bottom_of(g, everything))
            for y in (everything, everything - {bottom},
                      everything - {0, full}):
                assert_partitions_agree(g, y)


def test_rational_field_matches_oracle():
    # h = 1/2: exit values, state sets and barrier pairs agree; the barrier
    # keeps the pair of the lowest state at its level
    for dims in ((2, 3), (2, 4), (3, 3)):
        for bc in BOUNDARIES:
            g = graph(dims, bc, "0.5")
            full = (1 << g.n_sites) - 1
            assert communication_energy(g, [0], [full]).pair() == \
                oracle.communication_energy(g, [0], [full]).pair()
            everything = frozenset(g.states())
            for y in (everything - {full}, everything - {0, full}):
                assert_partitions_agree(g, y)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.sampled_from([(2, 3), (3, 3)]),
       bc=st.sampled_from(BOUNDARIES),
       token=st.sampled_from(["sqrt2/2", "sqrt3/3", "0.5"]),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.05, 1.0))
def test_random_y_matches_oracle(dims, bc, token, seed, density):
    g = graph(dims, bc, token)
    rng = random.Random(seed)
    y = frozenset(s for s in g.states() if rng.random() < density)
    if y:
        assert_partitions_agree(g, y)


@settings(max_examples=25, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       token=st.sampled_from(["sqrt2/2", "0.5"]),
       k=st.integers(1, 80),
       seed=st.integers(0, 2 ** 32 - 1))
def test_truncated_landscapes_match_oracle(dims, token, k, seed):
    full = graph(dims, BoundaryCondition.n_pm(1), token)
    t = truncate_landscape(full, k)
    assert t.states() == oracle.truncate_landscape(full, k).states()
    states = t.states()
    rng = random.Random(seed)
    a, b = rng.choice(states), rng.choice(states)
    got = communication_energy(t, [a], [b])
    want = oracle.communication_energy(t, [a], [b])
    assert got.pair() == want.pair()
    y = frozenset(s for s in states if rng.random() < 0.7)
    if y:
        assert_partitions_agree(t, y)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(2, 3), (3, 3)]),
       bc=st.sampled_from(BOUNDARIES),
       token=st.sampled_from(["sqrt2/2", "0.5"]),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.0, 0.5))
def test_bottom_of_matches_oracle(dims, bc, token, seed, density):
    # under h = 1/2 distinct pairs can share the lowest value, and the
    # bottom must hold every state at that value
    g = graph(dims, bc, token)
    rng = random.Random(seed)
    states = [s for s in g.states() if rng.random() < density]
    if states:
        assert bottom_of(g, states) == oracle.bottom_of(g, states)
    else:
        with pytest.raises(ValueError):
            bottom_of(g, states)


def test_communication_energy_stops_at_the_barrier():
    # on 4x4 all-minus at sqrt2/2 the sweep from all-minus to all-plus
    # should look at the flip edges below the (12, 7) barrier only
    g = graph((4, 4), BoundaryCondition.all_minus(), "sqrt2/2")
    lv = g.levels()
    visited = []
    flips = lv.flips

    def counting(pos, bit):
        visited.append(len(pos))
        return flips(pos, bit)

    lv.flips = counting
    try:
        barrier = communication_energy(g, [0], [(1 << 16) - 1])
    finally:
        del lv.flips
    assert barrier.pair() == (12, 7)
    assert 0 < sum(visited) < g.n_sites * g.n_states // 20


def test_merge_joins_each_node_root_run_once(monkeypatch):
    # on 4x4 all-minus at sqrt2/2 the merge meets 524,288 flip edges to
    # lower levels, but nearly every state's lower neighbours share one
    # root, so the components pass should see about one edge per state
    g = graph((4, 4), BoundaryCondition.all_minus(), "sqrt2/2")
    edges = []
    components = landscape._components

    def counting(m, a, b):
        edges.append(len(a))
        return components(m, a, b)

    monkeypatch.setattr(landscape, "_components", counting)
    maximal_cycles(g, frozenset(g.states()) - {g.n_states - 1})
    assert 0 < sum(edges) < 100_000


def assert_same_as_sweep(got, want):
    assert got.kind == want.kind
    assert [(b.states, _pair(b.exit_energy), _pair(b.height), _pair(b.depth),
             b.bottom) for b in got.blocks] == \
        [(b.states, _pair(b.exit_energy), _pair(b.height), _pair(b.depth),
          b.bottom) for b in want.blocks]
    assert got.tie_events == want.tie_events


def sweep_partitions(g, y):
    """Cycles and compounds of Y from one run of the union-find sweep."""
    lv = g.levels()
    label, count = oracle.sweep_cycle_labels(lv, lv.positions(y))
    cycles = CyclePartition(lv, label, count, "cycles")
    return cycles, _compounds(lv, label, count)


@pytest.mark.parametrize("bc", BOUNDARIES, ids=lambda bc: bc.label())
def test_4x4_merge_matches_sweep_oracle(bc):
    g = graph((4, 4), bc, "sqrt2/2")
    full = (1 << g.n_sites) - 1
    assert communication_energy(g, [0], [full]).pair() == \
        oracle.sweep_communication_energy(g, [0], [full]).pair()
    y = frozenset(g.states()) - {full}
    cycles, compounds = sweep_partitions(g, y)
    assert_same_as_sweep(maximal_cycles(g, y), cycles)
    assert_same_as_sweep(maximal_compounds(g, y), compounds)


@pytest.mark.parametrize("dims,bc,token,k", [
    ((3, 3), BoundaryCondition.n_pm(1), "sqrt2/2", 300),
    ((3, 3), BoundaryCondition.all_minus(), "0.5", 200),
    ((4, 4), BoundaryCondition.all_minus(), "sqrt2/2", 5000)])
def test_truncated_merge_matches_sweep_oracle(dims, bc, token, k):
    # a truncated landscape indexes every state of the box, and its
    # dropped states are never placed, so the merge never reaches them
    t = truncate_landscape(graph(dims, bc, token), k)
    states = t.states()
    rng = random.Random(k)
    for _ in range(5):
        a, b = rng.choice(states), rng.choice(states)
        assert communication_energy(t, [a], [b]).pair() == \
            oracle.sweep_communication_energy(t, [a], [b]).pair()
    for y in (frozenset(states) - {max(states)},
              frozenset(s for s in states if rng.random() < 0.7)):
        cycles, compounds = sweep_partitions(t, y)
        assert_same_as_sweep(maximal_cycles(t, y), cycles)
        assert_same_as_sweep(maximal_compounds(t, y), compounds)
    assert_dropped_never_placed(t)


def assert_dropped_never_placed(t):
    """A truncated landscape's index places exactly its kept states: every
    dropped state has ``where`` n, and ``order`` holds the kept ones."""
    lv = t.levels()
    dropped = np.setdiff1d(np.arange(lv.n), t.states())
    assert len(dropped) and np.all(lv.where[dropped] == lv.n)
    np.testing.assert_array_equal(np.sort(lv.order), t.states())


@pytest.mark.parametrize("dims,bc", [
    ((7,), BoundaryCondition.all_minus()),
    ((3, 3), BoundaryCondition.n_pm(1)),
    ((2, 4), BoundaryCondition.all_minus()),
    ((2, 2, 3), BoundaryCondition.all_minus()),
    ((3, 2, 2), BoundaryCondition.n_pm(2)),
    ((2, 2, 1, 2), BoundaryCondition.all_minus())])
def test_csv_export_matches_row_writer(dims, bc):
    g = graph(dims, bc, "sqrt2/2")
    full = (1 << g.n_sites) - 1
    y = frozenset(g.states()) - {full}
    for landscape_graph in (g, truncate_landscape(g, g.n_states // 3)):
        got, want = io.StringIO(), io.StringIO()
        landscape_to_csv(landscape_graph, got)
        oracle.landscape_to_csv_rows(landscape_graph, want)
        assert lines(got) == lines(want)
    # Y = every state: one block with no exterior, so empty exit and depth
    # fields
    every = frozenset(g.states())
    for part in (maximal_cycles(g, y), maximal_compounds(g, y),
                 maximal_cycles(g, every), maximal_compounds(g, every)):
        got, want = [io.StringIO(), io.StringIO()], [io.StringIO(),
                                                    io.StringIO()]
        partition_to_csv(g, part, *got)
        oracle.partition_to_csv_rows(g, part, *want)
        for a, b in zip(got, want):
            assert lines(a) == lines(b)
    summary = lines(got[1])
    assert len(summary) == 3 and summary[2] == ""
    assert summary[1].split(",")[2:4] == ["", ""]
    assert summary[1].split(",")[5:] == ["", "\r"]


def lines(buf):
    # split keeping the '\r' of each row, so equal lists mean byte-identical
    # text, and a mismatch reports its first row instead of a diff of the
    # whole text
    return buf.getvalue().split("\n")


def placed(lv):
    """How many states the level order holds so far."""
    return int((lv.place(0)[1] < lv.n).sum())


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(3, 3), (2, 5), (4, 4)]),
       bc=st.sampled_from(BOUNDARIES), token=st.sampled_from(["sqrt2/2", "0.5"]),
       seed=st.integers(0, 2 ** 16), truncate=st.booleans())
def test_communication_energy_on_a_placed_order(dims, bc, token, seed,
                                                truncate):
    # the sweep's answer does not depend on how much of the order an
    # earlier query placed
    def make():
        g = enumerate_landscape(build_context(BoxGeometry(dims), bc,
                                              MagneticField(token)))
        return truncate_landscape(g, g.n_states // 3) if truncate else g

    fresh, placed_in_full = make(), make()
    placed_in_full.levels().order
    rng = random.Random(seed)
    states = fresh.states()
    for _ in range(3):
        a = rng.sample(states, rng.randint(1, 3))
        b = rng.sample(states, rng.randint(1, 3))
        assert communication_energy(fresh, a, b).pair() == \
            communication_energy(placed_in_full, a, b).pair()


@pytest.mark.parametrize("dims,bc,token", [
    ((4, 4), "all_minus", "sqrt2/2"), ((4, 4), "n_pm_1", "0.5"),
    ((4, 4), "n_pm_2", "0.5"), ((3, 4), "n_pm_2", "sqrt2/2"),
    ((2, 6), "n_pm_1", "sqrt2/2")])
def test_maximal_cycles_after_a_barrier_query(dims, bc, token):
    # the barrier query places a prefix of the order; the cycles found on
    # the same graph after it are those of a fresh graph
    ctx = build_context(BoxGeometry(dims), BoundaryCondition.from_label(bc),
                        MagneticField(token))
    queried, fresh = enumerate_landscape(ctx), enumerate_landscape(ctx)
    full = queried.n_states - 1
    communication_energy(queried, [0], [full])
    assert 0 < placed(queried.levels()) < queried.n_states
    y = frozenset(queried.states()) - {full}
    after, want = maximal_cycles(queried, y), maximal_cycles(fresh, y)
    assert exact_blocks(after) == exact_blocks(want)
    assert after.blocks == want.blocks


def test_4x5_barrier_query_places_a_prefix():
    # the sweep stops at level 23, whose prefix holds 998 of the 2^20
    # states: the query places at most 1/16 of them and builds no per-state
    # rank or level
    g = enumerate_landscape(build_context(
        BoxGeometry((4, 5)), BoundaryCondition.all_minus(),
        MagneticField("sqrt2/2")))
    assert communication_energy(g, [0], [g.n_states - 1]).pair() == (12, 7)
    lv = g.levels()
    assert 998 <= placed(lv) <= g.n_states // 16
    assert "rank" not in vars(lv) and "level" not in vars(lv)


class _NoStateRange:
    """numpy as the landscape module sees it, but ``arange`` fails on an
    int64 range over all n states: on a full landscape that is what a list
    of the states would be, since there a position is its state."""

    def __init__(self, n):
        self._n = n

    def __getattr__(self, name):
        return getattr(np, name)

    def arange(self, *args, **kwargs):
        out = np.arange(*args, **kwargs)
        assert not (out.dtype == np.int64 and out.size == self._n
                    and out[0] == 0 and out[-1] == self._n - 1), \
            "an int64 array of every state"
        return out


@pytest.mark.parametrize("token", ["sqrt2/2", "0.5"])
def test_full_landscape_builds_no_state_array(monkeypatch, token):
    # under h = 0.5 levels hold several pairs, so the index also orders
    # pairs by their first states
    g = enumerate_landscape(build_context(
        BoxGeometry((3, 4)), BoundaryCondition.n_pm(1), MagneticField(token)))
    full = g.n_states - 1
    y = np.arange(full)
    monkeypatch.setattr(landscape, "np", _NoStateRange(g.n_states))
    communication_energy(g, [0], [full])
    part = maximal_cycles(g, y)
    landscape_to_csv(g, io.StringIO())
    partition_to_csv(g, part, io.StringIO(), io.StringIO())
    monkeypatch.undo()
    assert exact_blocks(part) == exact_blocks(maximal_cycles(
        enumerate_landscape(g.ctx), y))
