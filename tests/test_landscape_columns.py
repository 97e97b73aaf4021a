"""Differential tests: the columnar ``CyclePartition`` against the blocks
built all at once (``landscape_oracle._blocks``).

Both are fed the labels of the same merge, so they must agree exactly,
block by block and in order: states, exit, height, bottom and depth pairs,
and the tie events of the compounds.  ``block_of`` must find what a scan
of the oracle's list finds, and raise ``KeyError`` outside Y.
"""

import dataclasses
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import landscape_oracle as oracle
from landscape_oracle import _compound_labels
from isingkit import landscape
from isingkit.energy import NEG_INF_ENERGY, MagneticField
from isingkit.landscape import (CycleBlock, CyclePartition, _compounds,
                                _cycle_labels, bottom_of,
                                enumerate_landscape, maximal_compounds,
                                maximal_cycles, truncate_landscape)
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


def view(blocks):
    return [(b.states, _pair(b.exit_energy), _pair(b.height), b.bottom,
             _pair(b.depth), b.height is NEG_INF_ENERGY) for b in blocks]


def assert_columns_match_oracle(g, y):
    lv = g.levels()
    y = frozenset(y)
    label, count = _cycle_labels(lv, lv.positions(y))
    final, n, ties = _compound_labels(g, label, count)
    for got, want in (
            (CyclePartition(lv, label, count, "cycles"),
             oracle.ListPartition(oracle._blocks(g, label, count), "cycles")),
            (_compounds(lv, label, count),
             oracle.ListPartition(oracle._blocks(g, final, n), "compounds",
                                  ties))):
        assert got.kind == want.kind
        assert len(got.blocks) == len(want.blocks)
        assert view(got.blocks) == view(want.blocks)
        assert got.tie_events == want.tie_events
        for s in y:
            assert got.block_of(s) == want.block_of(s)
        for s in sorted(set(range(1 << g.n_sites)) - y)[:20] + \
                [-1, 1 << g.n_sites]:
            with pytest.raises(KeyError):
                got.block_of(s)


@pytest.mark.parametrize("token", ["sqrt2/2", "sqrt3/3", "sqrt5/5"])
@pytest.mark.parametrize("bc", BOUNDARIES, ids=lambda bc: bc.label())
def test_criterion_03_grid_matches_materialised_blocks(token, bc):
    for dims in ((2, 2), (2, 3), (3, 3)):
        g = graph(dims, bc, token)
        full = (1 << g.n_sites) - 1
        everything = frozenset(g.states())
        bottom = min(bottom_of(g, everything))
        for y in (everything, everything - {bottom}, everything - {0, full}):
            assert_columns_match_oracle(g, y)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
       bc=st.sampled_from(BOUNDARIES),
       token=st.sampled_from(["sqrt2/2", "sqrt3/3", "0.5"]),
       truncate=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.0, 1.0))
def test_random_y_matches_materialised_blocks(dims, bc, token, truncate, seed,
                                              density):
    # a truncation is no full hypercube: its lookups go through searchsorted
    g = graph(dims, bc, token)
    rng = random.Random(seed)
    if truncate:
        g = truncate_landscape(g, rng.randrange(1, g.n_states + 1))
    y = frozenset(s for s in g.states() if rng.random() < density)
    assert_columns_match_oracle(g, y)


def test_rational_field_ties_and_bottoms():
    # h = 1/2 on 2x4: under all-minus the compounds merge cycles whose exit
    # pairs differ; under n_pm(1) the one block of Y = all has a bottom of
    # two pairs, (0, 0) and (4, 8), so the bottom is a level, not a rank
    g = graph((2, 4), BoundaryCondition.all_minus(), "0.5")
    y = frozenset(g.states()) - {(1 << g.n_sites) - 1}
    assert maximal_compounds(g, y).tie_events
    assert_columns_match_oracle(g, y)
    g = graph((2, 4), BoundaryCondition.n_pm(1), "0.5")
    y = frozenset(g.states())
    assert maximal_cycles(g, y).block_of(0).bottom == frozenset({0, 255})
    assert_columns_match_oracle(g, y)


def test_4x4_blocks_built_on_access(monkeypatch):
    g = graph((4, 4), BoundaryCondition.all_minus(), "sqrt2/2")
    built = []

    def counting(*fields):
        built.append(CycleBlock(*fields))
        return built[-1]

    monkeypatch.setattr(landscape, "CycleBlock", counting)
    part = maximal_cycles(g, np.arange(g.n_states - 1))
    assert len(part.blocks) == 65246
    assert built == []
    blk = part.block_of(0)
    assert len(built) == 1
    assert 0 in blk.states and blk.bottom == frozenset({0})
    assert part.block_of(0) is blk and part.blocks[0] is blk
    assert len(built) == 1


def test_block_slices_are_the_indexed_blocks(monkeypatch):
    g = graph((3, 3), BoundaryCondition.all_minus(), "sqrt2/2")
    built = []

    def counting(*fields):
        built.append(CycleBlock(*fields))
        return built[-1]

    monkeypatch.setattr(landscape, "CycleBlock", counting)
    part = maximal_cycles(g, range(511))
    n = len(part.blocks)
    assert n > 6 and built == []
    for cut in (slice(None, 2), slice(-3, None), slice(1, -1, 3),
                slice(None, None, -2), slice(5, 1, -1), slice(n, None)):
        got = part.blocks[cut]
        assert isinstance(got, list)
        want = [part.blocks[k] for k in range(n)[cut]]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
    assert len(built) == len({id(b) for b in built})


def test_y_as_array_or_frozenset(monkeypatch):
    g = graph((3, 3), BoundaryCondition.n_pm(1), "sqrt2/2")
    full = g.n_states - 1
    want = maximal_compounds(g, frozenset(g.states()) - {full})

    def no_fromiter(*args, **kwargs):
        raise AssertionError("an array of states went through np.fromiter")

    lv = g.levels()
    y = np.arange(full)
    with monkeypatch.context() as patched:
        patched.setattr(np, "fromiter", no_fromiter)
        np.testing.assert_array_equal(lv.positions(y), y)
    got = maximal_compounds(g, y)
    assert view(got.blocks) == view(want.blocks)
    for bad in ([-1], [full + 1], [0, 1 << 20]):
        with pytest.raises(ValueError):
            lv.positions(np.array(bad, dtype=np.int64))


def cycles_4x4():
    g = graph((4, 4), BoundaryCondition.all_minus(), "sqrt2/2")
    return maximal_cycles(g, np.arange(g.n_states - 1))


def test_one_pass_keeps_no_block():
    part = cycles_4x4()
    refs = [weakref.ref(b) for k, b in enumerate(part.blocks)
            if k in (0, 4095, 4096, 65245)]
    assert len(refs) == 4
    assert all(r() is None for r in refs)


def test_one_pass_holds_one_chunk_of_blocks():
    part = cycles_4x4()
    tracemalloc.start()
    try:
        n = sum(1 for _ in part.blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 65246
    assert peak < 8 << 20


def test_held_block_is_what_every_read_returns():
    part = cycles_4x4()
    k = 5000
    held = part.blocks[k]
    seen = {}
    for j, b in enumerate(part.blocks):
        if j in (k, k + 1):
            seen[j] = b
    assert seen[k] is held
    assert part.blocks[k] is held
    assert part.block_of(min(held.states)) is held
    # a block the pass yielded and the caller kept is read back too
    assert part.blocks[k + 1] is seen[k + 1]
    assert part.block_of(max(seen[k + 1].states)) is seen[k + 1]


def test_cycle_block_has_slots_and_weak_references():
    blk = cycles_4x4().blocks[0]
    assert not hasattr(blk, "__dict__")
    assert weakref.ref(blk)() is blk


def test_blocks_equal_pair_by_pair():
    g = graph((3, 3), BoundaryCondition.all_minus(), "sqrt2/2")
    part = maximal_cycles(g, range(511))
    assert part.blocks == maximal_cycles(g, range(511)).blocks
    blocks = list(part.blocks)
    assert part.blocks != blocks[:-1]
    other = list(blocks)
    other[3] = dataclasses.replace(blocks[3], states=frozenset({-1}))
    assert len(other) == len(blocks) and part.blocks != other
    assert part.blocks.__eq__(3) is NotImplemented


def test_partition_read_by_its_columns_makes_no_weak_map():
    # the weak map's objects would be tracked by the garbage collector
    g = graph((3, 3), BoundaryCondition.all_minus(), "sqrt2/2")
    part = maximal_compounds(g, range(511))
    assert len(part.blocks) > 6 and "_held" not in vars(part)
    blk = part.block_of(0)
    assert part._held[0] is blk
