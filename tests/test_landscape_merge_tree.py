"""Differential tests: the level index and sublevel merge tree of
``isingkit.landscape`` against the per-state sweeps kept in
``landscape_oracle``.

Under an irrational field every exact pair must agree: barriers, block
state sets, and the exit, height and depth pairs.  Under a rational field
distinct pairs can share a value, and the library names such a value by a
fixed rule, so there state sets and exit values must agree.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import landscape_oracle as oracle
from isingkit.energy import NEG_INF_ENERGY, MagneticField
from isingkit.landscape import (bottom_of, communication_energy,
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
