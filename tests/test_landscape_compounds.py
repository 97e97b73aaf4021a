"""Differential tests: the compounds of ``isingkit.landscape``, components
of a fixed tie graph with the tie events replayed where pairs can differ,
against the worklist merge over per-cycle dicts kept in
``landscape_oracle._compound_labels``.

Both are fed the labels of the same cycle merge.  The partitions must be
equal once both are numbered by smallest state, and the tie events equal
in order, under irrational and rational fields, on full and truncated
landscapes.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import landscape_oracle as oracle
from isingkit import landscape
from isingkit.energy import MagneticField
from isingkit.landscape import (_by_first_state, _compound_labels,
                                _cycle_labels, bottom_of, enumerate_landscape,
                                maximal_compounds, truncate_landscape)
from isingkit.lattice import BoundaryCondition, BoxGeometry, build_context

BOUNDARIES = (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1),
              BoundaryCondition.n_pm(2))
TOKENS = ("sqrt2/2", "1/2", "1/3", "2/3")
_GRAPHS = {}


def graph(dims, bc, token):
    key = (dims, bc.label(), token)
    if key not in _GRAPHS:
        _GRAPHS[key] = enumerate_landscape(
            build_context(BoxGeometry(dims), bc, MagneticField(token)))
    return _GRAPHS[key]


def compound_ties(g, y):
    """Assert the library's compound labels and tie events equal the
    oracle's on Y; return the tie events."""
    lv = g.levels()
    label, count = _cycle_labels(lv, lv.positions(y))
    got, n, ties = _compound_labels(lv, label, count)
    want, n_want, ties_want = oracle._compound_labels(lv, label, count)
    assert n == n_want
    np.testing.assert_array_equal(_by_first_state(got, n)[0],
                                  _by_first_state(want, n_want)[0])
    assert ties == ties_want
    return ties


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("bc", BOUNDARIES, ids=lambda bc: bc.label())
def test_criterion_03_grid_matches_worklist(token, bc):
    for dims in ((2, 2), (2, 3), (3, 3)):
        g = graph(dims, bc, token)
        full = (1 << g.n_sites) - 1
        everything = frozenset(g.states())
        bottom = min(bottom_of(g, everything))
        for y in (everything, everything - {bottom}, everything - {0, full}):
            compound_ties(g, y)


@pytest.mark.parametrize("dims,bc", [
    ((3, 3), BoundaryCondition.all_minus()),
    ((3, 3), BoundaryCondition.n_pm(1)),
    ((2, 4), BoundaryCondition.all_minus())])
def test_truncated_landscapes_match_worklist(dims, bc):
    g = graph(dims, bc, "1/2")
    rng = random.Random(g.n_states)
    for k in (g.n_states // 5, g.n_states // 2, g.n_states - 1):
        t = truncate_landscape(g, k)
        assert not t.levels().full
        states = t.states()
        for y in (frozenset(states) - {max(states)},
                  frozenset(s for s in states if rng.random() < 0.7)):
            compound_ties(t, y)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
       bc=st.sampled_from(BOUNDARIES),
       token=st.sampled_from(TOKENS),
       truncate=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.0, 1.0))
def test_random_y_matches_worklist(dims, bc, token, truncate, seed, density):
    g = graph(dims, bc, token)
    rng = random.Random(seed)
    if truncate:
        g = truncate_landscape(g, rng.randrange(1, g.n_states + 1))
    compound_ties(g, frozenset(s for s in g.states() if rng.random() < density))


@pytest.mark.parametrize("dims,bc,token", [
    ((4, 4), BoundaryCondition.all_minus(), "1/2"),
    ((3, 4), BoundaryCondition.n_pm(1), "1/3"),
    ((3, 3), BoundaryCondition.all_minus(), "2/3")])
def test_tie_events_match_worklist(dims, bc, token):
    g = graph(dims, bc, token)
    ties = compound_ties(g, np.arange(g.n_states - 1))
    assert ties


def test_no_replay_under_an_irrational_field(monkeypatch):
    replayed = []
    replay = landscape._replay_ties

    def counting(*args):
        replayed.append(args)
        return replay(*args)

    monkeypatch.setattr(landscape, "_replay_ties", counting)
    for token in ("sqrt2/2", "sqrt3/3", "sqrt5/5"):
        for bc in BOUNDARIES:
            for dims in ((3, 3), (2, 4)):
                g = graph(dims, bc, token)
                part = maximal_compounds(g, np.arange(g.n_states - 1))
                assert part.tie_events == []
    assert replayed == []
    # the same partition under h = 1/2 replays its ties
    g = graph((2, 4), BoundaryCondition.all_minus(), "1/2")
    assert maximal_compounds(g, np.arange(g.n_states - 1)).tie_events
    assert len(replayed) == 1
