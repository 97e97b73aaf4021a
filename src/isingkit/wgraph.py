"""Exact exit laws for continuous-time Markov processes on tiny state spaces.

The exit point distribution and expected exit time are rational fractions of
rate products summed over arrow diagrams (W-graphs): diagrams with no arrow
out of W, exactly one arrow out of every other state, and no cycle.  A dense
linear-algebra solver provides the independent cross-check, and for
Metropolis rates the minimal graph exponents satisfy exact identities against
the energy landscape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyValue
from .landscape import _block_stats, _is_connected

ENUMERATION_GUARD = 10
DENSE_STATE_LIMIT = 2000


class RateMatrix:
    """Transition rates with zero row sums over an explicit state list."""

    def __init__(self, states, rates):
        self.states = list(states)
        n = len(self.states)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (n, n):
            raise ValueError("rate matrix shape does not match states")
        off = rates.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        self.rates = off - np.diag(off.sum(axis=1))
        self.index = {s: i for i, s in enumerate(self.states)}

    @property
    def n(self):
        return len(self.states)

    def targets(self, i):
        return [j for j in range(self.n) if j != i and self.rates[i, j] > 0]

    def holding_rate(self, i):
        return -self.rates[i, i]

    @classmethod
    def from_csv(cls, fh):
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        return cls(list(range(len(rows))), rows)


def rate_matrix_from_landscape(graph, beta):
    """Metropolis rates exp(-beta (H(t)-H(s))^+) on the flip graph, as a
    dense matrix of at most ``DENSE_STATE_LIMIT`` states."""
    _check_size(graph.n_states, DENSE_STATE_LIMIT, "dense rate matrix")
    states = list(graph.states())
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rates = np.zeros((n, n))
    for s in states:
        es = graph.energy_pair(s)
        for t in graph.neighbors(s):
            diff = graph.energy_pair(t) - es
            cost = diff.value if diff.compare_zero() > 0 else 0.0
            rates[index[s], index[t]] = math.exp(-beta * cost)
    return RateMatrix(states, rates)


def random_rate_matrix(rng, n, extra_edge_prob=0.3, dense=False):
    """Random irreducible rate matrix: a random spanning tree plus extras."""
    states = list(range(n))
    rates = np.zeros((n, n))
    if dense:
        for i in range(n):
            for j in range(n):
                if i != j:
                    rates[i, j] = rng.uniform(0.05, 1.0)
    else:
        for j in range(1, n):
            i = rng.randrange(j)
            rates[i, j] = rng.uniform(0.1, 1.5)
            rates[j, i] = rng.uniform(0.1, 1.5)
        for i in range(n):
            for j in range(n):
                if i != j and rates[i, j] == 0 and rng.random() < extra_edge_prob:
                    rates[i, j] = rng.uniform(0.1, 1.5)
    return RateMatrix(states, rates)


# -- enumeration ---------------------------------------------------------------


def _check_size(n, limit, what):
    if n > limit:
        raise ValueError(f"{what} limited to {limit} states, got {n}")


def _indices(rm, w_states, x=None):
    """The enumeration size guard, then W as a list and a set of indices,
    and the index of x."""
    _check_size(rm.n, ENUMERATION_GUARD, "graph enumeration")
    w_idx = [rm.index[s] for s in w_states]
    return w_idx, set(w_idx), None if x is None else rm.index[x]


def _iter_wgraphs_indices(rm, w_set):
    """Yield (arrows, product) over all W-graphs of the index set ``w_set``,
    arrows as a target array.

    Arrows are assigned state by state with incremental cycle detection:
    following assigned arrows from the new target either stops (in W or at an
    unassigned state) or would return to the source.
    """
    free = [i for i in range(rm.n) if i not in w_set]
    arrows = [-1] * rm.n
    target_lists = [rm.targets(i) for i in range(rm.n)]

    def creates_cycle(src, dst):
        node = dst
        while node not in w_set and arrows[node] != -1:
            node = arrows[node]
            if node == src:
                return True
        return node == src

    def rec(k, product):
        if k == len(free):
            yield tuple(arrows), product
            return
        s = free[k]
        for t in target_lists[s]:
            if creates_cycle(s, t):
                continue
            arrows[s] = t
            yield from rec(k + 1, product * rm.rates[s, t])
            arrows[s] = -1

    yield from rec(0, 1.0)


def _grown(rm, w_set):
    """Yield (i, W + i, arrows, product) over the W-graphs of G(W + i), for
    every state i outside W in turn."""
    for i in range(rm.n):
        if i not in w_set:
            grown = w_set | {i}
            for arrows, product in _iter_wgraphs_indices(rm, grown):
                yield i, grown, arrows, product


def _landing(arrows, w_set, x):
    """Final state of the unique arrow path from x (a W state or arrowless)."""
    node = x
    while node not in w_set and arrows[node] != -1:
        node = arrows[node]
    return node


def enumerate_wgraphs(rm, w_states, variant="plain", x=None, y=None):
    """Exhaustive stream of W-graphs as frozensets of (from, to) state pairs.

    ``variant``: "plain" for G(W); "to_target" for the graphs containing a
    path from x to y; "avoid" for the graphs with one arrowless state and no
    path from x into W.
    """
    w_idx, w_set, xi = _indices(rm, w_states, x)
    if not w_idx and variant == "plain":
        raise ValueError("W must be non-empty")

    def materialize(arrows):
        return frozenset((rm.states[i], rm.states[t])
                         for i, t in enumerate(arrows) if t != -1)

    if variant == "plain":
        for arrows, _ in _iter_wgraphs_indices(rm, w_set):
            yield materialize(arrows)
    elif variant == "to_target":
        yi = rm.index[y]
        if xi in w_set:
            if xi == yi:
                yield from enumerate_wgraphs(rm, w_states, "plain")
            return
        if yi not in w_set:
            return
        for arrows, _ in _iter_wgraphs_indices(rm, w_set):
            if _landing(arrows, w_set, xi) == yi:
                yield materialize(arrows)
    elif variant == "avoid":
        if xi in w_set:
            return
        for i, grown, arrows, _ in _grown(rm, w_set):
            if _landing(arrows, grown, xi) == i:
                yield materialize(arrows)
    else:
        raise ValueError(f"unknown variant {variant!r}")


# -- exit laws by graph sums -----------------------------------------------


def exit_point_law(rm, w_states, x):
    """Distribution of the state where the process first sits in W.

    One enumeration pass serves every target: each W-graph sends x along its
    unique arrow path to one W state, and the rate products are accumulated
    per landing state.
    """
    w_idx, w_set, xi = _indices(rm, w_states, x)
    if xi in w_set:
        return {s: (1.0 if s == x else 0.0) for s in w_states}
    denom_terms = []
    num_terms = {i: [] for i in w_idx}
    for arrows, product in _iter_wgraphs_indices(rm, w_set):
        denom_terms.append(product)
        num_terms[_landing(arrows, w_set, xi)].append(product)
    denom = math.fsum(denom_terms)
    return {rm.states[i]: math.fsum(num_terms[i]) / denom for i in w_idx}


def expected_exit_time(rm, w_states, x):
    """Expected time until the process first sits in W, by graph sums."""
    _, w_set, xi = _indices(rm, w_states, x)
    if xi in w_set:
        return 0.0
    denom = math.fsum(p for _, p in _iter_wgraphs_indices(rm, w_set))
    return math.fsum(p for i, grown, arrows, p in _grown(rm, w_set)
                     if _landing(arrows, grown, xi) == i) / denom


def exit_oracle_linear(rm, w_states, x):
    """Independent oracle: solves the harmonic equations for the exit law.

    Returns (distribution over W, expected exit time).  Raises on a singular
    system, which signals a non-irreducible chain.
    """
    _check_size(rm.n, DENSE_STATE_LIMIT, "linear oracle")
    w_idx = [rm.index[s] for s in w_states]
    w_set = set(w_idx)
    xi = rm.index[x]
    if xi in w_set:
        return {s: (1.0 if s == x else 0.0) for s in w_states}, 0.0
    free = [i for i in range(rm.n) if i not in w_set]
    fpos = {i: k for k, i in enumerate(free)}
    m = len(free)
    P = np.zeros((m, m))
    holding = np.zeros(m)
    B = np.zeros((m, len(w_idx)))
    for i in free:
        total = rm.holding_rate(i)
        if total <= 0:
            raise np.linalg.LinAlgError("absorbing state outside W")
        holding[fpos[i]] = 1.0 / total
        for j in range(rm.n):
            if j == i or rm.rates[i, j] == 0:
                continue
            p = rm.rates[i, j] / total
            if j in w_set:
                B[fpos[i], w_idx.index(j)] += p
            else:
                P[fpos[i], fpos[j]] += p
    lhs = np.eye(m) - P
    probs = np.linalg.solve(lhs, B)
    times = np.linalg.solve(lhs, holding)
    dist = {rm.states[j]: float(probs[fpos[xi], k]) for k, j in enumerate(w_idx)}
    return dist, float(times[fpos[xi]])


# -- exact exit-cost identities ---------------------------------------------


@dataclass
class ExitCostReport:
    ok: bool
    precondition_violated: bool
    failures: list


def _graph_cost(graph, arrows, states):
    """V(g): sum over arrows of the uphill parts, as an exact pair."""
    field = graph.ctx.field
    total = EnergyValue.zero(field)
    for i, t in enumerate(arrows):
        if t == -1:
            continue
        diff = graph.energy_pair(states[t]) - graph.energy_pair(states[i])
        total = total + diff.uphill_part()
    return total


def exitcost_identity_check(graph, block_states):
    """Verify the two exact graph-exponent identities on a cycle compound.

    For every interior state x and boundary state y: the minimal graph cost
    over diagrams sending x to y, minus the minimal cost over all diagrams,
    equals max(0, H(y) - exit energy); and the baseline minus the minimal
    cost over diagrams keeping x inside equals the compound depth (this
    orientation makes the expected exit time grow like exp(+beta depth)).
    All quantities are compared as exact integer pairs.
    """
    _check_size(graph.n_states, ENUMERATION_GUARD, "graph enumeration")
    block = frozenset(block_states)
    if not _is_connected(graph, block):
        return ExitCostReport(False, True, ["block is not connected"])
    stats = _block_stats(graph, block)
    if stats.exit_energy is None or not (stats.height <= stats.exit_energy):
        return ExitCostReport(False, True, ["block is not a cycle compound"])

    # at beta = 0 every flip edge has Metropolis rate 1
    rm = rate_matrix_from_landscape(graph, 0.0)
    states, index = rm.states, rm.index
    w_set = {i for i, s in enumerate(states) if s not in block}
    boundary = sorted({t for s in block for t in graph.neighbors(s)
                       if t not in block})

    base = None
    best_to = {}
    for arrows, _ in _iter_wgraphs_indices(rm, w_set):
        v = _graph_cost(graph, arrows, states)
        if base is None or v < base:
            base = v
        for s in block:
            key = (s, states[_landing(arrows, w_set, index[s])])
            if key not in best_to or v < best_to[key]:
                best_to[key] = v

    # every state outside W is in the block
    best_avoid = {}
    for i, grown, arrows, _ in _grown(rm, w_set):
        v = _graph_cost(graph, arrows, states)
        for s in block:
            if _landing(arrows, grown, index[s]) == i:
                if s not in best_avoid or v < best_avoid[s]:
                    best_avoid[s] = v

    failures = []
    exit_e = stats.exit_energy
    bottom_e = graph.energy_pair(next(iter(stats.bottom)))
    for s in block:
        for y in boundary:
            lhs = best_to[(s, y)] - base
            rhs = (graph.energy_pair(y) - exit_e).uphill_part()
            if not lhs.same_pair(rhs):
                failures.append(("exit_point", s, y, lhs.pair(), rhs.pair()))
        lhs = base - best_avoid[s]
        rhs = exit_e - bottom_e
        if not lhs.same_pair(rhs):
            failures.append(("exit_time", s, lhs.pair(), rhs.pair()))
    return ExitCostReport(not failures, False, failures)
