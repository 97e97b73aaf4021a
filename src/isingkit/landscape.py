"""Exhaustive energy-landscape analysis on small boxes.

Enumerates all spin configurations of a box, maps every state to an exact
integer energy level, computes communication energies and maximal cycles
from one ascending sublevel sweep (the merge tree of the sublevel sets),
merges cycles into maximal cycle compounds, builds reference filling
paths, and derives the critical constants (droplet side, critical volume
and barrier, relaxation exponents) from the reference path energy profile.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .energy import NEG_INF_ENERGY, EnergyValue, MagneticField
from .lattice import (BoundaryCondition, Configuration,
                      connected_components, hamiltonian)

DEFAULT_ENUMERATION_CAP = 24


class LandscapeGraph:
    """All 2^|box| configurations with exact energies and flip adjacency."""

    def __init__(self, ctx, bonds, pluses):
        self.ctx = ctx
        self.n_sites = ctx.n_sites
        self.n_states = 1 << self.n_sites
        self._bonds = bonds
        self._pluses = pluses
        self._levels = None

    def states(self):
        return range(self.n_states)

    def energy_pair(self, s):
        return EnergyValue(int(self._bonds[s]), int(self._pluses[s]), self.ctx.field)

    def neighbors(self, s):
        for i in range(self.n_sites):
            yield s ^ (1 << i)

    def configuration(self, s):
        return Configuration.from_bitmask(self.ctx.geometry, s)

    def state_of(self, config):
        return config.as_bitmask()

    def levels(self):
        """The exact integer level index of every state, built on first use."""
        if self._levels is None:
            self._levels = LevelIndex(np.arange(self.n_states, dtype=np.int64),
                                      self._bonds, self._pluses,
                                      self.ctx.field, self.n_sites)
        return self._levels


class TruncatedLandscape:
    """Flip-connected low-energy restriction of a landscape (a small state space)."""

    def __init__(self, graph, state_ids):
        self.ctx = graph.ctx
        self.n_sites = graph.n_sites
        self._graph = graph
        self._ids = sorted(state_ids)
        self._set = frozenset(self._ids)
        self._bonds = graph._bonds
        self._pluses = graph._pluses
        self._levels = None

    def states(self):
        return list(self._ids)

    def energy_pair(self, s):
        return self._graph.energy_pair(s)

    def neighbors(self, s):
        for t in self._graph.neighbors(s):
            if t in self._set:
                yield t

    def configuration(self, s):
        return self._graph.configuration(s)

    @property
    def n_states(self):
        return len(self._ids)

    def levels(self):
        """The exact integer level index of the kept states, built on first use."""
        if self._levels is None:
            ids = np.array(self._ids, dtype=np.int64)
            self._levels = LevelIndex(ids, self._bonds[ids], self._pluses[ids],
                                      self.ctx.field, self.n_sites)
        return self._levels


def enumerate_landscape(ctx, cap=DEFAULT_ENUMERATION_CAP):
    """Enumerate every configuration of the box with its exact energy.

    States are indexed by plus-bitmask (bit i = site i), so the ordering is
    deterministic.  Bond counts are computed in vectorized chunks.
    """
    n = ctx.n_sites
    if n > cap:
        raise ValueError(f"box has {n} sites, enumeration cap is {cap}")
    n_states = 1 << n
    pairs = []
    for i in range(n):
        for j in ctx.neighbors[i]:
            if j > i:
                pairs.append((i, j))
    site_weight = (ctx.boundary_minus - ctx.boundary_plus).astype(np.int64)
    bonds = np.empty(n_states, dtype=np.int64)
    pluses = np.empty(n_states, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, n_states, chunk):
        arr = np.arange(start, min(start + chunk, n_states), dtype=np.uint64)
        b = np.zeros(arr.shape, dtype=np.int64)
        p = np.zeros(arr.shape, dtype=np.int64)
        bits = [((arr >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
                for i in range(n)]
        for i, j in pairs:
            b += bits[i] ^ bits[j]
        for i in range(n):
            b += bits[i] * site_weight[i]
            p += bits[i]
        bonds[start:start + arr.size] = b
        pluses[start:start + arr.size] = p
    return LandscapeGraph(ctx, bonds, pluses)


# -- level index and sublevel merge tree -----------------------------------------


class LevelIndex:
    """Exact integer energy levels of the states of a landscape.

    Arrays are indexed by position in ``ids``, the states in ascending
    order.  The few distinct (bonds, pluses) pairs are sorted once, exactly,
    with ``compare_pair``; pairs of equal value (possible only for a rational
    field) follow one another in the order of the first state carrying each.
    ``rank[p]`` is the place of position p's pair in that order, and
    ``level[p]`` numbers the distinct values, so two states share a level
    exactly when their energies are equal.  ``values[r]`` is the energy of
    rank r, ``rank_level[r]`` its level, and ``level_rank[k]`` the first
    rank of level k, the pair that names level k.  ``order`` lists the
    positions by level, states ascending within a level, and level k
    occupies ``order[starts[k]:starts[k + 1]]``.
    """

    def __init__(self, ids, bonds, pluses, field, n_sites):
        n = len(ids)
        self.ids = ids
        self.n_sites = n_sites
        self.full = n == 1 << n_sites
        # one small integer key per pair, since pluses never exceed n_sites
        b0 = int(bonds.min())
        width = n_sites + 1
        key = (bonds - b0) * width + pluses
        first = np.full(int(key.max()) + 1, n, dtype=np.int64)
        np.minimum.at(first, key, np.arange(n))
        present = np.flatnonzero(first < n)
        groups = {}
        for k in present[np.argsort(first[present])].tolist():
            b, p = divmod(k, width)
            groups.setdefault(field.level_key(b + b0, p), []).append(
                (k, b + b0, p))
        by_value = sorted(groups.values(), key=functools.cmp_to_key(
            lambda x, y: field.compare_pair(x[0][1] - y[0][1],
                                            x[0][2] - y[0][2])))
        rank_of_key = np.zeros(len(first), dtype=np.int32)
        self.values, self.level_rank, rank_level = [], [], []
        for level, group in enumerate(by_value):
            self.level_rank.append(len(self.values))
            for k, b, p in group:
                rank_of_key[k] = len(self.values)
                self.values.append(EnergyValue(b, p, field))
                rank_level.append(level)
        self.n_levels = len(by_value)
        self.rank_level = np.array(rank_level, dtype=np.int32)
        self.rank = rank_of_key[key]
        self.level = self.rank_level[self.rank]
        self.order = np.argsort(self.level, kind="stable")
        self.starts = np.searchsorted(self.level[self.order],
                                      np.arange(self.n_levels + 1))

    def positions(self, states):
        """Positions of a collection of states, ascending, without repeats."""
        s = np.unique(np.fromiter(states, dtype=np.int64))
        pos = s if self.full else np.searchsorted(self.ids, s)
        if np.any(self.ids[np.minimum(pos, len(self.ids) - 1)] != s):
            raise ValueError("states outside the landscape")
        return pos

    def flips(self, pos, bit):
        """(p, q): the positions p of ``pos`` whose states stay in the
        landscape when ``bit`` flips, and the positions q they flip to."""
        t = self.ids[pos] ^ bit
        if self.full:
            return pos, t
        q = np.minimum(np.searchsorted(self.ids, t), len(self.ids) - 1)
        ok = self.ids[q] == t
        return pos[ok], q[ok]

    def edges(self):
        """Every flip edge once, as position arrays (p, q), one bit at a time."""
        for i in range(self.n_sites):
            bit = 1 << i
            yield self.flips(np.flatnonzero((self.ids & bit) == 0), bit)


class _Sweep:
    """Ascending union-find sweep over the levels of a landscape.

    Level by level, activates the states of the level and joins each to its
    active flip neighbours, union by size: the merge tree of the sublevel
    sets.  ``flags`` holds a small int per position, and a component
    carries the OR of its states' flags.  Iterating yields ``(k, joined)``
    after level k: for each component that level k touched, the list of its
    pieces, each a ``[flags, members]`` pair (members a list of positions)
    as it stood before level k, a state activated at k being a piece of its
    own.  The pieces are merged when iteration resumes, so a caller copies
    what it keeps.  ``components`` maps each live component's root to its
    ``[flags, members]``.
    """

    def __init__(self, lv, flags):
        self.lv = lv
        self.flags = flags
        self.components = {}

    def _edges(self, new, k):
        """Flip edges from the states of level k to active states, each once."""
        lv = self.lv
        ps, qs = [], []
        for i in range(lv.n_sites):
            p, q = lv.flips(new, 1 << i)
            lq = lv.level[q]
            keep = (lq < k) | ((lq == k) & (q > p))
            ps.append(p[keep])
            qs.append(q[keep])
        return zip(np.concatenate(ps).tolist(), np.concatenate(qs).tolist())

    def __iter__(self):
        lv, comps = self.lv, self.components
        # union by size keeps every tree O(log n) deep, so finds need no
        # path compression and are written out inline
        parent, size = {}, {}
        for k in range(lv.n_levels):
            new = lv.order[lv.starts[k]:lv.starts[k + 1]]
            joined = {}
            for p, f in zip(new.tolist(), self.flags[new].tolist()):
                parent[p] = p
                size[p] = 1
                joined[p] = [[f, [p]]]
            for rp, rq in self._edges(new, k):
                while parent[rp] != rp:
                    rp = parent[rp]
                while parent[rq] != rq:
                    rq = parent[rq]
                if rp == rq:
                    continue
                for r in (rp, rq):
                    if r not in joined:
                        joined[r] = [comps.pop(r)]
                if size[rp] < size[rq]:
                    rp, rq = rq, rp
                parent[rq] = rp
                size[rp] += size.pop(rq)
                keep, gone = joined[rp], joined.pop(rq)
                if len(keep) < len(gone):
                    keep, gone = gone, keep
                    joined[rp] = keep
                keep += gone
            yield k, list(joined.values())
            for r, pieces in joined.items():
                big = max(pieces, key=lambda piece: len(piece[1]))
                for piece in pieces:
                    if piece is not big:
                        big[0] |= piece[0]
                        big[1] += piece[1]
                comps[r] = big


def communication_energy(graph, a_states, b_states):
    """Minimax energy over single-flip paths between two state sets.

    Sweeps the levels ascending, joining states whose energy is at most the
    level, and returns the first level at which some component contains
    states of both sets, named by the pair of the lowest state at that
    level.  States above that level are never visited.
    """
    lv = graph.levels()
    a, b = lv.positions(a_states), lv.positions(b_states)
    if not len(a) or not len(b):
        raise ValueError("communication energy needs non-empty state sets")
    flags = np.zeros(len(lv.ids), dtype=np.int8)
    flags[a] = 1
    flags[b] |= 2
    for k, joined in _Sweep(lv, flags):
        for pieces in joined:
            seen = 0
            for f, _ in pieces:
                seen |= f
            if seen == 3:
                return lv.values[lv.level_rank[k]]
    raise RuntimeError("state graph is not connected")


@dataclass
class CycleBlock:
    """One block of a cycle / cycle-compound partition."""

    states: frozenset
    exit_energy: object        # EnergyValue, or None when the block has no exterior
    height: object             # EnergyValue or the -inf sentinel
    bottom: frozenset
    depth: object              # EnergyValue or None

    def is_singleton(self):
        return len(self.states) == 1


@dataclass
class CyclePartition:
    blocks: list
    kind: str
    tie_events: list = dc_field(default_factory=list)

    def block_of(self, state):
        for b in self.blocks:
            if state in b.states:
                return b
        raise KeyError(state)


def _boundary_edges(lv, label):
    """Flip edges whose two ends carry different labels, as arrays
    (label_p, label_q, weight); the weight is the larger rank of the ends."""
    out = []
    for p, q in lv.edges():
        lp, lq = label[p], label[q]
        cut = lp != lq
        p, q = p[cut], q[cut]
        out.append((lp[cut], lq[cut], np.maximum(lv.rank[p], lv.rank[q])))
    return [np.concatenate(arrays) for arrays in zip(*out)]


def _blocks(lv, label, count):
    """CycleBlocks of the positions labelled 0..count-1 (-1 is outside),
    ordered by smallest state.

    The exit of a block is the least weight over its boundary edges, its
    height and bottom come from the highest and lowest ranks inside it.
    """
    none = len(lv.values)
    y = np.flatnonzero(label >= 0)
    lab = label[y]
    first = np.full(count, len(lv.ids), dtype=np.int64)
    np.minimum.at(first, lab, y)
    renumber = np.empty(count, dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(count)
    lab = renumber[lab]
    lo = np.full(count, none, dtype=np.int64)
    np.minimum.at(lo, lab, lv.rank[y])
    hi = np.full(count, -1, dtype=np.int64)
    np.maximum.at(hi, lab, lv.rank[y])
    ex = np.full(count, none, dtype=np.int64)
    la, lb, w = _boundary_edges(lv, label)
    for side in (la, lb):
        inside = side >= 0
        np.minimum.at(ex, renumber[side[inside]], w[inside])
    # y ascends, so a stable sort keeps each block's states ascending
    o = np.argsort(lab, kind="stable")
    states = lv.ids[y[o]].tolist()
    at_bottom = (lv.level[y] == lv.rank_level[lo[lab]])[o].tolist()
    ends = np.cumsum(np.bincount(lab, minlength=count)).tolist()
    values = lv.values
    blocks = []
    start = 0
    for end, r_lo, r_hi, r_ex in zip(ends, lo.tolist(), hi.tolist(),
                                     ex.tolist()):
        members = frozenset(states[start:end])
        if end - start == 1:
            bottom, height = members, NEG_INF_ENERGY
        else:
            bottom = frozenset(s for s, f in zip(states[start:end],
                                                 at_bottom[start:end]) if f)
            height = values[r_hi]
        exit_energy = depth = None
        if r_ex < none:
            exit_energy = values[r_ex]
            depth = exit_energy - values[r_lo]
        blocks.append(CycleBlock(members, exit_energy, height, bottom, depth))
        start = end
    return blocks


def _block_stats(graph, states):
    """Exit energy, height, bottom and depth of one block."""
    lv = graph.levels()
    label = np.full(len(lv.ids), -1, dtype=np.int64)
    label[lv.positions(states)] = 0
    return _blocks(lv, label, 1)[0]


def _is_connected(graph, states):
    states = set(states)
    if not states:
        return False
    start = next(iter(states))
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in graph.neighbors(s):
            if t in states and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == states


def _cycle_labels(lv, y):
    """Maximal-cycle label of every position (-1 outside Y), and the count.

    A component of a sublevel set that lies inside Y is a cycle, so the
    maximal cycles are the merge-tree nodes inside Y whose parent is not:
    the pieces inside Y of a component that comes to hold a state outside
    Y, and the components inside Y that never do.
    """
    outside = np.ones(len(lv.ids), dtype=np.int8)
    outside[y] = 0
    label = np.full(len(lv.ids), -1, dtype=np.int64)
    count = 0
    sweep = _Sweep(lv, outside)
    for _, joined in sweep:
        for pieces in joined:
            if any(f for f, _ in pieces):
                for f, members in pieces:
                    if not f:
                        label[members] = count
                        count += 1
    for f, members in sweep.components.values():
        if not f:
            label[members] = count
            count += 1
    return label, count


def maximal_cycles(graph, y_states):
    """Partition of Y into maximal cycles, blocks ordered by smallest state.

    A cycle with at least two states is a connected component of a sublevel
    set whose exterior neighbors all sit strictly above the level, so the
    maximal cycles are read off the merge tree of one ascending sweep.
    """
    lv = graph.levels()
    label, count = _cycle_labels(lv, lv.positions(y_states))
    return CyclePartition(blocks=_blocks(lv, label, count), kind="cycles")


def maximal_compounds(graph, y_states):
    """Partition of Y into maximal cycle compounds, ordered by smallest state.

    Merges adjacent maximal cycles whose exit energies are exactly equal.
    Such a merge always keeps height <= exit energy: a union of maximal
    cycles is no cycle, so its height is at least its exit, while the cycles
    sit strictly below their common exit level and the singletons at most
    at it.  The exit level therefore never changes, and the compounds are
    the components of adjacent cycles with equal exit levels.  Every final
    block is re-verified against the compound definition.  Under a rational
    field, a merge of blocks whose exit pairs differ in (bonds, pluses) but
    not in value is recorded as a tie event.
    """
    lv = graph.levels()
    label, count = _cycle_labels(lv, lv.positions(y_states))
    none = len(lv.values)
    level = lv.rank_level.tolist()
    la, lb, w = _boundary_edges(lv, label)
    # per block: least weight to states outside Y, to each adjacent block
    out = np.full(count, none, dtype=np.int64)
    for side, other in ((la, lb), (lb, la)):
        sel = (side >= 0) & (other < 0)
        np.minimum.at(out, side[sel], w[sel])
    both = (la >= 0) & (lb >= 0)
    a, b, w = np.minimum(la, lb)[both], np.maximum(la, lb)[both], w[both]
    adjacent = [{} for _ in range(count)]
    for x, z, v in zip(a.tolist(), b.tolist(), w.tolist()):
        if v < adjacent[x].get(z, none):
            adjacent[x][z] = adjacent[z][x] = v
    y = np.flatnonzero(label >= 0)
    first = np.full(count, len(lv.ids), dtype=np.int64)
    np.minimum.at(first, label[y], y)
    out, first = out.tolist(), first.tolist()
    exit_rank = [min([out[c], *adjacent[c].values()]) for c in range(count)]
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ties = [(c, d) for c in range(count) for d in adjacent[c]
            if c < d and exit_rank[c] < none and exit_rank[d] < none
            and level[exit_rank[c]] == level[exit_rank[d]]]
    tie_events = []
    for c, d in ties:
        c, d = find(c), find(d)
        if c == d:
            continue
        if exit_rank[c] != exit_rank[d]:
            tie_events.append((int(lv.ids[first[c]]), int(lv.ids[first[d]]),
                               lv.values[exit_rank[c]].pair(),
                               lv.values[exit_rank[d]].pair()))
        # the merged block keeps the larger neighbour map; its exit pair
        # is the least weight left on its boundary
        if len(adjacent[c]) < len(adjacent[d]):
            c, d = d, c
        parent[d] = c
        kept, gone = adjacent[c], adjacent[d]
        del kept[d], gone[c]
        for e, v in gone.items():
            del adjacent[e][d]
            kept[e] = adjacent[e][c] = min(v, kept.get(e, none))
        adjacent[d] = None
        out[c] = min(out[c], out[d])
        first[c] = min(first[c], first[d])
        exit_rank[c] = min([out[c], *kept.values()])
    roots, compound = np.unique([find(c) for c in range(count)],
                                return_inverse=True)
    final = np.where(label >= 0, compound[label], -1)
    blocks = _blocks(lv, final, len(roots))
    for blk in blocks:
        if not _is_connected(graph, blk.states):
            raise AssertionError("compound block is not connected")
        if blk.exit_energy is not None and not (blk.height <= blk.exit_energy):
            raise AssertionError("compound block violates height <= exit energy")
    return CyclePartition(blocks=blocks, kind="compounds", tie_events=tie_events)


def bottom_of(graph, states):
    """Energy minimizers of a non-empty state set."""
    states = list(states)
    if not states:
        raise ValueError("bottom of an empty set")
    emin = None
    out = []
    for s in states:
        e = graph.energy_pair(s)
        if emin is None or e < emin:
            emin = e
            out = [s]
        elif e == emin:
            out.append(s)
    return frozenset(out)


def truncate_landscape(graph, k):
    """Lowest-k-energy flip-connected piece of a landscape around its minimum.

    States are taken by exact energy, states of equal energy by number.
    """
    lv = graph.levels()
    order = lv.ids[lv.order[:k]].tolist()
    chosen = set(order)
    start = order[0]
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in graph.neighbors(s):
            if t in chosen and t not in seen:
                seen.add(t)
                stack.append(t)
    return TruncatedLandscape(graph, seen)


# -- reference paths ---------------------------------------------------------


def reference_path(ctx):
    """Filling path from all-minus to all-plus realizing the minimax barrier.

    Boxes without plus boundary faces grow a quasicube, filling a largest
    free face through the one-lower-dimensional path.  Boxes with plus faces
    use the greedy rule: flip a minus site with the maximum number of plus
    neighbors (boundary included), preferring the longest straight segment of
    such sites, ties broken by lexicographically smallest site.
    """
    if int(ctx.boundary_plus.sum()) == 0:
        return _recursive_reference_path(ctx)
    return _greedy_reference_path(ctx)


def _recursive_fill_order(dims):
    """Site order of the quasicube filling path in a box of the given dims."""
    d = len(dims)
    if d == 1:
        return [(i,) for i in range(dims[0])]
    order = [(0,) * d]
    sides = [1] * d
    while True:
        growable = [i for i in range(d) if sides[i] < dims[i]]
        if not growable:
            return order
        axis = min(growable, key=lambda i: (sides[i], i))
        face_dims = tuple(s for i, s in enumerate(sides) if i != axis)
        layer = sides[axis]
        for c in _recursive_fill_order(face_dims):
            order.append(c[:axis] + (layer,) + c[axis:])
        sides[axis] += 1


def _recursive_reference_path(ctx):
    geom = ctx.geometry
    spins = np.full(geom.n_sites, -1, dtype=np.int8)
    path = [Configuration(geom, spins)]
    for coord in _recursive_fill_order(geom.dims):
        spins[geom.index(coord)] = 1
        path.append(Configuration(geom, spins))
    return path


def _greedy_reference_path(ctx):
    geom = ctx.geometry
    n = geom.n_sites
    spins = np.full(n, -1, dtype=np.int8)
    plus_nbrs = ctx.boundary_plus.copy()
    path = [Configuration(geom, spins)]
    coords = [geom.coord(i) for i in range(n)]
    for _ in range(n):
        best = -1
        for i in range(n):
            if spins[i] == -1 and plus_nbrs[i] > best:
                best = plus_nbrs[i]
        cand = {i for i in range(n) if spins[i] == -1 and plus_nbrs[i] == best}
        site = _segment_choice(geom, coords, cand)
        spins[site] = 1
        for nb in ctx.neighbors[site]:
            plus_nbrs[nb] += 1
        path.append(Configuration(geom, spins))
    return path


def _segment_choice(geom, coords, candidates):
    """First site of the best maximal straight run inside the candidate set."""
    best = None  # (-length, start_coord, axis, start_site)
    for i in sorted(candidates):
        c = coords[i]
        for axis in range(geom.dimension):
            prev = list(c)
            prev[axis] -= 1
            if geom.contains(tuple(prev)) and geom.index(tuple(prev)) in candidates:
                continue  # not the start of a run
            length = 0
            cur = list(c)
            while geom.contains(tuple(cur)) and geom.index(tuple(cur)) in candidates:
                length += 1
                cur[axis] += 1
            key = (-length, c, axis, i)
            if best is None or key < best:
                best = key
    return best[3]


def path_energies(ctx, path):
    """Exact energies along a path, computed by telescoping single-flip deltas."""
    out = [hamiltonian(ctx, path[0])]
    for prev, cur in zip(path, path[1:]):
        diff = np.flatnonzero(prev.spins != cur.spins)
        if diff.size != 1:
            raise ValueError("consecutive path entries must differ by one flip")
        site = int(diff[0])
        sigma = int(prev.spins[site])
        s = ctx.neighbor_spin_sum(prev, site)
        out.append(out[-1] + ctx.energy(sigma * s, -sigma))
    return out


_PROFILE_CACHE = {}


def reference_profile_pairs(dims, field):
    """(bonds, pluses) pairs along the reference path of an all-minus box.

    Computed combinatorially: the path grows quasicubes by filling a largest
    free face through the one-lower-dimensional reference path, and the energy
    of a box plus a partial face layer splits exactly into box term plus
    lower-dimensional face term.  Matches the lattice greedy step for step.
    """
    dims = tuple(int(s) for s in dims)
    # the pair sequence is pure integers, independent of the field
    key = tuple(sorted(dims))
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    prof = list(iter_reference_profile(dims, field))
    _PROFILE_CACHE[key] = prof
    return prof


def iter_reference_profile(dims, field):
    """Generator form of the profile; only faces are materialized and cached."""
    dims = tuple(int(s) for s in dims)
    if len(dims) == 1:
        yield (0, 0)
        for k in range(1, dims[0] + 1):
            yield (2, k)
        return
    d = len(dims)
    yield (0, 0)
    yield (2 * d, 1)
    sides = [1] * d
    while True:
        growable = [i for i in range(d) if sides[i] < dims[i]]
        if not growable:
            return
        axis = min(growable, key=lambda i: (sides[i], i))
        face_dims = tuple(s for i, s in enumerate(sides) if i != axis)
        face = reference_profile_pairs(face_dims, field)
        vol = 1
        per = 0
        for i, s in enumerate(sides):
            vol *= s
            row = 1
            for j, t in enumerate(sides):
                if j != i:
                    row *= t
            per += 2 * row
        for fb, fp in face[1:]:
            yield (per + fb, vol + fp)
        sides[axis] += 1


# -- critical constants ------------------------------------------------------


def _floor_ratio(numer, field):
    """Exact floor(numer / h)."""
    if numer == 0:
        return 0
    if field.rational is not None:
        r = field.rational
        return (numer * r.denominator) // r.numerator
    # floor(numer * q / sqrt(p)) = isqrt((numer*q)^2 // p), exact for integers
    x = numer * field.q
    return math.isqrt((x * x) // field.p)


def critical_side(n, field):
    """Side length of the n-dimensional critical quasicube, floor(2(n-1)/h)."""
    return _floor_ratio(2 * (n - 1), field)


@dataclass
class CriticalConstants:
    """Per-dimension droplet constants: l_c, critical volume m, barrier Gamma,
    relaxation exponent kappa and box-size threshold L.

    Lists are indexed by dimension with zero entries at index 0.  kappa and L
    are Fractions for a rational field, floats otherwise.  ``argmax_ties``
    records the volumes tied for the barrier maximum (possible only for
    rational fields); ``m`` is then the smallest tied volume.
    """

    d: int
    field: MagneticField
    l_c: list
    m: list
    gammas: list
    kappas: list
    Ls: list
    argmax_ties: list
    box_sides: list

    def gamma_value(self, n):
        return self.gammas[n].exact_value() if n > 0 else (
            Fraction(0) if self.field.rational is not None else 0.0)

    def has_ties(self):
        return any(len(t) > 1 for t in self.argmax_ties if t)


def critical_constants(d, h, verify_oracle=True, oracle_cap=12):
    """Exact critical constants for dimensions 1..d under field h.

    Gamma_n is the maximum of the reference path profile on an n-dimensional
    cube whose side exceeds both l_c(n)+2 and 2n/h; m_n is the volume where
    the maximum is attained.  kappa and L follow by the recursions
    kappa_n = (Gamma_1 + ... + Gamma_n)/(n+1), L_n = (Gamma_n - kappa_n)/n.
    For n <= 2 (within the oracle cap) the barrier is cross-checked against
    the brute-force minimal-perimeter table.
    """
    field = h if isinstance(h, MagneticField) else MagneticField(h)
    zero = Fraction(0) if field.rational is not None else 0.0
    const = CriticalConstants(d=d, field=field, l_c=[0], m=[0],
                              gammas=[EnergyValue.zero(field)],
                              kappas=[zero], Ls=[zero], argmax_ties=[[]],
                              box_sides=[0])
    gamma_sum = zero
    for n in range(1, d + 1):
        lc = critical_side(n, field)
        side = max(lc + 3, _floor_ratio(2 * n, field) + 1)
        best = None
        best_vol = None
        ties = []
        for vol, (b, p) in enumerate(iter_reference_profile((side,) * n, field)):
            if vol == 0:
                continue
            e = EnergyValue(b, p, field)
            if best is None or e > best:
                best, best_vol, ties = e, vol, [vol]
            elif e == best:
                ties.append(vol)
        gamma = best
        m_n = best_vol
        gamma_sum = gamma_sum + gamma.exact_value()
        kappa = gamma_sum / (n + 1)
        L_n = (gamma.exact_value() - kappa) / n
        const.l_c.append(lc)
        const.m.append(m_n)
        const.gammas.append(gamma)
        const.kappas.append(kappa)
        const.Ls.append(L_n)
        const.argmax_ties.append(ties)
        const.box_sides.append(side)
        _check_sandwich(n, lc, gamma, field)
        if verify_oracle and n <= 2 and const.m[n] <= oracle_cap:
            _verify_against_perimeter_oracle(n, gamma, field, oracle_cap)
    if field.rational is None and const.has_ties():
        raise AssertionError("argmax tie under an irrational field")
    return const


def _check_sandwich(n, lc, gamma, field):
    low = EnergyValue(2 * n * lc ** (n - 1), (lc + 1) ** n, field)
    high = EnergyValue(2 * n * (lc + 1) ** (n - 1), lc ** n, field)
    if not (low <= gamma <= high):
        raise AssertionError(f"Gamma_{n} violates the quasicube sandwich bounds")


def _verify_against_perimeter_oracle(n, gamma, field, cap):
    from .isoperimetry import min_perimeter
    best = None
    for v in range(1, cap + 1):
        per = 2 if n == 1 else min_perimeter(n, v)
        e = EnergyValue(per, v, field)
        if best is None or e > best:
            best = e
    if not best.same_pair(gamma) and best != gamma:
        raise AssertionError(
            f"Gamma_{n} disagrees with the minimal-perimeter oracle: "
            f"path {gamma.pair()}, oracle {best.pair()}")


def control_inequality_report(const):
    """Report whether (Gamma_{n-1})^n <= (m_{n-1})^(n-1) holds for n <= d.

    This is the sufficient condition quoted for the small-field regime; it is
    reported, not asserted, since desk-scale fields routinely violate it.
    """
    rows = []
    for n in range(1, const.d + 1):
        lhs = float(const.gamma_value(n - 1)) ** n
        rhs = float(const.m[n - 1]) ** (n - 1)
        rows.append({"n": n, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs})
    return rows


def gamma_continuity_scan(d, h_grid):
    """Gamma_d on a grid of fields, with the largest adjacent jump reported."""
    rows = []
    for token in h_grid:
        field = token if isinstance(token, MagneticField) else MagneticField(str(token))
        const = critical_constants(d, field, verify_oracle=False)
        rows.append((field.token, float(const.gammas[d].value),
                     const.gammas[d].pair()))
    max_jump = 0.0
    for (_, a, _), (_, b, _) in zip(rows, rows[1:]):
        max_jump = max(max_jump, abs(b - a))
    return {"rows": rows, "max_jump": max_jump}


# -- restricted ensemble -----------------------------------------------------


class RestrictedEnsemble:
    """Configurations of volume <= m_n and energy <= Gamma_n in a box with
    the n-face-minus boundary condition: the metastable plateau."""

    def __init__(self, ctx, n, constants):
        if constants.field != ctx.field:
            raise ValueError("constants were computed for a different field")
        expected = BoundaryCondition.n_pm(n)
        if ctx.bc.kind == BoundaryCondition.ALL_MINUS:
            ok = n == ctx.geometry.dimension
        else:
            ok = ctx.bc.kind == BoundaryCondition.N_PM and ctx.bc.n == n
        if not ok:
            raise ValueError(f"context boundary {ctx.bc.label()} does not match "
                             f"{expected.label()}")
        self.ctx = ctx
        self.n = n
        self.max_volume = constants.m[n]
        self.energy_cap = constants.gammas[n]

    def contains_pair(self, bonds, pluses):
        if pluses > self.max_volume:
            return False
        gap = self.energy_cap
        return self.ctx.field.compare_pair(bonds - gap.bonds, pluses - gap.pluses) <= 0

    def contains(self, config):
        e = hamiltonian(self.ctx, config)
        return self.contains_pair(e.bonds, e.pluses)

    def members(self, cap=2_000_000):
        """All member bitmasks.

        Searches plus-sets by monotone growth up to the volume cap (never the
        full configuration space) and keeps those below the energy cap.  Note
        the full definition set is used: at moderate fields it may contain
        states at the barrier level that are not flip-connected to all-minus
        inside the ensemble.
        """
        geom = self.ctx.geometry
        ctx = self.ctx
        start = 0
        seen = {start: (0, 0)}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            b, p = seen[s]
            if p >= self.max_volume:
                continue
            cfg = Configuration.from_bitmask(geom, s)
            for site in range(ctx.n_sites):
                if cfg.spins[site] == 1:
                    continue
                t = s | (1 << site)
                if t in seen:
                    continue
                ds = ctx.neighbor_spin_sum(cfg, site)
                seen[t] = (b - ds, p + 1)
                frontier.append(t)
                if len(seen) > cap:
                    raise ValueError("restricted ensemble exceeds enumeration cap")
        self._energies = seen
        return sorted(s for s, (b, p) in seen.items() if self.contains_pair(b, p))

    def weights(self, beta):
        """Gibbs weights of the members, normalized over the ensemble."""
        members = self.members()
        w = np.array([np.exp(-beta * EnergyValue(*self._energies[s],
                                                 self.ctx.field).value)
                      for s in members])
        w /= w.sum()
        return dict(zip(members, w))


def restricted_ensemble(ctx, n, constants):
    return RestrictedEnsemble(ctx, n, constants)


# -- domain hypothesis -------------------------------------------------------


@dataclass
class DomainReport:
    passed: bool
    failures: list


def domain_hypothesis_check(graph, d_states, v_max):
    """Check the three domain conditions: bounded volume, strictly positive
    component energies, and downward closure under energy-decreasing subsets."""
    d_set = frozenset(d_states)
    ctx = graph.ctx
    failures = []
    for s in d_set:
        cfg = graph.configuration(s)
        if cfg.plus_count() > v_max:
            failures.append(("volume", s, cfg.plus_count()))
            continue
        for comp, energy in connected_components(ctx, cfg):
            if energy.compare_zero() <= 0:
                failures.append(("component_energy", s, sorted(comp)))
        plus = cfg.plus_sites()
        e_s = graph.energy_pair(s)
        for sub_mask in range(1 << len(plus)):
            t = 0
            for k, site in enumerate(plus):
                if (sub_mask >> k) & 1:
                    t |= 1 << site
            if t == s:
                continue
            if graph.energy_pair(t) <= e_s and t not in d_set:
                failures.append(("downward_closure", s, t))
    return DomainReport(passed=not failures, failures=failures)


# -- export ------------------------------------------------------------------


def landscape_to_csv(graph, fh):
    writer = csv.writer(fh)
    writer.writerow(["state", "pattern", "bonds", "pluses"])
    for s in graph.states():
        cfg = graph.configuration(s)
        e = graph.energy_pair(s)
        writer.writerow([s, cfg.to_text().replace("\n", "|"), e.bonds, e.pluses])


def partition_to_csv(graph, partition, assign_fh, summary_fh):
    ids = {}
    for k, b in enumerate(partition.blocks):
        ids[k] = b
    writer = csv.writer(assign_fh)
    writer.writerow(["state", "block"])
    state_block = {}
    for k, b in ids.items():
        for s in b.states:
            state_block[s] = k
    for s in sorted(state_block):
        writer.writerow([s, state_block[s]])
    writer = csv.writer(summary_fh)
    writer.writerow(["block", "size", "exit_bonds", "exit_pluses",
                     "bottom_pattern", "depth_bonds", "depth_pluses"])
    for k, b in ids.items():
        exit_pair = b.exit_energy.pair() if b.exit_energy is not None else ("", "")
        depth_pair = b.depth.pair() if b.depth is not None else ("", "")
        bottom = graph.configuration(min(b.bottom)).to_text().replace("\n", "|")
        writer.writerow([k, len(b.states), exit_pair[0], exit_pair[1], bottom,
                         depth_pair[0], depth_pair[1]])
