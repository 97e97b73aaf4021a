"""Reference implementations of the landscape sweeps, kept as test oracles.

The enumerator at the top is the chunked one ``isingkit.landscape`` used
before it built the arrays by doubling: one pass over every state for each
site's bit, each neighbour pair and each site weight.  ``positions`` is the
``np.unique`` lookup the level index used before its boolean mask.
``IntpLevelIndex`` is the level index as it was built before its narrow
key: one intp key per state, counted by one ``bincount``, every per-state
column gathered through it by ``np.take``, and the order kept as intp.
``ListPartition`` and ``_blocks`` are the partition as the library held it
before its columns: every ``CycleBlock`` built at once from the labels.

The sweeps after them are the per-state ``EnergyValue`` sweeps that ``isingkit.landscape``
used before its integer level index and sublevel merge tree: an ascending
union-find sweep per call, cycles from per-level component snapshots,
compounds from repeated scans over all block pairs (an exact level key per
block, so a scan compares integers or pairs), and the bottom of a state
set by one ``EnergyValue`` comparison per state.  They are slow and
straightforward; the differential tests compare the library against them.

The merge-tree oracle below them is the union-find sweep over the level
index that the library used before its vectorised level-by-level merge:
one Python union per flip edge, union by size.  The differential tests feed
its cycle labels to the library's own block and compound code, so a
difference in a partition comes from the merge alone.  The compound oracle
after it is the worklist merge the library used before its compounds were
components of a fixed tie graph: one neighbour dict per cycle, tie pairs
joined in order through a union-find, tie events recorded as blocks join.
``_boundary_edges`` reads the flip edges one bit at a time through a list
of the graph's states and ``flips``, as the library did before
``edge_ends``.  The row-by-row CSV writers are the reference for the
vectorised export.

The critical constants at the end are the walk ``critical_constants`` made
before its recursion over faces: it streams every entry of the reference
profile of an n-cube of side ``side``, side^n exact comparisons, and keeps
the first strict maximum and its ties.  Its face profiles are cached by
sorted dims, as the library's were.
"""

from __future__ import annotations

import csv
import functools
import gc
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from isingkit.energy import NEG_INF_ENERGY, EnergyValue, MagneticField
from isingkit.landscape import (DEFAULT_ENUMERATION_CAP, CriticalConstants,
                                CycleBlock, LandscapeGraph, _by_first_state,
                                _check_sandwich, _floor_ratio, critical_side)
from isingkit.unionfind import UnionFind


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


def _states(graph):
    """The states of a landscape, ascending, as an array."""
    return np.fromiter(graph.states(), dtype=np.int64)


def positions(graph, states):
    """Positions of a collection of states in a landscape's level index,
    ascending, without repeats: the sort-based lookup the index used before
    its mask, in the graph's own states.  A position is its state."""
    s = np.unique(np.fromiter(states, dtype=np.int64))
    ids = _states(graph)
    pos = np.searchsorted(ids, s)
    if np.any(ids[np.minimum(pos, len(ids) - 1)] != s):
        raise ValueError("states outside the landscape")
    return ids[pos]


class IntpLevelIndex:
    """The level index with one intp key per state: ``values``,
    ``level_rank``, ``rank_level``, ``starts``, ``rank`` and ``place`` as
    ``isingkit.landscape.LevelIndex`` defines them, and ``level``, the int32
    column of what its ``level_of`` reads."""

    _SHARE = 16

    def __init__(self, bonds, pluses, field, n_sites, kept=None):
        self.n = n = len(bonds)
        b0 = int(bonds.min())
        width = n_sites + 1
        key = np.subtract(bonds, b0, dtype=np.intp)
        key *= width
        key += pluses
        if kept is not None:
            spare = int(key.max()) + 1
            key[~kept] = spare
        count = np.bincount(key).tolist()
        real = len(count) if kept is None else spare
        groups = {}
        for k in (k for k, c in enumerate(count[:real]) if c):
            b, p = divmod(k, width)
            groups.setdefault(field.level_key(b + b0, p), []).append(
                (k, b + b0, p))
        if any(len(group) > 1 for group in groups.values()):
            first = np.full(len(count), n, dtype=np.int32)
            np.minimum.at(first, key, np.arange(n, dtype=np.int32))
            for group in groups.values():
                group.sort(key=lambda pair: first[pair[0]])
        by_value = sorted(groups.values(), key=functools.cmp_to_key(
            lambda x, y: field.compare_pair(x[0][1] - y[0][1],
                                            x[0][2] - y[0][2])))
        self._rank_of_key = np.zeros(len(count), dtype=np.int32)
        self.values, self.level_rank, rank_level, sizes = [], [], [], [0]
        for level, group in enumerate(by_value):
            self.level_rank.append(len(self.values))
            for k, b, p in group:
                self._rank_of_key[k] = len(self.values)
                self.values.append(EnergyValue(b, p, field))
                rank_level.append(level)
            sizes.append(sum(count[k] for k, _, _ in group))
        self.n_levels = len(by_value)
        self._rank_of_key[real:] = len(self.values)
        self.rank_level = np.array(rank_level, dtype=np.int32)
        self.starts = np.cumsum(sizes)
        self._level_of_key = np.append(self.rank_level, self.n_levels)[
            self._rank_of_key].astype(np.min_scalar_type(self.n_levels))
        self._key = key
        self._order = np.empty(0, dtype=np.int64)
        self._where = np.full(n, n, dtype=np.int32)
        self._placed = 0

    @functools.cached_property
    def rank(self):
        return np.take(self._rank_of_key, self._key)

    @functools.cached_property
    def level(self):
        return np.take(self._level_of_key.astype(np.int32), self._key)

    def place(self, stop):
        if stop > self._placed:
            n, key, level = self.n, self._key, self._level_of_key
            if not self._placed and self.starts[stop] <= n // self._SHARE:
                stop = int(np.searchsorted(self.starts, n // self._SHARE,
                                           "right")) - 1
                pos = np.flatnonzero(np.take(level < stop, key))
                pos = pos[np.argsort(level[key[pos]], kind="stable")]
            else:
                stop = self.n_levels
                pos = np.argsort(np.take(level, key),
                                 kind="stable")[:self.starts[-1]]
            self._where[pos] = np.arange(len(pos), dtype=np.int32)
            self._order, self._placed = pos, stop
        return self._order, self._where


@dataclass
class ListPartition:
    """A partition as a list of built blocks, the form ``CyclePartition``
    had before its columns; ``block_of`` scans the blocks."""

    blocks: list
    kind: str
    tie_events: list = dc_field(default_factory=list)

    def block_of(self, state):
        for b in self.blocks:
            if state in b.states:
                return b
        raise KeyError(state)


def _boundary_edges(graph, label):
    """Flip edges whose two ends carry different labels, one bit at a time,
    as arrays (label_p, label_q, weight); the weight is the larger rank of
    the ends.  The edges of each bit come from a list of the graph's states
    and one ``flips`` call, as the library read them before ``edge_ends``,
    keeping the flips that lead to a state of the graph."""
    lv, ids = graph.levels(), _states(graph)
    for i in range(lv.n_sites):
        bit = 1 << i
        p, q = lv.flips(ids[(ids & bit) == 0], bit)
        inside = np.isin(q, ids)
        p, q = p[inside], q[inside]
        lp, lq = label[p], label[q]
        cut = lp != lq
        yield lp[cut], lq[cut], np.maximum(lv.rank[p[cut]], lv.rank[q[cut]])


def _blocks(graph, label, count):
    """CycleBlocks of the positions labelled 0..count-1 (-1 is outside),
    ordered by smallest state, all built at once.

    The exit of a block is the least weight over its boundary edges, its
    height and bottom come from the highest and lowest ranks inside it.
    """
    lv = graph.levels()
    none = len(lv.values)
    label, _ = _by_first_state(label, count)
    y = np.flatnonzero(label >= 0)
    lab = label[y]
    ex = np.full(count, none, dtype=lv.rank.dtype)
    for la, lb, w in _boundary_edges(graph, label):
        for side in (la, lb):
            inside = side >= 0
            np.minimum.at(ex, side[inside], w[inside])
    # y ascends, so a stable sort keeps each block's states ascending
    o = np.argsort(lab, kind="stable")
    sizes = np.bincount(lab, minlength=count)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    rank = lv.rank[y[o]]
    lo = np.minimum.reduceat(rank, starts)
    hi = np.where(sizes > 1, np.maximum.reduceat(rank, starts), none)
    at_bottom = lv.level_of(y[o]) == lv.rank_level[lo[lab[o]]]
    # few distinct (exit, bottom) rank pairs among many blocks: one
    # EnergyValue difference per pair
    values = lv.values
    exits, heights = values + [None], values + [NEG_INF_ENERGY]
    key = np.where(ex < none, ex.astype(np.int64) * none + lo, none * none)
    pair, which = np.unique(key, return_inverse=True)
    depths = [values[r_ex] - values[r_lo] if r_ex < none else None
              for r_ex, r_lo in (divmod(k, none) for k in pair.tolist())]
    states = y[o].tolist()
    # the blocks are plain data; pausing the cycle collector while they
    # are built keeps its passes from rescanning a growing heap
    paused = gc.isenabled()
    gc.disable()
    try:
        members = [frozenset(states[a:b])
                   for a, b in zip(starts.tolist(), ends.tolist())]
        bottoms = list(members)
        for c in np.flatnonzero(sizes > 1).tolist():
            a, b = starts[c], ends[c]
            bottoms[c] = frozenset(y[o[a:b][at_bottom[a:b]]].tolist())
        return list(map(CycleBlock, members, [exits[r] for r in ex.tolist()],
                        [heights[r] for r in hi.tolist()], bottoms,
                        [depths[i] for i in which.tolist()]))
    finally:
        if paused:
            gc.enable()


def _energy_levels(graph, states=None):
    """Distinct energy values ascending, each with its member states."""
    field = graph.ctx.field
    groups = {}
    for s in (states if states is not None else graph.states()):
        e = graph.energy_pair(s)
        groups.setdefault(field.level_key(e.bonds, e.pluses), [e, []])[1].append(s)
    levels = sorted(groups.values(), key=functools.cmp_to_key(
        lambda a, b: a[0]._cmp(b[0])))
    return [(e, members) for e, members in levels]


def communication_energy(graph, a_states, b_states):
    """Minimax energy over single-flip paths between two state sets.

    Sweeps the distinct energy levels ascending, joining states whose energy
    is at most the level, and returns the first level at which some component
    contains states of both sets.
    """
    a_set = set(a_states)
    b_set = set(b_states)
    if not a_set or not b_set:
        raise ValueError("communication energy needs non-empty state sets")
    ids = list(graph.states())
    index = {s: k for k, s in enumerate(ids)}
    uf = UnionFind(len(ids))
    active = [False] * len(ids)
    has_a = [s in a_set for s in ids]
    has_b = [s in b_set for s in ids]

    for level, members in _energy_levels(graph):
        for s in members:
            active[index[s]] = True
        for s in members:
            k = index[s]
            for t in graph.neighbors(s):
                kt = index.get(t)
                if kt is not None and active[kt]:
                    ra, rb = uf.find(k), uf.find(kt)
                    if ra != rb:
                        r = uf.union(ra, rb)
                        other = rb if r == ra else ra
                        has_a[r] = has_a[r] or has_a[other]
                        has_b[r] = has_b[r] or has_b[other]
        # joined components necessarily contain an active state of A
        for s in a_set:
            k = index[s]
            if active[k]:
                r = uf.find(k)
                if has_a[r] and has_b[r]:
                    return level
    raise RuntimeError("state graph is not connected")


def _block_stats(graph, states):
    """Exit energy, height, bottom and depth of one connected block."""
    states = frozenset(states)
    exit_energy = None
    for s in states:
        es = graph.energy_pair(s)
        for t in graph.neighbors(s):
            if t not in states:
                cand = max(es, graph.energy_pair(t))
                if exit_energy is None or cand < exit_energy:
                    exit_energy = cand
    energies = {s: graph.energy_pair(s) for s in states}
    emin = min(energies.values())
    bottom = frozenset(s for s, e in energies.items() if e == emin)
    height = NEG_INF_ENERGY if len(states) == 1 else max(energies.values())
    depth = exit_energy - emin if exit_energy is not None else None
    return CycleBlock(states, exit_energy, height, bottom, depth)


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


def maximal_cycles(graph, y_states):
    """Partition of Y into maximal cycles.

    A cycle with at least two states is a connected component of a sublevel
    set whose exterior neighbors all sit strictly above the level, so the
    partition falls out of an ascending sweep: after each level, any active
    component entirely inside Y is a cycle, and the last one recorded per
    state is the maximal one.
    """
    y_set = frozenset(y_states)
    ids = list(graph.states())
    index = {s: k for k, s in enumerate(ids)}
    uf = UnionFind(len(ids))
    active = [False] * len(ids)
    members = {k: [ids[k]] for k in range(len(ids))}
    bad = [0 if ids[k] in y_set else 1 for k in range(len(ids))]
    # every singleton of Y is a cycle, the fallback when any sublevel
    # component around it immediately leaks out of Y
    latest = {s: frozenset((s,)) for s in y_set}
    for level, level_members in _energy_levels(graph):
        for s in level_members:
            active[index[s]] = True
        for s in level_members:
            k = index[s]
            for t in graph.neighbors(s):
                kt = index.get(t)
                if kt is not None and active[kt]:
                    ra, rb = uf.find(k), uf.find(kt)
                    if ra != rb:
                        r = uf.union(ra, rb)
                        o = rb if r == ra else ra
                        members[r].extend(members.pop(o))
                        bad[r] += bad[o]
        for r in {uf.find(index[s]) for s in level_members}:
            if bad[r] == 0:
                snapshot = frozenset(members[r])
                for s in snapshot:
                    latest[s] = snapshot
    blocks = []
    seen = set()
    for s in sorted(y_set):
        blk = latest[s]
        if id(blk) not in seen:
            seen.add(id(blk))
            blocks.append(_block_stats(graph, blk))
    return ListPartition(blocks=blocks, kind="cycles")


def maximal_compounds(graph, y_states):
    """Partition of Y into maximal cycle compounds.

    Starts from the maximal cycles and merges adjacent blocks whose exit
    energies are exactly equal, as long as the union still satisfies
    height <= exit energy, until no merge applies.  Every final block is
    re-verified against the compound definition.  The scan compares one
    exact key per block, ``field.level_key`` of its exit pair (an integer
    under a rational field, the pair under an irrational one), kept beside
    the block.
    """
    part = maximal_cycles(graph, y_states)
    blocks = [b for b in part.blocks]
    field = graph.ctx.field

    def exit_key(b):
        return None if b.exit_energy is None \
            else field.level_key(*b.exit_energy.pair())

    keys = [exit_key(b) for b in blocks]
    tie_events = []
    irr = field.is_irrational
    changed = True
    while changed:
        changed = False
        n = len(blocks)
        merged = False
        for i in range(n):
            if merged:
                break
            ki = keys[i]
            if ki is None:
                continue
            for j in range(i + 1, n):
                if keys[j] != ki:
                    continue
                bi, bj = blocks[i], blocks[j]
                if not _adjacent(graph, bi.states, bj.states):
                    continue
                union = bi.states | bj.states
                stats = _block_stats(graph, union)
                if stats.exit_energy is not None and not (
                        stats.height <= stats.exit_energy):
                    continue
                if not irr and not bi.exit_energy.same_pair(bj.exit_energy):
                    tie_events.append((min(bi.states), min(bj.states),
                                       bi.exit_energy.pair(), bj.exit_energy.pair()))
                blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
                keys = [x for k, x in enumerate(keys) if k not in (i, j)]
                blocks.append(stats)
                keys.append(exit_key(stats))
                merged = True
                changed = True
                break
    for b in blocks:
        if not _is_connected(graph, b.states):
            raise AssertionError("compound block is not connected")
        if b.exit_energy is not None and not (b.height <= b.exit_energy):
            raise AssertionError("compound block violates height <= exit energy")
    return ListPartition(blocks=blocks, kind="compounds", tie_events=tie_events)


def _adjacent(graph, a_states, b_states):
    small, big = (a_states, b_states) if len(a_states) <= len(b_states) \
        else (b_states, a_states)
    for s in small:
        for t in graph.neighbors(s):
            if t in big:
                return True
    return False


def truncate_landscape(graph, k):
    """Lowest-k-energy flip-connected piece of a landscape around its minimum."""
    order = sorted(graph.states(), key=functools.cmp_to_key(
        lambda a, b: graph.energy_pair(a)._cmp(graph.energy_pair(b)) or (a - b)))
    chosen = set(order[:k])
    start = order[0]
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in graph.neighbors(s):
            if t in chosen and t not in seen:
                seen.add(t)
                stack.append(t)
    return LandscapeGraph(graph.ctx, graph._bonds, graph._pluses, seen)


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


# -- merge-tree oracle: the per-edge union-find sweep over the level index ----


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
            lq = lv.level_of(q)
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


def sweep_communication_energy(graph, a_states, b_states):
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
    flags = np.zeros(lv.n, dtype=np.int8)
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


def sweep_cycle_labels(lv, y):
    """Maximal-cycle label of every position (-1 outside Y), and the count.

    A component of a sublevel set that lies inside Y is a cycle, so the
    maximal cycles are the merge-tree nodes inside Y whose parent is not:
    the pieces inside Y of a component that comes to hold a state outside
    Y, and the components inside Y that never do.
    """
    outside = np.ones(lv.n, dtype=np.int8)
    outside[y] = 0
    label = np.full(lv.n, -1, dtype=np.int64)
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


# -- compound oracle: the worklist merge of cycles over per-cycle dicts -------


def _compound_labels(graph, label, count):
    """Compound label of every position (-1 outside Y), the count and the
    tie events, from the maximal-cycle labels: adjacent cycles with equal
    exit levels merged."""
    lv = graph.levels()
    none = len(lv.values)
    level = lv.rank_level.tolist()
    # number the cycles by smallest state, so that the merge order, and so
    # the tie events, depend on the cycle partition alone
    label, first = _by_first_state(label, count)
    la, lb, w = map(np.concatenate, zip(*_boundary_edges(graph, label)))
    # per block: least weight to states outside Y, to each adjacent block
    out = np.full(count, none, dtype=lv.rank.dtype)
    for side, other in ((la, lb), (lb, la)):
        sel = (side >= 0) & (other < 0)
        np.minimum.at(out, side[sel], w[sel])
    both = (la >= 0) & (lb >= 0)
    a, b, w = np.minimum(la, lb)[both], np.maximum(la, lb)[both], w[both]
    adjacent = [{} for _ in range(count)]
    for x, z, v in zip(a.tolist(), b.tolist(), w.tolist()):
        if v < adjacent[x].get(z, none):
            adjacent[x][z] = adjacent[z][x] = v
    out, first = out.tolist(), first.tolist()
    exit_rank = [min([out[c], *adjacent[c].values()]) for c in range(count)]
    uf = UnionFind(count)
    ties = [(c, d) for c in range(count) for d in adjacent[c]
            if c < d and exit_rank[c] < none and exit_rank[d] < none
            and level[exit_rank[c]] == level[exit_rank[d]]]
    tie_events = []
    for c, d in ties:
        c, d = uf.find(c), uf.find(d)
        if c == d:
            continue
        if exit_rank[c] != exit_rank[d]:
            tie_events.append((first[c], first[d],
                               lv.values[exit_rank[c]].pair(),
                               lv.values[exit_rank[d]].pair()))
        # the merged block keeps the larger neighbour map; its exit pair
        # is the least weight left on its boundary
        if len(adjacent[c]) < len(adjacent[d]):
            c, d = d, c
        uf.union(c, d)
        kept, gone = adjacent[c], adjacent[d]
        del kept[d], gone[c]
        for e, v in gone.items():
            del adjacent[e][d]
            kept[e] = adjacent[e][c] = min(v, kept.get(e, none))
        adjacent[d] = None
        out[c] = min(out[c], out[d])
        first[c] = min(first[c], first[d])
        exit_rank[c] = min([out[c], *kept.values()])
    roots, compound = np.unique(np.fromiter(map(uf.find, range(count)),
                                            np.int64, count), return_inverse=True)
    final = np.full_like(label, -1)
    final[label >= 0] = compound[label[label >= 0]]
    return final, len(roots), tie_events



# -- CSV writers: one Configuration.to_text per state and per block ----------


def landscape_to_csv_rows(graph, fh):
    writer = csv.writer(fh)
    writer.writerow(["state", "pattern", "bonds", "pluses"])
    for s in graph.states():
        cfg = graph.configuration(s)
        e = graph.energy_pair(s)
        writer.writerow([s, cfg.to_text().replace("\n", "|"), e.bonds, e.pluses])


def partition_to_csv_rows(graph, partition, assign_fh, summary_fh):
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


# -- critical constants: a walk over every entry of the reference profile ----


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


def critical_constants(d, h):
    """Exact critical constants for dimensions 1..d under field h.

    Gamma_n is the maximum of the reference path profile on an n-dimensional
    cube whose side exceeds both l_c(n)+2 and 2n/h; m_n is the volume where
    the maximum is attained.  kappa and L follow by the recursions
    kappa_n = (Gamma_1 + ... + Gamma_n)/(n+1), L_n = (Gamma_n - kappa_n)/n.
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
    if field.rational is None and const.has_ties():
        raise AssertionError("argmax tie under an irrational field")
    return const
