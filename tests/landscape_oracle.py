"""Reference implementations of the landscape sweeps, kept as test oracles.

These are the per-state ``EnergyValue`` sweeps that ``isingkit.landscape``
used before its integer level index and sublevel merge tree: an ascending
union-find sweep per call, cycles from per-level component snapshots, and
compounds from repeated scans over all block pairs.  They are slow and
straightforward; the differential tests compare the library against them.
"""

from __future__ import annotations

import functools

from isingkit.energy import NEG_INF_ENERGY
from isingkit.landscape import CycleBlock, CyclePartition, TruncatedLandscape
from isingkit.unionfind import UnionFind


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
    return CyclePartition(blocks=blocks, kind="cycles")


def maximal_compounds(graph, y_states):
    """Partition of Y into maximal cycle compounds.

    Starts from the maximal cycles and merges adjacent blocks whose exit
    energies are exactly equal, as long as the union still satisfies
    height <= exit energy, until no merge applies.  Every final block is
    re-verified against the compound definition.
    """
    part = maximal_cycles(graph, y_states)
    blocks = [b for b in part.blocks]
    tie_events = []
    irr = graph.ctx.field.is_irrational
    changed = True
    while changed:
        changed = False
        n = len(blocks)
        merged = False
        for i in range(n):
            if merged:
                break
            for j in range(i + 1, n):
                bi, bj = blocks[i], blocks[j]
                if bi.exit_energy is None or bj.exit_energy is None:
                    continue
                if bi.exit_energy != bj.exit_energy:
                    continue
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
                blocks.append(stats)
                merged = True
                changed = True
                break
    for b in blocks:
        if not _is_connected(graph, b.states):
            raise AssertionError("compound block is not connected")
        if b.exit_energy is not None and not (b.height <= b.exit_energy):
            raise AssertionError("compound block violates height <= exit energy")
    return CyclePartition(blocks=blocks, kind="compounds", tie_events=tie_events)


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
    return TruncatedLandscape(graph, seen)


