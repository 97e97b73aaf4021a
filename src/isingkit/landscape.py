"""Exhaustive energy-landscape analysis on small boxes.

Enumerates all spin configurations of a box, maps every state to an exact
integer energy level, computes communication energies and maximal cycles
from one ascending merge of the sublevel sets (the merge tree), merges
cycles into maximal cycle compounds, builds reference filling paths, and
derives the critical constants (droplet side, critical volume and barrier,
relaxation exponents) from the reference path energy profile.  Every
landscape's level index covers the 2^|box| states of its box, a position
being its state; a truncation's dropped states are never placed.

The merge runs level by level, each level one vectorised step with numpy:
activate the level's states, take their flip edges to active states, find
both ends' roots in union-by-size trees, and join the roots by one
connected-components pass, OR-ing per-state flags onto the new roots.  The
level order is placed on demand, a prefix of levels at a time, and the
per-state ranks and levels are built only for the consumers that read
every state.  The merge's work grows with the states and edges of the
levels it visits, so a communication energy merges no level above its
barrier, and places only a small fixed share of the states when its
barrier lies within them.  Maximal cycle compounds are the connected
components of a fixed graph over the cycles, adjacent cycles whose exits
share a level; the worklist merge that records tie events under a
rational field is replayed only in the compounds where tied exits can
differ in pair.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import NEG_INF_ENERGY, EnergyValue, MagneticField
from .lattice import (BoundaryCondition, Configuration,
                      connected_components, hamiltonian)

DEFAULT_ENUMERATION_CAP = 24


class LandscapeGraph:
    """Configurations of a box with exact energies and flip adjacency.

    Holds all 2^|box| states, or, when ``ids`` is given, only those states,
    marked in one boolean mask: a flip-connected subset such as
    ``truncate_landscape`` keeps, whose flips lead only to other kept
    states.  ``bonds`` (int16), ``pluses`` (int8) and the level index are
    indexed by state and cover all 2^|box| states either way.
    """

    def __init__(self, ctx, bonds, pluses, ids=None):
        self.ctx = ctx
        self.n_sites = ctx.n_sites
        self._bonds = bonds
        self._pluses = pluses
        self._kept = None if ids is None \
            else np.isin(np.arange(len(bonds)), list(ids))
        self.n_states = len(bonds) if ids is None else int(self._kept.sum())
        self._levels = None

    def states(self):
        return range(self.n_states) if self._kept is None \
            else np.flatnonzero(self._kept).tolist()

    def energy_pair(self, s):
        return EnergyValue(int(self._bonds[s]), int(self._pluses[s]), self.ctx.field)

    def neighbors(self, s):
        for i in range(self.n_sites):
            t = s ^ (1 << i)
            if self._kept is None or self._kept[t]:
                yield t

    def configuration(self, s):
        return Configuration.from_bitmask(self.ctx.geometry, s)

    def levels(self):
        """The exact integer level index of the states, built on first use."""
        if self._levels is None:
            self._levels = LevelIndex(self._bonds, self._pluses,
                                      self.ctx.field, self.n_sites,
                                      self._kept)
        return self._levels


def enumerate_landscape(ctx, cap=DEFAULT_ENUMERATION_CAP):
    """Enumerate every configuration of the box with its exact energy.

    States are indexed by plus-bitmask (bit i = site i), so the ordering is
    deterministic.  States [2^i, 2^(i+1)) are states [0, 2^i) plus site i.
    ``bonds`` is int16 and ``pluses`` int8, exact for every box whose bonds
    fit: a state's bonds are at most the sum over its sites of the
    boundary weight and the neighbour count, in absolute value.
    """
    n = ctx.n_sites
    if n > cap:
        raise ValueError(f"box has {n} sites, enumeration cap is {cap}")
    site_weight = ctx.boundary_minus - ctx.boundary_plus
    reach = int(np.abs(site_weight).sum()) + sum(map(len, ctx.neighbors))
    if reach > np.iinfo(np.int16).max or n > np.iinfo(np.int8).max:
        raise ValueError(f"box of {n} sites overflows the narrow energy "
                         f"columns")
    bonds = np.zeros(1 << n, dtype=np.int16)
    pluses = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        half = 1 << i
        upper = bonds[half:2 * half]
        # sites above i are minus: one more disagreeing bond per neighbour,
        # a Python int, so the add stays in int16
        np.add(bonds[:half], int(site_weight[i]) + len(ctx.neighbors[i]),
               out=upper)
        for j in ctx.neighbors[i]:
            if j < i:  # less two where a lower neighbour j is plus
                upper.reshape(-1, 2, 1 << j)[:, 1] -= 2
        np.add(pluses[:half], 1, out=pluses[half:2 * half])
    return LandscapeGraph(ctx, bonds, pluses)


# -- level index and sublevel merge tree -----------------------------------------


class LevelIndex:
    """Exact integer energy levels of the states of a landscape.

    Arrays are indexed by position, and a position is its state, one of
    the ``n`` = 2^n_sites states of the box, on every landscape.  ``bonds``
    and ``pluses`` are the columns of every state, of any integer type
    (int16 and int8 from ``enumerate_landscape``).  A truncation passes
    ``kept``, the mask of its states; the dropped states share one spare
    key that is never a level, so they are never counted or placed, and
    read rank ``len(values)``, no exit, and level ``n_levels``.  The few
    distinct (bonds, pluses) pairs are sorted once, exactly, with
    ``compare_pair``; pairs of equal value (possible only for a rational
    field) follow one another in the order of the first state carrying
    each.  ``values[r]`` is the energy of rank r, ``rank_level[r]`` its
    level, and ``level_rank[k]`` the first rank of level k, the pair that
    names level k; level k holds the states ``starts[k]:starts[k + 1]`` of
    the level order.  Per position, ``rank[p]`` is the place of p's pair in
    that order and ``level[p]`` numbers the distinct values, so two states
    share a level exactly when their energies are equal; both are built on
    first read.  ``order`` lists the kept positions by level, ascending
    within a level, and p sits at ``order[where[p]]``; reading either
    places every kept state, while ``place`` places a prefix of the levels.
    ``flips`` and ``edge_ends`` read the flip edges.
    """

    # a first request for at most 1/_SHARE of the states is placed alone;
    # 1/16 still holds the minus-to-plus barrier of 4x5 under h = 1/20
    # (1/33 of its states), and a smaller share saves only about 1 ms per
    # 2^20 states
    _SHARE = 16

    def __init__(self, bonds, pluses, field, n_sites, kept=None):
        self.n = n = len(bonds)
        self.n_sites = n_sites
        self._kept = kept
        # one small integer key per pair, since pluses never exceed n_sites;
        # built in place as intp, since bincount and every gather would
        # first copy a narrower key to intp
        b0 = int(bonds.min())
        width = n_sites + 1
        key = np.subtract(bonds, b0, dtype=np.intp)
        key *= width
        key += pluses
        if kept is not None:
            # the dropped states share one spare key, past every pair's,
            # that is never a level
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
            # pairs of one value, in the order of their first states
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
        # the spare key reads rank len(values) and level n_levels
        self._rank_of_key[real:] = len(self.values)
        self.rank_level = np.array(rank_level, dtype=np.int32)
        self.starts = np.cumsum(sizes)
        # narrow, so the level sort is a radix sort of 8 or 16 bits
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

    @property
    def order(self):
        return self.place(self.n_levels)[0]

    @property
    def where(self):
        return self.place(self.n_levels)[1]

    def place(self, stop):
        """``order`` and ``where`` with at least the levels below ``stop``
        placed: ``order`` holds the placed positions only, and an unplaced
        position's ``where`` is n, after every place.  While nothing is
        placed, a request within the first 1/_SHARE of the states places
        every level that fits there, by one masked pass and a sort of those
        states; any other request places every kept state by one stable
        sort, in which the dropped states come last."""
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

    def positions(self, states):
        """Positions of a collection of states, ascending, without repeats.
        Strictly ascending states are their positions as they are (an int64
        array of them is returned itself, a range read from its start, stop
        and step); any other collection is read back from a boolean mask
        over the landscape."""
        s = np.arange(states.start, states.stop, states.step) \
            if isinstance(states, range) else \
            np.asarray(states, dtype=np.int64) \
            if isinstance(states, np.ndarray) else \
            np.fromiter(states, dtype=np.int64)
        outside = len(s) and (s.min() < 0 or s.max() >= self.n)
        if outside or self._kept is not None and not self._kept[s].all():
            raise ValueError("states outside the landscape")
        if np.all(s[1:] > s[:-1]):
            return s
        mask = np.zeros(self.n, dtype=bool)
        mask[s] = True
        return np.flatnonzero(mask)

    def flips(self, pos, bit):
        """(p, q): the positions p of ``pos`` and q = p ^ ``bit`` their flips
        lead to, as flat arrays; q may be a truncation's dropped state, never
        placed.  ``bit`` is one bit mask, or a row of them against a column
        of positions, which gives each position's flips in turn."""
        q = pos ^ bit
        return pos.repeat(q.size // max(pos.size, 1)), q.ravel()

    def edge_ends(self, *cols):
        """Per bit i, every column read at both ends of every flip edge of
        bit i, as strided views: ``(c[p], c[q])`` for each column c in turn,
        p the blocks of 2^i positions with bit i clear, q those with it set.
        A truncation's dropped states are read too: outside every Y, of
        rank ``len(values)``, they join no block and give no exit."""
        for i in range(self.n_sites):
            yield [c.reshape(-1, 2, 1 << i)[:, end]
                   for c in cols for end in (0, 1)]


class _MergeTree:
    """Merge tree of the sublevel sets of a landscape, one level at a time.

    Each level k is one vectorised step: activate the level's states, take
    their flip edges to active states, map both ends to their roots, and
    find the connected components of the root graph.  Edges arrive state
    by state, and a new state's lower neighbours mostly share one root, so
    each run of edges from one state to one root is cut to its first edge
    before the components pass; that keeps the pieces, their order of first
    appearance and the components as they were.  Every component is then
    hung below its largest piece (union by size, so trees stay O(log n)
    deep and a find is a few whole-array pointer jumps).  The work per
    level grows with the level's states and edges, not with the box.

    Nodes are places in the level order (``lv.where``), so level k is the
    node range ``lv.starts[k]:lv.starts[k + 1]``.  The order is placed as
    the sweep reaches it (``lv.place``), so a sweep that stops early touches
    only the start of its arrays and places few states beyond them.
    ``flags`` holds a small int per position; each level's flags are copied
    to its nodes as it is activated, and ``flag`` is updated in place: a
    root carries the OR of its tree's flags.  Iterating yields
    ``(k, pieces, group, pflag, gflag)`` after level k: ``pieces`` are the
    roots that level k touched as they stood before it (a state activated
    at k is a piece of its own), ``group[i]`` numbers the component piece i
    joins, ``pflag`` holds the pieces' flags and ``gflag[group]`` the OR
    over each component.  The pieces are joined when iteration resumes.
    """

    def __init__(self, lv, flags):
        n = int(lv.starts[-1])
        self.lv = lv
        self.parent = np.empty(n, dtype=np.int64)
        self.size = np.empty(n, dtype=np.int64)
        self.flag = np.empty(n, dtype=flags.dtype)
        self._flags = flags
        self._slot = np.empty(n, dtype=np.int64)
        self._bits = np.left_shift(1, np.arange(lv.n_sites, dtype=np.int64))

    def roots(self, nodes):
        """The root of each node's tree."""
        parent = self.parent
        r = parent[nodes]
        up = parent[r]
        while np.count_nonzero(up != r):
            r, up = up, parent[up]
        return r

    def _edges(self, lo, hi, order, where):
        """Flip edges from the nodes lo..hi-1 of one level to active nodes,
        node by node, from one ``flips`` call over the level's states and
        all bits.

        A flip changes the energy by an integer minus or plus h, and
        0 < h < 1, so flip neighbours never share a level and every such
        edge goes down to an earlier level.  A state not yet placed sits at
        n, above every node.
        """
        p, q = self.lv.flips(order[lo:hi, None], self._bits)
        q = where[q]
        # an index list, not a boolean mask: about half the flips go down,
        # in no pattern a mask's copy loop could predict
        down = (q < lo).nonzero()[0]
        return where[p[down]], q[down]

    def __iter__(self):
        lv = self.lv
        starts = lv.starts.tolist()
        for k in range(lv.n_levels):
            lo, hi = starts[k], starts[k + 1]
            order, where = lv.place(k + 1)
            new = np.arange(lo, hi)
            self.parent[lo:hi] = new
            self.size[lo:hi] = 1
            self.flag[lo:hi] = self._flags[order[lo:hi]]
            p, q = self._edges(lo, hi, order, where)
            if not len(p):
                flag = self.flag[new]
                yield k, new, np.arange(len(new)), flag, flag
                continue
            # one edge per run of equal (node, root): p ascends, and each
            # dropped edge repeats the one before it, so it joins nothing new
            r = self.roots(q)
            run = np.empty(len(p), dtype=bool)
            run[0] = True
            run[1:] = (p[1:] != p[:-1]) | (r[1:] != r[:-1])
            p, r = p[run], r[run]
            # pieces: the distinct roots at the ends, where the nodes of
            # level k are still roots of their own; slot numbers them
            ends = np.concatenate((new, r))
            slot, at = self._slot, np.arange(len(ends))
            slot[ends] = at
            pieces = ends[slot[ends] == at]
            m = len(pieces)
            slot[pieces] = at[:m]
            group = _components(m, slot[p], slot[r])
            pflag = self.flag[pieces]
            gflag = np.zeros(m, dtype=pflag.dtype)
            np.bitwise_or.at(gflag, group, pflag)
            yield k, pieces, group, pflag, gflag
            # each component hangs below one of its largest pieces; sizes
            # and flags are read only at roots, so only the tops are updated
            size = self.size[pieces]
            big = np.zeros(m, dtype=size.dtype)
            np.maximum.at(big, group, size)
            top = np.empty(m, dtype=np.int64)
            widest = size == big[group]
            top[group[widest]] = pieces[widest]
            top = top[group]
            self.parent[pieces] = top
            self.size[top] = np.bincount(group, size, m)[group]
            self.flag[top] = gflag[group]


def _components(m, a, b):
    """Component of each of m nodes joined by edges (a, b), named by its
    least node: until no edge is cut, hook every root that is the larger
    end of a cut edge to the least root across such edges, then
    pointer-jump until every node sees its root.  Every node starts as its
    own root, so the first round hooks the ends as they are.  Labels take
    the edges' integer type: ``ufunc.at`` runs its fast loop only when the
    indices, values and target share one."""
    label = np.arange(m, dtype=a.dtype)
    la, lb = a, b
    while True:
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while np.count_nonzero(up != label):
            label, up = up, up[up]
        la, lb = label[a], label[b]
        cut = la != lb
        if not np.count_nonzero(cut):
            return label
        a, b, la, lb = a[cut], b[cut], la[cut], lb[cut]


def communication_energy(graph, a_states, b_states):
    """Minimax energy over single-flip paths between two state sets.

    Merges the sublevel sets level by level, ascending, and returns the
    first level at which some component contains states of both sets,
    named by the pair of the lowest state at that level.  States above that
    level are never visited.
    """
    lv = graph.levels()
    a, b = lv.positions(a_states), lv.positions(b_states)
    if not len(a) or not len(b):
        raise ValueError("communication energy needs non-empty state sets")
    flags = np.zeros(lv.n, dtype=np.int8)
    flags[a] = 1
    flags[b] |= 2
    for k, _, _, _, gflag in _MergeTree(lv, flags):
        if np.count_nonzero(gflag == 3):
            return lv.values[lv.level_rank[k]]
    raise RuntimeError("state graph is not connected")


@dataclass
class CycleBlock:
    """One block of a cycle / cycle-compound partition."""

    # by hand, as ``dataclass(weakref_slot=True)`` needs Python 3.11: a
    # partition keeps its blocks by weak reference
    __slots__ = ("states", "exit_energy", "height", "bottom", "depth",
                 "__weakref__")
    states: frozenset
    exit_energy: object        # EnergyValue, or None when the block has no exterior
    height: object             # EnergyValue or the -inf sentinel
    bottom: frozenset
    depth: object              # EnergyValue or None

    def is_singleton(self):
        return len(self.states) == 1


class CyclePartition:
    """Partition of a state set Y into blocks, held as columns over the
    positions of a level index ``lv``.

    ``kind`` is "cycles" or "compounds".  Blocks are numbered by smallest
    state.  ``label[p]`` is the block of position p (-1 outside Y), and
    ``members`` lists the positions of Y block by block, ascending within a
    block, block i at ``members[start[i]:start[i + 1]]``.  Per block,
    ``exit_rank`` is the least weight over its boundary edges (the larger
    rank of each edge's ends), ``height_rank`` and ``bottom_rank`` are the
    highest and lowest ranks inside it; ``len(lv.values)`` stands for no
    exterior, and for the height of a singleton.  ``blocks`` is the sequence
    of ``CycleBlock``s (a view, so no reference cycle holds the columns),
    each built when read and kept by the partition only while a caller
    holds it: a read of a held block returns that object, and a later read
    of a dropped one rebuilds it equal.  One pass over a partition's blocks
    holds one chunk of them at a time, and a second pass with nothing held
    builds them all again at the first pass's cost, about 0.15 s for the
    65,246 maximal cycles of 4x4; a caller that reads them more than once
    can keep a list.
    """

    def __init__(self, lv, label, count, kind, tie_events=()):
        none = len(lv.values)
        self.lv, self.kind, self.tie_events = lv, kind, list(tie_events)
        self.label, _ = _by_first_state(label, count)
        self.exit_rank = _exit_ranks(lv, self.label, count)
        y = np.flatnonzero(self.label >= 0)
        # y ascends, so a stable sort keeps each block's states ascending
        self.members = y[np.argsort(self.label[y], kind="stable")]
        sizes = np.bincount(self.label[y], minlength=count)
        self.start = np.concatenate(([0], np.cumsum(sizes)))
        rank = lv.rank[self.members]
        self.bottom_rank = np.minimum.reduceat(rank, self.start[:-1])
        self.height_rank = np.where(
            sizes > 1, np.maximum.reduceat(rank, self.start[:-1]), none)

    @property
    def blocks(self):
        return _Blocks(self)

    @functools.cached_property
    def _held(self):
        """The blocks callers hold, by index.  Made on the first block
        read, so a partition read only through its columns adds no objects
        for the garbage collector to track."""
        return weakref.WeakValueDictionary()

    def block_of(self, state):
        """The block holding a state of Y; ``KeyError`` for any other."""
        if not 0 <= state < self.lv.n or self.label[state] < 0:
            raise KeyError(state)
        return self.blocks[int(self.label[state])]

    def _build(self, i, j):
        """CycleBlocks i..j-1, built together from the columns."""
        lv, start = self.lv, self.start[i:j + 1]
        pos = self.members[start[0]:start[-1]]
        states = pos.tolist()
        low = lv.rank_level[self.bottom_rank[i:j]].repeat(np.diff(start))
        at_bottom = (lv.level[pos] == low).tolist()
        bounds = (start - start[0]).tolist()
        values = lv.values
        exits, heights = values + [None], values + [NEG_INF_ENERGY]
        # few distinct (exit, bottom) rank pairs: one depth object per pair
        depths = {}
        blocks = []
        for a, b, lo, ex, hi in zip(bounds, bounds[1:],
                                    self.bottom_rank[i:j].tolist(),
                                    self.exit_rank[i:j].tolist(),
                                    self.height_rank[i:j].tolist()):
            if (ex, lo) not in depths:
                depths[ex, lo] = None if exits[ex] is None \
                    else values[ex] - values[lo]
            members = frozenset(states[a:b])
            bottom = members if b - a == 1 else frozenset(
                itertools.compress(states[a:b], at_bottom[a:b]))
            blocks.append(CycleBlock(members, exits[ex], heights[hi], bottom,
                                     depths[ex, lo]))
        return blocks


class _Blocks(Sequence):
    """The blocks of a ``CyclePartition``, in order.  A block is built when
    read and kept while a caller holds it, so every read of a held block
    returns the same object, and a read of a dropped one builds it again,
    equal, at the cost of its first build; a slice reads a list of them,
    and iteration builds the blocks a chunk at a time and keeps none the
    caller dropped."""

    _CHUNK = 4096

    def __init__(self, part):
        self._part = part

    def __len__(self):
        return len(self._part.exit_rank)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("block index out of range")
        i %= n
        held = self._part._held
        blk = held.get(i)
        if blk is None:
            blk = held[i] = self._part._build(i, i + 1)[0]
        return blk

    def __iter__(self):
        held, n = self._part._held, len(self)
        for i in range(0, n, self._CHUNK):
            for k, blk in enumerate(
                    self._part._build(i, min(i + self._CHUNK, n)), i):
                yield held.setdefault(k, blk)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))


def _exit_ranks(lv, label, count):
    """Least weight over the boundary edges of each block labelled
    0..count-1, the weight of an edge being the larger rank of its ends;
    ``len(lv.values)`` for a block with no exterior."""
    none = len(lv.values)
    # label -1 (outside Y) writes to the spare last slot
    ex = np.full(count + 1, none, dtype=lv.rank.dtype)
    for lp, lq, rp, rq in lv.edge_ends(label, lv.rank):
        w = np.where(lp != lq, np.maximum(rp, rq), none).ravel()
        # flat, contiguous indices keep ufunc.at on its fast loop
        np.minimum.at(ex, lp.ravel(), w)
        np.minimum.at(ex, lq.ravel(), w)
    return ex[:-1]


def _by_first_state(label, count):
    """Labels 0..count-1 (-1 is outside) renumbered in the order of each
    block's smallest position, and those positions ascending."""
    y = np.flatnonzero(label >= 0)
    first = np.full(count, len(label), dtype=np.int64)
    np.minimum.at(first, label[y], y)
    rename = np.empty(count, dtype=np.int64)
    rename[np.argsort(first)] = np.arange(count)
    out = np.full_like(label, -1)
    out[y] = rename[label[y]]
    return out, np.sort(first)


def _block_stats(graph, states):
    """Exit energy, height, bottom and depth of one block."""
    lv = graph.levels()
    label = np.full(lv.n, -1, dtype=np.int64)
    label[lv.positions(states)] = 0
    return CyclePartition(lv, label, 1, "cycles").blocks[0]


def _is_connected(graph, states):
    """Whether a set of states is non-empty and flip-connected."""
    lv = graph.levels()
    label = np.full(lv.n, -1, dtype=np.int64)
    label[lv.positions(states)] = 0
    return _all_connected(lv, label, 1)


def _all_connected(lv, label, count):
    """Whether each of the blocks labelled 0..count-1 is flip-connected: the
    edges inside blocks leave exactly one component per block."""
    dtype = np.int32 if len(label) <= 1 << 31 else np.int64
    fs = [np.flatnonzero((lp == lq) & (lp >= 0)).astype(dtype)
          for lp, lq in lv.edge_ends(label)]
    # f = r * 2^i + o, row r and offset o of bit i's views, is the edge from
    # position p = r * 2^(i+1) + o = f + (f >> i << i) to p | 2^i
    f = np.concatenate(fs)
    i = np.repeat(np.arange(len(fs), dtype=dtype), [len(x) for x in fs])
    p = f + (f >> i << i)
    comp = _components(len(label), p, p | (1 << i))
    y = np.flatnonzero(label >= 0)
    return np.count_nonzero(comp[y] == y) == count


def _cycle_labels(lv, y):
    """Maximal-cycle label of every position (-1 outside Y), and the count.

    A component of a sublevel set that lies inside Y is a cycle, so the
    maximal cycles are the merge-tree nodes inside Y whose parent is not:
    the pieces inside Y of a component that comes to hold a state outside
    Y, and the components inside Y that never do.  Each is labelled at its
    root.  Whatever hangs below such a root later is either a piece inside
    Y, labelled at its own root as it joins, or holds a state outside Y,
    and then its states of Y were labelled below it before; so a state of
    Y takes the label of the first labelled node above it.
    """
    outside = np.ones(lv.n, dtype=np.int8)
    outside[y] = 0
    tree = _MergeTree(lv, outside)
    m = len(tree.parent)
    label = np.full(m, -1, dtype=np.int64)
    count = 0
    for _, pieces, group, pflag, gflag in tree:
        done = pieces[(gflag[group] != 0) & (pflag == 0)]
        label[done] = np.arange(count, count + len(done))
        count += len(done)
    # the roots inside Y; numpy casts an int32 range a buffer at a time
    done = np.flatnonzero((tree.parent == np.arange(m, dtype=np.int32))
                          & (tree.flag == 0))
    label[done] = np.arange(count, count + len(done))
    count += len(done)
    out = np.full(lv.n, -1, dtype=np.int64)
    todo, cur = y, lv.where[y]
    while len(todo):
        found = label[cur]
        hit = found >= 0
        out[todo[hit]] = found[hit]
        up = tree.parent[cur]
        go = ~hit & (up != cur)
        todo, cur = todo[go], up[go]
    return out, count


def maximal_cycles(graph, y_states):
    """Partition of Y into maximal cycles, blocks ordered by smallest state.

    A cycle with at least two states is a connected component of a sublevel
    set whose exterior neighbors all sit strictly above the level, so the
    maximal cycles are read off the merge tree of one ascending sweep.
    """
    lv = graph.levels()
    label, count = _cycle_labels(lv, lv.positions(y_states))
    return CyclePartition(lv, label, count, "cycles")


def maximal_compounds(graph, y_states):
    """Partition of Y into maximal cycle compounds, ordered by smallest state.

    Merges adjacent maximal cycles whose exit energies are exactly equal.
    Such a merge always keeps height <= exit energy: a union of maximal
    cycles is no cycle, so its height is at least its exit, while the cycles
    sit strictly below their common exit level and the singletons at most
    at it.  The exit level therefore never changes, and the compounds are
    the components of a fixed tie graph: adjacent cycles whose finite exits
    share a level.  Every final block is re-verified against the compound
    definition.

    Under a rational field, a join of blocks whose exit pairs differ in
    (bonds, pluses) but not in value is recorded as a tie event, in the
    order of a worklist merge: tie pairs (c, d), c < d, by c, then by the
    first flip edge between them, each joined block's exit being the least
    weight on its whole boundary.  Pairs can differ only on a level that
    holds two or more pairs, so the worklist is replayed only in compounds
    of two or more cycles whose exit level does; under an irrational field
    every level holds one pair and nothing is replayed.  Cycles that all
    start with one exit pair can still record an event: a join can make
    internal the only edge that gave them that pair, and the block's exit
    then moves to another pair of the same value.
    """
    lv = graph.levels()
    return _compounds(lv, *_cycle_labels(lv, lv.positions(y_states)))


def _compounds(lv, label, count):
    """Compound partition from the maximal-cycle labels of the positions,
    each block checked to be connected with height <= exit energy."""
    final, n, tie_events = _compound_labels(lv, label, count)
    if not _all_connected(lv, final, n):
        raise AssertionError("compound block is not connected")
    part = CyclePartition(lv, final, n, "compounds", tie_events)
    # levels number the distinct values in order, so comparing levels is
    # exact; a singleton's height (rank len(lv.values)) is below them all
    level = np.append(lv.rank_level, -1)
    ex, hi = part.exit_rank, part.height_rank
    has_exit = ex < len(lv.values)
    if np.count_nonzero(level[hi[has_exit]] > level[ex[has_exit]]):
        raise AssertionError("compound block violates height <= exit energy")
    return part


def _compound_labels(lv, label, count):
    """Compound label of every position (-1 outside Y), the count and the
    tie events, from the maximal-cycle labels.

    Two adjacent cycles tie when their finite exits share a level, and the
    compounds are the components of that fixed tie graph, each named by
    its least cycle.  Cycles are numbered by smallest state first, so the
    compounds come out numbered by smallest state too, and the tie events
    depend on the cycle partition alone.
    """
    none = len(lv.values)
    label, first = _by_first_state(label, count)
    ex = _exit_ranks(lv, label, count)
    # exit level per cycle, -1 without exit; the spare last slot, read by
    # label -1 (outside Y, or dropped), is -2 and ties with nothing
    exit_level = np.append(np.append(lv.rank_level, -1)[ex], -2)
    a, b = [], []
    for lp, lq in lv.edge_ends(label):
        tie = (lp != lq) & (exit_level[lp] == exit_level[lq])
        a.append(lp[tie])
        b.append(lq[tie])
    comp = _components(count, np.concatenate(a), np.concatenate(b))
    lead = comp == np.arange(count)
    # compounds renumbered 0.., and label -1 reads -1 from the spare slot
    final = np.append((np.cumsum(lead) - 1)[comp], -1)[label]
    # tied exits can differ in pair only on a level of two or more ranks
    multi = np.append(np.diff(lv.level_rank + [none]) > 1, False)
    replay = (np.bincount(comp, minlength=count)[comp] > 1) & \
        multi[exit_level[:-1]]
    tie_events = _replay_ties(lv, label, first, ex, comp, replay) \
        if np.count_nonzero(replay) else []
    return final, int(np.count_nonzero(lead)), tie_events


def _replay_ties(lv, label, first, exit_rank, comp, replay):
    """Tie events of the worklist merge of cycles, replayed over the
    compounds flagged in ``replay``.

    The worklist takes the tie pairs (c, d), c < d, by c ascending, then by
    the first flip edge between c and d, and joins the blocks of c and d.
    A join whose blocks' exit pairs differ is a tie event (the smallest
    states and the exit pairs of both blocks), and the joined block's exit
    is the least weight left on its whole boundary.  That least weight is
    the same however the cycles outside the block are grouped, so each
    compound's events depend on its own cycles alone.
    """
    none = len(lv.values)
    inside = np.append(replay, False)
    comp = np.append(comp, -1)
    la, lb, w = [], [], []
    for lp, lq, rp, rq in lv.edge_ends(label, lv.rank):
        sel = (lp != lq) & (inside[lp] | inside[lq])
        la.append(lp[sel])
        lb.append(lq[sel])
        w.append(np.maximum(rp[sel], rq[sel]))
    la, lb, w = map(np.concatenate, (la, lb, w))
    same = comp[la] == comp[lb]
    # per replayed cycle: least weight to all outside its compound, and to
    # each cycle of its compound
    out = np.full(len(replay), none, dtype=w.dtype)
    for side in (la, lb):
        sel = ~same & inside[side]
        np.minimum.at(out, side[sel], w[sel])
    a, b, w = np.minimum(la, lb)[same], np.maximum(la, lb)[same], w[same]
    cycles = np.flatnonzero(replay).tolist()
    adjacent = {c: {} for c in cycles}
    for x, z, v in zip(a.tolist(), b.tolist(), w.tolist()):
        if v < adjacent[x].get(z, none):
            adjacent[x][z] = adjacent[z][x] = v
    out, first = out.tolist(), first.tolist()
    exit_rank = exit_rank.tolist()
    ties = [(c, d) for c in cycles for d in adjacent[c] if c < d]
    parent = {c: c for c in cycles}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    tie_events = []
    for c, d in ties:
        c, d = find(c), find(d)
        if c == d:
            continue
        if exit_rank[c] != exit_rank[d]:
            tie_events.append((first[c], first[d],
                               lv.values[exit_rank[c]].pair(),
                               lv.values[exit_rank[d]].pair()))
        # the joined block keeps the larger neighbour map
        if len(adjacent[c]) < len(adjacent[d]):
            c, d = d, c
        parent[d] = c
        kept, gone = adjacent[c], adjacent.pop(d)
        del kept[d], gone[c]
        for e, v in gone.items():
            del adjacent[e][d]
            kept[e] = adjacent[e][c] = min(v, kept.get(e, none))
        out[c] = min(out[c], out[d])
        first[c] = min(first[c], first[d])
        exit_rank[c] = min([out[c], *kept.values()])
    return tie_events


def bottom_of(graph, states):
    """Energy minimizers of a non-empty state set."""
    lv = graph.levels()
    pos = lv.positions(states)
    if not pos.size:
        raise ValueError("bottom of an empty set")
    level = lv.level[pos]
    return frozenset(pos[level == level.min()].tolist())


def truncate_landscape(graph, k):
    """Lowest-k-energy flip-connected piece of a landscape around its minimum.

    States are taken by exact energy, states of equal energy by number.
    Returns a ``LandscapeGraph`` on the kept states that shares the energy
    arrays of ``graph``.  ``k`` is an integer >= 1.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    lv = graph.levels()
    # the levels that hold the k lowest states
    order, _ = lv.place(min(int(np.searchsorted(lv.starts, k)), lv.n_levels))
    order = order[:k].tolist()
    chosen, seen, stack = set(order), {order[0]}, [order[0]]
    while stack:
        for t in graph.neighbors(stack.pop()):
            if t in chosen and t not in seen:
                seen.add(t)
                stack.append(t)
    return LandscapeGraph(graph.ctx, graph._bonds, graph._pluses, seen)


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


def _growth_steps(dims):
    """The face layers of the quasicube growth in a box of the given dims.

    From one site the box grows one face layer at a time along its shortest
    growable side, lowest axis first.  Yields (axis, per, vol, face_dims) of
    the box each layer is laid on: the grown axis, the box's boundary bonds
    and volume, and the dims of the face the layer fills.
    """
    sides = [1] * len(dims)
    while True:
        growable = [i for i in range(len(dims)) if sides[i] < dims[i]]
        if not growable:
            return
        axis = min(growable, key=lambda i: (sides[i], i))
        vol = math.prod(sides)
        yield (axis, sum(2 * vol // s for s in sides), vol,
               tuple(sides[:axis] + sides[axis + 1:]))
        sides[axis] += 1


def _recursive_fill_order(dims):
    """Site order of the quasicube filling path in a box of the given dims."""
    order = [(0,) * len(dims)]
    for axis, _, vol, face_dims in _growth_steps(dims):
        layer = vol // math.prod(face_dims)
        order += [c[:axis] + (layer,) + c[axis:]
                  for c in _recursive_fill_order(face_dims)]
    return order


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


def reference_profile_pairs(dims, field):
    """(bonds, pluses) pairs along the reference path of an all-minus box.

    Computed combinatorially: the path grows quasicubes by filling a face
    through the one-lower-dimensional reference path, and the energy of a box
    plus a partial face layer splits exactly into the box term plus the
    face's own profile.  Matches the lattice greedy step for step.  The pairs
    are pure integers, independent of the field.
    """
    dims = tuple(int(s) for s in dims)
    prof = [(0, 0), (2 * len(dims), 1)]
    for _, per, vol, face_dims in _growth_steps(dims):
        prof += [(per + b, vol + p)
                 for b, p in reference_profile_pairs(face_dims, field)[1:]]
    return prof


def _profile_peak(dims, field, memo):
    """First maximum of the reference profile past its empty entry, and
    every volume where the profile takes that value.

    A face layer's entries are the face's own profile shifted by the exact
    pair (per, vol), so the layer's maximum is the face's shifted, and the
    box's is the best of the single site and its layers: O(n * side) exact
    comparisons instead of one per entry.  ``memo`` holds the peaks by
    sorted dims, since a permutation of the dims leaves the profile as it is.
    """
    key = tuple(sorted(dims))
    if key not in memo:
        best, ties = EnergyValue(2 * len(key), 1, field), [1]
        for _, per, vol, face_dims in _growth_steps(key):
            face_best, face_ties = _profile_peak(face_dims, field, memo)
            e = EnergyValue(per + face_best.bonds, vol + face_best.pluses,
                            field)
            if e > best:
                best, ties = e, [vol + t for t in face_ties]
            elif e == best:
                ties += [vol + t for t in face_ties]
        memo[key] = best, ties
    return memo[key]


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


def critical_constants(d, h):
    """Exact critical constants for dimensions 1..d under field h; d = 0
    gives the base of the recursion alone (Gamma_0 = m_0 = 0).

    Gamma_n is the maximum of the reference path profile on an n-dimensional
    cube whose side exceeds both l_c(n)+2 and 2n/h; m_n is the volume where
    the maximum is first attained.  Both come from a recursion over the
    cube's faces (``_profile_peak``), not from a walk over the profile.
    kappa and L follow by the recursions
    kappa_n = (Gamma_1 + ... + Gamma_n)/(n+1), L_n = (Gamma_n - kappa_n)/n.
    Each Gamma_n is checked against the quasicube sandwich bounds.
    """
    if d < 0:
        raise ValueError(f"dimension d must be non-negative, got {d}")
    field = h if isinstance(h, MagneticField) else MagneticField(h)
    zero = Fraction(0) if field.rational is not None else 0.0
    const = CriticalConstants(d=d, field=field, l_c=[0], m=[0],
                              gammas=[EnergyValue.zero(field)],
                              kappas=[zero], Ls=[zero], argmax_ties=[[]],
                              box_sides=[0])
    gamma_sum = zero
    memo = {}
    for n in range(1, d + 1):
        lc = critical_side(n, field)
        side = max(lc + 3, _floor_ratio(2 * n, field) + 1)
        gamma, ties = _profile_peak((side,) * n, field, memo)
        gamma_sum = gamma_sum + gamma.exact_value()
        kappa = gamma_sum / (n + 1)
        L_n = (gamma.exact_value() - kappa) / n
        const.l_c.append(lc)
        const.m.append(ties[0])
        const.gammas.append(gamma)
        const.kappas.append(kappa)
        const.Ls.append(L_n)
        const.argmax_ties.append(ties)
        const.box_sides.append(side)
        _check_sandwich(n, lc, gamma, field)
    if field.rational is None and const.has_ties():
        raise AssertionError("argmax tie under an irrational field")
    return const


def _check_sandwich(n, lc, gamma, field):
    low = EnergyValue(2 * n * lc ** (n - 1), (lc + 1) ** n, field)
    high = EnergyValue(2 * n * (lc + 1) ** (n - 1), lc ** n, field)
    if not (low <= gamma <= high):
        raise AssertionError(f"Gamma_{n} violates the quasicube sandwich bounds")


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
        const = critical_constants(d, field)
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


def _patterns(geometry, states):
    """``Configuration.to_text()`` of each state, newlines written as '|',
    built from the bit arrays at once.

    Sites run row-major, so the text is the rows of the last axis in order,
    with '|' between rows and '||' where ``to_text`` puts a blank line,
    before every ``dims[-2]``-th row.  ``states`` is an array of states, or
    the range of every state of the box, whose site i is written as blocks
    of 2^i minus and 2^i plus states in turn.
    """
    dims = geometry.dims
    if len(dims) == 1:
        cols = list(range(geometry.n_sites))
    else:
        width, block = dims[-1], dims[-2]
        cols = []
        for r in range(geometry.n_sites // width):
            if r:
                cols += [-1, -1] if r % block == 0 else [-1]
            cols += range(r * width, (r + 1) * width)
    text = np.full((len(states), len(cols)), ord("|"), dtype=np.uint8)
    if isinstance(states, range):
        for j, i in enumerate(cols):
            if i >= 0:
                blocks = text.reshape(-1, 2, 1 << i, len(cols))
                blocks[:, 0, :, j] = ord("-")
                blocks[:, 1, :, j] = ord("+")
    else:
        cols = np.array(cols, dtype=np.int64)
        site = cols >= 0
        states = np.asarray(states, dtype=np.int64)
        plus = (states[:, None] >> cols[site]) & 1
        text[:, site] = np.where(plus == 1, ord("+"), ord("-"))
    text = text.tobytes().decode("ascii")
    step = len(cols)
    return [text[i:i + step] for i in range(0, len(text), step)]


def landscape_to_csv(graph, fh):
    """One (state, pattern, bonds, pluses) row per state, ascending; a full
    landscape's states are read as a range, with no array of them."""
    states, bonds, pluses = graph.states(), graph._bonds, graph._pluses
    if graph._kept is not None:
        bonds, pluses = bonds[graph._kept], pluses[graph._kept]
    writer = csv.writer(fh)
    writer.writerow(["state", "pattern", "bonds", "pluses"])
    writer.writerows(zip(states, _patterns(graph.ctx.geometry, states),
                         bonds.tolist(), pluses.tolist()))


def partition_to_csv(graph, partition, assign_fh, summary_fh):
    """Write the (state, block) rows of Y and one summary row per block,
    read from the partition's columns without building its blocks.  The
    bottom pattern is that of the smallest bottom state."""
    lv, label, members = partition.lv, partition.label, partition.members
    y = np.flatnonzero(label >= 0)
    writer = csv.writer(assign_fh)
    writer.writerow(["state", "block"])
    writer.writerows(zip(y.tolist(), label[y].tolist()))
    writer = csv.writer(summary_fh)
    writer.writerow(["block", "size", "exit_bonds", "exit_pluses",
                     "bottom_pattern", "depth_bonds", "depth_pluses"])
    none = len(lv.values)
    pairs = np.array([v.pair() for v in lv.values] + [(0, 0)], dtype=np.int64)
    ex, lo = partition.exit_rank, partition.bottom_rank
    # the first place of each block, in block order, at its bottom level
    at_bottom = lv.level[members] == lv.rank_level[lo[label[members]]]
    place = np.where(at_bottom, np.arange(len(members)), len(members))
    first = np.minimum.reduceat(place, partition.start[:-1])
    bottoms = _patterns(graph.ctx.geometry, members[first])
    cols = [c.tolist() for c in (pairs[ex].T, (pairs[ex] - pairs[lo]).T)]
    (exit_b, exit_p), (depth_b, depth_p) = cols
    for k in np.flatnonzero(ex == none).tolist():
        exit_b[k] = exit_p[k] = depth_b[k] = depth_p[k] = ""
    writer.writerows(zip(range(len(ex)), np.diff(partition.start).tolist(),
                         exit_b, exit_p, bottoms, depth_b, depth_p))
