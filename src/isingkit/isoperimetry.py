"""Brute-force polyomino minimal-perimeter oracle and gravity projections.

Polyominoes are finite connected site sets canonicalized by translation
(per-axis minima at zero).  The oracle enumerates every fixed polyomino of
each volume, with no pruning, so it is an independent check for the
reference-path barrier computations; ``DEFAULT_CAPS`` bounds the volume per
dimension (691,277 polyominoes at d = 2, v <= 12; 190,535 at d = 3, v <= 8).
"""

from __future__ import annotations

from collections import defaultdict

from .lattice import (BoundaryCondition, BoxGeometry, Configuration,
                      build_context, hamiltonian)

DEFAULT_CAPS = {2: 12, 3: 8}

_TABLES = {}


def _neighbors(cell):
    d = len(cell)
    for a in range(d):
        for step in (-1, 1):
            nb = list(cell)
            nb[a] += step
            yield tuple(nb)


def enumerate_polyominoes(d, vmax, record):
    """Visit every translation-canonical d-dimensional polyomino once.

    Classic untried-set recursion over the region of cells lexicographically
    >= the origin (where each translation class places its minimal cell).
    ``record(volume, adjacency)`` is called once per polyomino.
    """
    origin = tuple([0] * d)
    cells = {origin}
    reached = {origin}
    record(1, 0)

    def rec(untried, volume, adj):
        while untried:
            c = untried.pop()
            contacts = sum(1 for n in _neighbors(c) if n in cells)
            new_adj = adj + contacts
            record(volume + 1, new_adj)
            if volume + 1 < vmax:
                cells.add(c)
                fresh = [n for n in _neighbors(c)
                         if n >= origin and n not in reached]
                reached.update(fresh)
                rec(untried + fresh, volume + 1, new_adj)
                for n in fresh:
                    reached.discard(n)
                cells.discard(c)

    init = [n for n in _neighbors(origin) if n >= origin]
    reached.update(init)
    if vmax > 1:
        rec(init, 1, 0)


def _grow_tables(d, vmax):
    """Minimal perimeter per volume from exhaustive max-adjacency search."""
    best = {v: 0 for v in range(1, vmax + 1)}

    def record(v, adj):
        if adj > best[v]:
            best[v] = adj

    enumerate_polyominoes(d, vmax, record)
    return {v: 2 * d * v - 2 * a for v, a in best.items()}


def min_perimeter(d, v, cap=None):
    """Exact minimal perimeter over all d-dimensional polyominoes of volume v."""
    if d not in (2, 3):
        raise ValueError("oracle supports d in {2, 3}")
    cap = DEFAULT_CAPS[d] if cap is None else cap
    if not 1 <= v <= cap:
        raise ValueError(f"volume {v} outside oracle cap {cap} for d={d}")
    table = _TABLES.get((d, cap))
    if table is None:
        table = _grow_tables(d, cap)
        _TABLES[(d, cap)] = table
    return table[v]


def simplified_bound(d, v):
    """2d * v^((d-1)/d), the scaling lower bound (exact at cube volumes)."""
    return 2 * d * v ** ((d - 1) / d)


def floored_root_bound(d, v):
    """Integer lower bound 2d * floor(v^(1/d))^(d-1)."""
    root = int(round(v ** (1.0 / d)))
    while root ** d > v:
        root -= 1
    while (root + 1) ** d <= v:
        root += 1
    return 2 * d * root ** (d - 1)


def isoperimetric_check(d, v):
    """Verify min_perimeter against both lower bounds; report equality cases.

    The scaling bound is compared exactly: perimeter >= 2d v^((d-1)/d) is
    equivalent to perimeter^d >= (2d)^d v^(d-1) in integers.
    """
    p = min_perimeter(d, v)
    scaling_ok = p ** d >= (2 * d) ** d * v ** (d - 1)
    scaling_tight = p ** d == (2 * d) ** d * v ** (d - 1)
    nb = floored_root_bound(d, v)
    return {
        "d": d,
        "v": v,
        "min_perimeter": p,
        "scaling_holds": scaling_ok,
        "scaling_equality": scaling_tight,
        "floor_bound": nb,
        "floor_holds": p >= nb,
    }


def oracle_table(d, vmax):
    """The oracle against both bounds for volumes 1..vmax, one row each,
    with vmax at most the dimension's cap in ``DEFAULT_CAPS``, past which
    the enumeration of polyominoes grows out of reach."""
    if not 1 <= vmax <= DEFAULT_CAPS.get(d, 0):
        raise ValueError(f"vmax must be from 1 to the oracle cap of d "
                         f"{DEFAULT_CAPS}, got d={d}, vmax={vmax}")
    return [{"d": d, "v": v, "min_perimeter": min_perimeter(d, v, cap=vmax),
             "simplified_bound": simplified_bound(d, v),
             "neves_bound": floored_root_bound(d, v)}
            for v in range(1, vmax + 1)]


# -- gravity fall and dimensional projection ----------------------------------


def cell_perimeter(cells):
    cells = set(cells)
    adj = 0
    for c in cells:
        for nb in _neighbors(c):
            if nb in cells:
                adj += 1
    d = len(next(iter(cells)))
    return 2 * d * len(cells) - adj  # adj counts each pair twice


def fall_cells(cells, axis):
    """Compact every line of cells along the axis down to coordinate 0."""
    columns = defaultdict(int)
    for c in cells:
        key = c[:axis] + c[axis + 1:]
        columns[key] += 1
    out = set()
    for key, count in columns.items():
        for k in range(count):
            out.add(key[:axis] + (k,) + key[axis:])
    return out


def gravity_fall(config, axis):
    """Let the plus cells of a configuration fall along the axis.

    Volume is preserved and the free-space perimeter never increases;
    both are rechecked exactly.
    """
    geom = config.geometry
    cells = {geom.coord(i) for i in config.plus_sites()}
    if not cells:
        return config.copy()
    fallen = fall_cells(cells, axis)
    if len(fallen) != len(cells):
        raise AssertionError("gravity fall changed the volume")
    if cell_perimeter(fallen) > cell_perimeter(cells):
        raise AssertionError("gravity fall increased the perimeter")
    return Configuration.from_plus_sites(geom, fallen)


def project_to_lower_dim(ctx, config):
    """Map a small configuration in an n-face-minus box one dimension down.

    Drops the first plus-boundary axis: the cells fall onto that face, the
    resulting stack is sliced into layers, and the layers are laid out
    disjointly along the first (minus) axis of a one-lower-dimensional box
    with the same mixed boundary.  Volume is preserved and the energy never
    increases; both facts are rechecked exactly.
    """
    geom = ctx.geometry
    d = geom.dimension
    if ctx.bc.kind != BoundaryCondition.N_PM:
        raise ValueError("projection needs an n-face-minus boundary")
    n = ctx.bc.n
    if not 1 <= n < d:
        raise ValueError("projection needs 1 <= n < d")
    vol = config.plus_count()
    if vol >= min(geom.dims):
        raise ValueError("configuration volume must be below the smallest side")
    if vol == 0:
        sub_geom = BoxGeometry(geom.dims[:n] + geom.dims[n + 1:])
        sub_ctx = build_context(sub_geom, BoundaryCondition.n_pm(n), ctx.field)
        return sub_ctx, Configuration.all_minus(sub_geom)

    drop_axis = n  # first plus-boundary axis (0-based)
    cells = {geom.coord(i) for i in config.plus_sites()}
    fallen = fall_cells(cells, drop_axis)
    layers = defaultdict(set)
    for c in fallen:
        layers[c[drop_axis]].add(c[:drop_axis] + c[drop_axis + 1:])
    n_layers = max(layers) + 1

    keep_dims = geom.dims[:drop_axis] + geom.dims[drop_axis + 1:]
    first_len = keep_dims[0]
    sub_dims = (n_layers * (first_len + 1) + first_len,) + keep_dims[1:]
    sub_geom = BoxGeometry(sub_dims)
    sub_ctx = build_context(sub_geom, BoundaryCondition.n_pm(n), ctx.field)
    placed = []
    for k in range(n_layers):
        offset = k * (first_len + 1)
        for c in layers.get(k, ()):
            placed.append((c[0] + offset,) + c[1:])
    low = Configuration.from_plus_sites(sub_geom, placed)
    if low.plus_count() != vol:
        raise AssertionError("projection changed the volume")
    if hamiltonian(sub_ctx, low) > hamiltonian(ctx, config):
        raise AssertionError("projection increased the energy")
    return sub_ctx, low
