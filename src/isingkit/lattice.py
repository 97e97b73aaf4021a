"""Finite-box spin configurations and their exact Hamiltonian.

A configuration lives on a d-dimensional box of sites with spins +-1.  The
exterior is virtual: a boundary condition assigns a fixed spin to every
exterior neighbor.  Energies are measured relative to the all-minus
configuration, so H(all-minus) = (0, 0) under every boundary condition, and
are returned as exact (bonds, pluses) pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .energy import EnergyValue, MagneticField


@dataclass(frozen=True)
class BoxGeometry:
    """Side lengths of the box; sites are indexed row-major over dims."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(s) for s in self.dims)
        if not dims or any(s < 1 for s in dims):
            raise ValueError(f"every side length must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dimension(self):
        return len(self.dims)

    @property
    def n_sites(self):
        n = 1
        for s in self.dims:
            n *= s
        return n

    def index(self, coord):
        idx = 0
        for c, s in zip(coord, self.dims):
            if not 0 <= c < s:
                raise ValueError(f"coordinate {coord} outside box {self.dims}")
            idx = idx * s + c
        return idx

    def coord(self, index):
        out = []
        for s in reversed(self.dims):
            out.append(index % s)
            index //= s
        return tuple(reversed(out))

    def contains(self, coord):
        return all(0 <= c < s for c, s in zip(coord, self.dims))


@dataclass(frozen=True)
class BoundaryCondition:
    """Exterior spin assignment.

    ``n_pm(n)`` puts minus on the exterior faces orthogonal to the first n
    axes and plus on the remaining faces; n = d is all-minus, n = 0 is
    all-plus.  ``overrides`` maps individual exterior coordinates to spins
    and wins over the face rule.
    """

    kind: str
    n: int = None
    overrides: tuple = ()

    ALL_MINUS = "all_minus"
    ALL_PLUS = "all_plus"
    N_PM = "n_pm"

    @classmethod
    def all_minus(cls):
        return cls(cls.ALL_MINUS)

    @classmethod
    def all_plus(cls):
        return cls(cls.ALL_PLUS)

    @classmethod
    def n_pm(cls, n):
        return cls(cls.N_PM, n=n)

    def with_override(self, coord, spin):
        return BoundaryCondition(self.kind, self.n,
                                 self.overrides + ((tuple(coord), int(spin)),))

    def exterior_spin(self, coord, geometry):
        for c, s in self.overrides:
            if c == tuple(coord):
                return s
        if self.kind == self.ALL_MINUS:
            return -1
        if self.kind == self.ALL_PLUS:
            return 1
        if self.kind == self.N_PM:
            if self.n is None or not 0 <= self.n <= geometry.dimension:
                raise ValueError(f"n_pm needs 0 <= n <= d, got n={self.n}")
            # an exterior neighbor of a box site sticks out along exactly one axis
            for axis, (c, s) in enumerate(zip(coord, geometry.dims)):
                if c < 0 or c >= s:
                    return -1 if axis < self.n else 1
            raise ValueError(f"{coord} is not an exterior coordinate")
        raise ValueError(f"unknown boundary kind {self.kind!r}")

    def label(self):
        if self.kind == self.N_PM:
            return f"n_pm_{self.n}"
        return self.kind

    @classmethod
    def from_label(cls, label):
        """Inverse of ``label()``: all_minus, all_plus or n_pm_<n>."""
        if label in (cls.ALL_MINUS, cls.ALL_PLUS):
            return cls(label)
        kind, _, n = str(label).rpartition("_")
        if kind == cls.N_PM and n.isdigit():
            return cls.n_pm(int(n))
        raise ValueError(f"unknown boundary kind {label!r}")


class Configuration:
    """Dense +-1 spin assignment on a box, identified with its set of pluses."""

    __slots__ = ("geometry", "spins")

    def __init__(self, geometry, spins=None):
        self.geometry = geometry
        if spins is None:
            self.spins = np.full(geometry.n_sites, -1, dtype=np.int8)
        else:
            spins = np.asarray(spins, dtype=np.int8).reshape(geometry.n_sites)
            if not np.all(np.abs(spins) == 1):
                raise ValueError("spins must be +-1")
            self.spins = spins.copy()

    @classmethod
    def all_minus(cls, geometry):
        return cls(geometry)

    @classmethod
    def all_plus(cls, geometry):
        c = cls(geometry)
        c.spins[:] = 1
        return c

    @classmethod
    def from_plus_sites(cls, geometry, sites):
        c = cls(geometry)
        for s in sites:
            idx = s if isinstance(s, (int, np.integer)) else geometry.index(s)
            c.spins[idx] = 1
        return c

    @classmethod
    def from_bitmask(cls, geometry, mask):
        c = cls(geometry)
        for i in range(geometry.n_sites):
            if (mask >> i) & 1:
                c.spins[i] = 1
        return c

    def as_bitmask(self):
        mask = 0
        for i in np.flatnonzero(self.spins == 1):
            mask |= 1 << int(i)
        return mask

    def plus_sites(self):
        return [int(i) for i in np.flatnonzero(self.spins == 1)]

    def plus_count(self):
        return int(np.count_nonzero(self.spins == 1))

    def copy(self):
        return Configuration(self.geometry, self.spins)

    def flipped(self, site):
        c = self.copy()
        c.spins[site] = -c.spins[site]
        return c

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.geometry.dims == other.geometry.dims
                and np.array_equal(self.spins, other.spins))

    def __hash__(self):
        return hash((self.geometry.dims, self.spins.tobytes()))

    def __le__(self, other):
        return bool(np.all(self.spins <= other.spins))

    # -- serialization ------------------------------------------------------

    def to_text(self):
        """'+'/'-' grid, one row per line, higher axes separated by blank lines."""
        chars = np.where(self.spins == 1, "+", "-").reshape(self.geometry.dims)
        if self.geometry.dimension == 1:
            return "".join(chars)
        flat_rows = chars.reshape(-1, self.geometry.dims[-1])
        rows_per_block = self.geometry.dims[-2]
        lines = []
        for i, row in enumerate(flat_rows):
            if i and i % rows_per_block == 0:
                lines.append("")
            lines.append("".join(row))
        return "\n".join(lines)

    @classmethod
    def from_text(cls, geometry, text):
        flat = [ch for ch in text if ch in "+-"]
        if len(flat) != geometry.n_sites:
            raise ValueError(f"expected {geometry.n_sites} spins, got {len(flat)}")
        return cls(geometry, np.array([1 if ch == "+" else -1 for ch in flat],
                                      dtype=np.int8))


class LatticeContext:
    """Immutable precomputed neighborhood data for one (box, boundary, field).

    ``neighbors[i]`` lists interior neighbor site indices;
    ``boundary_plus[i]`` / ``boundary_minus[i]`` count exterior neighbors of
    site i whose boundary spin is +1 / -1.  ``origin`` places the box in the
    global lattice so that sub-boxes can share per-site event streams;
    ``global_coords[i]`` is site i's coordinate in that lattice, and row i of
    the read-only int64 array ``global_coord_array`` holds the same numbers.
    ``n_sites`` is computed once, since samplers read it on every event.
    """

    __slots__ = ("geometry", "bc", "field", "origin", "n_sites", "neighbors",
                 "boundary_plus", "boundary_minus", "global_coords",
                 "global_coord_array")

    def __init__(self, geometry, bc, h, origin=None):
        if bc.kind == BoundaryCondition.N_PM and not 0 <= bc.n <= geometry.dimension:
            raise ValueError(f"n_pm boundary needs 0 <= n <= {geometry.dimension}, "
                             f"got n={bc.n}")
        self.geometry = geometry
        self.bc = bc
        self.field = h if isinstance(h, MagneticField) else MagneticField(h)
        self.origin = tuple(origin) if origin is not None else (0,) * geometry.dimension
        self.n_sites = geometry.n_sites
        dims = geometry.dims
        strides = [1] * len(dims)
        for axis in range(len(dims) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * dims[axis + 1]
        shifted = any(self.origin)
        # every tuple entry is an element of ``ids``, so all entries naming
        # one site share one int object
        ids = list(range(self.n_sites))
        self.neighbors = []
        global_coords = []
        plus, minus = [], []
        # row-major: site i is the i-th coordinate of the product
        for i, coord in enumerate(itertools.product(*map(range, dims))):
            global_coords.append(tuple(o + c for o, c in zip(self.origin, coord))
                                 if shifted else coord)
            nbrs = []
            n_plus = n_minus = 0
            for axis, (c, side, stride) in enumerate(zip(coord, dims, strides)):
                for step in (-1, 1):
                    if 0 <= c + step < side:
                        nbrs.append(ids[i + step * stride])
                    elif bc.exterior_spin(coord[:axis] + (c + step,)
                                          + coord[axis + 1:], geometry) == 1:
                        n_plus += 1
                    else:
                        n_minus += 1
            self.neighbors.append(tuple(nbrs))
            plus.append(n_plus)
            minus.append(n_minus)
        self.boundary_plus = np.array(plus, dtype=np.int64)
        self.boundary_minus = np.array(minus, dtype=np.int64)
        self.global_coords = tuple(global_coords)
        # row-major, as the loop above
        coords = np.indices(dims, dtype=np.int64).reshape(len(dims), -1).T
        self.global_coord_array = coords + np.array(self.origin,
                                                     dtype=np.int64)
        self.global_coord_array.flags.writeable = False

    def global_coord(self, site):
        return self.global_coords[site]

    def sub_context(self, lo, hi, bc=None):
        """Context for the sub-box [lo, hi) with its own boundary condition."""
        lo = tuple(lo)
        hi = tuple(hi)
        sub_geom = BoxGeometry(tuple(b - a for a, b in zip(lo, hi)))
        origin = tuple(o + a for o, a in zip(self.origin, lo))
        return LatticeContext(sub_geom, bc if bc is not None else self.bc,
                              self.field, origin=origin)

    def energy(self, bonds, pluses):
        return EnergyValue(bonds, pluses, self.field)

    def neighbor_spin_sum(self, config, site):
        """Sum of the 2d neighbor spins of site, boundary included."""
        s = int(self.boundary_plus[site] - self.boundary_minus[site])
        for nb in self.neighbors[site]:
            s += int(config.spins[nb])
        return s

    def neighbor_spin_sums(self, spins):
        """``neighbor_spin_sum`` of every site at once, as an int array."""
        dims = self.geometry.dims
        grid = np.asarray(spins, dtype=np.int64).reshape(dims)
        sums = (self.boundary_plus - self.boundary_minus).reshape(dims)
        for axis in range(len(dims)):
            head = [slice(None)] * len(dims)
            tail = [slice(None)] * len(dims)
            head[axis] = slice(1, None)
            tail[axis] = slice(None, -1)
            sums[tuple(head)] += grid[tuple(tail)]
            sums[tuple(tail)] += grid[tuple(head)]
        return sums.reshape(-1)


def build_context(geometry, bc, h, origin=None):
    """Precompute neighbor tables for O(1) local energy queries."""
    return LatticeContext(geometry, bc, h, origin=origin)


def hamiltonian(ctx, config):
    """Energy of config relative to all-minus, as an exact (bonds, pluses) pair."""
    if config.geometry.dims != ctx.geometry.dims:
        raise ValueError("configuration geometry does not match context")
    spins = config.spins
    bonds = 0
    for i in np.flatnonzero(spins == 1):
        i = int(i)
        for nb in ctx.neighbors[i]:
            if spins[nb] == -1:
                bonds += 1
        bonds += int(ctx.boundary_minus[i] - ctx.boundary_plus[i])
    pluses = int(np.count_nonzero(spins == 1))
    return ctx.energy(bonds, pluses)


def delta_h(ctx, config, site):
    """Exact energy change of flipping the spin at site: H(sigma^x) - H(sigma)."""
    if not 0 <= site < ctx.n_sites:
        raise ValueError(f"site {site} outside box")
    sigma = int(config.spins[site])
    s = ctx.neighbor_spin_sum(config, site)
    return ctx.energy(sigma * s, -sigma)


def flip_rate(ctx, config, site, beta):
    """Metropolis rate exp(-beta * max(0, delta)) for flipping site."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    d = delta_h(ctx, config, site)
    if d.compare_zero() <= 0:
        return 1.0
    return float(np.exp(-beta * d.value))


def connected_components(ctx, config):
    """Nearest-neighbor plus clusters with their individual energies.

    Component energies add up exactly to hamiltonian(ctx, config) because
    distinct components are never adjacent.
    """
    spins = config.spins
    seen = np.zeros(ctx.n_sites, dtype=bool)
    out = []
    for start in np.flatnonzero(spins == 1):
        start = int(start)
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for nb in ctx.neighbors[i]:
                if spins[nb] == 1 and not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        comp_set = frozenset(comp)
        bonds = 0
        for i in comp:
            for nb in ctx.neighbors[i]:
                if nb not in comp_set:
                    bonds += 1
            bonds += int(ctx.boundary_minus[i] - ctx.boundary_plus[i])
        out.append((comp_set, ctx.energy(bonds, len(comp))))
    return out


def meet_join(eta, xi):
    """Site-wise intersection and union of the plus sets of two configurations."""
    if eta.geometry.dims != xi.geometry.dims:
        raise ValueError("configurations live on different boxes")
    meet = Configuration(eta.geometry, np.minimum(eta.spins, xi.spins))
    join = Configuration(eta.geometry, np.maximum(eta.spins, xi.spins))
    return meet, join
