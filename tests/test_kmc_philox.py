"""The counter-based event stream of ``isingkit.kmc``.

Exact checks: the Philox4x32-10 known-answer vectors of Random123, arrival
times rebuilt one gap at a time from the documented counter layout, window
splits and chunk sizes that change no value, and boxes that share global
coordinates.  Law checks, numpy only: gaps against the per-site generator
stream kept in ``kmc_oracle``, uniform marks, and no correlation between
neighbouring sites, families or consecutive arrivals.  The law checks use
fixed seeds and thresholds at about four standard errors.
"""

from functools import partial

import numpy as np
import pytest

import kmc_oracle as oracle
from isingkit import kmc
from isingkit.energy import MagneticField
from isingkit.kmc import EventStream, philox4x32
from isingkit.lattice import (BoundaryCondition, BoxGeometry, LatticeContext,
                              build_context)

HALF = MagneticField("0.5")
M32 = 0xFFFFFFFF


def context(dims, origin=None):
    return LatticeContext(BoxGeometry(dims), BoundaryCondition.all_minus(),
                          HALF, origin=origin)


def words(*values):
    return [np.array([v], dtype=np.uint64) for v in values]


@pytest.mark.parametrize("counter, key, expected", [
    ((0, 0, 0, 0), (0, 0),
     (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
    ((M32, M32, M32, M32), (M32, M32),
     (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
    ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344),
     (0xa4093822, 0x299f31d0),
     (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
])
def test_philox_known_answers(counter, key, expected):
    out = philox4x32(*words(*counter), *key)
    assert tuple(int(w[0]) for w in out) == expected


def reference_clock(seed, coord, family, n):
    """The first n arrival times and marks of one clock, from the layout
    alone: counter (j, family bit | (c_a + 2^20) << (1 + 21 a)), key the
    seed's low and high halves, times summed one gap at a time."""
    packed = 0 if family == -1 else 1
    for axis, c in enumerate(coord):
        packed |= (c + (1 << 20)) << (1 + 21 * axis)
    times, marks, t = [], [], 0.0
    for j in range(n):
        w = [int(x[0]) for x in philox4x32(
            *words(j, packed & M32, (packed >> 32) & M32, packed >> 64),
            seed & M32, seed >> 32)]
        u = ((w[0] << 32 | w[1]) >> 11) * 2.0 ** -53
        t += float(-np.log1p(-u))
        times.append(t)
        marks.append(((w[2] << 32 | w[3]) >> 11) * 2.0 ** -53)
    return times, marks


@pytest.mark.parametrize("seed, coord, family", [
    (0, (0,), -1),
    (7, (3, -2), 1),
    (0x123456789ABCDEF0, (5, 0, -7), -1),
    ((1 << 64) - 1, (1, -(1 << 20), (1 << 20) - 1, 2), 1),
])
def test_site_events_match_reference(seed, coord, family):
    times, marks = oracle.site_events(EventStream(seed), coord, family, 40.0)
    ref_t, ref_u = reference_clock(seed, coord, family, times.size + 1)
    assert times.tolist() == ref_t[:-1] and ref_t[-1] > 40.0
    assert marks.tolist() == ref_u[:-1]


def per_clock(ctx, window):
    """A window's arrivals grouped by (site, family), in time order."""
    times, sites, fams, unis = window
    out = {}
    for t, i, f, u in zip(times.tolist(), sites.tolist(), fams.tolist(),
                          unis.tolist()):
        out.setdefault((ctx.global_coords[i], f), []).append((t, u))
    return out


def test_window_matches_site_events():
    ctx = context((3, 4), origin=(-1, 2))
    stream = EventStream(19)
    clocks = per_clock(ctx, stream.window(ctx, 4.0, 12.0))
    for coord in ctx.global_coords:
        for fam in (-1, 1):
            t, u = oracle.site_events(stream, coord, fam, 12.0)
            inside = t > 4.0
            assert clocks.get((coord, fam), []) == list(zip(t[inside].tolist(),
                                                         u[inside].tolist()))


def test_window_order_and_interval():
    ctx = context((5, 5))
    times, sites, fams, _ = EventStream(3).window(ctx, 2.0, 9.0)
    assert times.size > 0 and np.all(np.diff(times) >= 0)
    assert times[0] > 2.0 and times[-1] <= 9.0
    assert sites.dtype == fams.dtype == np.int64
    assert set(fams.tolist()) == {-1, 1}
    assert set(sites.tolist()) == set(range(ctx.n_sites))


def test_split_windows_equal_one_window():
    ctx = context((4, 4))
    stream = EventStream(23)
    first = stream.window(ctx, 0.0, 8.0)
    second = stream.window(ctx, 8.0, 16.0)
    whole = stream.window(ctx, 0.0, 16.0)
    for a, b, w in zip(first, second, whole):
        assert np.array_equal(np.concatenate([a, b]), w)


@pytest.mark.parametrize("dims, origin", [
    ((9,), None), ((9,), (-4,)), ((4, 3), None), ((4, 3), (7, -5)),
    ((2, 3, 2), None), ((2, 3, 2), (1, 1, -1)),
])
def test_chunk_size_changes_no_value(monkeypatch, dims, origin):
    ctx = context(dims, origin)
    reads = [EventStream(29).window(ctx, 3.0, 20.0)]
    for width in (1, 3, 7, 64):
        monkeypatch.setattr(kmc, "_chunk_width", lambda left, clocks: width)
        reads.append(EventStream(29).window(ctx, 3.0, 20.0))
    for read in reads[1:]:
        for a, b in zip(reads[0], read):
            assert np.array_equal(a, b)


def test_sub_context_sees_the_same_clocks():
    ctx = build_context(BoxGeometry((5, 4, 3)), BoundaryCondition.all_minus(),
                        HALF)
    sub = ctx.sub_context((1, 2, 0), (4, 4, 2))
    stream = EventStream(31)
    full = per_clock(ctx, stream.window(ctx, 1.0, 10.0))
    part = per_clock(sub, stream.window(sub, 1.0, 10.0))
    assert part == {key: v for key, v in full.items()
                    if key[0] in set(sub.global_coords)}


def gaps_and_marks(site_events, coords, t_max):
    gaps, marks = [], []
    for coord in coords:
        for fam in (-1, 1):
            t, u = site_events(coord, fam, t_max)
            gaps.append(np.diff(t, prepend=0.0))
            marks.append(u)
    return np.concatenate(gaps), np.concatenate(marks)


def ks_two_sample(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_uniform(u):
    u = np.sort(u)
    n = u.size
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - u), np.max(u - (k - 1) / n)))


COORDS = [(x, y) for x in range(8) for y in range(8)]


def test_gaps_follow_the_oracle_law():
    new, _ = gaps_and_marks(partial(oracle.site_events, EventStream(41)),
                            COORDS, 40.0)
    old, _ = gaps_and_marks(oracle.EventStream(41).site_events, COORDS, 40.0)
    n, m = new.size, old.size
    # two-sample KS at the 0.1 % level
    assert ks_two_sample(new, old) < 1.95 * np.sqrt((n + m) / (n * m))
    assert abs(new.mean() - 1.0) < 4.0 / np.sqrt(n)


def test_marks_are_uniform():
    _, marks = gaps_and_marks(partial(oracle.site_events, EventStream(43)),
                              COORDS, 40.0)
    assert ks_uniform(marks) < 1.95 / np.sqrt(marks.size)
    assert marks.min() >= 0.0 and marks.max() < 1.0


def first_arrivals(stream, coord, fam, n):
    t, u = oracle.site_events(stream, coord, fam, 3.0 * n)
    assert t.size >= n
    return np.diff(t[:n], prepend=0.0), u[:n]


@pytest.mark.parametrize("pair", ["neighbour", "family", "serial"])
def test_no_correlation(pair):
    stream = EventStream(47)
    n = 20
    xs, ys = [], []
    for x, y in COORDS:
        gaps, marks = first_arrivals(stream, (x, y), -1, n)
        if pair == "neighbour":
            if x + 1 == 8:
                continue
            other = first_arrivals(stream, (x + 1, y), -1, n)
        elif pair == "family":
            other = first_arrivals(stream, (x, y), 1, n)
        else:
            gaps, marks, other = gaps[:-1], marks[:-1], (gaps[1:], marks[1:])
        xs.append(np.stack([gaps, marks]))
        ys.append(np.stack(other))
    xs, ys = np.concatenate(xs, axis=1), np.concatenate(ys, axis=1)
    bound = 4.0 / np.sqrt(xs.shape[1])
    for a in xs:
        for b in ys:
            assert abs(np.corrcoef(a, b)[0, 1]) < bound


@pytest.mark.parametrize("coord", [(1 << 20,), (-(1 << 20) - 1,),
                                   (0, 1 << 20)])
def test_unpackable_coordinates_rejected(coord):
    with pytest.raises(ValueError):
        oracle.site_events(EventStream(1), coord, 1, 1.0)
    with pytest.raises(ValueError):
        EventStream(1).window(context((1,) * len(coord), coord), 0.0, 1.0)


def test_coordinate_range_edges_accepted():
    ctx = context((2,), (-(1 << 20),))
    assert EventStream(1).window(ctx, 0.0, 1.0)[0].size > 0
    oracle.site_events(EventStream(1), ((1 << 20) - 1,), 1, 1.0)


def test_more_than_four_dimensions_rejected():
    with pytest.raises(ValueError):
        EventStream(1).window(context((1, 1, 1, 1, 2)), 0.0, 1.0)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_unpackable_seed_rejected(seed):
    with pytest.raises(ValueError):
        EventStream(seed)
