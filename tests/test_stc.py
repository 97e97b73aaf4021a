import random

import numpy as np
import pytest

from isingkit.energy import MagneticField
from isingkit.kmc import EventStream, Trajectory, coupled_evolve, evolve_graphical
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)
from isingkit.stc import (crossing_detected, crossing_time,
                          diam_infty_window, discrete_path_clusters,
                          doubling_extraction, track)

HALF = MagneticField("0.5")


def scripted(ctx, flips, t_end=None, initial=None):
    initial = initial if initial is not None else \
        Configuration.all_minus(ctx.geometry)
    events = [(t, ctx.geometry.index(c) if isinstance(c, tuple) else c, s)
              for t, c, s in flips]
    end = t_end if t_end is not None else (events[-1][0] + 1.0 if events else 1.0)
    return Trajectory(initial=initial, events=events, t_end=end,
                      stop_reason="scripted", beta=0.0, h_token="0.5",
                      bc_label=ctx.bc.label())


def random_trajectory(ctx, rng, n_events, t_end):
    """Valid alternating flips at random sites and increasing times."""
    spins = {}
    flips = []
    times = sorted(rng.uniform(0, t_end) for _ in range(n_events))
    for t in times:
        site = rng.randrange(ctx.n_sites)
        cur = spins.get(site, -1)
        spins[site] = -cur
        flips.append((t, site, -cur))
    return Trajectory(initial=Configuration.all_minus(ctx.geometry),
                      events=flips, t_end=t_end, stop_reason="scripted",
                      beta=0.0, h_token="0.5", bc_label=ctx.bc.label())


class TestTracking:
    def test_single_site_blip(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (1,), 1), (2.0, (1,), -1)])
        ledger = track(ctx, traj)
        views = ledger.clusters()
        assert len(views) == 1
        assert views[0].diameter == 0
        assert views[0].birth == 1.0 and views[0].death == 2.0
        assert views[0].segments == frozenset({((1,), 1.0, 2.0)})

    def test_merge_spans_gap(self):
        # two pluses born apart, joined by a third in between
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (0,), 1), (1.5, (2,), 1), (2.0, (1,), 1)])
        ledger = track(ctx, traj)
        views = ledger.clusters()
        assert len(views) == 1
        assert views[0].diameter == 2

    def test_temporal_reconnection_stays_one_cluster(self):
        # a site goes down and up again while an adjacent site stays plus:
        # the persistent neighbor keeps everything in one cluster
        ctx = build_context(BoxGeometry((4,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (0,), 1), (1.2, (1,), 1), (2.0, (0,), -1),
                              (3.0, (0,), 1)])
        ledger = track(ctx, traj)
        assert len(ledger.clusters()) == 1

    def test_disjoint_revival_is_new_cluster(self):
        ctx = build_context(BoxGeometry((4,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (0,), 1), (2.0, (0,), -1), (3.0, (0,), 1)])
        ledger = track(ctx, traj)
        assert len(ledger.clusters()) == 2

    def test_initial_components_seeded(self):
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.all_minus(), HALF)
        init = Configuration.from_plus_sites(ctx.geometry, [0, 1, 3])
        traj = scripted(ctx, [(1.0, (2,), 1)], initial=init)
        ledger = track(ctx, traj)
        assert len(ledger.clusters()) == 1  # the new plus merges both

    def test_initial_component_enters_site_by_site(self):
        # the initial pluses are time-0 flips in site order: 0 and 2 open
        # two clusters, 3 widens the first, and 5 merges them into one
        # cluster of diameter 2 spanning axis 1
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            HALF)
        init = Configuration.from_plus_sites(ctx.geometry, [0, 2, 3, 4, 5])
        ledger = track(ctx, scripted(ctx, [], t_end=1.0, initial=init))
        views = ledger.clusters()
        assert len(views) == 1 and views[0].diameter == 2
        assert views[0].birth == 0.0 and views[0].death is None
        assert ledger.crossing_times == {1: 0.0}
        assert ledger.diameter_events == [(0.0, 0, 0), (0.0, 1, 0),
                                          (0.0, 0, 1), (0.0, 0, 2)]

    def test_inconsistent_trajectory_rejected(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (0,), 1), (2.0, (0,), 1)])
        with pytest.raises(ValueError):
            track(ctx, traj)

    def test_diameter_monotone_while_alive(self):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            HALF)
        traj = evolve_graphical(EventStream(3), ctx,
                                Configuration.all_minus(ctx.geometry),
                                beta=0.7, horizon=6.0)
        ledger = track(ctx, traj)
        per_root = {}
        for t, root, diam in ledger.diameter_events:
            if root in per_root:
                assert diam >= per_root[root]
            per_root[root] = diam


class TestWindowedDiameter:
    def test_empty_window(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [], t_end=5.0)
        ledger = track(ctx, traj)
        assert diam_infty_window(ledger, 1.0, 2.0) == 0

    def test_cluster_spanning_both_faces(self):
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(0.5, (1,), 1), (0.6, (2,), 1), (0.7, (3,), 1)],
                        t_end=10.0)
        ledger = track(ctx, traj)
        assert diam_infty_window(ledger, 1.0, 9.0) == 2

    def test_interior_cluster_counts_via_max(self):
        ctx = build_context(BoxGeometry((9,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [
            (1.0, (0,), 1),                       # alive across the window
            (2.0, (4,), 1), (2.1, (5,), 1),       # interior blip, diameter 1
            (3.0, (4,), -1), (3.1, (5,), -1),
        ], t_end=10.0)
        ledger = track(ctx, traj)
        # meeting cluster has diameter 0; interior max is 1
        assert diam_infty_window(ledger, 0.5, 9.5) == 1

    def test_window_bounds_checked(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), HALF)
        ledger = track(ctx, scripted(ctx, [], t_end=2.0))
        with pytest.raises(ValueError):
            diam_infty_window(ledger, 1.0, 3.0)

    def test_triangle_inequality_scripted(self):
        rng = random.Random(71)
        ctx = build_context(BoxGeometry((6,)), BoundaryCondition.all_minus(), HALF)
        for _ in range(150):
            traj = random_trajectory(ctx, rng, rng.randrange(4, 26), 10.0)
            ledger = track(ctx, traj)
            s, t = 0.0, 10.0
            cuts = [e[0] for e in traj.events if s < e[0] < t]
            for u in cuts:
                lhs = diam_infty_window(ledger, s, t)
                rhs = diam_infty_window(ledger, s, u) + diam_infty_window(ledger, u, t)
                assert lhs <= rhs

    def test_triangle_inequality_simulated(self):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            HALF)
        for seed in range(30):
            traj = evolve_graphical(EventStream(seed), ctx,
                                    Configuration.all_minus(ctx.geometry),
                                    beta=0.8, horizon=4.0)
            ledger = track(ctx, traj)
            cuts = [e[0] for e in traj.events][1:-1]
            for u in cuts[:10]:
                lhs = diam_infty_window(ledger, 0.0, 4.0)
                rhs = diam_infty_window(ledger, 0.0, u) + \
                    diam_infty_window(ledger, u, 4.0)
                assert lhs <= rhs


class TestWindowAtHorizon:
    def test_cluster_alive_at_horizon_meets_t_face(self):
        # two pairs born inside the window, alive at the horizon: both meet
        # the t face, so their diameters add up at t_end as just before it
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(5.0, (0,), 1), (5.1, (1,), 1), (5.2, (3,), 1),
                              (5.3, (4,), 1)], t_end=10.0)
        ledger = track(ctx, traj)
        assert diam_infty_window(ledger, 1.0, 9.99) == 2
        assert diam_infty_window(ledger, 1.0, 10.0) == 2


class TestCrossing:
    def test_all_plus_crosses_at_zero(self):
        ctx = build_context(BoxGeometry((4, 3)), BoundaryCondition.all_plus(), HALF)
        traj = scripted(ctx, [], t_end=1.0,
                        initial=Configuration.all_plus(ctx.geometry))
        ledger = track(ctx, traj)
        assert crossing_detected(ledger, 0) and crossing_detected(ledger, 1)
        assert crossing_time(ledger, 0) == 0.0

    def test_narrow_cluster_no_crossing(self):
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (1,), 1), (1.1, (2,), 1)])
        ledger = track(ctx, traj)
        assert not crossing_detected(ledger, 0)

    def test_crossing_exactly_at_merge(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (0,), 1), (2.0, (2,), 1), (3.0, (1,), 1)])
        ledger = track(ctx, traj)
        assert crossing_time(ledger, 0) == 3.0


class TestDoubling:
    def test_absent_when_never_reached(self):
        ctx = build_context(BoxGeometry((6,)), BoundaryCondition.all_minus(), HALF)
        traj = scripted(ctx, [(1.0, (1,), 1)])
        assert doubling_extraction(track(ctx, traj), 4) is None

    def test_merge_witness_in_band(self):
        # 3-wide and 3-wide merge into 7-wide: with threshold 4 the witness
        # diameter lies in [4, 8]
        ctx = build_context(BoxGeometry((7,)), BoundaryCondition.all_minus(), HALF)
        flips = [(1.0, (0,), 1), (1.1, (1,), 1), (1.2, (2,), 1),
                 (2.0, (4,), 1), (2.1, (5,), 1), (2.2, (6,), 1),
                 (3.0, (3,), 1)]
        ledger = track(ctx, scripted(ctx, flips))
        hit = doubling_extraction(ledger, 4)
        assert hit is not None
        t, _, diam = hit
        assert t == 3.0 and 4 <= diam <= 8

    def test_threshold_against_initial_cluster(self):
        # an initial plus run 0-2 has diameter 2 at time 0
        ctx = build_context(BoxGeometry((7,)), BoundaryCondition.all_minus(), HALF)
        init = Configuration.from_plus_sites(ctx.geometry, [0, 1, 2])
        ledger = track(ctx, scripted(ctx, [], initial=init))
        with pytest.raises(ValueError):
            doubling_extraction(ledger, 1)
        t, _, diam = doubling_extraction(ledger, 2)
        assert (t, diam) == (0.0, 2)

    def test_unit_growth_hits_exactly(self):
        ctx = build_context(BoxGeometry((8,)), BoundaryCondition.all_minus(), HALF)
        flips = [(float(k + 1), (k,), 1) for k in range(8)]
        ledger = track(ctx, scripted(ctx, flips))
        t, _, diam = doubling_extraction(ledger, 4)
        assert diam == 4


def _spin_before(history, t):
    """Spin of a site just before time t, from its (time, new_spin) flips
    out of all minus."""
    spin = -1
    for s_t, s_spin in history:
        if s_t >= t:
            break
        spin = s_spin
    return spin


class TestSharedStreamPersistence:
    def test_boundary_flip_far_clusters_identical(self):
        # one exterior plus added at (-1, 0).  On the shared stream both runs
        # read the same ticks and marks, so a flip decision can differ only at
        # the site next to that exterior plus or where the site or one of its
        # neighbours already disagrees; the disagreeing sites therefore grow
        # from (0, 0) through neighbours.  A cluster whose sites and their
        # neighbours flip identically then coincides exactly.
        geom = BoxGeometry((4, 4))
        bc0 = BoundaryCondition.all_minus()
        x_ext = (-1, 0)
        bc1 = bc0.with_override(x_ext, 1)
        source = geom.index((0, 0))
        h = HALF
        spread = clusters = 0
        for seed in range(12):
            stream = EventStream(300 + seed)
            ctx0 = build_context(geom, bc0, h)
            ctx1 = build_context(geom, bc1, h)
            a = Configuration.all_minus(geom)
            t0, t1 = coupled_evolve(stream, [ctx0, ctx1], [a, a], beta=1.0,
                                    horizon=3.0)
            histories = [{}, {}]
            for hist, traj in zip(histories, (t0, t1)):
                for t, site, spin in traj.events:
                    hist.setdefault(site, []).append((t, spin))
            differ = set()
            for site in range(geom.n_sites):
                h0 = histories[0].get(site, [])
                h1 = histories[1].get(site, [])
                split = set(h0).symmetric_difference(h1)
                if split:
                    differ.add(site)
                for t in sorted({t for t, _ in split}):
                    if site == source:
                        continue
                    spread += 1
                    assert any(_spin_before(h0_nb, t) != _spin_before(h1_nb, t)
                               for h0_nb, h1_nb in (
                                   (histories[0].get(j, []),
                                    histories[1].get(j, []))
                                   for j in (site,) + ctx0.neighbors[site]))
            assert not differ or source in differ
            led0, led1 = track(ctx0, t0), track(ctx1, t1)
            segs1 = {v.segments for v in led1.clusters()}
            for view in led0.clusters():
                members = {geom.index(c) for c, _, _ in view.segments}
                near = members.union(*(ctx0.neighbors[i] for i in members))
                if not near & differ:
                    clusters += 1
                    assert view.segments in segs1
        assert spread > 0 and clusters > 0

    def test_sub_box_locality(self):
        # when no cluster of the plus-boundary run touches both the inner
        # sub-box and the boundary ring, the sub-box restriction matches the
        # minus-boundary run
        geom = BoxGeometry((4, 4))
        h = HALF
        inner = [geom.index((i, j)) for i in (1, 2) for j in (1, 2)]
        ring = [s for s in range(16) if s not in inner]
        ring_coords = {geom.coord(s) for s in ring}
        hits = 0
        for seed in range(25):
            stream = EventStream(900 + seed)
            ctx_plus = build_context(geom, BoundaryCondition.all_plus(), h)
            ctx_minus = build_context(geom, BoundaryCondition.all_minus(), h)
            a = Configuration.all_minus(geom)
            tp, tm = coupled_evolve(stream, [ctx_plus, ctx_minus], [a, a],
                                    beta=2.0, horizon=1.0)
            ledger = track(ctx_plus, tp)
            touches_both = any(
                any(c in ring_coords for c, _, _ in v.segments)
                and any(geom.index(c) in inner for c, _, _ in v.segments
                        if geom.contains(c))
                for v in ledger.clusters())
            if touches_both:
                continue
            hits += 1
            ep = [(t, s, sp) for t, s, sp in tp.events if s in inner]
            em = [(t, s, sp) for t, s, sp in tm.events if s in inner]
            assert ep == em
        assert hits > 0


class TestDiscretePathClusters:
    def test_return_to_bottom_components_connected(self):
        # along any loop from a compound's bottom back to itself staying
        # inside the compound, each bottom component's start and end points
        # share a cluster; exhaustively over short loops on a tiny box
        from isingkit.landscape import (bottom_of, enumerate_landscape,
                                        maximal_compounds)
        from isingkit.lattice import connected_components
        h = MagneticField("sqrt2/2")
        ctx = build_context(BoxGeometry((2, 3)), BoundaryCondition.all_minus(), h)
        g = enumerate_landscape(ctx)
        y = frozenset(g.states()) - {0, 0b111111}
        part = maximal_compounds(g, y)
        checked = 0
        for blk in part.blocks:
            if not 2 <= len(blk.states) <= 14:
                continue
            eta = next(iter(bottom_of(g, blk.states)))
            comps = connected_components(ctx, g.configuration(eta))
            paths = _loops_in_set(g, blk.states, eta, max_len=8)
            assert paths
            for path in paths:
                configs = [g.configuration(s) for s in path]
                labels = discrete_path_clusters(ctx, configs)
                for comp, _ in comps:
                    site = next(iter(comp))
                    assert labels[(site, 0)] == labels[(site, len(path) - 1)]
                checked += 1
        assert checked > 0


def _loops_in_set(graph, states, start, max_len):
    out = []

    def rec(path):
        cur = path[-1]
        if len(path) > 1 and cur == start:
            out.append(list(path))
        if len(path) > max_len:
            return
        for t in graph.neighbors(cur):
            if t in states:
                rec(path + [t])

    rec([start])
    return out


class TestPrefixConsistency:
    def test_tracking_a_prefix_reproduces_history(self):
        # clusters that died before the cut are identical between the full
        # ledger and the ledger of the truncated trajectory
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            HALF)
        for seed in range(8):
            traj = evolve_graphical(EventStream(40 + seed), ctx,
                                    Configuration.all_minus(ctx.geometry),
                                    beta=0.8, horizon=5.0)
            if len(traj.events) < 6:
                continue
            cut = traj.events[len(traj.events) // 2][0]
            prefix = Trajectory(initial=traj.initial.copy(),
                                events=[e for e in traj.events if e[0] <= cut],
                                t_end=cut, stop_reason="prefix", beta=traj.beta,
                                h_token=traj.h_token, bc_label=traj.bc_label)
            full_led = track(ctx, traj)
            pre_led = track(ctx, prefix)
            full_dead = {v.segments for v in full_led.clusters()
                         if v.death is not None and v.death <= cut}
            pre_dead = {v.segments for v in pre_led.clusters()
                        if v.death is not None and v.death <= cut}
            assert full_dead == pre_dead
