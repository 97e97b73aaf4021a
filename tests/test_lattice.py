import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from box_strategy import boxes
from isingkit.energy import EnergyValue, MagneticField, NEG_INF_ENERGY
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, connected_components, delta_h,
                              flip_rate, hamiltonian, meet_join)

SQRT2_2 = MagneticField("sqrt2/2")
SQRT3_3 = MagneticField("sqrt3/3")


def brute_bonds(ctx, config):
    """Independent bond recount: interfaces of sigma minus interfaces of all-minus."""
    def interfaces(spins):
        count = 0
        geom = ctx.geometry
        for i in range(geom.n_sites):
            coord = geom.coord(i)
            for axis in range(geom.dimension):
                for step in (-1, 1):
                    nb = list(coord)
                    nb[axis] += step
                    nb = tuple(nb)
                    if geom.contains(nb):
                        j = geom.index(nb)
                        if j > i and spins[i] != spins[j]:
                            count += 1
                    else:
                        if spins[i] != ctx.bc.exterior_spin(nb, geom):
                            count += 1
        return count

    return interfaces(config.spins) - interfaces(np.full(ctx.n_sites, -1, dtype=np.int8))


class TestField:
    def test_surd_parsing(self):
        h = MagneticField("sqrt(2)/2")
        assert h.is_irrational
        assert h.approx == pytest.approx(0.7071067811865476)

    def test_rational_flagged(self):
        h = MagneticField("0.5")
        assert not h.is_irrational
        assert h.exact_value(3, 2) == pytest.approx(2.0)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            MagneticField("sqrt2")
        with pytest.raises(ValueError):
            MagneticField("0")

    def test_exact_surd_comparison(self):
        # 2 - h*2 vs 1 - h*0 with h = sqrt2/2: 2 - sqrt2 = 0.586 < 1
        assert SQRT2_2.compare_pair(2 - 1, 2 - 0) < 0
        # near-tie decided exactly: 7 - 9h vs 0 with h = sqrt2/2 (7 > 6.36)
        assert SQRT2_2.compare_pair(7, 9) > 0
        assert SQRT2_2.compare_pair(-7, -9) < 0
        assert SQRT2_2.compare_pair(0, 0) == 0

    def test_irrational_pair_equality(self):
        a = EnergyValue(4, 1, SQRT2_2)
        b = EnergyValue(4, 1, SQRT2_2)
        c = EnergyValue(6, 2, SQRT2_2)
        assert a == b
        assert a != c

    def test_rational_value_equality_without_pair_equality(self):
        h = MagneticField("0.5")
        # 3 - 0.5*2 == 2 - 0.5*0
        assert EnergyValue(3, 2, h) == EnergyValue(2, 0, h)
        assert not EnergyValue(3, 2, h).same_pair(EnergyValue(2, 0, h))

    def test_neg_inf_sentinel(self):
        assert NEG_INF_ENERGY < EnergyValue(-100, 50, SQRT2_2)
        assert not NEG_INF_ENERGY > EnergyValue(0, 0, SQRT2_2)
        assert max(NEG_INF_ENERGY, EnergyValue(1, 0, SQRT2_2)).bonds == 1


class TestContext:
    def test_1d_box_structure(self):
        ctx = build_context(BoxGeometry((4,)), BoundaryCondition.all_minus(), SQRT2_2)
        assert ctx.n_sites == 4
        assert int(ctx.boundary_minus.sum()) == 2
        assert ctx.neighbors[0] == (1,)
        assert ctx.neighbors[1] == (0, 2)

    @pytest.mark.parametrize("dims, bc", [
        ((1,), BoundaryCondition.all_minus()),
        ((5,), BoundaryCondition.all_plus()),
        ((3, 4), BoundaryCondition.n_pm(1)),
        ((2, 3, 4), BoundaryCondition.n_pm(2)),
        ((3, 3, 3), BoundaryCondition.all_minus())])
    def test_neighbor_spin_sums_match_per_site(self, dims, bc):
        ctx = build_context(BoxGeometry(dims), bc, SQRT2_2)
        rng = random.Random(len(dims))
        for _ in range(5):
            cfg = Configuration(ctx.geometry, [rng.choice([-1, 1])
                                               for _ in range(ctx.n_sites)])
            assert ctx.neighbor_spin_sums(cfg.spins).tolist() == \
                [ctx.neighbor_spin_sum(cfg, i) for i in range(ctx.n_sites)]

    @pytest.mark.parametrize("dims, bc, origin", [
        ((1,), BoundaryCondition.all_minus(), None),
        ((5,), BoundaryCondition.all_plus(), (-3,)),
        ((3, 4), BoundaryCondition.n_pm(1), (2, -1)),
        ((2, 3, 4), BoundaryCondition.n_pm(2), None),
        ((2, 1, 3, 2),
         BoundaryCondition.all_minus().with_override((-1, 0, 0, 0), 1),
         (1, 2, 3, 4))])
    def test_tables_match_coordinate_walk(self, dims, bc, origin):
        geom = BoxGeometry(dims)
        ctx = build_context(geom, bc, SQRT2_2, origin=origin)
        shift = origin or (0,) * len(dims)
        for i in range(geom.n_sites):
            coord = geom.coord(i)
            nbrs, plus, minus = [], 0, 0
            for axis in range(len(dims)):
                for step in (-1, 1):
                    nb = tuple(c + step * (a == axis)
                               for a, c in enumerate(coord))
                    if geom.contains(nb):
                        nbrs.append(geom.index(nb))
                    elif bc.exterior_spin(nb, geom) == 1:
                        plus += 1
                    else:
                        minus += 1
            assert ctx.neighbors[i] == tuple(nbrs)
            assert (ctx.boundary_plus[i], ctx.boundary_minus[i]) == (plus, minus)
            assert ctx.global_coords[i] == ctx.global_coord(i) == \
                tuple(o + c for o, c in zip(shift, coord)) == \
                tuple(ctx.global_coord_array[i].tolist())

    @pytest.mark.parametrize("dims", [(300,), (17, 19), (7, 7, 7),
                                      (5, 4, 5, 4)])
    def test_neighbors_share_one_int_per_site(self, dims):
        # the tuples equal those of the per-entry stride loop, in order, for
        # every boundary kind and a shifted origin, and all entries naming
        # one site (every box has more than 256) are one object
        d = len(dims)
        strides = [1] * d
        for axis in range(d - 2, -1, -1):
            strides[axis] = strides[axis + 1] * dims[axis + 1]
        walked = []
        for i, coord in enumerate(itertools.product(*map(range, dims))):
            walked.append(tuple(
                i + step * stride
                for c, side, stride in zip(coord, dims, strides)
                for step in (-1, 1) if 0 <= c + step < side))
        labels = ["all_minus", "all_plus"] + [f"n_pm_{n}" for n in range(d + 1)]
        for label in labels:
            ctx = build_context(BoxGeometry(dims),
                                BoundaryCondition.from_label(label), SQRT2_2,
                                origin=tuple(range(-2, -2 + 3 * d, 3)))
            assert ctx.neighbors == walked
            first = {}
            for nbrs in ctx.neighbors:
                for nb in nbrs:
                    assert first.setdefault(nb, nb) is nb

    def test_n_pm_faces(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(1), SQRT2_2)
        geom = ctx.geometry
        bc = ctx.bc
        # exterior sites sticking out along axis 0 are minus, along axis 1 plus
        assert bc.exterior_spin((-1, 1), geom) == -1
        assert bc.exterior_spin((3, 1), geom) == -1
        assert bc.exterior_spin((1, -1), geom) == 1
        assert bc.exterior_spin((1, 3), geom) == 1

    def test_n_equals_d_is_all_minus(self):
        geom = BoxGeometry((2, 2, 2))
        ctx_npm = build_context(geom, BoundaryCondition.n_pm(3), SQRT2_2)
        ctx_minus = build_context(geom, BoundaryCondition.all_minus(), SQRT2_2)
        assert np.array_equal(ctx_npm.boundary_minus, ctx_minus.boundary_minus)
        assert int(ctx_npm.boundary_plus.sum()) == 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(3), SQRT2_2)


class TestHamiltonian:
    def test_all_minus_normalization(self):
        for bc in (BoundaryCondition.all_minus(), BoundaryCondition.all_plus(),
                   BoundaryCondition.n_pm(1)):
            ctx = build_context(BoxGeometry((3, 3)), bc, SQRT2_2)
            e = hamiltonian(ctx, Configuration.all_minus(ctx.geometry))
            assert e.pair() == (0, 0)

    def test_isolated_plus_2d(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.from_plus_sites(ctx.geometry, [(2, 2)])
        assert hamiltonian(ctx, cfg).pair() == (4, 1)

    def test_all_plus_1d(self):
        # frozen from a direct perimeter count: two end interfaces remain
        ctx = build_context(BoxGeometry((4,)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.all_plus(ctx.geometry)
        assert hamiltonian(ctx, cfg).pair() == (2, 4)

    def test_matches_bond_recount_oracle(self):
        rng = random.Random(7)
        for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1),
                   BoundaryCondition.all_plus()):
            ctx = build_context(BoxGeometry((3, 4)), bc, SQRT3_3)
            for _ in range(25):
                spins = np.array([rng.choice((-1, 1)) for _ in range(12)], dtype=np.int8)
                cfg = Configuration(ctx.geometry, spins)
                e = hamiltonian(ctx, cfg)
                assert e.bonds == brute_bonds(ctx, cfg)
                assert e.pluses == cfg.plus_count()

    def test_geometry_mismatch(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(), SQRT2_2)
        with pytest.raises(ValueError):
            hamiltonian(ctx, Configuration.all_minus(BoxGeometry((2, 2))))


# the fixed case of the telescoping property: a 60-flip path from all-minus
# on a 4x3 box
_CTX_4X3 = build_context(BoxGeometry((4, 3)), BoundaryCondition.all_minus(),
                         SQRT3_3)
_rng = random.Random(3)
_PATH_4X3 = [_rng.randrange(12) for _ in range(60)]


class TestDelta:
    def test_isolated_plus_creation(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.all_minus(ctx.geometry)
        assert delta_h(ctx, cfg, ctx.geometry.index((2, 2))).pair() == (4, 1)

    def test_symmetric_destruction(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.all_plus(ctx.geometry)
        assert delta_h(ctx, cfg, ctx.geometry.index((2, 2))).pair() == (4, -1)

    def test_balanced_neighborhood(self):
        # minus with exactly 2 plus and 2 minus neighbors: pair (0, +1), value -h
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.from_plus_sites(ctx.geometry, [(1, 2), (3, 2)])
        d = delta_h(ctx, cfg, ctx.geometry.index((2, 2)))
        assert d.pair() == (0, 1)
        assert d.value == pytest.approx(-SQRT2_2.approx)

    def test_consistent_with_hamiltonian(self):
        rng = random.Random(11)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(1), SQRT2_2)
        for _ in range(40):
            spins = np.array([rng.choice((-1, 1)) for _ in range(9)], dtype=np.int8)
            cfg = Configuration(ctx.geometry, spins)
            site = rng.randrange(9)
            d = delta_h(ctx, cfg, site)
            direct = hamiltonian(ctx, cfg.flipped(site)) - hamiltonian(ctx, cfg)
            assert d.pair() == direct.pair()

    @settings(max_examples=60, deadline=None)
    @given(case=boxes(), path=st.lists(st.integers(0, 10**6), max_size=60))
    @example(case=(_CTX_4X3, Configuration.all_minus(_CTX_4X3.geometry)),
             path=_PATH_4X3)
    def test_telescoping(self, case, path):
        # H(start) plus the delta_h of each flip equals H after every flip,
        # as exact pairs, on 1-d to 3-d boxes under every boundary label;
        # path entries are taken modulo the number of sites
        ctx, start = case
        cfg = Configuration(ctx.geometry, start.spins.copy())
        bonds, pluses = hamiltonian(ctx, cfg).pair()
        for site in path:
            site %= ctx.n_sites
            step = delta_h(ctx, cfg, site)
            bonds += step.bonds
            pluses += step.pluses
            cfg.spins[site] = -cfg.spins[site]
            assert (bonds, pluses) == hamiltonian(ctx, cfg).pair()

    def test_site_out_of_box(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), SQRT2_2)
        with pytest.raises(ValueError):
            delta_h(ctx, Configuration.all_minus(ctx.geometry), 3)


class TestFlipRate:
    def test_downhill_is_one(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(),
                            MagneticField("0.5"))
        cfg = Configuration.from_plus_sites(ctx.geometry, [(1, 2), (3, 2)])
        # flipping the balanced minus is downhill (value -h)
        assert flip_rate(ctx, cfg, ctx.geometry.index((2, 2)), 2.0) == 1.0

    def test_isolated_creation_rate(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(),
                            MagneticField("0.5"))
        cfg = Configuration.all_minus(ctx.geometry)
        r = flip_rate(ctx, cfg, ctx.geometry.index((2, 2)), 2.0)
        assert r == pytest.approx(np.exp(-7.0))

    def test_rate_in_unit_interval(self):
        rng = random.Random(5)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(1), SQRT2_2)
        for _ in range(30):
            spins = np.array([rng.choice((-1, 1)) for _ in range(9)], dtype=np.int8)
            cfg = Configuration(ctx.geometry, spins)
            r = flip_rate(ctx, cfg, rng.randrange(9), 3.0)
            assert 0.0 < r <= 1.0


class TestComponents:
    def test_empty(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(), SQRT2_2)
        assert connected_components(ctx, Configuration.all_minus(ctx.geometry)) == []

    def test_two_isolated(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.from_plus_sites(ctx.geometry, [(0, 0), (3, 3)])
        comps = connected_components(ctx, cfg)
        assert len(comps) == 2
        assert all(e.pair() == (4, 1) for _, e in comps)

    def test_square_block(self):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(), SQRT2_2)
        cfg = Configuration.from_plus_sites(ctx.geometry,
                                            [(1, 1), (1, 2), (2, 1), (2, 2)])
        comps = connected_components(ctx, cfg)
        assert len(comps) == 1
        assert comps[0][1].pair() == (8, 4)

    def test_component_additivity(self):
        rng = random.Random(13)
        for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1)):
            ctx = build_context(BoxGeometry((4, 4)), bc, SQRT2_2)
            for _ in range(30):
                spins = np.array([rng.choice((-1, 1)) for _ in range(16)], dtype=np.int8)
                cfg = Configuration(ctx.geometry, spins)
                comps = connected_components(ctx, cfg)
                tot_b = sum(e.bonds for _, e in comps)
                tot_p = sum(e.pluses for _, e in comps)
                assert (tot_b, tot_p) == hamiltonian(ctx, cfg).pair()


class TestMeetJoin:
    def test_inclusion_case(self):
        geom = BoxGeometry((4, 4))
        eta = Configuration.from_plus_sites(geom, [(1, 1)])
        xi = Configuration.from_plus_sites(geom, [(1, 1), (1, 2)])
        meet, join = meet_join(eta, xi)
        assert meet == eta and join == xi

    def test_disjoint_case(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(), SQRT2_2)
        eta = Configuration.from_plus_sites(ctx.geometry, [(0, 0)])
        xi = Configuration.from_plus_sites(ctx.geometry, [(4, 4)])
        meet, join = meet_join(eta, xi)
        assert hamiltonian(ctx, meet).pair() == (0, 0)
        he, hx = hamiltonian(ctx, eta), hamiltonian(ctx, xi)
        hj = hamiltonian(ctx, join)
        assert hj.pair() == (he + hx).pair()

    def test_overlapping_squares(self):
        # two 2x2 squares sharing a 1x2 edge: both sides equal (16, 8)
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(), SQRT2_2)
        eta = Configuration.from_plus_sites(ctx.geometry,
                                            [(0, 0), (0, 1), (1, 0), (1, 1)])
        xi = Configuration.from_plus_sites(ctx.geometry,
                                           [(1, 0), (1, 1), (2, 0), (2, 1)])
        meet, join = meet_join(eta, xi)
        lhs = hamiltonian(ctx, meet) + hamiltonian(ctx, join)
        rhs = hamiltonian(ctx, eta) + hamiltonian(ctx, xi)
        assert lhs.pair() == (16, 8) and rhs.pair() == (16, 8)

    def test_attractive_inequality_random(self):
        rng = random.Random(17)
        for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1),
                   BoundaryCondition.all_plus()):
            ctx = build_context(BoxGeometry((3, 4)), bc, SQRT2_2)
            for _ in range(60):
                a = np.array([rng.choice((-1, 1)) for _ in range(12)], dtype=np.int8)
                b = np.array([rng.choice((-1, 1)) for _ in range(12)], dtype=np.int8)
                eta, xi = Configuration(ctx.geometry, a), Configuration(ctx.geometry, b)
                meet, join = meet_join(eta, xi)
                lhs = hamiltonian(ctx, meet) + hamiltonian(ctx, join)
                rhs = hamiltonian(ctx, eta) + hamiltonian(ctx, xi)
                assert lhs <= rhs
                # plus counts are exactly additive
                assert meet.plus_count() + join.plus_count() == \
                    eta.plus_count() + xi.plus_count()

    def test_inclusion_energy_equality_forces_identity(self):
        # with irrational h, eta subset sigma and equal energy implies eta == sigma
        rng = random.Random(23)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(), SQRT2_2)
        for _ in range(200):
            sup = [s for s in range(9) if rng.random() < 0.5]
            sub = [s for s in sup if rng.random() < 0.7]
            eta = Configuration.from_plus_sites(ctx.geometry, sub)
            sigma = Configuration.from_plus_sites(ctx.geometry, sup)
            if hamiltonian(ctx, eta) == hamiltonian(ctx, sigma):
                assert eta == sigma


class TestBoundaryMonotonicity:
    def test_adding_boundary_plus_never_raises_energy(self):
        rng = random.Random(29)
        geom = BoxGeometry((3, 3))
        base = BoundaryCondition.all_minus()
        for _ in range(40):
            spins = np.array([rng.choice((-1, 1)) for _ in range(9)], dtype=np.int8)
            cfg = Configuration(geom, spins)
            ext = (-1, rng.randrange(3))
            ctx0 = build_context(geom, base, SQRT2_2)
            ctx1 = build_context(geom, base.with_override(ext, 1), SQRT2_2)
            assert hamiltonian(ctx1, cfg) <= hamiltonian(ctx0, cfg)


class TestBoundaryLabels:
    @pytest.mark.parametrize("bc", [BoundaryCondition.all_minus(),
                                    BoundaryCondition.all_plus()]
                             + [BoundaryCondition.n_pm(n) for n in range(4)])
    def test_from_label_inverts_label(self, bc):
        assert BoundaryCondition.from_label(bc.label()) == bc

    @pytest.mark.parametrize("label", ["bogus", "n_pm_", "n_pm_x", "n_pm",
                                       "all_minus_1", ""])
    def test_unknown_label_rejected(self, label):
        with pytest.raises(ValueError):
            BoundaryCondition.from_label(label)


class TestSerialization:
    def test_text_round_trip(self):
        geom = BoxGeometry((3, 4))
        cfg = Configuration.from_plus_sites(geom, [(0, 0), (1, 2), (2, 3)])
        assert Configuration.from_text(geom, cfg.to_text()) == cfg

    def test_bitmask_round_trip(self):
        geom = BoxGeometry((2, 3))
        for mask in range(64):
            cfg = Configuration.from_bitmask(geom, mask)
            assert cfg.as_bitmask() == mask
