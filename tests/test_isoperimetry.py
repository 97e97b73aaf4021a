import random

import pytest

from isingkit.energy import MagneticField
from isingkit.experiments import rows_to_csv
from isingkit.isoperimetry import (cell_perimeter, enumerate_polyominoes,
                                   fall_cells, gravity_fall,
                                   isoperimetric_check, min_perimeter,
                                   floored_root_bound, oracle_table,
                                   project_to_lower_dim, simplified_bound)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, hamiltonian)

SQRT2_2 = MagneticField("sqrt2/2")


class TestMinPerimeter:
    def test_known_2d_values(self):
        # frozen from the exhaustive enumeration (cross-checked against the
        # fixed-polyomino counts, see test_enumeration_counts)
        expected = {1: 4, 2: 6, 3: 8, 4: 8, 5: 10, 6: 10, 7: 12, 8: 12, 9: 12,
                    10: 14, 11: 14, 12: 14}
        for v, p in expected.items():
            assert min_perimeter(2, v) == p

    def test_known_3d_values(self):
        assert min_perimeter(3, 1) == 6
        assert min_perimeter(3, 8) == 24  # the 2x2x2 cube

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            min_perimeter(2, 13)
        with pytest.raises(ValueError):
            min_perimeter(4, 2)

    def test_monotone_envelope_2d(self):
        # adding one cell changes the minimum by at most +2 and never lowers it
        for v in range(1, 12):
            assert min_perimeter(2, v) <= min_perimeter(2, v + 1) <= \
                min_perimeter(2, v) + 2

    def test_enumeration_counts(self):
        from collections import Counter
        counts = Counter()
        enumerate_polyominoes(2, 6, lambda v, a: counts.update([v]))
        assert [counts[v] for v in range(1, 7)] == [1, 2, 6, 19, 63, 216]
        counts = Counter()
        enumerate_polyominoes(3, 5, lambda v, a: counts.update([v]))
        assert [counts[v] for v in range(1, 6)] == [1, 3, 15, 86, 534]


class TestIsoperimetricCheck:
    def test_square_equality(self):
        r = isoperimetric_check(2, 9)
        assert r["min_perimeter"] == 12
        assert r["scaling_holds"] and r["scaling_equality"]

    def test_non_square(self):
        r = isoperimetric_check(2, 3)
        assert r["min_perimeter"] == 8
        assert r["scaling_holds"] and not r["scaling_equality"]
        assert r["floor_holds"]

    def test_unit_cell(self):
        r = isoperimetric_check(2, 1)
        assert r["scaling_equality"]

    def test_bounds_chain(self):
        for d, cap in ((2, 12), (3, 8)):
            for v in range(1, cap + 1):
                assert floored_root_bound(d, v) <= simplified_bound(d, v) + 1e-9
                assert min_perimeter(d, v) >= floored_root_bound(d, v)

    def test_csv_shape(self):
        rows = oracle_table(2, 12)
        assert [r["v"] for r in rows] == list(range(1, 13))
        lines = rows_to_csv(rows).strip().splitlines()
        assert len(lines) == 13
        assert lines[0] == "d,v,min_perimeter,simplified_bound,neves_bound"


class TestGravityFall:
    def test_already_fallen(self):
        geom = BoxGeometry((4, 4))
        cfg = Configuration.from_plus_sites(geom, [(0, 0), (0, 1), (1, 0)])
        assert gravity_fall(cfg, 0) == cfg

    def test_gap_closed(self):
        geom = BoxGeometry((5,))
        cfg = Configuration.from_plus_sites(geom, [(0,), (2,), (4,)])
        fallen = gravity_fall(cfg, 0)
        assert fallen.plus_sites() == [0, 1, 2]
        before = cell_perimeter({(0,), (2,), (4,)})
        after = cell_perimeter({(0,), (1,), (2,)})
        assert after == before - 4

    def test_idempotent_volume_preserving(self):
        rng = random.Random(31)
        geom = BoxGeometry((4, 4, 3))
        for _ in range(50):
            sites = [s for s in range(geom.n_sites) if rng.random() < 0.3]
            cfg = Configuration.from_plus_sites(geom, sites)
            for axis in range(3):
                fallen = gravity_fall(cfg, axis)
                assert fallen.plus_count() == cfg.plus_count()
                assert gravity_fall(fallen, axis) == fallen
                cells_a = {geom.coord(i) for i in cfg.plus_sites()}
                cells_b = {geom.coord(i) for i in fallen.plus_sites()}
                if cells_a:
                    assert cell_perimeter(cells_b) <= cell_perimeter(cells_a)


class TestProjection:
    def test_empty(self):
        ctx = build_context(BoxGeometry((3, 3, 3)), BoundaryCondition.n_pm(1),
                            SQRT2_2)
        sub_ctx, low = project_to_lower_dim(ctx, Configuration.all_minus(ctx.geometry))
        assert low.plus_count() == 0
        assert sub_ctx.geometry.dimension == 2

    def test_single_plus(self):
        ctx = build_context(BoxGeometry((3, 3, 3)), BoundaryCondition.n_pm(1),
                            SQRT2_2)
        cfg = Configuration.from_plus_sites(ctx.geometry, [(1, 1, 1)])
        sub_ctx, low = project_to_lower_dim(ctx, cfg)
        assert low.plus_count() == 1
        assert hamiltonian(sub_ctx, low) <= hamiltonian(ctx, cfg)

    def test_random_cases_energy_never_increases(self):
        rng = random.Random(37)
        for n in (1, 2):
            ctx = build_context(BoxGeometry((6, 6, 6)), BoundaryCondition.n_pm(n),
                                SQRT2_2)
            for _ in range(100):
                vol = rng.randrange(1, 6)
                sites = set()
                while len(sites) < vol:
                    sites.add(tuple(rng.randrange(6) for _ in range(3)))
                cfg = Configuration.from_plus_sites(ctx.geometry, sites)
                sub_ctx, low = project_to_lower_dim(ctx, cfg)
                assert low.plus_count() == vol
                assert hamiltonian(sub_ctx, low) <= hamiltonian(ctx, cfg)

    @pytest.mark.parametrize("dims", [(5, 5), (6, 6, 6)])
    def test_all_minus_box_rejected(self, dims):
        ctx = build_context(BoxGeometry(dims), BoundaryCondition.all_minus(),
                            SQRT2_2)
        with pytest.raises(ValueError, match="n-face-minus"):
            project_to_lower_dim(ctx, Configuration.all_minus(ctx.geometry))

    def test_volume_precondition(self):
        ctx = build_context(BoxGeometry((2, 2, 2)), BoundaryCondition.n_pm(1),
                            SQRT2_2)
        cfg = Configuration.from_plus_sites(
            ctx.geometry, [(0, 0, 0), (0, 0, 1), (1, 0, 0)])
        with pytest.raises(ValueError):
            project_to_lower_dim(ctx, cfg)
