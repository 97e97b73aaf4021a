"""Cross-module landscape properties: exact pair comparison and the level
index, depths of metastable cycles, the reference cycle path depth bound,
energy cutting across nested boxes, and the control-inequality report."""

import math
import random

from hypothesis import given, settings, strategies as st

from isingkit.energy import MagneticField
from isingkit.landscape import (communication_energy, control_inequality_report,
                                critical_constants, enumerate_landscape,
                                maximal_cycles, path_energies, reference_path)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, hamiltonian)

SQRT2_2 = MagneticField("sqrt2/2")
SQRT3_2 = MagneticField("sqrt3/2")


@st.composite
def surd_fields(draw):
    p = draw(st.integers(2, 300).filter(lambda p: math.isqrt(p) ** 2 != p))
    q = draw(st.integers(math.isqrt(p) + 1, 40))
    return MagneticField(f"sqrt{p}/{q}")


@st.composite
def rational_fields(draw):
    den = draw(st.integers(2, 12))
    return MagneticField(f"{draw(st.integers(1, den - 1))}/{den}")


fields = st.one_of(surd_fields(), rational_fields())
pairs = st.tuples(st.integers(-60, 60), st.integers(-30, 30))


class TestComparePair:
    @given(field=fields, x=pairs, y=pairs)
    def test_antisymmetric(self, field, x, y):
        assert field.compare_pair(x[0] - y[0], x[1] - y[1]) == \
            -field.compare_pair(y[0] - x[0], y[1] - x[1])

    @given(field=fields, x=pairs, y=pairs, z=pairs)
    def test_transitive(self, field, x, y, z):
        def cmp(a, b):
            return field.compare_pair(a[0] - b[0], a[1] - b[1])

        if cmp(x, y) <= 0 and cmp(y, z) <= 0:
            assert cmp(x, z) <= 0
            if cmp(x, y) < 0 or cmp(y, z) < 0:
                assert cmp(x, z) < 0


class TestLevelIndex:
    @settings(max_examples=30, deadline=None)
    @given(field=fields,
           dims=st.sampled_from([(3,), (2, 3), (3, 3), (2, 2, 2)]),
           bc=st.sampled_from([BoundaryCondition.all_minus(),
                               BoundaryCondition.n_pm(1)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_levels_order_states_as_compare_pair(self, field, dims, bc, seed):
        g = enumerate_landscape(build_context(BoxGeometry(dims), bc, field))
        lv = g.levels()
        # every pair of distinct energy pairs, through their ranks
        for r, a in enumerate(lv.values):
            for s, b in enumerate(lv.values):
                sign = field.compare_pair(a.bonds - b.bonds, a.pluses - b.pluses)
                diff = int(lv.rank_level[r]) - int(lv.rank_level[s])
                assert (diff > 0) - (diff < 0) == sign
                if sign == 0:
                    assert r == s or not field.is_irrational
        # and the per-state arrays against the states' own pairs
        rng = random.Random(seed)
        for _ in range(50):
            s, t = rng.randrange(g.n_states), rng.randrange(g.n_states)
            a, b = g.energy_pair(s), g.energy_pair(t)
            sign = field.compare_pair(a.bonds - b.bonds, a.pluses - b.pluses)
            diff = int(lv.level[s]) - int(lv.level[t])
            assert (diff > 0) - (diff < 0) == sign
            assert lv.values[lv.rank[s]].pair() == a.pair()


def metastable_block(graph, exclude):
    y = frozenset(graph.states()) - frozenset(exclude)
    part = maximal_cycles(graph, y)
    return part.block_of(0)


class TestMetastableDepth:
    def test_n1_depth_is_gamma1(self):
        # a 2D box with minus faces along the first axis only behaves
        # one-dimensionally: the metastable cycle is exactly Gamma_1 deep
        for dims in ((3, 2), (4, 2)):
            ctx = build_context(BoxGeometry(dims), BoundaryCondition.n_pm(1),
                                SQRT2_2)
            g = enumerate_landscape(ctx)
            full = (1 << ctx.n_sites) - 1
            blk = metastable_block(g, [full])
            assert blk.depth.pair() == (2, 1)

    def test_n2_depth_is_gamma2(self):
        # the critical droplet at this field fits in a 3x3 box, so the
        # in-box barrier equals the constant from the dedicated computation
        const = critical_constants(2, SQRT3_2)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            SQRT3_2)
        g = enumerate_landscape(ctx)
        blk = metastable_block(g, [(1 << 9) - 1])
        assert blk.depth.pair() == const.gammas[2].pair()

    def test_reference_cycle_path_depth_bound(self):
        # cycles met by the reference path before the critical volume are
        # strictly shallower than the one-lower-dimensional barrier
        const = critical_constants(2, SQRT3_2)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            SQRT3_2)
        g = enumerate_landscape(ctx)
        path = reference_path(ctx)
        full = (1 << 9) - 1
        y = frozenset(g.states()) - {0, full}
        part = maximal_cycles(g, y)
        gamma1 = const.gammas[1]
        for i in range(1, const.m[2]):
            blk = part.block_of(path[i].as_bitmask())
            assert blk.depth < gamma1


class TestGreedyPathMinimax:
    def test_minimax_on_mixed_boundary_box(self):
        for dims, n in (((3, 2), 1), ((2, 2, 2), 1), ((2, 2, 2), 2)):
            ctx = build_context(BoxGeometry(dims), BoundaryCondition.n_pm(n),
                                SQRT2_2)
            g = enumerate_landscape(ctx)
            path = reference_path(ctx)
            energies = path_energies(ctx, path)
            states = [p.as_bitmask() for p in path]
            for i in range(len(path)):
                for j in range(i + 1, len(path)):
                    expected = max(energies[i:j + 1])
                    got = communication_energy(g, [states[i]], [states[j]])
                    assert got.pair() == expected.pair()


class TestEnergyCutting:
    def test_nested_boxes_single_plus(self):
        # restriction to a smaller box with the same mixed boundary never
        # raises the energy, at volumes up to the lower critical volume
        rng = random.Random(41)
        for n in (1, 2):
            ctx_r = build_context(BoxGeometry((4, 3)), BoundaryCondition.n_pm(n),
                                  SQRT2_2)
            ctx_q = ctx_r.sub_context((0, 0), (3, 2), bc=BoundaryCondition.n_pm(n))
            for _ in range(80):
                site = rng.randrange(12)
                eta = Configuration.from_plus_sites(ctx_r.geometry, [site])
                inside = [s for s in [site]
                          if all(c < d for c, d in zip(
                              ctx_r.geometry.coord(s), (3, 2)))]
                eta_q = Configuration.from_plus_sites(
                    ctx_q.geometry,
                    [ctx_q.geometry.index(ctx_r.geometry.coord(s))
                     for s in inside])
                assert hamiltonian(ctx_r, eta) >= hamiltonian(ctx_q, eta_q)

    def test_nested_boxes_small_volumes(self):
        rng = random.Random(43)
        ctx_r = build_context(BoxGeometry((4, 4)), BoundaryCondition.n_pm(1),
                              SQRT2_2)
        ctx_q = ctx_r.sub_context((0, 0), (3, 3), bc=BoundaryCondition.n_pm(1))
        for _ in range(120):
            sites = rng.sample(range(16), rng.randrange(1, 4))
            eta = Configuration.from_plus_sites(ctx_r.geometry, sites)
            q_sites = [ctx_q.geometry.index(ctx_r.geometry.coord(s))
                       for s in sites
                       if all(c < 3 for c in ctx_r.geometry.coord(s))]
            eta_q = Configuration.from_plus_sites(ctx_q.geometry, q_sites)
            assert hamiltonian(ctx_r, eta) >= hamiltonian(ctx_q, eta_q)


class TestControlInequality:
    def test_report_shape_and_small_field(self):
        const = critical_constants(3, MagneticField("0.05"),
                                   verify_oracle=False)
        rows = control_inequality_report(const)
        assert [r["n"] for r in rows] == [1, 2, 3]
        # n = 1 compares Gamma_0 = 0 against 1
        assert rows[0]["holds"]
        # the n = 2 case compares Gamma_1^2 ~ 4 against m_1 = 1 and fails at
        # any field; the report states it without asserting
        assert not rows[1]["holds"]
