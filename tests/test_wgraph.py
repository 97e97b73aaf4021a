import math
import random

import numpy as np
import pytest

from isingkit.energy import MagneticField
from isingkit.landscape import (bottom_of, enumerate_landscape,
                                maximal_compounds, truncate_landscape)
from isingkit.lattice import BoundaryCondition, BoxGeometry, build_context
from isingkit.wgraph import (RateMatrix, enumerate_wgraphs,
                             exit_oracle_linear, exit_point_law,
                             exitcost_identity_check, expected_exit_time,
                             random_rate_matrix, rate_matrix_from_landscape)

SQRT2_2 = MagneticField("sqrt2/2")


def two_state_chain():
    return RateMatrix(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])


def three_state_chain(c_ba, c_bc):
    # a - b - c with no direct a-c link
    return RateMatrix(["a", "b", "c"],
                      [[0.0, 1.0, 0.0], [c_ba, 0.0, c_bc], [0.0, 1.0, 0.0]])


class TestEnumeration:
    def test_two_state(self):
        rm = two_state_chain()
        graphs = list(enumerate_wgraphs(rm, ["b"]))
        assert graphs == [frozenset({("a", "b")})]

    def test_x_in_w_edge_cases(self):
        rm = three_state_chain(1.0, 1.0)
        plain = set(enumerate_wgraphs(rm, ["a", "c"]))
        same = set(enumerate_wgraphs(rm, ["a", "c"], "to_target", x="a", y="a"))
        assert same == plain
        other = list(enumerate_wgraphs(rm, ["a", "c"], "to_target", x="a", y="c"))
        assert other == []

    def test_no_cycles_and_uniqueness(self):
        rng = random.Random(2)
        rm = random_rate_matrix(rng, 5, dense=True)
        graphs = list(enumerate_wgraphs(rm, [0, 1]))
        assert len(graphs) == len(set(graphs))
        for g in graphs:
            sources = [a for a, _ in g]
            assert sorted(sources) == [2, 3, 4]

    def test_avoid_union_identity(self):
        # |G(x avoid W)| equals the sum over y outside W of the graphs of
        # G(W + y) sending x to y: counted here by exhaustive cross-check
        rng = random.Random(7)
        for _ in range(5):
            rm = random_rate_matrix(rng, 4, dense=True)
            w = [0]
            x = 2
            avoid = set(enumerate_wgraphs(rm, w, "avoid", x=x))
            union = set()
            for y in (1, 2, 3):
                for g in enumerate_wgraphs(rm, [0, y], "plain"):
                    # keep graphs whose path from x stops at y
                    node = x
                    arrows = dict(g)
                    while node in arrows:
                        node = arrows[node]
                    if node == y:
                        union.add(g)
            assert avoid == union

    def test_to_target_splits_plain_by_landing_state(self):
        # x outside W: each W-graph sends x along its arrow path to one
        # y in W, so the to_target sets partition G(W), and their rate sums
        # over that of G(W) are the exit law
        rng = random.Random(11)

        def weight(graphs):
            return math.fsum(math.prod(rm.rates[a, b] for a, b in g)
                             for g in graphs)

        for _ in range(20):
            n = rng.randrange(4, 7)
            rm = random_rate_matrix(rng, n, dense=rng.random() < 0.5)
            w = rng.sample(range(n), rng.randrange(1, n))
            x = rng.choice([s for s in range(n) if s not in w])
            plain = set(enumerate_wgraphs(rm, w))
            law = exit_point_law(rm, w, x)
            union = set()
            for y in w:
                graphs = set(enumerate_wgraphs(rm, w, "to_target", x=x, y=y))
                assert not graphs & union
                union |= graphs
                for g in graphs:
                    arrows, node = dict(g), x
                    while node in arrows:
                        node = arrows[node]
                    assert node == y
                assert abs(weight(graphs) / weight(plain) - law[y]) <= 1e-12
            assert union == plain

    def test_size_guard(self):
        rng = random.Random(0)
        rm = random_rate_matrix(rng, 11)
        with pytest.raises(ValueError):
            list(enumerate_wgraphs(rm, [0]))

    def test_dense_limit_checked_before_allocating(self):
        # 4096 states: a dense matrix would take 128 MB
        g = enumerate_landscape(build_context(
            BoxGeometry((3, 4)), BoundaryCondition.all_minus(), SQRT2_2))
        with pytest.raises(ValueError, match="limited to 2000 states"):
            rate_matrix_from_landscape(g, 1.0)


class TestExitLaws:
    def test_point_mass_when_started_in_w(self):
        rm = three_state_chain(1.0, 1.0)
        dist = exit_point_law(rm, ["a", "c"], "a")
        assert dist == {"a": 1.0, "c": 0.0}
        assert expected_exit_time(rm, ["a", "c"], "a") == 0.0

    def test_chain_exit_probabilities(self):
        rm = three_state_chain(0.6, 1.8)
        dist = exit_point_law(rm, ["a", "c"], "b")
        assert dist["a"] == pytest.approx(0.6 / 2.4)
        assert dist["c"] == pytest.approx(1.8 / 2.4)

    def test_single_state_exit_time(self):
        # exit from {x} takes mean 1 / (sum of rates out of x)
        rm = two_state_chain()
        assert expected_exit_time(rm, ["b"], "a") == pytest.approx(1.0)
        assert expected_exit_time(rm, ["a"], "b") == pytest.approx(0.5)

    def test_matches_linear_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(2, 7)
            rm = random_rate_matrix(rng, n, dense=(n <= 5 and rng.random() < 0.5))
            k = rng.randrange(1, n)
            w = rng.sample(range(n), k)
            x = rng.choice([s for s in range(n) if s not in w])
            dist = exit_point_law(rm, w, x)
            t = expected_exit_time(rm, w, x)
            dist_o, t_o = exit_oracle_linear(rm, w, x)
            tv = 0.5 * sum(abs(dist[s] - dist_o[s]) for s in w)
            assert tv <= 1e-9
            assert t == pytest.approx(t_o, rel=1e-9)
            assert sum(dist.values()) == pytest.approx(1.0)
            assert t >= 0.0

    def test_oracle_degenerate_w_equals_x(self):
        rm = three_state_chain(1.0, 1.0)
        dist, t = exit_oracle_linear(rm, ["a", "b", "c"], "b")
        assert t == 0.0 and dist["b"] == 1.0


class TestArrheniusBracket:
    def test_metastable_exit_time_slope(self):
        # expected exit time of the 1D metastable cycle grows like
        # exp(beta * depth); the log-slope approaches the exact depth
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(),
                            MagneticField("0.5"))
        g = enumerate_landscape(ctx)
        cycle = [s for s in g.states() if s != 0b111]
        depth = 1.5  # exit energy (2,1) minus bottom energy (0,0) at h = 0.5
        logs = []
        betas = [4.0, 6.0, 8.0]
        for beta in betas:
            rm = rate_matrix_from_landscape(g, beta)
            w = [0b111]
            _, t = exit_oracle_linear(rm, w, 0)
            logs.append(np.log(t))
        slope = np.polyfit(betas, logs, 1)[0]
        assert abs(slope - depth) / depth < 0.05

    def test_exitcom_prefactor_bracket(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        g = enumerate_landscape(ctx)
        deg = ctx.n_sites
        n_states = 8
        for beta in (2.0, 4.0, 8.0):
            rm = rate_matrix_from_landscape(g, beta)
            _, t = exit_oracle_linear(rm, [0b111], 0)
            depth_value = 2 - 4 * SQRT2_2.approx  # H(+1), the exit barrier from 0
            # bracket in log space with prefactor deg^(+-|X|)
            lo = beta * (2 - SQRT2_2.approx) - n_states * np.log(deg)
            hi = beta * (2 - SQRT2_2.approx) + n_states * np.log(deg)
            assert lo <= np.log(t) <= hi


class TestExitCostIdentities:
    def test_1d_metastable_cycle(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        g = enumerate_landscape(ctx)
        y = frozenset(g.states()) - {0b111}
        part = maximal_compounds(g, y)
        blk = part.block_of(0)
        report = exitcost_identity_check(g, blk.states)
        assert report.ok, report.failures

    def test_all_compounds_of_truncations(self):
        full = enumerate_landscape(build_context(
            BoxGeometry((2, 2)), BoundaryCondition.all_minus(), SQRT2_2))
        g = truncate_landscape(full, 10)
        states = set(g.states())
        bottom = min(states, key=lambda s: g.energy_pair(s).value)
        for y in (states - {bottom},):
            part = maximal_compounds(g, y)
            for blk in part.blocks:
                report = exitcost_identity_check(g, blk.states)
                assert report.ok, report.failures

    @pytest.mark.parametrize("token", ["0.5", "1/3", "2/3"])
    def test_compounds_of_truncations_rational_field(self, token):
        # equal energies from different (bonds, pluses) pairs: every
        # identity must still hold exactly
        checked = 0
        for dims in ((2, 2), (2, 3)):
            for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1)):
                full = enumerate_landscape(build_context(
                    BoxGeometry(dims), bc, MagneticField(token)))
                for k in range(2, 11):
                    g = truncate_landscape(full, k)
                    states = set(g.states())
                    bottom = min(bottom_of(g, states))
                    top = max(states, key=lambda s: (g.energy_pair(s).value, s))
                    for y in (states - {bottom}, states - {bottom, top}):
                        for blk in maximal_compounds(g, y).blocks:
                            if len(blk.states) == len(states):
                                continue
                            report = exitcost_identity_check(g, blk.states)
                            assert report.ok, report.failures
                            checked += 1
        assert checked >= 200

    def test_non_compound_flagged(self):
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        g = enumerate_landscape(ctx)
        # a disconnected pair is not a compound
        report = exitcost_identity_check(g, {0b001, 0b100})
        assert report.precondition_violated


class TestCsv:
    def test_round_trip(self):
        import io
        buf = io.StringIO("0,1.0,0\n0.5,0,0.5\n0,2.0,0\n")
        rm = RateMatrix.from_csv(buf)
        assert rm.n == 3
        assert rm.rates[1, 0] == 0.5
        assert rm.rates[1, 1] == -1.0
