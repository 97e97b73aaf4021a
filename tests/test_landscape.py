import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import landscape_oracle as oracle
from isingkit.energy import NEG_INF_ENERGY, EnergyValue, MagneticField
from isingkit.isoperimetry import DEFAULT_CAPS, min_perimeter
from isingkit.landscape import (CriticalConstants, LandscapeGraph, bottom_of,
                                communication_energy, critical_constants,
                                domain_hypothesis_check, enumerate_landscape,
                                gamma_continuity_scan, maximal_compounds,
                                maximal_cycles, path_energies, reference_path,
                                reference_profile_pairs, restricted_ensemble,
                                truncate_landscape)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, hamiltonian)

SQRT2_2 = MagneticField("sqrt2/2")
SQRT3_3 = MagneticField("sqrt3/3")
SQRT3_2 = MagneticField("sqrt3/2")


def make_graph(dims, bc=None, h=SQRT2_2):
    ctx = build_context(BoxGeometry(tuple(dims)),
                        bc if bc is not None else BoundaryCondition.all_minus(), h)
    return enumerate_landscape(ctx)


def brute_communication(graph, a_states, b_states):
    """Exhaustive minimax by trying all path max-levels directly (Dijkstra-like)."""
    import heapq
    order = {s: graph.energy_pair(s) for s in graph.states()}
    best = {}
    heap = []
    counter = itertools.count()
    for s in a_states:
        e = order[s]
        heapq.heappush(heap, (e.value, next(counter), s, e))
        best[s] = e
    target = set(b_states)
    while heap:
        _, _, s, lvl = heapq.heappop(heap)
        if best.get(s) != lvl and best.get(s) < lvl:
            continue
        if s in target:
            return lvl
        for t in graph.neighbors(s):
            cand = max(lvl, order[t])
            if t not in best or cand < best[t]:
                best[t] = cand
                heapq.heappush(heap, (cand.value, next(counter), t, cand))
    raise RuntimeError("disconnected")


class TestEnumeration:
    def test_counts(self):
        assert make_graph([3]).n_states == 8
        assert make_graph([2, 3]).n_states == 64

    def test_energies_match_hamiltonian(self):
        for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1)):
            g = make_graph([2, 3], bc=bc)
            for s in g.states():
                direct = hamiltonian(g.ctx, g.configuration(s))
                assert g.energy_pair(s).pair() == direct.pair()

    def test_max_energy_state_2x2(self):
        g = make_graph([2, 2])
        top = max(g.states(), key=lambda s: (g.energy_pair(s).value, -s))
        # exact comparison puts the checkerboards on top: pair (8, 2)
        assert g.energy_pair(top).pair() == (8, 2)

    def test_cap(self):
        ctx = build_context(BoxGeometry((5, 5)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        with pytest.raises(ValueError):
            enumerate_landscape(ctx, cap=24)


class TestCommunication:
    def test_singleton_is_own_energy(self):
        g = make_graph([3])
        s = 0b101
        assert communication_energy(g, [s], [s]).pair() == g.energy_pair(s).pair()

    def test_gamma1_1d(self):
        for h in (SQRT2_2, SQRT3_3):
            g = make_graph([3], h=h)
            e = communication_energy(g, [0], [0b111])
            assert e.pair() == (2, 1)

    def test_matches_brute_force(self):
        g = make_graph([2, 3])
        rng = random.Random(5)
        for _ in range(25):
            a = {rng.randrange(64)}
            b = {rng.randrange(64)}
            assert communication_energy(g, a, b) == brute_communication(g, a, b)

    def test_reference_minimax(self):
        # E(rho_i, rho_j) equals the max in-between path energy, exactly
        g = make_graph([2, 3])
        path = reference_path(g.ctx)
        energies = path_energies(g.ctx, path)
        states = [p.as_bitmask() for p in path]
        for i in range(len(path)):
            for j in range(i + 1, len(path)):
                expected = max(energies[i:j + 1])
                got = communication_energy(g, [states[i]], [states[j]])
                assert got.pair() == expected.pair()


class TestCycles:
    def test_empty_y_gives_empty_partition(self):
        g = make_graph([2, 2], h=MagneticField("0.5"))
        one = truncate_landscape(g, 1)
        no_bottom = set(one.states()) - bottom_of(one, one.states())
        for graph, y in ((g, frozenset()), (one, no_bottom)):
            for ours, theirs in ((maximal_cycles, oracle.maximal_cycles),
                                 (maximal_compounds, oracle.maximal_compounds)):
                part = ours(graph, y)
                assert part.blocks == [] and part.tie_events == []
                assert part.blocks == theirs(graph, y).blocks

    def test_partition_covers_disjointly(self):
        g = make_graph([2, 3])
        rng = random.Random(9)
        for _ in range(10):
            y = frozenset(s for s in g.states() if rng.random() < 0.6)
            if not y:
                continue
            for part in (maximal_cycles(g, y), maximal_compounds(g, y)):
                seen = set()
                for b in part.blocks:
                    assert not (b.states & seen)
                    seen |= b.states
                assert seen == y

    def test_singleton_height(self):
        g = make_graph([3])
        part = maximal_cycles(g, [0b010])
        assert len(part.blocks) == 1
        blk = part.blocks[0]
        assert blk.height is NEG_INF_ENERGY
        assert blk.depth == blk.exit_energy - g.energy_pair(0b010)

    def test_metastable_cycle_1d(self):
        # all states except all-plus: the block holding all-minus has depth (2,1)
        g = make_graph([3])
        y = frozenset(g.states()) - {0b111}
        part = maximal_cycles(g, y)
        blk = part.block_of(0)
        assert blk.depth.pair() == (2, 1)
        assert bottom_of(g, blk.states) == frozenset({0})

    def test_compound_blocks_contain_cycles(self):
        g = make_graph([2, 2])
        y = frozenset(g.states()) - {0b1111}
        cycles = maximal_cycles(g, y)
        compounds = maximal_compounds(g, y)
        for cb in compounds.blocks:
            inside = [b for b in cycles.blocks if b.states <= cb.states]
            assert inside and frozenset().union(*(b.states for b in inside)) == cb.states

    def test_no_ties_means_same_partition(self):
        g = make_graph([2, 2], h=SQRT3_3)
        y = frozenset(g.states()) - {0b1111}
        cycles = maximal_cycles(g, y)
        compounds = maximal_compounds(g, y)
        exit_pairs = [b.exit_energy.pair() for b in cycles.blocks]
        if len(set(exit_pairs)) == len(exit_pairs):
            assert len(compounds.blocks) == len(cycles.blocks)

    def test_bottom_singleton_for_compounds(self):
        for dims in ((2, 2), (2, 3)):
            for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1)):
                g = make_graph(dims, bc=bc)
                for y in (frozenset(g.states()),
                          frozenset(g.states()) - {(1 << g.n_sites) - 1}):
                    for blk in maximal_compounds(g, y).blocks:
                        assert len(bottom_of(g, blk.states)) == 1

    def test_exitval_exclusion(self):
        # boundary states of a maximal compound in D never sit exactly at its
        # exit energy
        g = make_graph([2, 3])
        y = frozenset(g.states()) - {0, 0b111111}
        part = maximal_compounds(g, y)
        for blk in part.blocks:
            boundary = set()
            for s in blk.states:
                for t in g.neighbors(s):
                    if t not in blk.states and t in y:
                        boundary.add(t)
            for x in boundary:
                assert g.energy_pair(x) != blk.exit_energy


class TestBottom:
    def test_whole_space_bottom_1d4(self):
        g = make_graph([4])
        assert bottom_of(g, g.states()) == frozenset({0b1111})
        assert g.energy_pair(0b1111).pair() == (2, 4)

    def test_singleton(self):
        g = make_graph([3])
        assert bottom_of(g, [5]) == frozenset({5})


class TestReferencePath:
    def test_1d_profile(self):
        ctx = build_context(BoxGeometry((4,)), BoundaryCondition.all_minus(), SQRT2_2)
        energies = path_energies(ctx, reference_path(ctx))
        assert [e.pair() for e in energies] == [(0, 0), (2, 1), (2, 2), (2, 3), (2, 4)]

    def test_2x2_profile(self):
        ctx = build_context(BoxGeometry((2, 2)), BoundaryCondition.all_minus(), SQRT2_2)
        energies = path_energies(ctx, reference_path(ctx))
        assert [e.pair() for e in energies] == \
            [(0, 0), (4, 1), (6, 2), (8, 3), (8, 4)]

    def test_quasicube_grows_shortest_side_lowest_axis_first(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(), SQRT2_2)
        path = reference_path(ctx)
        flips = [ctx.geometry.coord(next(i for i in range(9)
                                         if a.spins[i] != b.spins[i]))
                 for a, b in zip(path, path[1:])]
        assert flips == [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1),
                         (0, 2), (1, 2), (2, 2)]

    def test_path_is_monotone_filling(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(1), SQRT2_2)
        path = reference_path(ctx)
        for i, cfg in enumerate(path):
            assert cfg.plus_count() == i
        for a, b in zip(path, path[1:]):
            assert a <= b

    def test_n_equals_d_matches_all_minus(self):
        geom = BoxGeometry((3, 3))
        p1 = reference_path(build_context(geom, BoundaryCondition.all_minus(), SQRT2_2))
        p2 = reference_path(build_context(geom, BoundaryCondition.n_pm(2), SQRT2_2))
        assert all(a == b for a, b in zip(p1, p2))

    def test_profile_recursion_matches_greedy(self):
        for dims, h in (((3, 3), SQRT2_2), ((2, 4), SQRT2_2), ((4, 2), SQRT2_2),
                        ((3, 3, 3), SQRT3_2), ((2, 3, 4), SQRT3_2),
                        ((4, 3, 2), SQRT3_2)):
            ctx = build_context(BoxGeometry(dims), BoundaryCondition.all_minus(), h)
            greedy = [e.pair() for e in path_energies(ctx, reference_path(ctx))]
            assert greedy == reference_profile_pairs(dims, h)
        # the profile does not depend on the order of the sides
        profile = reference_profile_pairs((2, 3, 4), SQRT3_2)
        for dims in itertools.permutations((2, 3, 4)):
            assert reference_profile_pairs(dims, SQRT3_2) == profile


class TestCriticalConstants:
    def test_d1(self):
        const = critical_constants(1, SQRT2_2)
        assert const.l_c[1] == 0
        assert const.m[1] == 1
        assert const.gammas[1].pair() == (2, 1)

    @pytest.mark.parametrize("d", [-1, -2])
    def test_negative_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="non-negative"):
            critical_constants(d, SQRT2_2)

    def test_d0_is_the_recursion_base(self):
        # the restricted ensemble of the n_pm_0 boundary reads it
        const = critical_constants(0, SQRT2_2)
        assert const.m == [0] and const.gammas[0].pair() == (0, 0)

    def test_lc_formula(self):
        const = critical_constants(3, MagneticField("0.5"))
        assert const.l_c[3] == 8

    def test_d2_sqrt22(self):
        const = critical_constants(2, SQRT2_2)
        assert const.l_c[2] == 2
        assert const.gammas[2].pair() == (12, 7)
        assert const.m[2] == 7
        # kappa_2 = (Gamma_1 + Gamma_2)/3, L_2 = (Gamma_2 - kappa_2)/2
        g1, g2 = const.gammas[1].value, const.gammas[2].value
        assert const.kappas[2] == pytest.approx((g1 + g2) / 3)
        assert const.Ls[2] == pytest.approx((g2 - const.kappas[2]) / 2)

    def test_rational_ties_reported(self):
        const = critical_constants(2, MagneticField("0.05"))
        assert len(const.argmax_ties[2]) >= 2
        assert const.m[2] == min(const.argmax_ties[2])

    def test_exact_fractions_for_rational(self):
        const = critical_constants(2, MagneticField("0.1"))
        assert isinstance(const.kappas[2], Fraction)

    @pytest.mark.parametrize("token", ["sqrt2/2", "sqrt3/2", "3/4", "2/3",
                                       "0.9"])
    def test_barrier_matches_min_perimeter(self, token):
        # Gamma_n is the largest energy of a minimal-perimeter polyomino
        # (perimeter 2 in d = 1) over the volumes the brute-force table
        # covers, whenever m_n lies among them; 2/3 has tied volumes
        field = MagneticField(token)
        const = critical_constants(2, field)
        cap = DEFAULT_CAPS[2]
        for n in (1, 2):
            assert const.m[n] <= cap
            best = max(EnergyValue(2 if n == 1 else min_perimeter(2, v), v,
                                   field) for v in range(1, cap + 1))
            assert best == const.gammas[n], (n, best.pair(),
                                             const.gammas[n].pair())

    def test_continuity_scan(self):
        scan = gamma_continuity_scan(1, ["0.4", "0.5", "0.6"])
        values = [row[1] for row in scan["rows"]]
        assert values == pytest.approx([1.6, 1.5, 1.4])
        scan2 = gamma_continuity_scan(2, ["0.49", "0.5", "0.51"])
        assert scan2["max_jump"] < 0.5


class TestRestrictedEnsemble:
    def setup_method(self):
        self.const = critical_constants(2, SQRT2_2)
        self.ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(2),
                                 SQRT2_2)
        self.ens = restricted_ensemble(self.ctx, 2, self.const)

    def test_all_minus_is_member(self):
        assert self.ens.contains(Configuration.all_minus(self.ctx.geometry))

    def test_single_plus_is_member(self):
        cfg = Configuration.from_plus_sites(self.ctx.geometry, [(1, 1)])
        assert self.ens.contains(cfg)

    def test_volume_cap_is_hard(self):
        # eight pluses exceed m_2 = 7 regardless of energy
        cfg = Configuration.from_plus_sites(
            self.ctx.geometry, [(i, j) for i in range(3) for j in range(3)][:8])
        assert not self.ens.contains(cfg)

    def test_members_match_direct_filter(self):
        g = enumerate_landscape(self.ctx)
        direct = {s for s in g.states()
                  if g.energy_pair(s).pluses <= self.const.m[2]
                  and g.energy_pair(s) <= self.const.gammas[2]}
        assert set(self.ens.members()) == direct

    def test_exit_energy_is_gamma(self):
        g = enumerate_landscape(self.ctx)
        members = self.ens.members()
        rest = set(g.states()) - set(members)
        e = communication_energy(g, [0], rest)
        assert e.pair() == self.const.gammas[2].pair()

    def test_is_single_compound_1d(self):
        # volume <= m_1 = 1 and energy <= Gamma_1: all-minus plus the single
        # pluses, a single compound with exit energy (2, 1)
        const = critical_constants(1, SQRT2_2)
        ctx = build_context(BoxGeometry((5,)), BoundaryCondition.n_pm(1), SQRT2_2)
        ens = restricted_ensemble(ctx, 1, const)
        g = enumerate_landscape(ctx)
        part = maximal_compounds(g, ens.members())
        assert len(part.blocks) == 1
        assert part.blocks[0].exit_energy.pair() == (2, 1)

    def test_compound_structure_2d(self):
        # at this field strength (l_c = 2) the definition set carries two
        # barrier-level staircase rings that no single flip keeps inside the
        # ensemble; the rest is one compound with exit energy Gamma_2
        g = enumerate_landscape(self.ctx)
        members = self.ens.members()
        part = maximal_compounds(g, members)
        main = part.block_of(0)
        assert main.exit_energy.pair() == self.const.gammas[2].pair()
        others = [b for b in part.blocks if b is not main]
        assert all(b.is_singleton() for b in others)
        assert len(others) == 2
        for b in others:
            assert g.energy_pair(next(iter(b.states))).pair() == \
                self.const.gammas[2].pair()

    def test_weights_normalized(self):
        w = self.ens.weights(beta=2.0)
        assert sum(w.values()) == pytest.approx(1.0)
        assert w[0] == max(w.values())


class TestDomainHypothesis:
    def test_restricted_ensemble_passes(self):
        const = critical_constants(2, SQRT2_2)
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(2), SQRT2_2)
        ens = restricted_ensemble(ctx, 2, const)
        g = enumerate_landscape(ctx)
        report = domain_hypothesis_check(g, ens.members(), const.m[2])
        assert report.passed

    def test_volume_violation(self):
        g = make_graph([2, 2])
        report = domain_hypothesis_check(g, [0b1111], 2)
        assert not report.passed
        assert report.failures[0][0] == "volume"

    def test_closure_violation(self):
        g = make_graph([3])
        # {full} without the smaller subsets of lower or equal energy
        report = domain_hypothesis_check(g, [0b011], 3)
        assert not report.passed
        assert any(kind == "downward_closure" for kind, _, _ in report.failures)

    def test_minimal_domain_passes(self):
        g = make_graph([3])
        assert domain_hypothesis_check(g, [0], 0).passed


class TestTruncation:
    def test_truncated_connected_low_energy(self):
        g = make_graph([2, 2])
        t = truncate_landscape(g, 10)
        assert isinstance(t, LandscapeGraph)
        assert t.n_states <= 10
        assert 0 in t.states()
        for s in t.states():
            assert any(n in set(t.states()) for n in t.neighbors(s)) or t.n_states == 1

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "3", None])
    def test_k_must_be_an_integer_of_one_or_more(self, k):
        with pytest.raises(ValueError, match=re.escape(
                f"k must be an integer >= 1, got {k!r}")):
            truncate_landscape(make_graph([2, 2]), k)

    def test_k_of_any_integer_type(self):
        g = make_graph([2, 2])
        assert truncate_landscape(g, np.int64(3)).states() == \
            truncate_landscape(g, 3).states()


class TestTieAudit:
    def test_rational_field_reports_certificates(self):
        # at h = 1/2 distinct pairs can share a value: exits (12,7) and
        # (10,3) both evaluate to 8.5 and the merge is certified
        h = MagneticField("0.5")
        ctx = build_context(BoxGeometry((2, 4)), BoundaryCondition.all_minus(), h)
        g = enumerate_landscape(ctx)
        y = frozenset(g.states()) - {(1 << 8) - 1}
        part = maximal_compounds(g, y)
        assert part.tie_events
        for s_a, s_b, pair_a, pair_b in part.tie_events:
            assert pair_a != pair_b
            assert h.exact_value(*pair_a) == h.exact_value(*pair_b)
            assert part.block_of(s_a) is part.block_of(s_b)
        seen = set()
        for blk in part.blocks:
            assert not (blk.states & seen)
            seen |= blk.states
        assert seen == y

    def test_irrational_field_never_ties(self):
        for dims in ((2, 4), (3, 3)):
            ctx = build_context(BoxGeometry(dims), BoundaryCondition.all_minus(),
                                SQRT2_2)
            g = enumerate_landscape(ctx)
            y = frozenset(g.states()) - {(1 << ctx.n_sites) - 1}
            assert maximal_compounds(g, y).tie_events == []


class TestDomainBulletTwo:
    def test_nonpositive_component_energy_fails(self):
        # all-plus on a 1D 4-site box has component value 2 - 4h < 0
        g = make_graph([4])
        report = domain_hypothesis_check(g, [0b1111], 4)
        assert not report.passed
        assert any(kind == "component_energy" for kind, _, _ in report.failures)


def _brute_maximal_blocks(graph, y_set, strict):
    """All maximal cycles (strict) or compounds (non-strict) by trying every
    subset of Y: the independent oracle for the partition algorithms."""
    from landscape_oracle import _block_stats, _is_connected
    states = sorted(y_set)
    n = len(states)
    valid = []
    for mask in range(1, 1 << n):
        subset = frozenset(states[i] for i in range(n) if (mask >> i) & 1)
        if not _is_connected(graph, subset):
            continue
        stats = _block_stats(graph, subset)
        if stats.exit_energy is None:
            valid.append(subset)
            continue
        if strict:
            ok = stats.height < stats.exit_energy
        else:
            ok = stats.height <= stats.exit_energy
        if ok:
            valid.append(subset)
    maximal = [s for s in valid
               if not any(s < other for other in valid)]
    return set(maximal)


class TestPartitionAgainstBruteForce:
    def test_cycles_and_compounds_match_exhaustive_search(self):
        import random as _random
        rng = _random.Random(61)
        h_list = [SQRT2_2, MagneticField("0.5")]
        g = make_graph([3])
        for h in h_list:
            graph = make_graph([3], h=h)
            cases = [frozenset(graph.states()) - {0b111},
                     frozenset(graph.states()) - {0, 0b111}]
            for _ in range(4):
                y = frozenset(s for s in graph.states() if rng.random() < 0.7)
                if y:
                    cases.append(y)
            for y in cases:
                brute_cycles = _brute_maximal_blocks(graph, y, strict=True)
                got_cycles = {b.states for b in maximal_cycles(graph, y).blocks}
                assert got_cycles == brute_cycles, (h.token, sorted(y))
                brute_comp = _brute_maximal_blocks(graph, y, strict=False)
                got_comp = {b.states
                            for b in maximal_compounds(graph, y).blocks}
                assert got_comp == brute_comp, (h.token, sorted(y))

    def test_2x2_truncation_matches_exhaustive_search(self):
        full = make_graph([2, 2])
        g = truncate_landscape(full, 10)
        states = frozenset(g.states())
        bottom = min(bottom_of(g, states))
        for y in (states - {bottom},):
            brute = _brute_maximal_blocks(g, y, strict=False)
            got = {b.states for b in maximal_compounds(g, y).blocks}
            assert got == brute
