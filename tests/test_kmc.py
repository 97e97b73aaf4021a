import math
import random

import numpy as np
import pytest

from isingkit.energy import MagneticField
from isingkit.kmc import (EventStream, HittingResult, Scenario, Trajectory,
                          coupled_evolve, evolve_graphical,
                          evolve_rejection_free, evolve_restricted,
                          hitting_time, pred_all_plus, pred_energy_exceeds,
                          pred_exits_set, pred_spin_up_at,
                          pred_volume_exceeds)
from isingkit.landscape import critical_constants, restricted_ensemble
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, delta_h, hamiltonian)

HALF = MagneticField("0.5")
SQRT2_2 = MagneticField("sqrt2/2")


def ctx_1d(n, h=HALF):
    return build_context(BoxGeometry((n,)), BoundaryCondition.all_minus(), h)


class TestEventStream:
    def test_reproducible(self):
        s1, s2 = EventStream(42), EventStream(42)
        t1, u1 = s1.site_events((3, 1), 1, 50.0)
        t2, u2 = s2.site_events((3, 1), 1, 50.0)
        assert np.array_equal(t1, t2) and np.array_equal(u1, u2)

    def test_lazy_extension_consistent(self):
        s1, s2 = EventStream(7), EventStream(7)
        s1.site_events((0,), -1, 5.0)
        t1, _ = s1.site_events((0,), -1, 80.0)
        t2, _ = s2.site_events((0,), -1, 80.0)
        assert np.array_equal(t1, t2)

    def test_families_independent(self):
        s = EventStream(1)
        tm, _ = s.site_events((0, 0), -1, 30.0)
        tp, _ = s.site_events((0, 0), 1, 30.0)
        assert not np.array_equal(tm[:5], tp[:5])

    def test_unit_rate(self):
        s = EventStream(3)
        t, _ = s.site_events((9,), 1, 2000.0)
        assert len(t) == pytest.approx(2000, rel=0.1)

    def test_shared_across_sub_boxes(self):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            HALF)
        sub = ctx.sub_context((1, 1), (3, 3))
        s = EventStream(11)
        t_full, _ = s.site_events(ctx.global_coord(ctx.geometry.index((2, 2))),
                                  1, 10.0)
        t_sub, _ = s.site_events(sub.global_coord(sub.geometry.index((1, 1))),
                                 1, 10.0)
        assert np.array_equal(t_full, t_sub)


class TestGraphical:
    def test_zero_arrival_window(self):
        ctx = ctx_1d(3)
        stream = EventStream(5)
        traj = evolve_graphical(stream, ctx, Configuration.all_minus(ctx.geometry),
                                beta=2.0, horizon=1e-6)
        assert traj.events == []
        assert traj.stop_reason == "horizon"

    def test_downhill_always_flips(self):
        # all-plus boundary makes every up-flip downhill: at huge beta the
        # first plus-family arrival per site flips it, nothing flips back
        ctx = build_context(BoxGeometry((2,)), BoundaryCondition.all_plus(), HALF)
        stream = EventStream(9)
        alpha = Configuration.all_minus(ctx.geometry)
        traj = evolve_graphical(stream, ctx, alpha, beta=50.0, horizon=5.0)
        assert all(spin == 1 for _, _, spin in traj.events)
        first_up = min(stream.site_events((i,), 1, 5.0)[0][0] for i in range(2))
        assert traj.events[0][0] == pytest.approx(first_up)

    def test_determinism(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        a = Configuration.all_minus(ctx.geometry)
        t1 = evolve_graphical(EventStream(13), ctx, a, beta=1.0, horizon=6.0)
        t2 = evolve_graphical(EventStream(13), ctx, a, beta=1.0, horizon=6.0)
        assert t1.events == t2.events

    def test_rate_correctness_against_slow_replay(self):
        # replay the same stream with full Hamiltonian recomputation per event
        ctx = build_context(BoxGeometry((2, 3)), BoundaryCondition.n_pm(1),
                            SQRT2_2)
        beta = 1.5
        stream = EventStream(21)
        alpha = Configuration.all_minus(ctx.geometry)
        traj = evolve_graphical(stream, ctx, alpha, beta=beta, horizon=8.0)
        times, sites, fams, unis = stream.window(ctx, 0.0, 8.0)
        cfg = alpha.copy()
        slow_events = []
        for t, site, eps, u in zip(times, sites, fams, unis):
            site = int(site)
            if cfg.spins[site] != -int(eps):
                continue
            d = delta_h(ctx, cfg, site)
            rate = 1.0 if d.compare_zero() <= 0 else math.exp(-beta * d.value)
            if u < rate:
                cfg.spins[site] *= -1
                slow_events.append((float(t), site, int(cfg.spins[site])))
        assert traj.events == slow_events

    def test_rate_tables_match_flip_rate_exactly(self):
        # the tabulated rates agree with the per-site Metropolis rate to
        # floating-point identity for every neighbor sum
        from isingkit.kmc import _rate_tables
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.n_pm(1),
                            SQRT2_2)
        beta = 2.0
        up, down = _rate_tables(ctx, beta)
        d2 = 4
        from isingkit.lattice import flip_rate
        import itertools
        for spins in itertools.product((-1, 1), repeat=9):
            cfg = Configuration(ctx.geometry, list(spins))
            for site in range(9):
                s = ctx.neighbor_spin_sum(cfg, site)
                table = up[s + d2] if cfg.spins[site] == -1 else down[s + d2]
                assert table == flip_rate(ctx, cfg, site, beta)

    def test_mean_first_flip_matches_exact(self):
        # exact mean of the first flip from all-minus via the linear oracle
        from isingkit.landscape import enumerate_landscape
        from isingkit.wgraph import exit_oracle_linear, rate_matrix_from_landscape
        ctx = ctx_1d(2)
        beta = 3.0
        g = enumerate_landscape(ctx)
        rm = rate_matrix_from_landscape(g, beta)
        _, exact = exit_oracle_linear(rm, [s for s in g.states() if s != 0], 0)
        assert exact == pytest.approx(math.exp(beta * 1.5) / 2.0)
        times = []
        for rep in range(1200):
            res = hitting_time("graphical", ctx,
                               Configuration.all_minus(ctx.geometry), beta,
                               pred_volume_exceeds(0), seed=5000 + rep)
            assert not res.censored
            times.append(res.time)
        mean = np.mean(times)
        se = np.std(times) / math.sqrt(len(times))
        assert abs(mean - exact) <= 3 * se


class TestRejectionFree:
    def test_determinism(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        a = Configuration.all_minus(ctx.geometry)
        t1 = evolve_rejection_free(7, ctx, a, beta=2.0, max_events=200)
        t2 = evolve_rejection_free(7, ctx, a, beta=2.0, max_events=200)
        assert t1.events == t2.events

    def test_holding_time_single_site(self):
        # single site with all-minus boundary: up-flip rate exp(-beta(2d-h))
        ctx = ctx_1d(1)
        beta = 2.0
        rate = math.exp(-beta * (2 - 0.5))
        holds = []
        for rep in range(1500):
            traj = evolve_rejection_free(rep, ctx,
                                         Configuration.all_minus(ctx.geometry),
                                         beta, max_events=1)
            holds.append(traj.events[0][0])
        mean = np.mean(holds)
        se = np.std(holds) / math.sqrt(len(holds))
        assert abs(mean - 1.0 / rate) <= 3 * se

    def test_first_move_distribution_from_all_plus(self):
        # jump chain leaves all-plus through a corner with probability
        # proportional to the exact rates
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            HALF)
        beta = 2.0
        alpha = Configuration.all_plus(ctx.geometry)
        rates = {}
        for site in range(9):
            d = delta_h(ctx, alpha, site)
            cost = max(0.0, d.value)
            rates[site] = math.exp(-beta * cost)
        total = sum(rates.values())
        counts = {site: 0 for site in range(9)}
        n = 4000
        for rep in range(n):
            traj = evolve_rejection_free(rep, ctx, alpha, beta, max_events=1)
            counts[traj.events[0][1]] += 1
        for site in range(9):
            p = rates[site] / total
            assert counts[site] / n == pytest.approx(p, abs=4 * math.sqrt(p / n) + 0.005)

    def test_mode_equivalence_small(self):
        # hitting all-plus on the 1D 3-site box: the two samplers agree in mean
        ctx = ctx_1d(3)
        beta = 3.0
        t_g, t_r = [], []
        for rep in range(400):
            rg = hitting_time("graphical", ctx,
                              Configuration.all_minus(ctx.geometry), beta,
                              pred_all_plus(), seed=rep)
            rr = hitting_time("rejection_free", ctx,
                              Configuration.all_minus(ctx.geometry), beta,
                              pred_all_plus(), seed=rep)
            t_g.append(rg.time)
            t_r.append(rr.time)
        se = math.sqrt(np.var(t_g) / len(t_g) + np.var(t_r) / len(t_r))
        assert abs(np.mean(t_g) - np.mean(t_r)) <= 3 * se


class TestCoupling:
    def test_identical_scenarios_identical_trajectories(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            HALF)
        a = Configuration.all_minus(ctx.geometry)
        stream = EventStream(3)
        t1, t2 = coupled_evolve(stream, [ctx, ctx], [a, a], beta=1.0, horizon=4.0)
        assert t1.events == t2.events

    def test_extremal_domination(self):
        ctx = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                            HALF)
        lo = Configuration.all_minus(ctx.geometry)
        hi = Configuration.all_plus(ctx.geometry)
        stream = EventStream(17)
        violations = []

        def check(t, spin_arrays):
            if not np.all(spin_arrays[0] <= spin_arrays[1]):
                violations.append(t)

        coupled_evolve(stream, [ctx, ctx], [lo, hi], beta=1.0, horizon=6.0,
                       check_order=check)
        assert violations == []

    def test_random_comparable_pairs(self):
        rng = random.Random(23)
        geom = BoxGeometry((4, 4))
        for trial in range(20):
            mask = [s for s in range(16) if rng.random() < 0.5]
            extra = [s for s in range(16) if rng.random() < 0.3]
            lo = Configuration.from_plus_sites(geom, mask)
            hi = Configuration.from_plus_sites(geom, set(mask) | set(extra))
            bc_lo = BoundaryCondition.n_pm(2)
            bc_hi = rng.choice([BoundaryCondition.n_pm(1),
                                BoundaryCondition.n_pm(2)])
            h_lo, h_hi = sorted([HALF, SQRT2_2], key=lambda f: f.approx)
            ctx_lo = build_context(geom, bc_lo, h_lo)
            ctx_hi = build_context(geom, bc_hi, h_hi)
            assert Scenario(hi, bc_hi, h_hi).dominates(Scenario(lo, bc_lo, h_lo))
            stream = EventStream(100 + trial)
            violations = []

            def check(t, arrays):
                if not np.all(arrays[0] <= arrays[1]):
                    violations.append(t)

            coupled_evolve(stream, [ctx_lo, ctx_hi], [lo, hi], beta=2.0,
                           horizon=3.0, check_order=check)
            assert violations == []


class TestRestricted:
    def setup_method(self):
        self.h = SQRT2_2
        self.const = critical_constants(1, self.h)
        self.ctx = build_context(BoxGeometry((2,)), BoundaryCondition.n_pm(1),
                                 self.h)
        self.ens = restricted_ensemble(self.ctx, 1, self.const)

    def test_rejects_outside_start(self):
        with pytest.raises(ValueError):
            evolve_restricted(EventStream(1), self.ctx,
                              Configuration.all_plus(self.ctx.geometry),
                              2.0, self.ens)

    def test_never_leaves(self):
        traj = evolve_restricted(EventStream(2), self.ctx,
                                 Configuration.all_minus(self.ctx.geometry),
                                 beta=0.5, ensemble=self.ens, horizon=200.0)
        for _, _, _, cfg in traj.replay():
            assert self.ens.contains(cfg)

    def test_shared_stream_identity_until_exit(self):
        stream1 = EventStream(33)
        stream2 = EventStream(33)
        beta = 1.0
        alpha = Configuration.all_minus(self.ctx.geometry)
        free = evolve_graphical(stream1, self.ctx, alpha, beta, horizon=300.0,
                                stop=pred_exits_set(self.ens))
        restr = evolve_restricted(stream2, self.ctx, alpha, beta,
                                  ensemble=self.ens, horizon=300.0)
        assert free.stop_reason == "stopped"
        exit_time = free.hitting_time
        free_before = [e for e in free.events if e[0] < exit_time]
        restr_before = [e for e in restr.events if e[0] < exit_time]
        assert free_before == restr_before

    def test_occupation_matches_gibbs(self):
        beta = 2.0
        traj = evolve_restricted(EventStream(8), self.ctx,
                                 Configuration.all_minus(self.ctx.geometry),
                                 beta=beta, ensemble=self.ens, horizon=6000.0)
        weights = self.ens.weights(beta)
        occupancy = {s: 0.0 for s in weights}
        prev_t, prev_state = 0.0, 0
        for t, site, spin, cfg in traj.replay():
            occupancy[prev_state] += t - prev_t
            prev_t, prev_state = t, cfg.as_bitmask()
        occupancy[prev_state] += traj.t_end - prev_t
        total = sum(occupancy.values())
        for s, w in weights.items():
            assert occupancy[s] / total == pytest.approx(w, abs=0.03)


class TestHittingTime:
    def test_immediate(self):
        ctx = ctx_1d(3)
        res = hitting_time("rejection_free", ctx,
                           Configuration.all_plus(ctx.geometry), 2.0,
                           pred_all_plus(), seed=1)
        assert res.time == 0.0 and not res.censored

    def test_censoring_flag(self):
        ctx = ctx_1d(3)
        res = hitting_time("rejection_free", ctx,
                           Configuration.all_minus(ctx.geometry), 12.0,
                           pred_all_plus(), seed=1, time_cap=0.5)
        assert res.censored and res.time == 0.5

    def test_energy_and_spin_predicates(self):
        ctx = ctx_1d(4)
        level = hamiltonian(ctx, Configuration.all_minus(ctx.geometry))
        res = hitting_time("rejection_free", ctx,
                           Configuration.all_minus(ctx.geometry), 1.0,
                           pred_energy_exceeds(level), seed=3)
        assert res.time > 0 and not res.censored
        res2 = hitting_time("graphical", ctx,
                            Configuration.all_minus(ctx.geometry), 1.0,
                            pred_spin_up_at(2), seed=3)
        assert not res2.censored

    def test_graphical_continuation_consistency(self):
        # hitting times beyond the first window agree with a one-shot run
        ctx = ctx_1d(3)
        beta = 2.5
        res = hitting_time("graphical", ctx,
                           Configuration.all_minus(ctx.geometry), beta,
                           pred_all_plus(), seed=77)
        stream = EventStream(77)
        one_shot = evolve_graphical(stream, ctx,
                                    Configuration.all_minus(ctx.geometry),
                                    beta, stop=pred_all_plus(), horizon=1e5)
        assert res.time == pytest.approx(one_shot.hitting_time)


class _FrozenEnsemble:
    """Membership stub: only the all-minus configuration belongs."""

    def contains_pair(self, bonds, pluses):
        return pluses == 0

    def contains(self, config):
        return config.plus_count() == 0


class _EdgeDraws:
    """Generator stub: unit holding draws and a fixed site draw."""

    def __init__(self, u):
        self.u = u

    def exponential(self):
        return 1.0

    def random(self):
        return self.u


class _NoAllMinus:
    """Membership stub: every configuration but all-minus belongs."""

    def contains_pair(self, bonds, pluses):
        return pluses != 0


class TestRejectionFreeSiteSelection:
    @pytest.mark.parametrize("plus_site, u, want", [
        # r == 0.0 with site 0 at zero rate: the first positive-rate site
        (0, 0.0, 1),
        # r past the last cumulative sum by rounding, site n-1 at zero
        # rate: the last positive-rate site
        (2, float(np.nextafter(1.0, 2.0)), 1)])
    def test_zero_rate_site_never_picked(self, monkeypatch, plus_site, u,
                                         want):
        ctx = ctx_1d(3)
        alpha = Configuration.from_plus_sites(ctx.geometry, [plus_site])
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: _EdgeDraws(u))
        traj = evolve_rejection_free(0, ctx, alpha, beta=1.0, max_events=1,
                                     restrict=_NoAllMinus())
        assert traj.events[0][1] == want


class TestRestrictedFrozen:
    def test_single_member_ensemble_freezes(self):
        ctx = ctx_1d(3)
        traj = evolve_restricted(EventStream(4), ctx,
                                 Configuration.all_minus(ctx.geometry),
                                 beta=0.5, ensemble=_FrozenEnsemble(),
                                 horizon=300.0)
        assert traj.events == []


class TestGraphicalCensoring:
    def test_censored_time_is_the_cap(self):
        ctx = ctx_1d(3)
        res = hitting_time("graphical", ctx,
                           Configuration.all_minus(ctx.geometry), 12.0,
                           pred_all_plus(), seed=2, time_cap=3.0)
        assert res.censored and res.time == 3.0
        res2 = hitting_time("graphical", ctx,
                            Configuration.all_minus(ctx.geometry), 12.0,
                            pred_all_plus(), seed=2, time_cap=100.0)
        assert res2.censored and res2.time == 100.0
