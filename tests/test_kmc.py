import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmc_oracle
from box_strategy import boxes
from isingkit import kmc
from isingkit.energy import MagneticField
from isingkit.kmc import (EventStream, HittingResult, Trajectory,
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
        t1, u1 = kmc_oracle.site_events(s1, (3, 1), 1, 50.0)
        t2, u2 = kmc_oracle.site_events(s2, (3, 1), 1, 50.0)
        assert np.array_equal(t1, t2) and np.array_equal(u1, u2)

    def test_lazy_extension_consistent(self):
        s1, s2 = EventStream(7), EventStream(7)
        kmc_oracle.site_events(s1, (0,), -1, 5.0)
        t1, _ = kmc_oracle.site_events(s1, (0,), -1, 80.0)
        t2, _ = kmc_oracle.site_events(s2, (0,), -1, 80.0)
        assert np.array_equal(t1, t2)

    def test_families_independent(self):
        s = EventStream(1)
        tm, _ = kmc_oracle.site_events(s, (0, 0), -1, 30.0)
        tp, _ = kmc_oracle.site_events(s, (0, 0), 1, 30.0)
        assert not np.array_equal(tm[:5], tp[:5])

    def test_unit_rate(self):
        s = EventStream(3)
        t, _ = kmc_oracle.site_events(s, (9,), 1, 2000.0)
        assert len(t) == pytest.approx(2000, rel=0.1)

    def test_shared_across_sub_boxes(self):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            HALF)
        sub = ctx.sub_context((1, 1), (3, 3))
        s = EventStream(11)
        t_full, _ = kmc_oracle.site_events(
            s, ctx.global_coord(ctx.geometry.index((2, 2))), 1, 10.0)
        t_sub, _ = kmc_oracle.site_events(
            s, sub.global_coord(sub.geometry.index((1, 1))), 1, 10.0)
        assert np.array_equal(t_full, t_sub)


class TestGraphical:
    def test_zero_arrival_window(self):
        ctx = ctx_1d(3)
        stream = EventStream(5)
        traj = evolve_graphical(stream, ctx, Configuration.all_minus(ctx.geometry),
                                beta=2.0, horizon=1e-6)
        assert traj.events == []
        assert traj.stop_reason == "time_cap"

    def test_downhill_always_flips(self):
        # all-plus boundary makes every up-flip downhill: at huge beta the
        # first plus-family arrival per site flips it, nothing flips back
        ctx = build_context(BoxGeometry((2,)), BoundaryCondition.all_plus(), HALF)
        stream = EventStream(9)
        alpha = Configuration.all_minus(ctx.geometry)
        traj = evolve_graphical(stream, ctx, alpha, beta=50.0, horizon=5.0)
        assert all(spin == 1 for _, _, spin in traj.events)
        first_up = min(kmc_oracle.site_events(stream, (i,), 1, 5.0)[0][0]
                       for i in range(2))
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
            assert lo <= hi
            stream = EventStream(100 + trial)
            violations = []

            def check(t, arrays):
                if not np.all(arrays[0] <= arrays[1]):
                    violations.append(t)

            coupled_evolve(stream, [ctx_lo, ctx_hi], [lo, hi], beta=2.0,
                           horizon=3.0, check_order=check)
            assert violations == []

    def test_matches_per_arrival_oracle(self):
        # every scenario through evolve_graphical against the per-arrival
        # loop that stepped all scenarios together: trajectories and the
        # check_order calls agree exactly; horizon 12 spans two windows
        rng = random.Random(8)
        geom = BoxGeometry((4, 4))
        fields = sorted([HALF, SQRT2_2], key=lambda f: f.approx)
        flip_times = 0
        for trial in range(200):
            base = [s for s in range(16) if rng.random() < 0.4]
            extra = [s for s in range(16) if rng.random() < 0.3]
            lo = Configuration.from_plus_sites(geom, base)
            hi = Configuration.from_plus_sites(geom, set(base) | set(extra))
            n_hi = rng.choice([0, 1, 2])
            n_lo = rng.choice([n for n in (0, 1, 2) if n >= n_hi])
            h_lo = rng.choice(fields)
            h_hi = rng.choice([f for f in fields if f.approx >= h_lo.approx])
            contexts = [build_context(geom, BoundaryCondition.n_pm(n_lo), h_lo),
                        build_context(geom, BoundaryCondition.n_pm(n_hi), h_hi)]
            seed = rng.randrange(1 << 30)
            beta = rng.choice([1.0, 2.0, 4.0])
            horizon = rng.choice([2.0, 3.0, 12.0])
            runs = []
            for evolve in (coupled_evolve, kmc_oracle.coupled_evolve):
                calls = []
                trajs = evolve(EventStream(seed), contexts, [lo, hi],
                               beta=beta, horizon=horizon,
                               check_order=lambda t, arrays: calls.append(
                                   (t, [a.tolist() for a in arrays])))
                runs.append(([(tr.events, tr.ticks_read, tr.ticks_rejected,
                               tr.t_end, tr.stop_reason) for tr in trajs],
                              calls))
            assert runs[0] == runs[1]
            flip_times += len(runs[0][1])
        assert flip_times > 1000

    def test_scenarios_share_origin(self):
        geom = BoxGeometry((2, 2))
        ctx = build_context(geom, BoundaryCondition.all_minus(), HALF)
        moved = build_context(geom, BoundaryCondition.all_minus(), HALF,
                              origin=(2, 0))
        a = Configuration.all_minus(geom)
        with pytest.raises(ValueError, match="origin"):
            coupled_evolve(EventStream(1), [ctx, moved], [a, a], beta=1.0,
                           horizon=1.0)


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

    def test_memoised_exit_predicate(self):
        # one predicate object over many states, each asked twice, answers
        # as the direct membership check does; a 2x3 block (inside) and a
        # 1x4 line (outside) share their bond count
        rng = random.Random(5)
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            SQRT2_2)
        ens = restricted_ensemble(ctx, 2, critical_constants(2, SQRT2_2))
        exits = pred_exits_set(ens)
        configs = [Configuration.from_plus_sites(ctx.geometry, sites)
                   for sites in ([(x, y) for x in range(3) for y in range(2)],
                                 [(x, 0) for x in range(4)])]
        configs += [Configuration(ctx.geometry, [rng.choice((-1, 1)) if
                                                 rng.random() < 0.4 else -1
                                                 for _ in range(16)])
                    for _ in range(300)]
        answers = set()
        for cfg in configs:
            e = hamiltonian(ctx, cfg)
            want = not ens.contains_pair(e.bonds, e.pluses)
            for _ in range(2):
                assert exits(kmc._SimState(ctx, cfg)) == want
            answers.add(want)
        assert answers == {False, True}

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
        assert res.time == one_shot.hitting_time
        assert res.trajectory.events == one_shot.events


# the stop reasons each sampler may write
GRAPHICAL_STOPS = {"stopped", "time_cap", "event_cap", "tick_cap"}
REJECTION_FREE_STOPS = {"stopped", "time_cap", "event_cap", "underflow"}


class TestStopVocabulary:
    @settings(max_examples=150, deadline=None)
    @given(case=boxes(fields=("0.5", "sqrt2/2")),
           mode=st.sampled_from(["graphical", "rejection_free"]),
           beta=st.sampled_from([0.5, 1.5, 1000.0]),
           stop=st.booleans(),
           time_cap=st.sampled_from([None, 0.5, 3.0, 20.0]),
           max_events=st.integers(1, 40),
           max_ticks=st.none() | st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_each_sampler_names_its_own_stops(self, case, mode, beta, stop,
                                              time_cap, max_events, max_ticks,
                                              seed):
        # hitting_time passes the sampler's stop reason through unchanged
        ctx, alpha = case
        if mode == "rejection_free":
            max_ticks = None
        elif time_cap is None and max_ticks is None:
            # a run whose every tick is rejected needs a tick cap to end
            max_ticks = 3000
        res = hitting_time(mode, ctx, alpha, beta,
                           pred_all_plus() if stop else None, seed,
                           time_cap=time_cap, max_events=max_events,
                           max_ticks=max_ticks)
        reason = res.trajectory.stop_reason
        assert reason in (GRAPHICAL_STOPS if mode == "graphical"
                          else REJECTION_FREE_STOPS)
        assert res.censored == (reason != "stopped")
        if reason == "time_cap":
            assert res.time == res.trajectory.t_end == time_cap
        if mode == "graphical":
            sampled = evolve_graphical(EventStream(seed), ctx, alpha, beta,
                                       stop=pred_all_plus() if stop else None,
                                       horizon=time_cap,
                                       max_events=max_events,
                                       max_ticks=max_ticks)
        else:
            sampled = evolve_rejection_free(
                seed, ctx, alpha, beta,
                stop=pred_all_plus() if stop else None, time_cap=time_cap,
                max_events=max_events)
        assert (sampled.events, sampled.t_end, sampled.stop_reason) == \
            (res.trajectory.events, res.trajectory.t_end, reason)


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


class _BlockDraws:
    """Generator stub for the block draws: holding uniform 0.5 and a fixed
    class uniform at every event."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        out = np.full(size, 0.5)
        out[1::2] = self.u
        return out


class _NoAllMinus:
    """Membership stub: every configuration but all-minus belongs."""

    def contains_pair(self, bonds, pluses):
        return pluses != 0


class TestRejectionFreeSiteSelection:
    # box of 3 sites, all-minus boundary; the oracle case has one plus site
    # that may not flip (that would reach all-minus)

    @pytest.mark.parametrize("plus_site, u, want", [
        # r == 0.0 with site 0 at zero rate: the first positive-rate site
        (0, 0.0, 1),
        # r past the last cumulative sum by rounding, site n-1 at zero
        # rate: the last positive-rate site
        (2, float(np.nextafter(1.0, 2.0)), 1)])
    def test_zero_rate_site_never_picked(self, monkeypatch, plus_site, u,
                                         want):
        # the cumulative-sum sampler, kept as the oracle
        ctx = ctx_1d(3)
        alpha = Configuration.from_plus_sites(ctx.geometry, [plus_site])
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: _EdgeDraws(u))
        traj = kmc_oracle.evolve_rejection_free(
            0, ctx, alpha, beta=1.0, max_events=1, restrict=_NoAllMinus())
        assert traj.events[0][1] == want

    @pytest.mark.parametrize("spins, u, want", [
        # r == 0.0 with the minus class of neighbour sum -2 (site 0) at rate
        # 0.0: the first member of the first positive class, the minus class
        # of neighbour sum 0 (site 1)
        ("--+", 0.0, 1),
        # r past the total by rounding, with the plus class of neighbour sum
        # 2 (site 1) at rate 0.0: the last member of the last positive
        # class, the plus class of neighbour sum 0 (sites 0 and 2)
        ("+++", float(np.nextafter(1.0, 2.0)), 2)])
    def test_zero_rate_class_never_picked(self, monkeypatch, spins, u, want):
        # at beta = 1000 the rates exp(-1500) and exp(-2500) underflow to
        # 0.0, while exp(-500) does not
        ctx = ctx_1d(3)
        alpha = Configuration.from_text(ctx.geometry, spins)
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: _BlockDraws(u))
        traj = evolve_rejection_free(0, ctx, alpha, beta=1000.0, max_events=1)
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
