"""Tests of the n-fold-way rejection-free sampler of ``isingkit.kmc``.

The sampler reads its uniforms in blocks of 2 ``kmc._DRAW_BLOCK`` from the
seed's Philox generator; event i takes the pair (u[2i], u[2i+1]) of the
concatenated blocks, a holding time -log1p(-u[2i]) / total and a class draw
u[2i+1] * total.  These tests check:

- seed for seed equality with the n-fold loop that drew one
  ``exponential()`` and one ``random()`` per event (``kmc_oracle.evolve_nfold``),
  driven by a generator stub that turns each pair of the same block sequence
  into those two draws;
- that the block size changes no trajectory;
- that every state handed to a stop predicate carries the exact Hamiltonian
  of its spins;
- the selection law exactly, with a stubbed generator, and the hitting-time
  law against the cumulative-sum sampler kept in ``kmc_oracle``, which maps
  draws to sites in another order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmc_oracle as oracle
from box_strategy import boxes
from isingkit import kmc
from isingkit.energy import MagneticField
from isingkit.kmc import (_rate_tables, evolve_rejection_free, hitting_time,
                          pred_all_plus, pred_volume_exceeds)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context, hamiltonian)


def context(dims, bc="all_minus", h="sqrt2/2"):
    return build_context(BoxGeometry(dims), BoundaryCondition.from_label(bc),
                         MagneticField(h))


class _Draws:
    """Generator stub for the block draws: holding uniform 0.5 and a
    settable class uniform at every event."""

    u = 0.0

    def random(self, size):
        out = np.full(size, 0.5)
        out[1::2] = self.u
        return out


def site_rates(ctx, alpha, beta):
    """Each site's flip rate from the rate tables."""
    up, down = _rate_tables(ctx, beta)
    d2 = 2 * ctx.geometry.dimension
    rates = []
    for i in range(ctx.n_sites):
        s = ctx.neighbor_spin_sum(alpha, i)
        rates.append(float(up[s + d2] if alpha.spins[i] == -1
                           else down[s + d2]))
    return rates


def selection_lengths(pick):
    """Length of the set of u in [0, 1) on which ``pick(u)`` returns each
    site, for a pick that is constant on consecutive intervals; the
    interval ends are found by bisection down to adjacent floats."""
    top = float(np.nextafter(1.0, 0.0))
    lengths = {}
    lo, site = 0.0, pick(0.0)
    while pick(top) != site:
        a, b = lo, top
        while np.nextafter(a, 1.0) < b:
            m = 0.5 * (a + b)
            if pick(m) == site:
                a = m
            else:
                b = m
        lengths[site] = lengths.get(site, 0.0) + (b - lo)
        lo, site = b, pick(b)
    lengths[site] = lengths.get(site, 0.0) + (1.0 - lo)
    return lengths


class TestSelectionLaw:
    @settings(max_examples=25, deadline=None)
    @given(spins=st.lists(st.sampled_from([-1, 1]), min_size=9, max_size=9),
           bc=st.sampled_from(["all_minus", "all_plus"]),
           beta=st.sampled_from([0.5, 1.0, 2.0, 1000.0]))
    def test_each_site_picked_on_its_rate(self, spins, bc, beta):
        # sweeping r = u * total over (0, total) picks each site on a total
        # length equal to its rate; at beta = 1000 some classes' rates
        # underflow to 0.0 (exp(-1293)), others do not (exp(-707))
        ctx = context((3, 3), bc)
        alpha = Configuration(ctx.geometry, spins)
        rates = site_rates(ctx, alpha, beta)
        total = sum(rates)
        draws = _Draws()

        def pick(u):
            draws.u = u
            traj = evolve_rejection_free(0, ctx, alpha, beta, max_events=1)
            if traj.stop_reason == "underflow":
                return None
            return traj.events[0][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "Generator", lambda bit_generator: draws)
            if total == 0.0:
                assert pick(0.5) is None
                return
            lengths = selection_lengths(pick)
        for site, rate in enumerate(rates):
            assert lengths.get(site, 0.0) * total == \
                pytest.approx(rate, rel=1e-9, abs=1e-12)


class TestLawAgainstOracle:
    def test_mean_hitting_time(self):
        # hitting all-plus from all-minus on 2x2: the n-fold way and the
        # cumulative-sum oracle agree in mean
        ctx = context((2, 2))
        alpha = Configuration.all_minus(ctx.geometry)
        beta = 1.0
        t_new, t_old = [], []
        for rep in range(1000):
            new = evolve_rejection_free(rep, ctx, alpha, beta,
                                        stop=pred_all_plus())
            old = oracle.evolve_rejection_free(10_000 + rep, ctx, alpha, beta,
                                               stop=pred_all_plus())
            assert new.stop_reason == old.stop_reason == "stopped"
            t_new.append(new.hitting_time)
            t_old.append(old.hitting_time)
        se = math.sqrt(np.var(t_new) / len(t_new) + np.var(t_old) / len(t_old))
        assert abs(np.mean(t_new) - np.mean(t_old)) <= 3 * se


class TestStopReasons:
    def test_underflow_is_not_frozen(self):
        # one site at beta = 2000: the only rate, exp(-3000), is 0.0
        ctx = context((1,), h="0.5")
        alpha = Configuration.all_minus(ctx.geometry)
        traj = evolve_rejection_free(0, ctx, alpha, 2000.0)
        assert traj.stop_reason == "underflow" and traj.events == []
        res = hitting_time("rejection_free", ctx, alpha, 2000.0,
                           pred_all_plus(), seed=0)
        assert res.censored
        assert res.trajectory.stop_reason == "underflow"


class _PairDraws:
    """Scalar draws over the block sequence: ``exponential()`` reads the next
    pair (u1, u2) and returns -log1p(-u1), ``random()`` returns u2."""

    def __init__(self, gen):
        self.gen = gen
        self.u2 = None

    def exponential(self):
        u1, self.u2 = self.gen.random(2).tolist()
        return -math.log1p(-u1)

    def random(self):
        return self.u2


def stop_rule(kind, m):
    return {"none": lambda: None, "all_plus": pred_all_plus,
            "volume": lambda: pred_volume_exceeds(m)}[kind]()


def assert_matches_oracle(seed, ctx, alpha, beta, stop, time_cap,
                          max_events):
    """Run the library and the per-event-draw oracle on one seed; require
    equal events, stop reason, end time and hitting time."""
    new = evolve_rejection_free(seed, ctx, alpha, beta, stop=stop(),
                                time_cap=time_cap, max_events=max_events)
    generator = np.random.Generator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator",
                   lambda bit_generator: _PairDraws(generator(bit_generator)))
        old = oracle.evolve_nfold(seed, ctx, alpha, beta, stop=stop(),
                                  time_cap=time_cap, max_events=max_events)
    assert new.events == old.events
    assert (new.stop_reason, new.t_end, new.hitting_time) == \
        (old.stop_reason, old.t_end, old.hitting_time)
    return new


class TestBlockDraws:
    @settings(max_examples=150, deadline=None)
    @given(case=boxes(), beta=st.sampled_from([0.3, 1.0, 2.5, 1000.0]),
           seed=st.integers(0, 2 ** 32),
           kind=st.sampled_from(["none", "all_plus", "volume"]),
           m=st.integers(0, 6),
           time_cap=st.sampled_from([None, 0.05, 0.5, 5.0]),
           max_events=st.integers(1, 400))
    def test_equals_per_event_draws(self, case, beta, seed, kind, m,
                                    time_cap, max_events):
        ctx, alpha = case
        assert_matches_oracle(seed, ctx, alpha, beta,
                              lambda: stop_rule(kind, m), time_cap,
                              max_events)

    @pytest.mark.parametrize("dims, spins, beta, kind, time_cap, max_events, "
                             "reason", [
                                 ((2, 2), "----", 1.0, "all_plus", None,
                                  10_000, "stopped"),
                                 ((3, 3, 2), None, 0.3, "none", 3.0, 10_000,
                                  "time_cap"),
                                 ((4, 4), None, 1.0, "none", None, 300,
                                  "event_cap"),
                                 # the plus site falls, then its only
                                 # rate (exp(-1293)) underflows
                                 ((1,), "+", 1000.0, "none", None, 10_000,
                                  "underflow")])
    def test_every_stop_reason(self, dims, spins, beta, kind, time_cap,
                               max_events, reason):
        ctx = context(dims)
        alpha = (Configuration.all_minus(ctx.geometry) if spins is None
                 else Configuration.from_text(ctx.geometry, spins))
        for seed in range(5):
            traj = assert_matches_oracle(seed, ctx, alpha, beta,
                                         lambda: stop_rule(kind, 0),
                                         time_cap, max_events)
            assert traj.stop_reason == reason and traj.events

    @pytest.mark.parametrize("dims, beta", [((4, 4), 1.0), ((3, 3, 3), 0.7)])
    def test_block_size_changes_nothing(self, dims, beta):
        # 9000 events cross block ends at every size, 4096 included
        ctx = context(dims)
        alpha = Configuration.all_minus(ctx.geometry)
        runs = []
        for block in (1, 3, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kmc, "_DRAW_BLOCK", block)
                traj = evolve_rejection_free(11, ctx, alpha, beta,
                                             max_events=9000)
            runs.append((traj.events, traj.t_end, traj.stop_reason))
        assert runs[0][2] == "event_cap"
        assert runs[0] == runs[1] == runs[2]


class TestPredicateState:
    @settings(max_examples=80, deadline=None)
    @given(case=boxes(), beta=st.sampled_from([0.3, 1.0, 2.5, 1000.0]),
           seed=st.integers(0, 2 ** 32))
    def test_predicate_sees_the_hamiltonian(self, case, beta, seed):
        # the sampler keeps bonds, pluses and time in locals; each state it
        # hands the predicate must equal the replayed configuration's
        ctx, alpha = case
        seen = []

        def stop(state):
            seen.append((state.spins.copy(), state.bonds, state.pluses,
                         state.time))
            return False

        traj = evolve_rejection_free(seed, ctx, alpha, beta, stop=stop,
                                     max_events=200)
        assert len(seen) == len(traj.events) + 1
        replayed = [(0.0, alpha.copy())] + [
            (t, cfg.copy()) for t, _, _, cfg in traj.replay()]
        for (spins, bonds, pluses, time), (t, cfg) in zip(seen, replayed):
            assert time == t
            assert np.array_equal(spins, cfg.spins)
            assert (bonds, pluses) == hamiltonian(ctx, cfg).pair()
