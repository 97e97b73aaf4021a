"""Tests of the n-fold-way rejection-free sampler of ``isingkit.kmc``.

The sampler consumes the same draws as the cumulative-sum sampler kept in
``kmc_oracle`` but maps them to sites in class order, so seeded runs differ;
these tests check the selection law exactly, with a stubbed generator, and
the hitting-time law against the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmc_oracle as oracle
from isingkit.energy import MagneticField
from isingkit.kmc import (_rate_tables, evolve_rejection_free, hitting_time,
                          pred_all_plus)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)


def context(dims, bc="all_minus", h="sqrt2/2"):
    return build_context(BoxGeometry(dims), BoundaryCondition.from_label(bc),
                         MagneticField(h))


class _Draws:
    """Generator stub: unit holding draws and a settable site draw."""

    u = 0.0

    def exponential(self):
        return 1.0

    def random(self):
        return self.u


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
