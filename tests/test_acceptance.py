"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import random

import numpy as np
import pytest

from isingkit.energy import MagneticField
from isingkit.experiments import (GrowthModelParams, RunConfig,
                                  growth_threshold_from_constants,
                                  run_growth_model, run_nucleation,
                                  run_stc_audit)
from isingkit.kmc import (EventStream, Trajectory, coupled_evolve,
                          hitting_time, pred_all_plus)
from isingkit.landscape import (bottom_of, communication_energy,
                                critical_constants, enumerate_landscape,
                                maximal_compounds, path_energies,
                                reference_path, truncate_landscape)
from isingkit.lattice import (BoundaryCondition, BoxGeometry, Configuration,
                              build_context)
from isingkit.isoperimetry import min_perimeter
from isingkit.stc import diam_infty_window, track
from isingkit.wgraph import (exit_oracle_linear, exit_point_law,
                             exitcost_identity_check, expected_exit_time,
                             random_rate_matrix)

SQRT2_2 = MagneticField("sqrt2/2")


def report(n, text):
    print(f"criterion {n:02d}: PASS - {text}")


def test_criterion_01_exact_gamma1():
    for tok in ("sqrt2/2", "sqrt3/3"):
        h = MagneticField(tok)
        ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(), h)
        g = enumerate_landscape(ctx)
        e = communication_energy(g, [0], [0b111])
        assert e.pair() == (2, 1)
    report(1, "1D communication energy equals (2,1) for both fields")


def test_criterion_02_wgraph_vs_linear_oracle():
    rng = random.Random(2024)
    worst_tv = worst_rel = 0.0
    for _ in range(200):
        n = rng.randrange(2, 9)
        dense = n <= 6 and rng.random() < 0.4
        rm = random_rate_matrix(rng, n, dense=dense)
        k = rng.randrange(1, n)
        w = rng.sample(range(n), k)
        x = rng.choice([s for s in range(n) if s not in w])
        dist = exit_point_law(rm, w, x)
        t = expected_exit_time(rm, w, x)
        dist_o, t_o = exit_oracle_linear(rm, w, x)
        worst_tv = max(worst_tv, 0.5 * sum(abs(dist[s] - dist_o[s]) for s in w))
        worst_rel = max(worst_rel, abs(t - t_o) / t_o)
    assert worst_tv <= 1e-9
    assert worst_rel <= 1e-9
    report(2, f"200 instances, max TV {worst_tv:.2e}, "
              f"max time error {worst_rel:.2e}")


def test_criterion_03_bottom_singleton():
    checked = 0
    for tok in ("sqrt2/2", "sqrt3/3", "sqrt5/5"):
        h = MagneticField(tok)
        for dims in ((2, 2), (2, 3), (3, 3)):
            for bc in (BoundaryCondition.all_minus(), BoundaryCondition.n_pm(1),
                       BoundaryCondition.n_pm(2)):
                ctx = build_context(BoxGeometry(dims), bc, h)
                g = enumerate_landscape(ctx)
                full = (1 << ctx.n_sites) - 1
                bottom_state = min(bottom_of(g, g.states()))
                for y in (frozenset(g.states()),
                          frozenset(g.states()) - {bottom_state},
                          frozenset(g.states()) - {0, full}):
                    for blk in maximal_compounds(g, y).blocks:
                        assert len(bottom_of(g, blk.states)) == 1
                        checked += 1
    report(3, f"{checked} maximal compounds, every bottom a singleton")


def test_criterion_04_exitcost_identities():
    spaces = []
    g1 = enumerate_landscape(build_context(BoxGeometry((3,)),
                                           BoundaryCondition.all_minus(),
                                           SQRT2_2))
    spaces.append(g1)
    g2 = enumerate_landscape(build_context(BoxGeometry((2, 2)),
                                           BoundaryCondition.all_minus(),
                                           SQRT2_2))
    spaces.append(truncate_landscape(g2, 10))
    g3 = enumerate_landscape(build_context(BoxGeometry((2, 2)),
                                           BoundaryCondition.n_pm(1),
                                           MagneticField("sqrt3/3")))
    spaces.append(truncate_landscape(g3, 9))
    checked = 0
    for g in spaces:
        states = set(g.states())
        bottom_state = min(bottom_of(g, states))
        top_state = max(states, key=lambda s: (g.energy_pair(s).value, s))
        for y in (states - {bottom_state}, states - {bottom_state, top_state}):
            for blk in maximal_compounds(g, y).blocks:
                if len(blk.states) == len(states):
                    continue
                result = exitcost_identity_check(g, blk.states)
                assert not result.precondition_violated
                assert result.ok, result.failures
                checked += 1
    assert checked >= 10
    report(4, f"both identities exact on {checked} compounds")


def test_criterion_05_reference_path_minimax():
    for dims in ((2, 3), (3, 3)):
        ctx = build_context(BoxGeometry(dims), BoundaryCondition.all_minus(),
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
    report(5, "minimax property exact for all pairs on 2x3 and 3x3")


def test_criterion_06_gamma2_cross_check():
    h = SQRT2_2
    oracle_best = None
    for k in range(1, 13):
        e = (min_perimeter(2, k), k)
        if oracle_best is None or h.compare_pair(e[0] - oracle_best[0],
                                                 e[1] - oracle_best[1]) > 0:
            oracle_best = e
    const = critical_constants(2, h)
    side = const.box_sides[2]
    ctx = build_context(BoxGeometry((side, side)),
                        BoundaryCondition.all_minus(), h)
    energies = path_energies(ctx, reference_path(ctx))
    path_best = None
    for e in energies:
        if e.pluses < 1 or e.pluses > 12:
            continue
        if path_best is None or e > path_best:
            path_best = e
    assert path_best.pair() == oracle_best
    assert const.gammas[2].pair() == oracle_best
    assert const.m[2] <= 12
    report(6, f"barrier {oracle_best} agrees between oracle and path")


def test_criterion_07_isoperimetry():
    for d, cap, squares in ((2, 12, (1, 4, 9)), (3, 8, (1, 8))):
        for v in range(1, cap + 1):
            p = min_perimeter(d, v)
            assert p ** d >= (2 * d) ** d * v ** (d - 1)
            root = 1
            while (root + 1) ** d <= v:
                root += 1
            assert p >= 2 * d * root ** (d - 1)
            if v in squares:
                assert p ** d == (2 * d) ** d * v ** (d - 1)
            else:
                assert p ** d > (2 * d) ** d * v ** (d - 1)
    report(7, "both bounds hold; equality exactly at cube volumes")


def test_criterion_08_monotone_coupling():
    rng = random.Random(88)
    geom = BoxGeometry((4, 4))
    violations = 0
    pairs = 0
    for beta in (1.0, 2.0, 4.0):
        for trial in range(167):
            base = [s for s in range(16) if rng.random() < 0.4]
            extra = [s for s in range(16) if rng.random() < 0.3]
            lo = Configuration.from_plus_sites(geom, base)
            hi = Configuration.from_plus_sites(geom, set(base) | set(extra))
            n_hi = rng.choice([0, 1, 2])
            n_lo = rng.choice([n for n in (0, 1, 2) if n >= n_hi])
            h_lo, h_hi = sorted([MagneticField("0.5"), SQRT2_2],
                                key=lambda f: f.approx)
            if rng.random() < 0.5:
                h_lo = h_hi
            ctx_lo = build_context(geom, BoundaryCondition.n_pm(n_lo), h_lo)
            ctx_hi = build_context(geom, BoundaryCondition.n_pm(n_hi), h_hi)
            stream = EventStream(rng.randrange(1 << 30))
            bad = []

            def check(t, arrays):
                if not np.all(arrays[0] <= arrays[1]):
                    bad.append(t)

            coupled_evolve(stream, [ctx_lo, ctx_hi], [lo, hi], beta=beta,
                           horizon=2.0, check_order=check)
            violations += len(bad)
            pairs += 1
    assert pairs >= 500
    assert violations == 0
    report(8, f"{pairs} comparable pairs, domination never violated")


def test_criterion_09_stc_triangle():
    rng = random.Random(99)
    checked = 0
    ctx1 = build_context(BoxGeometry((6,)), BoundaryCondition.all_minus(),
                         MagneticField("0.5"))
    ctx2 = build_context(BoxGeometry((3, 3)), BoundaryCondition.all_minus(),
                         MagneticField("0.5"))
    trajectories = []
    for k in range(350):
        trajectories.append((ctx1, _random_trajectory(ctx1, rng, 20, 8.0)))
        trajectories.append((ctx2, _random_trajectory(ctx2, rng, 24, 8.0)))
    for seed in range(300):
        ctx = build_context(BoxGeometry((4, 4)), BoundaryCondition.all_minus(),
                            MagneticField("0.5"))
        from isingkit.kmc import evolve_graphical
        traj = evolve_graphical(EventStream(seed), ctx,
                                Configuration.all_minus(ctx.geometry),
                                beta=0.9, horizon=4.0)
        traj.t_end = 8.0
        trajectories.append((ctx, traj))
    assert len(trajectories) == 1000
    for ctx, traj in trajectories:
        ledger = track(ctx, traj)
        end = traj.t_end
        lhs = diam_infty_window(ledger, 0.0, end)
        for u in (e[0] for e in traj.events):
            if not 0.0 < u < end:
                continue
            rhs = diam_infty_window(ledger, 0.0, u) + \
                diam_infty_window(ledger, u, end)
            assert lhs <= rhs
            checked += 1
    report(9, f"triangle inequality at {checked} cut points, no violations")


def _random_trajectory(ctx, rng, n_events, t_end):
    spins = {}
    flips = []
    for t in sorted(rng.uniform(0, t_end) for _ in range(n_events)):
        site = rng.randrange(ctx.n_sites)
        cur = spins.get(site, -1)
        spins[site] = -cur
        flips.append((t, site, -cur))
    return Trajectory(initial=Configuration.all_minus(ctx.geometry),
                      events=flips, t_end=t_end, stop_reason="scripted",
                      beta=0.0, h_token=ctx.field.token,
                      bc_label=ctx.bc.label())


def test_criterion_10_arrhenius_1d():
    cfg = RunConfig(experiment="nucleation", dims=[3], h="0.5",
                    beta=[3.0, 4.0, 5.0, 6.0], replicas=200, seed=1000)
    rep = run_nucleation(cfg)
    fit = rep["fits"]["all_plus"]
    assert not rep["flags"]["all_plus_censored_betas"]
    assert abs(fit["slope"] - 1.5) / 1.5 < 0.10
    report(10, f"1D slope {fit['slope']:.3f} within 10% of 1.5")


def test_criterion_11_arrhenius_2d():
    cfg = RunConfig(experiment="nucleation", dims=[12, 12], h="sqrt2/2",
                    beta=[1.6, 2.0, 2.4], replicas=100, seed=4242,
                    mode="rejection_free")
    rep = run_nucleation(cfg)
    gamma2 = rep["constants"]["gamma_value"]
    assert rep["constants"]["gamma"] == (12, 7)
    fit = rep["fits"]["all_plus"]
    assert not rep["flags"]["all_plus_censored_betas"]
    assert abs(fit["slope"] - gamma2) / gamma2 < 0.20
    report(11, f"2D slope {fit['slope']:.3f} within 20% of "
               f"Gamma_2 = {gamma2:.4f}")


def test_criterion_12_stc_audit(tmp_path):
    cfg = RunConfig(experiment="stc_audit", dims=[8, 8], h="sqrt2/2",
                    beta=[3.0], replicas=500, seed=5150, stc_threshold_D=6,
                    out_dir=str(tmp_path))
    rep = run_stc_audit(cfg)
    from isingkit.experiments import stc_audit_files, write_files
    write_files(str(tmp_path), stc_audit_files(rep))
    assert (tmp_path / "distribution.csv").exists()
    assert len(rep["rows"]) == 500
    assert not any(r["censored"] for r in rep["rows"])
    assert rep["max_diam"] <= 6
    report(12, f"500 replicas, max cluster diameter {rep['max_diam']} <= 6")


def test_criterion_13_growth_model_recursion():
    p1 = GrowthModelParams(d=1, gamma=1.5, kappa_prev=0.0, L=1.0,
                           betas=[4.0, 6.0, 8.0], replicas=200, seed=100)
    r1 = run_growth_model(p1)
    assert r1["fit"]["target"] == pytest.approx(0.75)
    assert r1["fit"]["relative_error"] < 0.15
    p2 = GrowthModelParams(d=2, gamma=2.0, kappa_prev=0.5, L=0.7,
                           betas=[4.0, 6.0, 8.0], replicas=200, seed=200)
    r2 = run_growth_model(p2)
    assert r2["fit"]["target"] == pytest.approx(1.0)
    assert r2["fit"]["relative_error"] < 0.15
    report(13, f"fitted exponents {r1['fit']['slope']:.3f} (target 0.75), "
               f"{r2['fit']['slope']:.3f} (target 1.0)")


def test_criterion_14_growth_threshold_identity():
    from fractions import Fraction
    checked = 0
    for d in (2, 3):
        for tok in ("0.05", "0.1", "0.2"):
            const = critical_constants(d, MagneticField(tok))
            l_hi = const.gamma_value(d) / d * Fraction(6, 5)
            for k in range(1, 11):
                L = l_hi * Fraction(k, 10)
                res = growth_threshold_from_constants(const, d, L)
                assert res["equal"], (d, tok, float(L))
                checked += 1
    assert checked == 60
    report(14, "inf-max equals the closed form at all 60 grid points, exactly")


def test_criterion_15_mode_equivalence():
    ctx = build_context(BoxGeometry((3,)), BoundaryCondition.all_minus(),
                        MagneticField("0.5"))
    beta = 4.0
    t_g, t_r = [], []
    for rep in range(2000):
        t_g.append(hitting_time("graphical", ctx,
                                Configuration.all_minus(ctx.geometry), beta,
                                pred_all_plus(), seed=rep).time)
        t_r.append(hitting_time("rejection_free", ctx,
                                Configuration.all_minus(ctx.geometry), beta,
                                pred_all_plus(), seed=rep).time)
    se = math.sqrt(np.var(t_g) / len(t_g) + np.var(t_r) / len(t_r))
    diff = abs(float(np.mean(t_g)) - float(np.mean(t_r)))
    assert diff <= 3 * se
    report(15, f"means {np.mean(t_g):.1f} vs {np.mean(t_r):.1f}, "
               f"difference {diff / se:.2f} standard errors")
