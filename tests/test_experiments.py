import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fit_oracle
from isingkit.energy import MagneticField
from isingkit.experiments import (GrowthModelParams, RunConfig, arrhenius_fit,
                                  growth_threshold_from_constants,
                                  run_growth_model,
                                  run_infection_microscopic, run_nucleation,
                                  run_stc_audit, solve_growth_threshold)
from isingkit.landscape import critical_constants


class TestRunConfig:
    def test_from_dict_with_caps(self):
        cfg = RunConfig.from_dict({"experiment": "nucleation", "dims": [3],
                                   "caps": {"events": 100, "time": 5.0}})
        assert cfg.caps_events == 100 and cfg.caps_time == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"experiment": "x", "bogus": 1})

    def test_replicas_positive(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="x", replicas=0)

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="x", bc="bogus")

    @pytest.mark.parametrize("betas", [[1.0, 1.0], [2, 1.0, 2.0]])
    def test_repeated_beta_rejected(self, betas):
        with pytest.raises(ValueError, match="distinct"):
            RunConfig(experiment="nucleation", beta=betas)
        with pytest.raises(ValueError, match="distinct"):
            GrowthModelParams(d=1, gamma=1.5, kappa_prev=0.0, L=1.0,
                              betas=betas)

    @pytest.mark.parametrize("caps", [
        {"events": None}, {"events": 0}, {"events": -5}, {"events": 2.5},
        {"events": True}, {"events": "100"}, {"time": 0}, {"time": -1.0},
        {"time": float("nan")}, {"time": "5"}, {"event": 5}, 5])
    def test_bad_caps_rejected(self, caps):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"experiment": "nucleation", "caps": caps})

    @pytest.mark.parametrize("bad", [
        {"replicas": None}, {"replicas": 2.0}, {"dims": None}, {"dims": []},
        {"dims": [3, 0]}, {"dims": ["3"]}, {"beta": None}, {"beta": ["x"]},
        {"seed": None}, {"seed": -1}, {"block_side": 0},
        {"block_side": -4}, {"block_side": 2.0}, {"eligibility_defect": -1},
        {"stc_threshold_D": -3}, {"stc_threshold_D": None}])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            RunConfig.from_dict(dict({"experiment": "nucleation"}, **bad))

    def test_null_time_cap_allowed(self):
        cfg = RunConfig.from_dict({"experiment": "nucleation",
                                   "caps": {"time": None}})
        assert cfg.caps_time is None

    def test_single_beta_fit_error(self):
        with pytest.raises(ValueError):
            arrhenius_fit({3.0: [1.0, 2.0]})


@st.composite
def fit_inputs(draw):
    """2-5 distinct betas, each with its own number of positive times."""
    betas = draw(st.lists(st.floats(0.5, 10.0), min_size=2, max_size=5,
                          unique=True))
    times = {b: draw(st.lists(st.floats(1e-3, 1e6), min_size=1,
                              max_size=30)) for b in betas}
    target = draw(st.none() | st.just(0.0) | st.floats(0.1, 5.0))
    return times, target


class TestArrheniusFit:
    @settings(max_examples=60, deadline=None)
    @given(case=fit_inputs(), seed=st.integers(0, 2**32 - 1),
           n_boot=st.sampled_from([1, 7, 200]))
    def test_matches_per_resample_fits(self, case, seed, n_boot):
        # one least-squares fit over all resample columns gives the slopes
        # of one fit per resample, bit for bit
        times, target = case
        new = arrhenius_fit(times, target=target, n_boot=n_boot, seed=seed)
        old = fit_oracle.arrhenius_fit(times, target=target, n_boot=n_boot,
                                       seed=seed)
        assert repr(new) == repr(old)

    @pytest.mark.parametrize("sizes,n_boot", [([700, 650, 1], 150),
                                              ([500, 500, 500], 150),
                                              ([40000, 30000], 3)])
    def test_resamples_drawn_in_blocks(self, sizes, n_boot):
        # enough replicas that the resamples are drawn in several blocks,
        # the last one short, or one resample per block; equal and unequal
        # replica counts
        rng = np.random.default_rng(len(sizes))
        times = {2.0 + i: rng.exponential(10.0 ** i, size).tolist()
                 for i, size in enumerate(sizes)}
        new = arrhenius_fit(times, n_boot=n_boot, seed=9)
        old = fit_oracle.arrhenius_fit(times, n_boot=n_boot, seed=9)
        assert repr(new) == repr(old)

    def test_exact_line_recovered(self):
        times = {b: [math.exp(1.5 * b)] * 5 for b in (3.0, 4.0, 5.0)}
        fit = arrhenius_fit(times, target=1.5, n_boot=50)
        assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
        assert fit["relative_error"] < 1e-12

    def test_ci_calibration(self):
        # synthetic exp(beta*gamma + noise): the 95% CI covers gamma most of
        # the time
        rng = np.random.default_rng(4)
        gamma = 1.2
        betas = [3.0, 4.0, 5.0, 6.0]
        hits = 0
        trials = 60
        for _ in range(trials):
            times = {b: np.exp(b * gamma + rng.normal(0, 0.3, size=40))
                     for b in betas}
            fit = arrhenius_fit({b: list(v) for b, v in times.items()},
                                n_boot=200, seed=int(rng.integers(1 << 30)))
            if fit["ci_low"] <= gamma <= fit["ci_high"]:
                hits += 1
        assert hits / trials >= 0.85


class TestNucleation:
    def test_1d_slope_near_barrier(self):
        cfg = RunConfig(experiment="nucleation", dims=[3], h="0.5",
                        beta=[3.0, 4.0, 5.0], replicas=60, seed=10)
        report = run_nucleation(cfg)
        fit = report["fits"]["all_plus"]
        assert abs(fit["slope"] - 1.5) / 1.5 < 0.2
        assert report["constants"]["gamma"] == (2, 1)
        assert not report["flags"]["all_plus_censored_betas"]

    def test_rows_complete_and_deterministic(self):
        cfg = RunConfig(experiment="nucleation", dims=[2], h="0.5",
                        beta=[2.0, 3.0], replicas=5, seed=3)
        r1 = run_nucleation(cfg)
        r2 = run_nucleation(cfg)
        assert r1["rows"] == r2["rows"]
        assert len(r1["rows"]) == 10
        for row in r1["rows"]:
            assert row["nucleation_time"] <= row["all_plus_time"]

    def test_one_replica_per_beta_reports_error(self, capsys):
        # one replica has a bootstrap interval of zero width: no fit, as in
        # infection and the growth model
        from isingkit.cli import main
        error = {"error": "fewer than two uncensored betas with two or more "
                          "replicas"}
        cfg = RunConfig(experiment="nucleation", dims=[3], h="0.5",
                        beta=[3.0, 4.0], replicas=1, seed=0)
        report = run_nucleation(cfg)
        assert not report["flags"]["nucleation_censored_betas"]
        assert not report["flags"]["all_plus_censored_betas"]
        assert report["fits"] == {"nucleation": error, "all_plus": error}
        assert main(["nucleation", "--dims", "3", "--h", "0.5", "--beta",
                     "3,4", "--replicas", "1", "--seed", "0"]) == 0
        fits = json.loads(capsys.readouterr().out)["fits"]
        assert fits == {"nucleation": error, "all_plus": error}


def replay_block_infections(traj, side, defect):
    """(first infection time or None, de-infected block count) read off the
    configurations a trajectory passes through: a block is infected once it
    is entirely plus, and de-infected for good once more than ``defect`` of
    its sites are minus after that."""
    geom = traj.initial.geometry
    label = [tuple(c // side for c in geom.coord(i))
             for i in range(geom.n_sites)]
    first, infected, deinfected = None, set(), set()
    for t, _, _, cfg in traj.replay():
        minus = {b: 0 for b in label}
        for i in np.flatnonzero(cfg.spins == -1):
            minus[label[i]] += 1
        for b, count in minus.items():
            if b not in infected and count == 0:
                infected.add(b)
                first = t if first is None else first
            elif b in infected and count > defect:
                deinfected.add(b)
    return first, len(deinfected)


class TestInfection:
    def test_all_minus_short_horizon_stays_uninfected(self):
        cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                        beta=[6.0], replicas=3, seed=2, block_side=4,
                        caps_time=0.5)
        report = run_infection_microscopic(cfg)
        assert all(r["censored"] for r in report["rows"])

    def test_slope_consistent_with_barrier(self):
        cfg = RunConfig(experiment="infection", dims=[16], h="0.5",
                        beta=[3.0, 4.0, 5.0], replicas=40, seed=5,
                        block_side=4)
        report = run_infection_microscopic(cfg)
        fit = report["fit"]
        # first full block needs a nucleation: slope tracks Gamma_1 = 1.5
        assert abs(fit["slope"] - 1.5) / 1.5 < 0.25

    def test_event_cap_recorded(self):
        cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                        beta=[2.0], replicas=2, seed=9, block_side=4,
                        caps_events=5)
        report = run_infection_microscopic(cfg)
        # all-plus needs at least 8 flips
        assert report["event_cap"] == {"requested": 5, "effective": 5}
        assert [r["stop_reason"] for r in report["rows"]] == ["event_cap"] * 2
        cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                        beta=[2.0], replicas=1, seed=9, block_side=4)
        report = run_infection_microscopic(cfg)
        assert report["event_cap"] == {"requested": 10_000_000,
                                       "effective": 200_000}
        assert report["rows"][0]["stop_reason"] == "stopped"

    def test_block_infections_replay_the_trajectory(self):
        # each row against the same seed's rejection-free run, capped and
        # uncapped; defect 0 lets a single minus flip de-infect a block
        from isingkit.kmc import evolve_rejection_free, pred_all_plus
        from isingkit.lattice import Configuration
        seen = set()
        for caps_events, defect in ((5, 0), (10_000_000, 0), (10_000_000, 1)):
            cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                            beta=[2.0, 3.0], replicas=3, seed=9, block_side=4,
                            eligibility_defect=defect, caps_events=caps_events)
            report = run_infection_microscopic(cfg)
            ctx = cfg.context()
            for row in report["rows"]:
                traj = evolve_rejection_free(
                    row["seed"], ctx, Configuration.all_minus(ctx.geometry),
                    row["beta"], stop=pred_all_plus(),
                    max_events=report["event_cap"]["effective"])
                first, deinfections = replay_block_infections(traj, 4,
                                                              defect)
                assert row["censored"] == (first is None)
                assert row["first_infection_time"] == \
                    (traj.t_end if first is None else first)
                assert row["deinfections"] == deinfections
                seen.add((row["censored"], deinfections > 0))
        # censored and infected rows, with and without a de-infection
        assert seen == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("caps_events", [5, 10_000_000])
    def test_events_count_the_applied_flips(self, caps_events):
        # the same seed's rejection-free run, at the cap that applied
        from isingkit.kmc import evolve_rejection_free, pred_all_plus
        from isingkit.lattice import Configuration
        cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                        beta=[2.0, 3.0], replicas=2, seed=9, block_side=4,
                        caps_events=caps_events)
        report = run_infection_microscopic(cfg)
        ctx = cfg.context()
        for row in report["rows"]:
            traj = evolve_rejection_free(
                row["seed"], ctx, Configuration.all_minus(ctx.geometry),
                row["beta"], stop=pred_all_plus(),
                max_events=report["event_cap"]["effective"])
            assert row["events"] == len(traj.events) >= 1
            assert row["stop_reason"] == traj.stop_reason
        assert {r["stop_reason"] for r in report["rows"]} == \
            {"event_cap" if caps_events == 5 else "stopped"}

    def test_one_beta_fit_reports_error(self, capsys):
        from isingkit.cli import main
        code = main(["infection", "--dims", "8", "--h", "0.5", "--beta", "3",
                     "--replicas", "2"])
        assert code == 0
        fit = json.loads(capsys.readouterr().out)["fit"]
        assert set(fit) == {"error"} and "two" in fit["error"]

    def test_block_side_must_divide(self):
        cfg = RunConfig(experiment="infection", dims=[9], h="0.5",
                        beta=[2.0], replicas=1, block_side=4)
        with pytest.raises(ValueError):
            run_infection_microscopic(cfg)


class TestGrowthModel:
    def test_frozen_growth_is_pure_nucleation(self):
        params = GrowthModelParams(d=1, gamma=1.0, kappa_prev=math.inf,
                                   L=0.5, betas=[2.0], replicas=400, seed=7)
        report = run_growth_model(params)
        times = [r["coverage_time"] for r in report["rows"]]
        # origin nucleates at rate exp(-beta*gamma)
        mean = np.mean(times)
        se = np.std(times) / math.sqrt(len(times))
        assert abs(mean - math.exp(2.0)) <= 3 * se
        assert report["kappa_target"] is None

    def test_d1_recursion(self):
        params = GrowthModelParams(d=1, gamma=1.5, kappa_prev=0.0, L=1.0,
                                   betas=[4.0, 6.0, 8.0], replicas=80, seed=11)
        report = run_growth_model(params)
        fit = report["fit"]
        assert fit["target"] == pytest.approx(0.75)
        assert abs(fit["slope"] - 0.75) / 0.75 < 0.15

    def test_d2_synthetic_recursion(self):
        params = GrowthModelParams(d=2, gamma=2.0, kappa_prev=0.5, L=0.62,
                                   betas=[4.0, 6.0], replicas=40, seed=13)
        report = run_growth_model(params)
        assert report["kappa_target"] == pytest.approx(1.0)
        assert "fit" in report


class TestGrowthThreshold:
    def test_d1_explicit_minimum(self):
        # inf over K of max(G1 - K, 0, K) at K = G1/2
        res = solve_growth_threshold(Fraction(3, 2), Fraction(0), Fraction(0),
                                     Fraction(3, 4), 1, Fraction(10))
        assert res["inf_max"] == Fraction(3, 4)
        assert res["equal"]
        assert res["argmin_K"] == Fraction(3, 4)

    def test_constrained_branch(self):
        # L below the unconstrained argmin forces the gamma_d - dL branch
        res = solve_growth_threshold(Fraction(3, 2), Fraction(0), Fraction(0),
                                     Fraction(3, 4), 1, Fraction(1, 4))
        assert res["inf_max"] == Fraction(3, 2) - Fraction(1, 4)
        assert res["equal"]

    def test_identity_small_h_from_constants(self):
        for d in (2, 3):
            for tok in ("0.05", "0.1", "0.2"):
                const = critical_constants(d, MagneticField(tok))
                L_hi = const.gamma_value(d) / d
                for k in range(1, 6):
                    L = Fraction(k, 5) * L_hi
                    res = growth_threshold_from_constants(const, d, L)
                    assert res["equal"], (d, tok, float(L), res)


class TestWriteAtomic:
    def test_concurrent_writers_share_no_temp_file(self, tmp_path):
        import stat
        import threading
        from isingkit.experiments import _UMASK, _write_atomic
        path = str(tmp_path / "results.csv")
        texts = [f"{k}\n" * 20_000 for k in range(4)]
        errors = []

        def writer(text):
            try:
                for _ in range(50):
                    _write_atomic(path, text)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        with open(path) as fh:
            assert fh.read() in texts
        assert os.listdir(tmp_path) == ["results.csv"]
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~_UMASK

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        from isingkit.experiments import _write_atomic
        path = str(tmp_path / "fit.json")
        _write_atomic(path, "old")
        with pytest.raises(TypeError):
            _write_atomic(path, 123)
        assert os.listdir(tmp_path) == ["fit.json"]
        with open(path) as fh:
            assert fh.read() == "old"


class TestStcAudit:
    def test_small_audit_passes(self):
        cfg = RunConfig(experiment="stc_audit", dims=[4, 4], h="sqrt2/2",
                        beta=[3.0], replicas=10, seed=21, stc_threshold_D=6)
        report = run_stc_audit(cfg)
        assert report["passed"]
        assert report["max_diam"] <= 6
        assert len(report["rows"]) == 10


class TestCli:
    def run_cli(self, *argv):
        from isingkit.cli import main
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def test_constants(self):
        code, out = self.run_cli("constants", "--d", "2", "--h", "sqrt2/2")
        assert code == 0
        data = json.loads(out)
        row = data["table"][1]
        assert row["l_c"] == 2 and row["gamma_bonds"] == 12 \
            and row["gamma_pluses"] == 7

    @pytest.mark.parametrize("argv", [
        ("constants", "--d", "0", "--h", "0.5"),
        ("constants", "--d", "-1", "--h", "0.5"),
        ("growth-threshold", "--d", "0", "--h", "0.5", "--L", "0.5"),
        ("growth-threshold", "--d", "-2", "--h", "0.5", "--L", "0.5")])
    def test_dimension_below_one_fails_cleanly(self, capsys, argv):
        from isingkit.cli import main
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_isoperimetry_table_shape(self, tmp_path):
        code, out = self.run_cli("isoperimetry", "--d", "2", "--vmax", "12",
                                 "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "isoperimetry.csv").read_text().strip().splitlines()
        assert len(lines) == 13

    def test_version_matches_pyproject(self):
        import re
        import isingkit
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "pyproject.toml")
        with open(pyproject) as fh:
            want = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(),
                             re.MULTILINE).group(1)
        assert isingkit.__version__ == want
        proc = subprocess.run(
            [sys.executable, "-m", "isingkit.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"isingkit {want}"

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isingkit.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_invalid_config_nonzero_no_partial_output(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"replicas": 0}))
        out_dir = tmp_path / "out"
        code, _ = self.run_cli("nucleation", "--config", str(cfg),
                               "--out-dir", str(out_dir))
        assert code == 1
        assert not out_dir.exists()

    def test_unknown_bc_fails_before_any_work(self, tmp_path, capsys):
        from isingkit.cli import main
        out_dir = tmp_path / "out"
        code = main(["nucleation", "--bc", "bogus", "--dims", "3",
                     "--replicas", "1", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out_dir.exists()

    def test_null_event_cap_in_config_fails_cleanly(self, tmp_path, capsys):
        from isingkit.cli import main
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"caps": {"events": None}}))
        code = main(["nucleation", "--config", str(cfg), "--dims", "3",
                     "--beta", "1,2", "--replicas", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_caps_not_an_object_fails_cleanly(self, tmp_path, capsys):
        from isingkit.cli import main
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"caps": 5}))
        code = main(["nucleation", "--config", str(cfg), "--dims", "3",
                     "--beta", "1,2", "--replicas", "1", "--caps-events", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("landscape", "--dims", "2,2", "--h", "sqrt2/2", "--config",
         "missing.json", "--seed", "4", "--caps-events", "0"),
        ("landscape", "--h", "sqrt2/2"),
        ("simulate", "--beta", "1,5", "--replicas", "9", "--config",
         "missing.json"),
        ("simulate", "--dims", "3", "--h", "0.5")])
    def test_unread_or_missing_flags_fail_cleanly(self, tmp_path, monkeypatch,
                                                  capsys, argv):
        # landscape and simulate accept only the flags they read, and
        # require the box (and simulate one beta)
        from isingkit.cli import main
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code != 0
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [{"replicas": None}, {"dims": None},
                                     {"beta": None}, {"seed": None}])
    def test_null_config_value_fails_cleanly(self, tmp_path, capsys, bad):
        from isingkit.cli import main
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict({"dims": [3], "beta": [1.0, 2.0],
                                        "replicas": 1}, **bad)))
        code = main(["nucleation", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("nucleation", "--dims", "3", "--beta", "1.0,1.0", "--replicas", "1"),
        ("nucleation", "--dims", "3", "--beta", "2,1,2.0", "--replicas", "1"),
        ("growth-model", "--d", "1", "--gamma", "1.5", "--kappa-prev", "0",
         "--L", "1", "--beta", "4,6,4", "--replicas", "1")])
    def test_repeated_beta_fails_cleanly(self, tmp_path, capsys, argv):
        from isingkit.cli import main
        out_dir = tmp_path / "out"
        code = main(list(argv) + ["--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "distinct" in lines[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ("infection", "--dims", "8", "--h", "0.5", "--beta", "2,3",
         "--block-side", "0"),
        ("infection", "--dims", "8", "--h", "0.5", "--beta", "2,3",
         "--block-side", "-4"),
        ("stc-audit", "--dims", "4,4", "--h", "sqrt2/2", "--beta", "3",
         "--stc-threshold-D", "-3")])
    def test_bad_experiment_parameter_fails_cleanly(self, tmp_path, capsys,
                                                    argv):
        # rejected before any run: a zero block side would divide by zero,
        # a negative one would censor every replica, and a negative
        # threshold would fail every audit
        from isingkit.cli import main
        out_dir = tmp_path / "out"
        code = main([*argv, "--replicas", "2", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("beta", [("--beta", "2,5,9"), ()])
    def test_stc_audit_several_betas_fail_cleanly(self, tmp_path, capsys,
                                                  beta):
        # a list is rejected, not cut down to its first beta, and a run
        # given no beta is told to give one rather than shown the default
        from isingkit.cli import main
        out_dir = tmp_path / "out"
        code = main(["stc-audit", "--dims", "4,4", "--h", "sqrt2/2",
                     *beta, "--replicas", "2", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        want = "[2.0, 5.0, 9.0]" if beta else "--beta"
        assert want in lines[0]
        assert not out_dir.exists()

    def test_stc_audit_beta_from_the_config_file(self, tmp_path, capsys):
        from isingkit.cli import main
        argv = ["stc-audit", "--dims", "3", "--h", "sqrt2/2", "--replicas",
                "2", "--out-dir", str(tmp_path / "out")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        assert main([*argv, "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--beta" in lines[0]
        assert not (tmp_path / "out").exists()
        config.write_text(json.dumps({"seed": 3, "beta": [2.0]}))
        main([*argv, "--config", str(config)])
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "out" / "summary.json").read_text()
                          )["beta"] == 2.0

    @pytest.mark.parametrize("d, vmax", [(2, 13), (3, 9), (2, 0), (4, 2)])
    def test_isoperimetry_vmax_outside_cap_fails_cleanly(
            self, tmp_path, capsys, monkeypatch, d, vmax):
        # rejected before any polyomino is enumerated
        from isingkit import isoperimetry
        from isingkit.cli import main

        def no_enumeration(*args):
            raise AssertionError("enumerated past the check")

        monkeypatch.setattr(isoperimetry, "_grow_tables", no_enumeration)
        out_dir = tmp_path / "out"
        code = main(["isoperimetry", "--d", str(d), "--vmax", str(vmax),
                     "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out_dir.exists()

    GROWTH_ARGV = ("growth-model", "--d", "1", "--gamma", "1.5",
                   "--kappa-prev", "0", "--L", "1", "--beta", "4,6")

    def test_growth_model_seed_zero_and_outputs(self, tmp_path):
        import csv
        code, out = self.run_cli(*self.GROWTH_ARGV, "--replicas", "2",
                                 "--seed", "0", "--out-dir", str(tmp_path))
        assert code == 0
        assert "slope" in json.loads(out)["fit"]
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1", "0", "1"]
        assert all(r["stop_reason"] == "origin" and int(r["events"]) >= 1
                   for r in rows)
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["flags"]["censored"] == {"event_cap": 0, "frozen": 0}

    def test_growth_model_single_beta_fit_error(self):
        argv = list(self.GROWTH_ARGV)
        argv[argv.index("4,6")] = "4"
        code, out = self.run_cli(*argv, "--replicas", "2")
        assert code == 0
        assert "error" in json.loads(out)["fit"]

    def test_growth_model_zero_target_prints_strict_json(self):
        def reject(constant):
            raise ValueError(f"{constant} in stdout")

        argv = list(self.GROWTH_ARGV)
        argv[argv.index("--gamma") + 1] = "0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = self.run_cli(*argv, "--replicas", "3")
        assert code == 0
        fit = json.loads(out, parse_constant=reject)["fit"]
        assert fit["target"] == 0.0 and fit["relative_error"] is None

    @pytest.mark.parametrize("bad", [("--replicas", "0"), ("--d", "0"),
                                     ("--seed", "-1"), ("--beta", "0,4"),
                                     ("--gamma", "nan"), ("--L", "nan"),
                                     ("--L", "1e6"), ("--kappa-prev", "nan"),
                                     # a window of e^100 sites
                                     ("--d", "1", "--gamma", "400",
                                      "--kappa-prev", "0", "--L", "100",
                                      "--beta", "1,2")])
    def test_growth_model_bad_input_fails_cleanly(self, tmp_path, capsys,
                                                  bad):
        from isingkit.cli import main
        argv = list(self.GROWTH_ARGV)
        for flag, value in zip(bad[::2], bad[1::2]):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
        code = main(argv + ["--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_simulate_seed_zero_is_not_seed_one(self, tmp_path):
        for seed in ("0", "1"):
            code, _ = self.run_cli("simulate", "--dims", "3", "--h", "0.5",
                                   "--beta", "2.0", "--seed", seed,
                                   "--stop", "all_plus",
                                   "--out-dir", str(tmp_path / seed))
            assert code == 0
        assert (tmp_path / "0" / "trajectory.csv").read_bytes() != \
            (tmp_path / "1" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("bad", [("--caps-events", "0"),
                                     ("--caps-time", "0"),
                                     ("--mode", "graphical",
                                      "--caps-time", "0")])
    def test_simulate_zero_caps_rejected(self, tmp_path, capsys, bad):
        from isingkit.cli import main
        code = main(["simulate", "--dims", "3", "--h", "0.5", "--beta", "2.0",
                     *bad, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_simulate_graphical_honours_event_cap(self, tmp_path):
        code, out = self.run_cli("simulate", "--mode", "graphical",
                                 "--dims", "4,4", "--h", "0.5",
                                 "--beta", "1.0", "--caps-events", "5",
                                 "--out-dir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "event_cap"
        assert summary["n_events"] >= 5

    def test_graphical_nucleation_with_underflowing_rates_ends(
            self, tmp_path, monkeypatch):
        # at beta 2000 and 3000 every flip rate of a lone minus site
        # underflows to 0.0: no tick is ever accepted, and only the tick cap
        # (shrunk here to keep the test fast) ends the run
        import csv
        from isingkit import experiments
        monkeypatch.setattr(experiments, "GRAPHICAL_TICK_CAP", 1000)
        out_dir = tmp_path / "out"
        code, out = self.run_cli("nucleation", "--dims", "1", "--h", "0.5",
                                 "--beta", "2000,3000", "--mode", "graphical",
                                 "--replicas", "1", "--seed", "0",
                                 "--out-dir", str(out_dir))
        assert code == 0
        assert all("error" in fit for fit in json.loads(out)["fits"].values())
        with open(out_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["nucleation_censored"] == r["all_plus_censored"] == "True"
                   for r in rows)
        flags = json.loads((out_dir / "fit.json").read_text())["flags"]
        assert flags["tick_cap"] == 1000
        assert flags["all_plus_censored_betas"] == [2000.0, 3000.0]

    def test_config_not_an_object_fails_cleanly(self, tmp_path, capsys):
        from isingkit.cli import main
        out_dir = tmp_path / "out"
        for i, text in enumerate(["[1]", "3", '"dims"', "null"]):
            cfg = tmp_path / f"c{i}.json"
            cfg.write_text(text)
            code = main(["nucleation", "--config", str(cfg), "--dims", "3",
                         "--beta", "1,2", "--replicas", "1",
                         "--out-dir", str(out_dir)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "JSON object" in lines[0]
            assert not out_dir.exists()

    @pytest.mark.parametrize("command, other", [
        ("nucleation", "infection"), ("infection", "stc_audit"),
        ("stc-audit", "nucleation")])
    def test_config_for_another_experiment_fails_cleanly(
            self, tmp_path, capsys, monkeypatch, command, other):
        from isingkit import cli

        def no_run(config):
            raise AssertionError("the run started")

        for name in ("run_nucleation", "run_infection_microscopic",
                     "run_stc_audit"):
            monkeypatch.setattr(cli, name, no_run)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": other, "dims": [8],
                                   "block_side": 4, "beta": [2],
                                   "replicas": 2}))
        out_dir = tmp_path / "out"
        code = cli.main([command, "--config", str(cfg),
                         "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert repr(other) in lines[0]
        assert repr(command.replace("-", "_")) in lines[0]
        assert not out_dir.exists()

    def test_config_naming_its_own_experiment_runs(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "nucleation", "dims": [2],
                                   "beta": [2, 3], "replicas": 2}))
        code, out = self.run_cli("nucleation", "--config", str(cfg))
        assert code == 0
        assert "fits" in json.loads(out)

    @pytest.mark.parametrize("command", ["infection", "stc-audit"])
    def test_config_mode_applies_to_nucleation_only(
            self, tmp_path, capsys, monkeypatch, command):
        # infection and stc-audit run the rejection-free sampler only: any
        # other mode is refused before anything runs or is written
        from isingkit import cli

        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, {"infection": "run_infection_microscopic",
                                  "stc-audit": "run_stc_audit"}[command],
                            no_run)
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"mode": "graphical", "dims": [8],
                                   "block_side": 4, "beta": [2],
                                   "replicas": 2}))
        out_dir = tmp_path / "out"
        code = cli.main([command, "--config", str(cfg),
                         "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'graphical'" in lines[0]
        assert command.replace("-", "_") in lines[0]
        assert not out_dir.exists()
        cfg.write_text(json.dumps({"mode": "rejection_free", "dims": [8],
                                   "block_side": 4, "beta": [2],
                                   "replicas": 2}))
        with pytest.raises(AssertionError, match="the run started"):
            cli.main([command, "--config", str(cfg)])

    @pytest.mark.parametrize("mode, stop", [("rejection_free", "all_plus"),
                                            ("graphical", "all_plus"),
                                            ("graphical", "none")])
    def test_simulate_writes_the_sampler_trajectory(self, tmp_path,
                                                    monkeypatch, mode, stop):
        # simulate runs through hitting_time with its own caps: a graphical
        # run to time 100 with no event cap, a rejection-free one to
        # 1,000,000 events with no time cap
        from isingkit import kmc
        from isingkit.lattice import (BoundaryCondition, BoxGeometry,
                                      Configuration, build_context)
        calls = []
        for name in ("evolve_graphical", "evolve_rejection_free"):
            def spy(*args, _run=getattr(kmc, name), **kwargs):
                calls.append(kwargs)
                return _run(*args, **kwargs)
            monkeypatch.setattr(kmc, name, spy)
        code, out = self.run_cli("simulate", "--mode", mode, "--dims", "3,3",
                                 "--h", "0.5", "--beta", "2.0", "--seed", "7",
                                 "--stop", stop, "--out-dir", str(tmp_path))
        assert code == 0
        ctx = build_context(BoxGeometry((3, 3)),
                            BoundaryCondition.all_minus(),
                            MagneticField("0.5"))
        alpha = Configuration.all_minus(ctx.geometry)
        pred = kmc.pred_all_plus() if stop == "all_plus" else None
        if mode == "graphical":
            assert [(c["horizon"], c["max_events"]) for c in calls] == \
                [(100.0, None)]
            traj = kmc.evolve_graphical(kmc.EventStream(7), ctx, alpha, 2.0,
                                        stop=pred, horizon=100.0)
        else:
            assert [(c["time_cap"], c["max_events"]) for c in calls] == \
                [(None, 1_000_000)]
            traj = kmc.evolve_rejection_free(7, ctx, alpha, 2.0, stop=pred,
                                             max_events=1_000_000)
        buf = io.StringIO()
        traj.to_csv(buf)
        assert (tmp_path / "trajectory.csv").read_text() == buf.getvalue()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == json.loads(out) == traj.summary()
        # the file indented like stdout, which adds a newline
        assert (tmp_path / "summary.json").read_text() + "\n" == out
        if stop == "none":
            assert summary["stop_reason"] == "time_cap"

    @pytest.mark.parametrize("beta", ["-1", "0"])
    def test_simulate_non_positive_beta_rejected(self, tmp_path, capsys,
                                                 beta):
        from isingkit.cli import main
        code = main(["simulate", "--dims", "3", "--h", "0.5",
                     f"--beta={beta}", "--caps-events", "5",
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("caps", [(), ("--caps-events", "3")])
    def test_rows_record_stop_reason(self, tmp_path, caps):
        # a capped replica is censored with the cap as its reason; an
        # uncapped one reaches its predicate
        import csv
        want = "event_cap" if caps else "stopped"
        base = ("--dims", "3,3", "--h", "sqrt2/2", "--replicas", "2",
                "--seed", "3", *caps)
        code, _ = self.run_cli("nucleation", *base, "--beta", "1,1.5",
                               "--out-dir", str(tmp_path / "nuc"))
        assert code == 0
        with open(tmp_path / "nuc" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["stop_reason"] == want for r in rows)
        assert all(r["all_plus_censored"] == str(bool(caps)) for r in rows)
        code, _ = self.run_cli("stc-audit", *base, "--beta", "1",
                               "--out-dir", str(tmp_path / "stc"))
        with open(tmp_path / "stc" / "distribution.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["stop_reason"] == want for r in rows)
        assert all(r["censored"] == str(bool(caps)) for r in rows)

    def test_wgraph_check(self):
        code, out = self.run_cli("wgraph-check", "--count", "10",
                                 "--max-states", "5", "--seed", "4")
        assert code == 0
        assert json.loads(out)["pass"]

    @pytest.mark.parametrize("argv", [("--count", "0"), ("--count", "-5"),
                                      ("--max-states", "1")])
    def test_wgraph_check_bad_flags_fail_cleanly(self, capsys, monkeypatch,
                                                 argv):
        from isingkit import cli

        def no_instance(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(cli, "random_rate_matrix", no_instance)
        code = cli.main(["wgraph-check", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert argv[0] in lines[0]

    def test_simulate_outputs(self, tmp_path):
        code, _ = self.run_cli("simulate", "--dims", "3", "--h", "0.5",
                               "--beta", "2.0", "--seed", "5",
                               "--stop", "all_plus", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "stopped"

    def test_simulate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _ = self.run_cli("simulate", "--dims", "3", "--h", "0.5",
                                   "--beta", "2.0", "--seed", "5",
                                   "--stop", "all_plus", "--out-dir", str(out))
            assert code == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_landscape_export(self, tmp_path):
        code, _ = self.run_cli("landscape", "--dims", "2,2", "--h", "sqrt2/2",
                               "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "states.csv").read_text().strip().splitlines()
        assert len(lines) == 17

    def test_growth_threshold(self):
        code, out = self.run_cli("growth-threshold", "--d", "2", "--h", "0.1",
                                 "--L", "5.0")
        assert code == 0


# each flag of the replicated subcommands, its value and the RunConfig field
# it must set, none of them at its default
RUN_FLAGS = [("--dims", "5,5", "dims", [5, 5]),
             ("--bc", "n_pm_1", "bc", "n_pm_1"),
             ("--h", "sqrt2/2", "h", "sqrt2/2"),
             ("--out-dir", "o", "out_dir", "o"),
             ("--beta", "2.5", "beta", [2.5]),
             ("--replicas", "7", "replicas", 7),
             ("--seed", "9", "seed", 9),
             ("--caps-events", "123", "caps_events", 123),
             ("--caps-time", "4.5", "caps_time", 4.5)]
SUBCOMMAND_FLAGS = {
    "nucleation": ("run_nucleation",
                   [("--mode", "graphical", "mode", "graphical")]),
    "infection": ("run_infection_microscopic",
                  [("--block-side", "2", "block_side", 2),
                   ("--eligibility-defect", "5", "eligibility_defect", 5)]),
    "stc-audit": ("run_stc_audit",
                  [("--stc-threshold-D", "3", "stc_threshold_D", 3)]),
}


@pytest.mark.parametrize("command, flag, value, field, want", [
    (command, *case) for command, (_, own) in sorted(SUBCOMMAND_FLAGS.items())
    for case in RUN_FLAGS + own])
def test_each_flag_reaches_the_run_config(monkeypatch, command, flag, value,
                                          field, want):
    from isingkit import cli

    class Captured(Exception):
        pass

    def capture(config):
        raise Captured(config)

    monkeypatch.setattr(cli, SUBCOMMAND_FLAGS[command][0], capture)
    # stc-audit needs a beta; the flag under test comes last and wins
    with pytest.raises(Captured) as exc:
        cli.main([command, "--beta", "7", flag, value])
    config = exc.value.args[0]
    assert getattr(config, field) == want
    assert getattr(RunConfig(experiment="x"), field) != want


class TestCliConfigOverride:
    def test_config_file_with_flag_override(self, tmp_path):
        import json as _json
        cfg = tmp_path / "run.json"
        cfg.write_text(_json.dumps({"dims": [2], "h": "0.5",
                                    "beta": [2.0, 3.0], "replicas": 3,
                                    "seed": 4}))
        from isingkit.cli import main
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["nucleation", "--config", str(cfg),
                         "--replicas", "2", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 replicas x 2 betas

    @pytest.mark.parametrize("flags,want_events,want_reason", [
        ((), 2, "event_cap"),
        (("--caps-events", "50", "--caps-time", "0.001"), 50, "time_cap")])
    def test_caps_flags_win_over_config_caps(self, tmp_path, flags,
                                             want_events, want_reason):
        import csv
        from isingkit.cli import main
        from contextlib import redirect_stdout
        import io
        cfg = tmp_path / "run.json"
        # all-plus takes at least 8 flips, so 2 events end every replica
        cfg.write_text(json.dumps({"caps": {"events": 2, "time": 1e6}}))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["infection", "--config", str(cfg), "--dims", "8",
                         "--h", "0.5", "--block-side", "4", "--beta", "1,2",
                         "--replicas", "2", "--out-dir", str(tmp_path / "o"),
                         *flags])
        assert code == 0
        assert json.loads(buf.getvalue())["event_cap"]["requested"] == \
            want_events
        with open(tmp_path / "o" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["stop_reason"] == want_reason for r in rows)

    @pytest.mark.parametrize("flag", [("--caps-time", "2"), ()])
    def test_caps_not_an_object_fails_whatever_the_flags(self, tmp_path,
                                                         capsys, flag):
        from isingkit.cli import main
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"caps": [5]}))
        code = main(["nucleation", "--config", str(cfg), "--dims", "3",
                     "--beta", "1,2", "--replicas", "1", *flag,
                     "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "caps must be an object" in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data, spelt", [
        ({"caps_events": 5}, "caps.events"),
        ({"caps_time": 2.0}, "caps.time"),
        ({"caps_events": 5, "caps": {"events": 3}}, "caps.events"),
        ({"caps_time": 2.0, "caps": {"time": 1.0}}, "caps.time")])
    def test_top_level_caps_keys_fail(self, tmp_path, capsys, data, spelt):
        from isingkit.cli import main
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(data))
        code = main(["nucleation", "--config", str(cfg), "--dims", "3",
                     "--beta", "1,2", "--replicas", "1", "--caps-events", "3",
                     "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert spelt in lines[0]
        assert not (tmp_path / "o").exists()


# each subcommand that takes --out-dir: its arguments and the files it writes
OUT_DIR_FILES = {
    "landscape": (("--dims", "2,2", "--h", "sqrt2/2"),
                  {"states.csv", "partition.csv", "blocks.csv"}),
    "simulate": (("--dims", "3", "--h", "0.5", "--beta", "2",
                  "--caps-events", "20"), {"trajectory.csv", "summary.json"}),
    "nucleation": (("--dims", "2", "--beta", "2,3", "--replicas", "2"),
                   {"results.csv", "fit.json"}),
    "infection": (("--dims", "4", "--h", "0.5", "--block-side", "2",
                   "--beta", "2,3", "--replicas", "2"),
                  {"results.csv", "summary.json"}),
    "growth-model": (("--d", "1", "--gamma", "1.5", "--kappa-prev", "0",
                      "--L", "1", "--beta", "4,6", "--replicas", "2"),
                     {"results.csv", "fit.json"}),
    "isoperimetry": (("--d", "2", "--vmax", "5"), {"isoperimetry.csv"}),
    "stc-audit": (("--dims", "3,3", "--h", "sqrt2/2", "--beta", "2",
                   "--replicas", "2"), {"distribution.csv", "summary.json"}),
}


@pytest.mark.parametrize("command", sorted(OUT_DIR_FILES))
def test_out_dir_holds_exactly_the_subcommand_files(tmp_path, monkeypatch,
                                                    command):
    # nothing lands beside the out dir either: no temp file is left behind
    from contextlib import redirect_stdout
    import io
    from isingkit.cli import main
    argv, files = OUT_DIR_FILES[command]
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()):
        assert main([command, *argv, "--out-dir", "out"]) == 0
    assert os.listdir(tmp_path) == ["out"]
    assert set(os.listdir(tmp_path / "out")) == files


# every subcommand's arguments; those that take --out-dir write into "out"
STDOUT_ARGV = {
    "constants": ("--d", "2", "--h", "sqrt2/2"),
    "wgraph-check": ("--count", "5", "--seed", "1"),
    "growth-threshold": ("--d", "2", "--h", "0.1", "--L", "5.0"),
    **{command: (*argv, "--out-dir", "out")
       for command, (argv, _) in OUT_DIR_FILES.items()},
}


@pytest.mark.parametrize("command", sorted(STDOUT_ARGV))
def test_stdout_is_one_strict_json_object(tmp_path, monkeypatch, command):
    # and the object of the JSON file the run writes, if it writes one
    from contextlib import redirect_stdout
    import io
    from isingkit.cli import main

    def reject(constant):
        raise ValueError(f"{constant} in stdout")

    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main([command, *STDOUT_ARGV[command]]) == 0
    printed = json.loads(buf.getvalue(), parse_constant=reject)
    assert isinstance(printed, dict)
    # indented, keys sorted, like every file's JSON
    assert buf.getvalue() == json.dumps(printed, indent=2, sort_keys=True) \
        + "\n"
    json_files = [name for name in OUT_DIR_FILES.get(command, ((), ()))[1]
                  if name.endswith(".json")]
    assert len(json_files) <= 1
    for name in json_files:
        assert json.loads((tmp_path / "out" / name).read_text()) == printed
