import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from isingkit.energy import MagneticField
from isingkit.experiments import (GrowthModelParams, RunConfig, arrhenius_fit,
                                  growth_threshold_from_constants,
                                  recompute_infection_indicator,
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

    def test_single_beta_fit_error(self):
        with pytest.raises(ValueError):
            arrhenius_fit({3.0: [1.0, 2.0]})


class TestArrheniusFit:
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

    def test_indicator_recompute_matches(self):
        cfg = RunConfig(experiment="infection", dims=[8], h="0.5",
                        beta=[2.0], replicas=2, seed=9, block_side=4)
        report = run_infection_microscopic(cfg)
        for row in report["rows"]:
            events = row["events"]
            for t, b, val in events:
                assert recompute_infection_indicator(events, b, t) == val
                before = recompute_infection_indicator(events, b, t - 1e-9)
                assert before != val

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
                const = critical_constants(d, MagneticField(tok),
                                           verify_oracle=False)
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

    def test_isoperimetry_table_shape(self, tmp_path):
        code, out = self.run_cli("isoperimetry", "--d", "2", "--vmax", "12",
                                 "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "isoperimetry.csv").read_text().strip().splitlines()
        assert len(lines) == 13

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

    def test_wgraph_check(self):
        code, out = self.run_cli("wgraph-check", "--count", "10",
                                 "--max-states", "5", "--seed", "4")
        assert code == 0
        assert json.loads(out)["pass"]

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
