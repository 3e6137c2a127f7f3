import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embednoise.analytics import critical_chain_strength
import embednoise
from embednoise import cli
from embednoise.cli import _point_seed, empirical_kstar, main
from embednoise.noise import NoiseModel
from embednoise.sampler import margin_model_run

FAST_SWEEP = {"L_sweep": {"start": 5, "stop": 40, "step": 5}, "reads": 400}


def write_config(tmp_path, extra=None):
    cfg = dict(FAST_SWEEP)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestChainlen:
    def test_outputs_and_fit(self, tmp_path):
        rc = main(["chainlen", "--config", write_config(tmp_path),
                   "--out", str(tmp_path), "--seed", "1"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "chainlen.csv")
        assert header == ["L", "mean_chain_len"]
        assert len(rows) == 8
        fit = json.loads((tmp_path / "chainlen_fit.json").read_text())
        assert set(fit) == {"slope", "intercept", "r_squared"}

    def test_integer_lattice_slope_exact(self, tmp_path):
        cfg = write_config(tmp_path, {"chain_length": {"slope": 0.2, "intercept": 1.0,
                                                       "jitter": 0}})
        main(["chainlen", "--config", cfg, "--out", str(tmp_path)])
        fit = json.loads((tmp_path / "chainlen_fit.json").read_text())
        assert fit["slope"] == pytest.approx(0.2, abs=1e-9)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_jittered_slope_near_nominal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "L_sweep": {"start": 5, "stop": 100, "step": 5},
            "chain_length": {"slope": 0.122, "intercept": 1.0, "jitter": 2}})
        main(["chainlen", "--config", cfg, "--out", str(tmp_path), "--seed", "4"])
        fit = json.loads((tmp_path / "chainlen_fit.json").read_text())
        # jitter sd ~ 1.4 over L chains; 3 SE on 20 points is generous
        assert abs(fit["slope"] - 0.122) < 0.02


class TestCbfCurve:
    def test_self_consistency(self, tmp_path):
        cfg = write_config(tmp_path, {"reads": 4000})
        rc = main(["cbf-curve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "cbf_curve.csv")
        assert header == ["L", "cbf_obs", "cbf_pred"]
        for row in rows:
            obs, pred = float(row["cbf_obs"]), float(row["cbf_pred"])
            se = math.sqrt(max(pred * (1 - pred), 1e-12) / 4000)
            assert abs(obs - pred) <= 4 * se + 1e-6

    def test_huge_k_gives_zero_curve(self, tmp_path):
        cfg = write_config(tmp_path, {"k": 50.0})
        main(["cbf-curve", "--config", cfg, "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "cbf_curve.csv")
        assert all(float(r["cbf_obs"]) == 0.0 for r in rows)
        assert all(float(r["cbf_pred"]) < 1e-12 for r in rows)

    def test_pred_nondecreasing_in_L(self, tmp_path):
        main(["cbf-curve", "--config", write_config(tmp_path), "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "cbf_curve.csv")
        preds = [float(r["cbf_pred"]) for r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(preds, preds[1:]))

    @pytest.mark.parametrize("eta", [0.0, 1.5])
    def test_rejects_eta_outside_unit_interval(self, tmp_path, capsys, eta):
        cfg = write_config(tmp_path, {"eta": eta})
        assert main(["cbf-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "eta must lie in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFitCommand:
    def test_fit_from_curve_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {"reads": 2000})
        main(["cbf-curve", "--config", cfg, "--out", str(tmp_path)])
        rc = main(["fit", str(tmp_path / "cbf_curve.csv"),
                   "--lengths", str(tmp_path / "cbf_curve_lengths.json"),
                   "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "fit_result.json").read_text())
        assert set(result) >= {"sigma_h", "sigma_c", "kappa", "sse", "per_L"}
        header, rows = read_csv(tmp_path / "fit_report.csv")
        assert header == ["L", "cbf_obs", "cbf_pred", "abs_err"]
        assert len(rows) == len(result["per_L"])

    def test_malformed_csv_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,valid\nobservations,file,x\n")
        rc = main(["fit", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_grid_range_names_its_key(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("L,cbf_obs,ell_bar\n20,0.1,3.4\n")
        cfg = write_config(tmp_path, {"grid": {"sigma_h": {"lo": 0.08, "hi": 0.005}}})
        assert main(["fit", str(obs), "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "grid.sigma_h: grid range needs lo <= hi" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestKstar:
    def test_analytic_exponents(self, tmp_path):
        rc = main(["kstar", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "kstar.csv")
        assert header == ["l", "k_star", "tau"]
        fits = json.loads((tmp_path / "kstar_fits.json").read_text())
        for tau in ("0.01", "0.02", "0.05"):
            assert 0.45 <= fits[tau]["exponent"] <= 0.55

    def test_correlated_preset_exponent(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {
            "sigma_h": 0.001, "sigma_c": 0.0,
            "corr_strength": 0.01, "corr_exponent": 1.64}})
        main(["kstar", "--config", cfg, "--out", str(tmp_path)])
        fits = json.loads((tmp_path / "kstar_fits.json").read_text())
        for fit in fits.values():
            assert 0.78 <= fit["exponent"] <= 0.86

    def test_empirical_matches_analytic(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        analytic = critical_chain_strength(8, nm, 0.02)
        emp = empirical_kstar(8, nm, tau=0.02, eta=1.0, reads=10**6, seed=5)
        assert abs(emp - analytic) / analytic < 0.02

    @staticmethod
    def bisect_kstar(ell, nm, tau, eta, reads, seed):
        def cbf(k):
            return float(np.mean(margin_model_run([ell], k, eta, nm, reads, seed)))

        lo, hi = 0.0, 1.0
        while cbf(hi) > tau:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if cbf(mid) > tau else (lo, mid)
        return hi

    @pytest.mark.parametrize("reads,tau", [(1000, 0.02), (999, 0.02), (2000, 0.05),
                                           (100, 0.29), (37, 0.1)])
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_empirical_is_bisection_limit(self, reads, tau, eta):
        # tau * reads is an integer for (1000, 0.02) and (2000, 0.05), not for
        # (999, 0.02) or (37, 0.1); 0.29 * 100 rounds below 29 in floating point
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        for ell in (3, 13):
            want = self.bisect_kstar(ell, nm, tau, eta, reads, seed=40 + ell)
            got = empirical_kstar(ell, nm, tau, eta, reads, seed=40 + ell)
            assert got == pytest.approx(want, rel=1e-9)
            assert np.mean(margin_model_run([ell], got, eta, nm, reads, 40 + ell)) <= tau

    def test_empirical_reads_every_tau_off_one_draw_per_length(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"ell_sweep": {"start": 3, "stop": 9, "step": 3}})
        draws = []
        monkeypatch.setattr(cli, "margin_errors",
                            lambda *a: draws.append(a) or embednoise.margin_errors(*a))
        assert main(["kstar", "--empirical", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "4"]) == 0
        assert [a[0] for a in draws] == [[3], [6], [9]]
        _, rows = read_csv(tmp_path / "kstar.csv")
        assert len(rows) == 9
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        for row in rows:
            ell, tau = int(row["l"]), float(row["tau"])
            want = empirical_kstar(ell, nm, tau, 1.0, 400, _point_seed(4, "kstar", ell))
            assert row["k_star"] == f"{want:.12g}"

    def test_empirical_zero_noise_is_zero(self):
        assert empirical_kstar(8, NoiseModel(0.0, 0.0), 0.02, 1.0, 100, seed=1) == 0.0

    def test_empirical_rejects_bad_inputs(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        for tau in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="tau"):
                empirical_kstar(8, nm, tau, 1.0, 100, seed=1)
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError, match="eta"):
                empirical_kstar(8, nm, 0.02, eta, 100, seed=1)
        with pytest.raises(ValueError, match="reads"):
            empirical_kstar(8, nm, 0.02, 1.0, 0, seed=1)


class TestHeatmap:
    def test_monotone_rows_and_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "L_sweep": {"start": 10, "stop": 60, "step": 10},
            "k_values": {"start": 0.1, "stop": 0.9, "step": 0.1},
            "reads": 30000})
        rc = main(["heatmap", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "heatmap.csv")
        grid = {}
        for r in rows:
            grid[(int(r["L"]), float(r["k"]))] = float(r["cbf_mean"])
        Ls = sorted({L for L, _ in grid})
        ks = sorted({k for _, k in grid})
        slack = 0.01  # Monte Carlo wiggle room on a trend check
        for L in Ls:
            vals = [grid[(L, k)] for k in ks]
            assert all(a >= b - slack for a, b in zip(vals, vals[1:]))
        for k in ks:
            vals = [grid[(L, k)] for L in Ls]
            assert all(a <= b + slack for a, b in zip(vals, vals[1:]))

    def test_contour_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "L_sweep": {"start": 10, "stop": 40, "step": 10},
            "reads": 20000})
        main(["heatmap", "--config", cfg, "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "heatmap_contour.csv")
        assert header == ["L", "k_star_empirical"]
        assert rows  # contour crosses tau=0.02 inside the default k range

    def test_k_grid_finer_than_1e3_accepted(self, tmp_path):
        # every k of one L reads the same draws, so no k step is too fine and
        # each row is exactly nonincreasing in k
        cfg = write_config(tmp_path, {"k_values": {"start": 0.1, "stop": 0.1012, "step": 0.0004}})
        rc = main(["heatmap", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = {}
        for r in read_csv(tmp_path / "heatmap.csv")[1]:
            rows.setdefault(r["L"], []).append((float(r["k"]), float(r["cbf_mean"])))
        assert len(rows) == 8
        for row in rows.values():
            ks, cbfs = zip(*row)
            assert len(ks) == 4 and list(ks) == sorted(ks)
            assert all(a >= b for a, b in zip(cbfs, cbfs[1:]))

    @pytest.mark.parametrize("extra", [
        {"k_values": {"start": 0.0, "stop": 0.2, "step": 0.1}},
        {"k_values": [0.3, -0.1]},
        {"eta": 0.0},
        {"eta": 1.5},
        {"k_values": [0.3, math.nan]},
        {"k_values": [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]},
        {"k_values": [0.2, 0.2]}])
    def test_rejects_bad_k_and_eta(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, extra)
        assert main(["heatmap", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "k > 0 and eta in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "heatmap.csv").exists()


class TestBench:
    def test_schema_and_oracle_bound(self, tmp_path):
        cfg = write_config(tmp_path, {"bench_L": [5, 8], "reads": 300, "sweeps": 64})
        rc = main(["bench", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert header == ["L", "solver", "E_min", "seconds"]
        by_L = {}
        for r in rows:
            by_L.setdefault(int(r["L"]), {})[r["solver"]] = float(r["E_min"])
        for L, solvers in by_L.items():
            assert set(solvers) == {"brute_force", "sa", "synthetic"}
            assert solvers["sa"] >= solvers["brute_force"] - 1e-9
            assert solvers["synthetic"] >= solvers["brute_force"] - 1e-9

    def test_small_instance_agreement(self, tmp_path):
        cfg = write_config(tmp_path, {"bench_L": [5], "reads": 500,
                                      "noise": {"sigma_h": 0.0, "sigma_c": 0.0,
                                                "corr_strength": 0.0,
                                                "corr_exponent": 0.0}})
        main(["bench", "--config", cfg, "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "bench.csv")
        energies = {r["solver"]: float(r["E_min"]) for r in rows}
        assert energies["sa"] == pytest.approx(energies["brute_force"], abs=1e-9)
        assert energies["synthetic"] == pytest.approx(energies["brute_force"], abs=1e-9)


class TestZephyrCommand:
    def test_outputs(self, tmp_path):
        rc = main(["zephyr", "--m", "2", "--t", "2", "--out", str(tmp_path)])
        assert rc == 0
        g = json.loads((tmp_path / "zephyr_2_2.json").read_text())
        assert len(g["vertices"]) == 80
        edges = (tmp_path / "zephyr_2_2_edges.txt").read_text()
        fixture = (Path(__file__).parent / "data" / "zephyr_2_2_edges.txt").read_text()
        assert edges == fixture

    def test_invalid_m(self, tmp_path, capsys):
        rc = main(["zephyr", "--m", "0", "--out", str(tmp_path)])
        assert rc == 1


class TestRepro:
    def test_full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, {"reads": 1000})
        rc = main(["repro", "--config", cfg, "--out", str(tmp_path), "--seed", "2"])
        assert rc == 0
        for name in ("chainlen.csv", "cbf_curve.csv", "fit_result.json",
                     "fit_report.csv", "kstar.csv", "kstar_fits.json"):
            assert (tmp_path / name).exists()

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"reads": 500})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["repro", "--config", cfg, "--out", str(out_a), "--seed", "3"])
        main(["repro", "--config", cfg, "--out", str(out_b), "--seed", "3"])
        for name in ("chainlen.csv", "cbf_curve.csv", "fit_report.csv", "kstar.csv"):
            assert (out_a / name).read_text() == (out_b / name).read_text()


class TestConfigPrecedence:
    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"seed": 11})
        out = tmp_path / "flagged"
        main(["chainlen", "--config", cfg, "--seed", "99", "--out", str(out)])
        assert out.exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMBEDNOISE_OUT", str(tmp_path / "envout"))
        rc = main(["chainlen", "--config", write_config(tmp_path)])
        assert rc == 0
        assert (tmp_path / "envout" / "chainlen.csv").exists()

    def test_nested_key_keeps_other_defaults(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"sigma_h": 0.1},
                                      "ell_sweep": {"stop": 6}, "taus": [0.05]})
        rc = main(["kstar", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "kstar.csv")
        assert [int(r["l"]) for r in rows] == [3, 4, 5, 6]
        nm = NoiseModel(sigma_h=0.1, sigma_c=0.005)
        assert float(rows[0]["k_star"]) == pytest.approx(
            critical_chain_strength(3, nm, 0.05, 1.0), rel=1e-9)

    @pytest.mark.parametrize("extra, key", [
        ({"reeds": 100}, "reeds"),
        ({"noise": {"sigma_hh": 0.1}}, "noise.sigma_hh"),
        ({"grid": {"sigma_h": {"lo": 0.01, "hi": 0.02, "step": 0.01}, "kapa": {}}}, "grid.kapa"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, extra, key):
        cfg = write_config(tmp_path, extra)
        rc = main(["chainlen", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "chainlen.csv").exists()


class TestDispatch:
    def test_main_looks_the_command_up_when_called(self, tmp_path, monkeypatch):
        # a tracer wraps cli.cmd_* by attribute, so main must not hold the functions it had
        # at import time
        calls = []
        monkeypatch.setattr(cli, "cmd_heatmap", lambda cfg: calls.append(cfg["reads"]) or 7)
        assert main(["heatmap", "--reads", "12", "--out", str(tmp_path)]) == 7
        assert calls == [12]
        assert not (tmp_path / "heatmap.csv").exists()


class TestSweepValues:
    @staticmethod
    def accumulated(spec):
        """The rule _sweep_values replaced: add step to start while within stop + 1e-9."""
        vals, x = [], spec["start"]
        while x <= spec["stop"] + 1e-9:
            vals.append(round(x, 10))
            x += spec["step"]
        return vals

    @pytest.mark.parametrize("spec", [cli.DEFAULTS["L_sweep"], cli.DEFAULTS["ell_sweep"],
                                      cli.DEFAULTS["k_values"],
                                      {"start": 0.1, "stop": 0.1012, "step": 0.0004}])
    def test_matches_the_accumulated_rule(self, spec):
        got = cli._sweep_values({"sweep": spec}, "sweep")
        assert got == self.accumulated(spec)
        assert [type(v) for v in got] == [type(v) for v in self.accumulated(spec)]

    def test_infinite_step_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            cli._sweep_values({"sweep": {"start": 0.1, "stop": 1.0, "step": math.inf}}, "sweep")

    def test_list_passes_through(self):
        assert cli._sweep_values({"k_values": (0.3, 0.1)}, "k_values") == [0.3, 0.1]

    @pytest.mark.parametrize("command, extra", [
        ("heatmap", {"L_sweep": {"start": 50, "stop": 10, "step": 5}}),
        ("heatmap", {"k_values": {"start": 0.5, "stop": 0.1, "step": 0.1}}),
        ("chainlen", {"L_sweep": {"start": 50, "stop": 10, "step": 5}}),
        ("kstar", {"ell_sweep": {"start": 9, "stop": 3, "step": 1}})])
    def test_empty_sweep_exits_1_and_writes_nothing(self, tmp_path, capsys, command, extra):
        # start > stop used to exit 0 with header-only CSVs
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, extra), "--out", str(out)]) == 1
        key, = extra
        assert f"{key}: grid range needs lo <= hi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", [0, -0.5])
    def test_nonpositive_step_rejected(self, step):
        # both used to loop forever
        with pytest.raises(ValueError, match="^k_values: sweep step must be > 0"):
            cli._sweep_values({"k_values": {"start": 0.1, "stop": 1.0, "step": step}}, "k_values")

    def test_zero_step_config_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"k_values": {"step": 0}})
        assert main(["heatmap", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "sweep step must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "heatmap.csv").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # the package runs on numpy alone: neither the import nor a cbf-curve + fit loads scipy
    src = str(Path(embednoise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cfg = write_config(tmp_path, {"L_sweep": {"start": 5, "stop": 20, "step": 5}, "reads": 100})
    common = ["--config", cfg, "--out", str(tmp_path)]
    fit = ["fit", str(tmp_path / "cbf_curve.csv"),
           "--lengths", str(tmp_path / "cbf_curve_lengths.json")] + common
    code = ("import sys, embednoise, embednoise.cli; "
            "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "print(loaded()); "
            f"assert embednoise.cli.main({['cbf-curve'] + common!r}) == 0; "
            f"assert embednoise.cli.main({fit!r}) == 0; "
            "print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"
    assert (tmp_path / "fit_result.json").is_file()
