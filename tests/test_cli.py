import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from embednoise.analytics import critical_chain_strength
import embednoise
from embednoise import cli
from embednoise.cli import _kstar_of_draws, _point_seed, main
from embednoise.noise import NoiseModel
from embednoise.sampler import margin_errors, margin_model_run

def empirical_kstar(ell, nm, tau, eta, reads, seed):
    """`kstar --empirical` at one length: the order statistic of one margin-model draw."""
    return _kstar_of_draws(np.abs(margin_errors([ell], nm, reads, seed)[:, 0]), tau, eta)


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

    def test_non_integral_lengths_fail_cleanly(self, tmp_path, capsys):
        obs, lengths = tmp_path / "obs.csv", tmp_path / "lengths.json"
        obs.write_text("L,cbf_obs\n5,0.01\n")
        lengths.write_text('{"5": [2.5, 3]}')
        rc = main(["fit", str(obs), "--lengths", str(lengths), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "L=5: chain lengths must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("csv, message", [
        ("L,cbf\n5,0.01\n", "observations CSV has no 'cbf_obs' column (header L,cbf_obs)"),
        ("size,cbf_obs\n5,0.01\n", "observations CSV has no 'L' column (header L,cbf_obs)"),
        ("L,cbf_obs,ell_bar\n5,0.01,1.6\n10,,2.2\n",
         "observations CSV line 3, column 'cbf_obs': expected a number, got ''"),
        ("L,cbf_obs,ell_bar\nfive,0.01,1.6\n",
         "observations CSV line 2, column 'L': expected an integer, got 'five'"),
        ("L,cbf_obs,ell_bar\n10.5,0.01,1.6\n",
         "observations CSV line 2, column 'L': expected an integer, got '10.5'")],
        ids=["no-cbf_obs", "no-L", "empty-cbf_obs", "word-L", "fractional-L"])
    def test_csv_without_a_column_names_it(self, tmp_path, capsys, csv, message):
        # used to print the bare KeyError "error: 'cbf_obs'", and for a bad cell
        # "could not convert string to float: ''" or "invalid literal for int()"
        obs = tmp_path / "obs.csv"
        obs.write_text(csv)
        assert main(["fit", str(obs), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", 'lengths JSON must be {"L": [lengths]}, got a list'),
        ('{"5": 3}', 'lengths JSON must be {"L": [lengths]}; L=5 holds 3'),
        # these printed "invalid literal for int() with base 10: 'ten'" and "float() argument
        # must be a string or a real number, not 'NoneType'", or read "2" and true as 2 and 1
        ('{"ten": [2]}', "lengths JSON key must be an integer, got 'ten'"),
        ('{"5": [2, null]}', "L=5: chain lengths must be integers, got None"),
        ('{"5": ["2"]}', "L=5: chain lengths must be integers, got '2'"),
        ('{"5": [true]}', "L=5: chain lengths must be integers, got True")],
        ids=["list", "int-value", "word-key", "null-length", "text-length", "bool-length"])
    def test_lengths_json_of_another_shape_fails_cleanly(self, tmp_path, capsys, text, message):
        # used to print "'list' object has no attribute 'items'" and "'int' object is not iterable"
        obs, lengths = tmp_path / "obs.csv", tmp_path / "lengths.json"
        obs.write_text("L,cbf_obs\n5,0.01\n")
        lengths.write_text(text)
        rc = main(["fit", str(obs), "--lengths", str(lengths), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_L_is_the_integer(self, tmp_path):
        # "10.0" used to fail with "column 'L': expected an integer, got '10.0'"
        outs = []
        for L in ("10", "10.0"):
            obs, out = tmp_path / f"obs{L}.csv", tmp_path / f"out{L}"
            obs.write_text(f"L,cbf_obs\n5,0.002\n{L},0.02\n15,0.06\n")
            lengths = tmp_path / "lengths.json"
            lengths.write_text('{"5": [2, 2], "10": [3, 2, 3], "15": [3, 3, 4]}')
            assert main(["fit", str(obs), "--lengths", str(lengths), "--out", str(out)]) == 0
            outs.append([(out / name).read_text() for name in ("fit_result.json", "fit_report.csv")])
        assert outs[0] == outs[1]
        assert json.loads(outs[1][0])["per_L"][1]["L"] == 10

    def test_integral_float_key_is_the_integer(self, tmp_path):
        # a key "10.0" used to fail with "invalid literal for int() with base 10: '10.0'"
        outs = []
        for key in ("10", "10.0"):
            obs, lengths, out = tmp_path / "obs.csv", tmp_path / f"len{key}.json", tmp_path / key
            obs.write_text("L,cbf_obs\n5,0.002\n10,0.02\n15,0.06\n")
            lengths.write_text(f'{{"5": [2, 2], "{key}": [3, 2, 3], "15": [3, 3, 4]}}')
            assert main(["fit", str(obs), "--lengths", str(lengths), "--out", str(out)]) == 0
            outs.append([(out / name).read_text() for name in ("fit_result.json", "fit_report.csv")])
        assert outs[0] == outs[1]

    def test_null_grid_is_the_default_grid(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("L,cbf_obs,ell_bar\n5,0.002,1.6\n10,0.02,2.2\n15,0.06,2.8\n")
        outs = []
        for extra in ({}, {"grid": None}):
            cfg, out = write_config(tmp_path, extra), tmp_path / f"out{len(extra)}"
            assert main(["fit", str(obs), "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "fit_result.json").read_text())
        assert outs[0] == outs[1]

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
        assert sorted(a[0] for a in draws) == [[3], [6], [9]]  # the lengths run on every CPU
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


    def test_rejects_infinite_k(self, tmp_path, capsys):
        # 1e309 reads as inf and used to write rows "L,inf,0" and exit 0
        cfg = write_config(tmp_path, {"k_values": [0.1, 1e309]})
        assert main(["heatmap", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "chain strength k must be > 0 and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "heatmap.csv").exists()

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_rejects_contour_tau_outside_unit_interval(self, tmp_path, capsys, tau):
        # 1.5 used to give the smallest k as the contour at every L, -0.1 an empty contour
        out = tmp_path / "out"
        assert main(["heatmap", "--config", write_config(tmp_path, {"contour_tau": tau}),
                     "--out", str(out)]) == 1
        assert f"contour_tau must lie in (0, 1), got {tau}" in capsys.readouterr().err
        assert not out.exists()


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

    # sha256 of zephyr_M_T.json, zephyr_M_T_edges.txt and zephyr_M_T_degrees.json, recorded
    # from the coordinate-loop build, which stored the graph as lists of tuples
    @pytest.mark.parametrize("m, t, digests", [
        (1, 1, ("5002d05f51d19b3a1ddc0c0b5458da4e699d68d4171f2d09dc4e1d3c4bbbaccf",
                "867f87003e77adb608a5ddb3887b5caf02ffc56c61643dc80ec2a515267298ae",
                "ad67b6daee87d28e8cbc773ae904dd1718fb9cfdb5e29114c35cae5b349b3ac0")),
        (1, 4, ("454e150e23e4f40281230e8f49cb7a65c4d104b836bfca00f82bbd6869bb119f",
                "ac8b13b74fa972fd468bd897a48bda6dbabd100a1e5ecb139288244fe2fbdc27",
                "d361f3ba90fdc4a265d0bda25d5bc77696cd668967df7aebfad5dd21b1f669fc")),
        (2, 2, ("04c0839eb88d60b7aa38d08ee0dc8f04aae526cf564496fc424ed50d3e0da002",
                "37c0e046dc041cd95f471a0ed4c6d422f114e7aa0765b18d4e5baec26fb330b2",
                "4b1a2a548043df0f70b410d9d2293b64e8a4af912340607d2cdd9b99666ed8df")),
        (3, 4, ("9958d5f3a84787d86b52e0cf7d8162e3cddd79f2b6ccb67032a32f8263455746",
                "4da6e7a0e6e25bef87e228114193ff7f73ec95b1b5a0b795b67f034f059564c7",
                "162519d35ec5b0b0c05ba3f678c52ce468ac8fcc2eb48cf885c358752a610312")),
        (4, 2, ("14fa874721bd324130bbb30dcaaad16b5544b818647b3617098b00865cc02cc0",
                "2bf1e15b25e15318920630fe3038db9d1b5a170d1ee5423f8f5b8592ed69daf6",
                "615b535d05b73235914396dada9a5ccd312cea16688dd20016dbde838deb5c22")),
        (7, 4, ("6d7fd8a999b86801880c8226c9c60b8f2e39b4c59610935cc2ab053d2d5c65be",
                "d3eb4c9fe9cc1231e31f6c44643afe68f9ee4a95696e0773ee868306a8a4950f",
                "38ace04eb799154c9afd7fa3b9ab68ddf65dd08dc5ec1d4bcea17eea3dd0d833")),
    ])
    def test_outputs_are_pinned(self, tmp_path, m, t, digests):
        assert main(["zephyr", "--m", str(m), "--t", str(t), "--out", str(tmp_path)]) == 0
        names = [f"zephyr_{m}_{t}{end}" for end in (".json", "_edges.txt", "_degrees.json")]
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
        assert got == digests

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

    @pytest.mark.parametrize("command, extra, message", [
        ("chainlen", {"chain_length": {"slope": math.nan}}, "slope and intercept must be finite"),
        ("chainlen", {"chain_length": {"intercept": math.inf}},
         "slope and intercept must be finite"),
        ("chainlen", {"chain_length": {"jitter": 1.5}}, "jitter must be an integer >= 0"),
        ("bench", {"sweeps": 12.5, "bench_L": [3]}, "sweeps must be an integer >= 1"),
        # a number for a list used to print "'int' (or 'float') object is not iterable"
        ("bench", {"bench_L": 5}, "config key 'bench_L' takes a list, got 5"),
        ("kstar", {"taus": 0.02}, "config key 'taus' takes a list, got 0.02"),
        ("chainlen", {"L_sweep": 50}, "config key 'L_sweep' takes a list, got 50"),
        ("kstar", {"ell_sweep": 7}, "config key 'ell_sweep' takes a list, got 7"),
        ("heatmap", {"k_values": 0.5}, "config key 'k_values' takes a list, got 0.5"),
        # a non-object for an object used to print "argument after ** must be a mapping"
        ("kstar", {"noise": 0.06}, "config key 'noise' takes an object, got 0.06"),
        ("chainlen", {"chain_length": [1]}, "config key 'chain_length' takes an object, got [1]"),
        ("kstar", {"noise": None}, "config key 'noise' takes an object, got None"),
        ("fit", {"grid": 3}, "config key 'grid' takes an object, got 3"),
        ("fit", {"grid": {"kappa": 0.5}}, "config key 'grid.kappa' takes an object, got 0.5"),
        # seed 1.5, "1" and true used to run as seed 1; the reads and sweeps here printed a
        # bare TypeError that named no key
        ("cbf-curve", {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ("cbf-curve", {"seed": "1"}, "seed must be an integer >= 0, got '1'"),
        ("kstar", {"seed": True}, "seed must be an integer >= 0, got True"),
        ("cbf-curve", {"reads": 200.5}, "reads must be an integer >= 1, got 200.5"),
        ("heatmap", {"reads": "200"}, "reads must be an integer >= 1, got '200'"),
        ("bench", {"sweeps": "128", "bench_L": [3]}, "sweeps must be an integer >= 1, got '128'"),
    ], ids=["nan-slope", "inf-intercept", "fractional-jitter", "fractional-sweeps",
            "scalar-bench_L", "scalar-taus", "scalar-L_sweep", "scalar-ell_sweep",
            "scalar-k_values", "scalar-noise", "list-chain_length", "null-noise", "scalar-grid",
            "scalar-grid-axis", "fractional-seed", "text-seed", "bool-seed", "fractional-reads",
            "text-reads", "text-sweeps"])
    def test_bad_model_field_exits_1(self, tmp_path, capsys, command, extra, message):
        # json writes and reads NaN and Infinity, so a config file can carry them
        cfg = write_config(tmp_path, extra)
        args = [str(tmp_path / "absent.csv")] if command == "fit" else []
        assert main([command, *args, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_integral_float_reads_and_seed_are_the_integers(self, tmp_path):
        # reads 200.0 used to fail with "'float' object cannot be interpreted as an integer"
        outs = []
        for extra in ({"reads": 200, "seed": 3}, {"reads": 200.0, "seed": 3.0}):
            out = tmp_path / str(extra["reads"])
            assert main(["cbf-curve", "--config", write_config(tmp_path, extra),
                         "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("cbf_curve.csv", "cbf_curve_lengths.json")])
        assert outs[0] == outs[1]


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

    @pytest.mark.parametrize("command, key", [
        ("chainlen", "L_sweep"), ("cbf-curve", "L_sweep"), ("heatmap", "L_sweep"),
        ("heatmap", "k_values"), ("kstar", "ell_sweep"), ("kstar", "taus"), ("bench", "bench_L")])
    def test_empty_list_exits_1_and_writes_nothing(self, tmp_path, capsys, command, key):
        # an empty L_sweep or k_values, taus or bench_L used to exit 0 with header-only CSVs
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, {key: []}), "--out", str(out)]) == 1
        assert f"{key}: needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, values, sweep, names", [
        ("kstar", "taus", [0.01, 0.02, 0.03], {"start": 0.01, "stop": 0.03, "step": 0.01},
         ["kstar.csv", "kstar_fits.json"]),
        ("bench", "bench_L", [4, 6], {"start": 4, "stop": 6, "step": 2}, ["bench.csv"])],
        ids=["taus", "bench_L"])
    def test_a_sweep_is_its_list(self, tmp_path, command, key, values, sweep, names):
        # kstar used to fail on a taus sweep with "'<' not supported between instances of
        # 'float' and 'str'", and bench on a bench_L sweep with "values must be an integer"
        outputs = []
        for spec in (values, sweep):
            out = tmp_path / str(len(outputs))
            cfg = write_config(tmp_path, {key: spec, "reads": 20, "sweeps": 4})
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            # bench.csv's last column is a timing
            outputs.append([[ln.rsplit(",", 1)[0] if command == "bench" else ln
                             for ln in (out / name).read_text().splitlines()] for name in names])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, extra, bad", [
        ("chainlen", {"L_sweep": [5.5, 10]}, "5.5"),
        ("cbf-curve", {"L_sweep": {"start": 5, "stop": 10, "step": 2.5}}, "7.5"),
        ("heatmap", {"L_sweep": [10, 12.5]}, "12.5"),
        ("kstar", {"ell_sweep": {"start": 3, "stop": 9, "step": 1.5}}, "4.5"),
        ("bench", {"bench_L": [5.5]}, "5.5"),
        ("bench", {"bench_L": [5, "6"]}, "'6'"),
        ("bench", {"bench_L": [True]}, "True")])
    def test_non_integral_sweep_exits_1_and_writes_nothing(self, tmp_path, capsys, command,
                                                           extra, bad):
        # chainlen used to write L=5 for 5.5, cbf-curve L = 5, 7, 10 for a step of 2.5, kstar
        # l=4 for 4.5, and bench to fail with "substream tag must be int or str, got float";
        # bench ran true as L=1
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, extra), "--out", str(out)]) == 1
        key, = extra
        assert f"{key}: values must be integers, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_are_the_integers(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"L_sweep": [5.0, 10.0, 15]})
        assert main(["chainlen", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "chainlen.csv")
        assert [row["L"] for row in rows] == ["5", "10", "15"]

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


class TestGoldenOutputs:
    """sha256 of the closed-form and calibration outputs at --seed 0 --reads 300 on the
    defaults: a change that moves any byte of them fails here. A deliberate change updates
    the digests and says so in CHANGES.md."""

    DIGESTS = {
        "cbf_curve.csv": "71dd0c94ef3172d9c5fe76411adac252871dc4a14d18bbfb4418ac547c84b04e",
        "fit_result.json": "fd8028b773f681a9626390b9605d8f70318f16eb253760956a2412a34571342e",
        "fit_report.csv": "72b527180ef0737326f433aef0990d5f2b0ccf52fb2346c91da236e9555f2e8b",
        "kstar.csv": "f9a25b7ef94aaf4245c7e26d87da9bc8a6688931d4d8910f12bd31a4ae7c44ce",
        "heatmap.csv": "a30b6f927b930b048e1c4ef43accdf34a5c81dc20b03b40c253d40a372ed0c0d",
    }

    def test_default_outputs(self, tmp_path):
        common = ["--seed", "0", "--reads", "300", "--out", str(tmp_path)]
        for argv in (["cbf-curve"],
                     ["fit", str(tmp_path / "cbf_curve.csv"),
                      "--lengths", str(tmp_path / "cbf_curve_lengths.json")],
                     ["kstar"], ["heatmap"]):
            assert main(argv + common) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.DIGESTS}
        assert got == self.DIGESTS


class TestPointsOnEveryCpu:
    """cbf-curve, kstar --empirical and heatmap map their L or l points over the CPUs
    this process may run on; no output byte depends on how many there are."""

    COMMANDS = (["cbf-curve"], ["fit", "cbf_curve.csv", "--lengths", "cbf_curve_lengths.json"],
                ["kstar", "--empirical"], ["kstar"], ["heatmap"])

    @staticmethod
    def pin_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def test_cpu_count_does_not_change_the_outputs(self, tmp_path, monkeypatch):
        runs = {}
        for cpus in (1, 2, 3):
            self.pin_cpus(monkeypatch, cpus)
            out, files = tmp_path / str(cpus), {}
            common = ["--seed", "0", "--reads", "300", "--out", str(out)]
            for step, argv in enumerate(self.COMMANDS):
                argv = [str(out / a) if a.endswith((".csv", ".json")) else a for a in argv]
                assert main(argv + common) == 0
                files |= {(step, path.name): path.read_bytes() for path in out.iterdir()}
            runs[cpus] = files
            # the last command of each name leaves the golden files
            got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in TestGoldenOutputs.DIGESTS}
            assert got == TestGoldenOutputs.DIGESTS
        assert runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_last_point_writes_nothing(self, tmp_path, capsys, monkeypatch, cpus):
        self.pin_cpus(monkeypatch, cpus)
        threads = threading.active_count()

        def run(lengths, *args):
            if len(lengths) == 40:
                raise ValueError("the largest L failed")
            return margin_model_run(lengths, *args)

        monkeypatch.setattr(cli, "margin_model_run", run)
        out = tmp_path / "out"
        assert main(["cbf-curve", "--config", write_config(tmp_path), "--out", str(out)]) == 1
        assert "error: the largest L failed" in capsys.readouterr().err
        assert not out.exists()
        assert threading.active_count() == threads


class TestParserBuiltOnce:
    def test_two_mains_build_one_parser(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_kstar", lambda cfg, empirical: seen.append(
            (cfg["seed"], empirical)) or 0)
        cli._build_parser.cache_clear()
        assert main(["kstar", "--empirical", "--seed", "5", "--out", str(tmp_path)]) == 0
        assert main(["kstar", "--out", str(tmp_path)]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert seen == [(5, True), (0, False)]  # no option carries over to the next call

    def test_parser_works_after_an_argparse_exit(self, tmp_path, capsys):
        for argv in (["no-such-command"], ["zephyr"], ["kstar", "--reads", "many"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert main(["chainlen", "--config", write_config(tmp_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "chainlen.csv").exists()
