import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from embednoise import cli
from embednoise.analytics import cbf_predict, cbp
from embednoise.embedding import ChainLengthModel, synth_chain_lengths
from embednoise.fitting import (FitGrid, GridRange, fit_noise_params, fit_report,
                                read_lengths_json, read_observations_csv, sse)
from embednoise.noise import NoiseModel


def grid_cbp(sh, sc, lengths, kp, corr_strength=0.0, corr_exponent=0.0):
    """cbp over the (sigma_h, sigma_c, length, kappa) grid, broadcast as fit_noise_params does."""
    nm = NoiseModel(sh[:, None, None, None], sc[None, :, None, None], corr_strength, corr_exponent)
    return cbp(lengths[None, None, :, None], nm, kp)


def synthetic_observations(sigma_h, sigma_c, kappa, jitter=1, seed=0):
    nm = NoiseModel(sigma_h=sigma_h, sigma_c=sigma_c)
    model = nm, kappa
    clm = ChainLengthModel(slope=0.122, intercept=1.0, jitter=jitter)
    obs = []
    for L in range(5, 105, 5):
        lengths = synth_chain_lengths(L, clm, seed=seed + L)
        obs.append({"L": L, "lengths": [int(v) for v in lengths],
                    "cbf_obs": cbf_predict(lengths, *model)})
    return obs


class TestSse:
    def test_identical(self):
        assert sse([0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_single_pair(self):
        assert sse([0.1], [0.0]) == pytest.approx(0.01)

    def test_order_matters(self):
        a = sse([0.1, 0.4], [0.4, 0.1])
        b = sse([0.1, 0.4], [0.1, 0.4])
        assert a != b

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sse([0.1], [0.1, 0.2])


class TestGridRange:
    def test_default_axes_sizes(self):
        sh, sc, kp = FitGrid().axes()
        assert len(sh) == 16 and len(sc) == 16 and len(kp) == 19

    def test_values_include_endpoints(self):
        vals = GridRange(0.10, 1.00, 0.05).values()
        assert vals[0] == pytest.approx(0.10)
        assert vals[-1] == pytest.approx(1.00)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridRange(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            GridRange(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0, 0.1), (0.0, np.inf, 0.1),
                                        (0.0, 1.0, np.nan), (0.0, 1.0, np.inf)])
    def test_non_finite_rejected(self, bounds):
        # step inf used to give the values [nan]; a nan or inf bound raised a bare conversion error
        with pytest.raises(ValueError, match="finite"):
            GridRange(*bounds)

    @pytest.mark.parametrize("axis, lo", [("sigma_h", -0.02), ("sigma_c", -0.005),
                                          ("kappa", 0.0), ("kappa", -0.1)],
                             ids=["sigma_h-negative", "sigma_c-negative", "kappa-zero",
                                  "kappa-negative"])
    def test_grid_rejects_out_of_domain_lo(self, axis, lo):
        # sigma < 0 or kappa <= 0 would be searched and could win the fit
        with pytest.raises(ValueError):
            FitGrid(**{f"{axis}_range": GridRange(lo, 0.5, 0.05)})


class TestCbpTable:
    def test_matches_scipy_erfc_on_default_grid(self):
        sh, sc, kp = FitGrid().axes()
        lengths = np.arange(1.0, 41.0)
        var = lengths * (sh**2)[:, None, None] + (lengths - 1.0) * (sc**2)[None, :, None]
        want = scipy_erfc(kp / np.sqrt(2.0 * var)[..., None])
        got = grid_cbp(sh, sc, lengths, kp)
        assert got.shape == want.shape and got.dtype == np.float64
        live = want > 1e-300
        assert live.sum() > 0.9 * want.size
        np.testing.assert_allclose(got[live], want[live], rtol=1e-13, atol=0)
        assert np.all(got[~live] <= 1e-300)

    def test_zero_variance_cell_gives_zero(self):
        # sigma_h = 0 leaves a length-1 chain with no variance, and sigma_c = 0 every chain
        grid = FitGrid(sigma_h_range=GridRange(0.0, 0.04, 0.02),
                       sigma_c_range=GridRange(0.0, 0.02, 0.02),
                       kappa_range=GridRange(0.1, 0.3, 0.1))
        sh, sc, kp = grid.axes()
        lengths = np.array([1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = grid_cbp(sh, sc, lengths, kp)
            m = NoiseModel(0.02, 0.02), 0.2
            obs = [{"L": L, "lengths": [1, 3], "cbf_obs": cbf_predict([1, 3], *m)}
                   for L in (5, 10, 15)]
            fr = fit_noise_params(obs, grid)
        assert np.all(table[0, :, 0, :] == 0.0) and np.all(table[0, 0] == 0.0)
        assert np.all(table[1:, :, 0, :] > 0.0)
        assert (fr.sigma_h, fr.sigma_c, fr.kappa) == pytest.approx((0.02, 0.02, 0.2))
        assert np.isfinite(fr.sse) and fr.sse <= 1e-20

    def test_correlated_grid_equals_scalar_cbp(self):
        # the fit takes its table from cbp itself; its former private copy raised ell to the
        # exponent another way and differed from cbp in 765 of these cells, by up to 2.7e-14
        sh, sc, kp = FitGrid().axes()
        lengths = np.arange(1.0, 41.0)
        table = grid_cbp(sh, sc, lengths, kp, 0.001, 1.3)
        assert table.shape == (len(sh), len(sc), len(lengths), len(kp))
        want = np.empty_like(table)
        for i, j, k in np.ndindex(len(sh), len(sc), len(kp)):
            m = NoiseModel(sh[i], sc[j], 0.001, 1.3), kp[k]
            want[i, j, :, k] = [cbp(ell, *m) for ell in lengths.tolist()]
        assert np.array_equal(table, want)

    def test_seeded_cbf_curve_fit_is_pinned(self, tmp_path):
        # the triple fitted at the CLI defaults, seed 7, by the scipy.special.erfc grid
        common = ["--seed", "7", "--out", str(tmp_path)]
        assert cli.main(["cbf-curve"] + common) == 0
        assert cli.main(["fit", str(tmp_path / "cbf_curve.csv"),
                         "--lengths", str(tmp_path / "cbf_curve_lengths.json")] + common) == 0
        fit = json.loads((tmp_path / "fit_result.json").read_text())
        assert (fit["sigma_h"], fit["sigma_c"], fit["kappa"]) == pytest.approx((0.075, 0.02, 0.45),
                                                                           abs=1e-12)
        assert fit["sse"] == pytest.approx(4.800969226070874e-06, rel=1e-12)


class TestFitNoiseParams:
    def test_exact_recovery_from_noiseless_curve(self):
        obs = synthetic_observations(0.06, 0.005, 0.35)
        fr = fit_noise_params(obs)
        assert fr.sigma_h == pytest.approx(0.06)
        assert fr.sigma_c == pytest.approx(0.005)
        assert fr.kappa == pytest.approx(0.35)
        assert fr.sse <= 1e-20

    def test_recovery_at_other_grid_point(self):
        obs = synthetic_observations(0.03, 0.02, 0.6, seed=5)
        fr = fit_noise_params(obs)
        assert (fr.sigma_h, fr.sigma_c, fr.kappa) == pytest.approx((0.03, 0.02, 0.6))

    def test_global_optimality_on_small_grid(self):
        obs = synthetic_observations(0.06, 0.005, 0.35)[:6]
        grid = FitGrid(sigma_h_range=GridRange(0.02, 0.08, 0.02),
                       sigma_c_range=GridRange(0.005, 0.02, 0.005),
                       kappa_range=GridRange(0.2, 0.6, 0.1))
        fr = fit_noise_params(obs, grid)
        cbf_obs = [p["cbf_obs"] for p in obs]
        for sh in grid.sigma_h_range.values():
            for sc in grid.sigma_c_range.values():
                for kp in grid.kappa_range.values():
                    m = NoiseModel(sh, sc), kp
                    preds = [cbf_predict(p["lengths"], *m) for p in obs]
                    assert sse(cbf_obs, preds) >= fr.sse - 1e-15

    def test_tie_break_lexicographic_on_degenerate_data(self):
        # one shared length makes sigma_h / sigma_c enter only through
        # the combined variance; ties resolve to the smallest triple
        m = NoiseModel(0.04, 0.04), 0.35
        obs = [{"L": L, "lengths": [5] * L, "cbf_obs": cbf_predict([5], *m)}
               for L in (5, 10, 15)]
        a = fit_noise_params(obs)
        b = fit_noise_params(list(reversed(obs)))
        assert (a.sigma_h, a.sigma_c, a.kappa) == (b.sigma_h, b.sigma_c, b.kappa)

    def test_negative_corr_strength_rejected(self):
        # a negative variance term would make sqrt NaN and argmin pick a NaN cell
        obs = synthetic_observations(0.06, 0.005, 0.35)[:3]
        with pytest.raises(ValueError):
            fit_noise_params(obs, corr_strength=-1.0)

    def test_non_finite_corr_strength_rejected(self):
        obs = synthetic_observations(0.06, 0.005, 0.35)[:3]
        with pytest.raises(ValueError, match="finite"):
            fit_noise_params(obs, corr_strength=float("nan"))

    @pytest.mark.parametrize("key, value", [("lengths", [3.0, float("nan")]),
                                            ("lengths", [float("inf")]),
                                            ("ell_bar", float("inf")), ("ell_bar", float("nan"))])
    def test_non_finite_length_rejected(self, key, value):
        # a nan length used to give sse nan; ell_bar inf "fitted" the grid's corner
        obs = [{"L": L, "ell_bar": 0.122 * L + 1.0, "cbf_obs": 0.01} for L in (5, 10, 15)]
        obs[1].pop("ell_bar")
        obs[1][key] = value
        with pytest.raises(ValueError, match="finite values >= 1"):
            fit_noise_params(obs)

    def test_correlated_predictions_are_scalar_cbp(self):
        # a single-length point's prediction is one cell of the table: the scalar cbp, bit for bit
        cs, ce = 0.001, 1.3
        m = NoiseModel(0.04, 0.01, cs, ce), 0.45
        ells = [0.122 * L + 1.0 for L in range(5, 55, 5)]
        obs = [{"L": L, "ell_bar": e, "cbf_obs": cbp(e, *m) * 1.01}
               for L, e in zip(range(5, 55, 5), ells)]
        fr = fit_noise_params(obs, corr_strength=cs, corr_exponent=ce)
        fitted = NoiseModel(fr.sigma_h, fr.sigma_c, cs, ce), fr.kappa
        assert [row["cbf_pred"] for row in fr.per_L] == [cbp(e, *fitted) for e in ells]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01, 1.01])
    def test_bad_observation_rejected(self, bad):
        # one NaN used to return the grid's first triple with sse nan
        obs = synthetic_observations(0.06, 0.005, 0.35)[:4]
        obs[2]["cbf_obs"] = bad
        with pytest.raises(ValueError, match=r"cbf_obs must be a finite value in \[0, 1\]"):
            fit_noise_params(obs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiset_mean_is_the_gathered_mean(self, seed):
        # each point's prediction is summed one length at a time; it must be bit-identical to
        # .mean(axis=2) of the gathered (sigma_h, sigma_c, lengths, kappa) table block
        rng = np.random.default_rng(seed)
        obs = [{"L": L, "lengths": rng.integers(1, 30, size=int(rng.integers(1, 120))).tolist(),
                "cbf_obs": float(rng.uniform(0.0, 0.3))} for L in range(5, 35, 5)]
        fr = fit_noise_params(obs)
        sh, sc, kp = FitGrid().axes()
        uniq, inverse = np.unique(np.concatenate([p["lengths"] for p in obs]).astype(np.float64),
                                  return_inverse=True)
        table = grid_cbp(sh, sc, uniq, kp)
        ends = np.cumsum([len(p["lengths"]) for p in obs])
        preds = np.stack([table[:, :, inverse[e - len(p["lengths"]):e], :].mean(axis=2)
                          for p, e in zip(obs, ends)], axis=2)
        resid = preds - np.array([p["cbf_obs"] for p in obs])[None, None, :, None]
        total = np.einsum("abpk,abpk->abk", resid, resid)
        ih, ic, ik = np.unravel_index(int(np.argmin(total)), total.shape)
        assert (fr.sigma_h, fr.sigma_c, fr.kappa) == (sh[ih], sc[ic], kp[ik])
        assert fr.sse == total[ih, ic, ik]
        assert [row["cbf_pred"] for row in fr.per_L] == preds[ih, ic, :, ik].tolist()

    def test_ell_bar_path(self):
        m = NoiseModel(0.06, 0.005), 0.35
        obs = [{"L": L, "ell_bar": 0.122 * L + 1.0,
                "cbf_obs": cbf_predict([0.122 * L + 1.0], *m)} for L in range(5, 55, 5)]
        fr = fit_noise_params(obs)
        assert fr.sse <= 1e-20
        assert fr.kappa == pytest.approx(0.35)

    def test_per_L_rows(self):
        obs = synthetic_observations(0.06, 0.005, 0.35)
        fr = fit_noise_params(obs)
        assert len(fr.per_L) == len(obs)
        total = sum(r["abs_err"] ** 2 for r in fr.per_L)
        assert total == pytest.approx(fr.sse, abs=1e-12)
        for row in fr.per_L:
            assert row["abs_err"] == pytest.approx(abs(row["cbf_obs"] - row["cbf_pred"]))

    def test_kappa_nonincreasing_when_cbf_raised(self):
        base = synthetic_observations(0.06, 0.005, 0.35)
        shifted = [dict(p, cbf_obs=min(1.0, p["cbf_obs"] + 0.05)) for p in base]
        lo = fit_noise_params(base)
        hi = fit_noise_params(shifted)
        assert hi.kappa <= lo.kappa

    def test_needs_three_points(self):
        obs = synthetic_observations(0.06, 0.005, 0.35)[:2]
        with pytest.raises(ValueError):
            fit_noise_params(obs)

    def test_correlated_variant(self):
        nm = NoiseModel(0.02, 0.01, corr_strength=0.005, corr_exponent=1.64)
        m = nm, 0.35
        obs = [{"L": L, "lengths": [round(0.122 * L + 1)] * L,
                "cbf_obs": cbf_predict([round(0.122 * L + 1)], *m)} for L in range(5, 55, 5)]
        fr = fit_noise_params(obs, corr_strength=0.005, corr_exponent=1.64)
        assert (fr.sigma_h, fr.sigma_c, fr.kappa) == pytest.approx((0.02, 0.01, 0.35))


class TestFitReport:
    def test_zero_residual_rows(self):
        fr = fit_noise_params(synthetic_observations(0.06, 0.005, 0.35))
        text = fit_report(fr)
        lines = text.splitlines()
        assert lines[0] == "L,cbf_obs,cbf_pred,abs_err"
        assert len(lines) == 1 + len(fr.per_L)
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(0.0, abs=1e-15)

    def test_csv_roundtrip_12_digits(self):
        fr = fit_noise_params(synthetic_observations(0.04, 0.01, 0.5, seed=3))
        lines = fit_report(fr).splitlines()[1:]
        for line, row in zip(lines, fr.per_L):
            _, obs, pred, err = line.split(",")
            assert float(obs) == pytest.approx(row["cbf_obs"], rel=1e-11, abs=1e-15)
            assert float(pred) == pytest.approx(row["cbf_pred"], rel=1e-11, abs=1e-15)
            assert float(err) == pytest.approx(row["abs_err"], rel=1e-11, abs=1e-15)


class TestObservationIO:
    def test_csv_with_lengths_json(self):
        csv_text = "L,cbf_obs\n5,0.01\n10,0.02\n15,0.05\n"
        lengths = read_lengths_json('{"5": [2,2], "10": [2,3], "15": [3,3]}')
        obs = read_observations_csv(csv_text, lengths)
        assert obs[1]["lengths"] == [2, 3]
        fr = fit_noise_params(obs)
        assert fr.sse >= 0.0

    def test_non_integral_lengths_json_rejected(self):
        # int(2.5) used to fit the multiset [2, 3] where the file holds [2.5, 3]
        with pytest.raises(ValueError, match="L=5: chain lengths must be integers"):
            read_lengths_json('{"5": [2.5, 3]}')
        assert read_lengths_json('{"5": [2, 3.0]}') == {5: [2, 3]}

    def test_csv_with_ell_bar_column(self):
        csv_text = "L,cbf_obs,ell_bar\n5,0.01,1.6\n10,0.02,2.2\n15,0.05,2.8\n"
        obs = read_observations_csv(csv_text)
        assert obs[0]["ell_bar"] == 1.6

    def test_missing_lengths_rejected(self):
        with pytest.raises(ValueError):
            read_observations_csv("L,cbf_obs\n5,0.01\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_observations_csv("L,cbf_obs\n")


@settings(max_examples=20, deadline=None)
@given(ih=st.integers(0, 15), ic=st.integers(0, 15), ik=st.integers(0, 18))
def test_on_grid_triples_recover_exactly(ih, ic, ik):
    sh = 0.005 + 0.005 * ih
    sc = 0.005 + 0.005 * ic
    kp = 0.10 + 0.05 * ik
    obs = synthetic_observations(sh, sc, kp, jitter=2, seed=ih * 400 + ic * 20 + ik)
    fr = fit_noise_params(obs)
    # mixed chain lengths from jitter keep the triple identifiable
    assert fr.sse <= 1e-18
