import json
from dataclasses import replace

import numpy as np
import pytest

from embednoise.embedding import build_embedded_ising
from embednoise.noise import NoiseModel, chain_error_sample, control_errors, variance_law
from embednoise.problem import IsingModel, generate_random_qubo, qubo_to_ising
from embednoise.rng import substream


def couplers(m):
    """The model's couplers as {(i, j): J_ij}, read from its arrays."""
    return dict(zip(zip(m.ei.tolist(), m.ej.tolist()), m.jv.tolist()))


def perturbed(emb, nm, stream):
    """A copy of an EmbeddedIsing programmed with one draw of control errors."""
    m = emb.model
    dh, dj = control_errors(m, nm, stream)
    return replace(emb, model=IsingModel(m.n, m.h + dh, (m.ei, m.ej, m.jv + dj), m.offset))


class TestVarianceLaw:
    def test_length_one_drops_coupler_term(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.5)
        assert variance_law(1, nm) == pytest.approx(0.06**2)

    def test_equal_widths(self):
        nm = NoiseModel(sigma_h=0.03, sigma_c=0.03)
        for ell in (1, 2, 7, 20):
            assert variance_law(ell, nm) == pytest.approx((2 * ell - 1) * 0.03**2)

    def test_paper_arithmetic_point(self):
        # 13 * 0.0036 + 12 * 0.000025 = 0.0471
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        assert variance_law(13, nm) == pytest.approx(0.0471, abs=1e-12)

    def test_correlated_term(self):
        nm = NoiseModel(sigma_h=0.0, sigma_c=0.0, corr_strength=0.01, corr_exponent=1.64)
        assert variance_law(8, nm) == pytest.approx(0.01 * 8**1.64)

    def test_real_valued_length(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        assert variance_law(2.5, nm) == pytest.approx(2.5 * 0.0036 + 1.5 * 0.000025)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            variance_law(0.5, NoiseModel(0.1, 0.1))

    @pytest.mark.parametrize("ell", [np.nan, np.inf, [2.0, np.nan], [3.0, np.inf]])
    def test_rejects_non_finite_length(self, ell):
        # nan used to give a nan variance
        with pytest.raises(ValueError, match="chain length must be finite and >= 1"):
            variance_law(ell, NoiseModel(0.06, 0.005))

    @pytest.mark.parametrize("nm", [NoiseModel(0.06, 0.005, 0.001, 1.3),
                                    NoiseModel(0.03, 0.02, 0.0004, 1.64)])
    def test_array_equals_scalar_calls_bit_for_bit(self, nm):
        # one ufunc path for every shape: a scalar call gets the bits of its array element
        ells = np.concatenate([np.arange(1.0, 101.0), np.linspace(1.0, 60.0, 997)])
        got = variance_law(ells, nm)
        assert got.shape == ells.shape and got.dtype == np.float64
        assert got.tolist() == [variance_law(ell, nm) for ell in ells.tolist()]

    def test_scalar_gives_a_hashable_numpy_float(self):
        v = variance_law(7, NoiseModel(0.06, 0.005))
        assert type(v) is np.float64 and {v: 1}[v] == 1

    def test_broadcasts_over_widths(self):
        sh, sc = np.array([0.0, 0.01, 0.06]), np.array([0.005, 0.02])
        ells = np.array([1.0, 4.0, 9.5])
        nm = NoiseModel(sh[:, None, None], sc[None, :, None], 0.001, 1.3)
        got = variance_law(ells, nm)
        assert got.shape == (3, 2, 3)
        for i, j, e in np.ndindex(got.shape):
            assert got[i, j, e] == variance_law(ells[e], NoiseModel(sh[i], sc[j], 0.001, 1.3))

    def test_correlated_loglog_slope_approaches_gamma(self):
        nm = NoiseModel(sigma_h=1e-6, sigma_c=0.0, corr_strength=1.0, corr_exponent=1.64)
        ells = np.array([10.0, 1000.0])
        vars_ = [variance_law(e, nm) for e in ells]
        slope = np.diff(np.log(vars_))[0] / np.diff(np.log(ells))[0]
        assert slope == pytest.approx(1.64, abs=1e-3)


class TestChainErrorSample:
    def test_zero_widths(self):
        nm = NoiseModel(sigma_h=0.0, sigma_c=0.0)
        s = substream(0, "t")
        assert chain_error_sample(5, nm, s) == 0.0

    def test_mean_near_zero(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
        draws = chain_error_sample(8, nm, substream(1, "mean"), size=10**6)
        sd = np.sqrt(variance_law(8, nm))
        assert abs(draws.mean()) < 4 * sd / 1000.0

    @pytest.mark.parametrize("ell", [2, 8, 32])
    def test_variance_matches_law(self, ell):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
        draws = chain_error_sample(ell, nm, substream(2, "var", ell), size=10**6)
        assert draws.var() == pytest.approx(variance_law(ell, nm), rel=0.01)

    def test_correlated_variance_matches_law(self):
        nm = NoiseModel(sigma_h=0.02, sigma_c=0.01, corr_strength=0.005,
                        corr_exponent=1.64)
        draws = chain_error_sample(6, nm, substream(3, "corr"), size=10**6)
        assert draws.var() == pytest.approx(variance_law(6, nm), rel=0.01)

    def test_disjoint_chains_uncorrelated(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
        a = chain_error_sample(8, nm, substream(4, "chain", 0), size=200_000)
        b = chain_error_sample(8, nm, substream(4, "chain", 1), size=200_000)
        cov = np.cov(a, b)[0, 1]
        se = variance_law(8, nm) / np.sqrt(200_000)
        assert abs(cov) < 4 * se

    def test_deterministic_per_stream(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
        a = chain_error_sample(5, nm, substream(7, "d"), size=100)
        b = chain_error_sample(5, nm, substream(7, "d"), size=100)
        assert np.array_equal(a, b)


class TestPerturbHamiltonian:
    def make_embedded(self):
        logical = qubo_to_ising(generate_random_qubo(4, 1.0, seed=2))
        return build_embedded_ising(logical, [2, 3, 1, 2], k=1.5)

    def test_zero_width_is_identity(self):
        emb = self.make_embedded()
        out = perturbed(emb, NoiseModel(0.0, 0.0), substream(0, "p"))
        assert np.array_equal(out.model.h, emb.model.h)
        assert couplers(out.model) == couplers(emb.model)

    def test_deterministic(self):
        emb = self.make_embedded()
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.02)
        a = perturbed(emb, nm, substream(5, "p"))
        b = perturbed(emb, nm, substream(5, "p"))
        assert np.array_equal(a.model.h, b.model.h)
        assert couplers(a.model) == couplers(b.model)

    def test_does_not_mutate_input(self):
        emb = self.make_embedded()
        h_before = emb.model.h.copy()
        J_before = couplers(emb.model)
        perturbed(emb, NoiseModel(0.1, 0.1), substream(6, "p"))
        assert np.array_equal(emb.model.h, h_before)
        assert couplers(emb.model) == J_before

    def test_draws_fields_then_couplers(self):
        emb = self.make_embedded()
        m, nm = emb.model, NoiseModel(sigma_h=0.06, sigma_c=0.02)
        out = perturbed(emb, nm, substream(9, "p"))
        z = substream(9, "p").standard_normal(m.n + len(m.jv))
        assert out.model.h.tolist() == (m.h + z[:m.n] * 0.06).tolist()
        assert out.model.jv.tolist() == (m.jv + z[m.n:] * 0.02).tolist()
        assert (out.model.ei.tolist(), out.model.ej.tolist()) == (m.ei.tolist(), m.ej.tolist())

    def test_batch_draws_every_field_row_first(self):
        m, nm = self.make_embedded().model, NoiseModel(sigma_h=0.06, sigma_c=0.02)
        dh, dj = control_errors(m, nm, substream(9, "p"), (3,))
        z = substream(9, "p").standard_normal(3 * (m.n + len(m.jv)))
        assert dh.shape == (3, m.n) and dj.shape == (3, len(m.jv))
        assert dh.ravel().tolist() == (z[:3 * m.n] * 0.06).tolist()
        assert dj.ravel().tolist() == (z[3 * m.n:] * 0.02).tolist()

    def test_perturbation_moments(self):
        logical = IsingModel(n=2, h=np.zeros(2), J={(0, 1): 0.0})
        emb = build_embedded_ising(logical, [1, 1], k=1.0)
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.02)
        n_draws = 100_000
        stream = substream(8, "moments")
        m = emb.model
        dh = np.empty(n_draws)
        dj = np.empty(n_draws)
        for r in range(n_draws):  # one call per draw: a batch would draw every field first
            eh, ej = control_errors(m, nm, stream)
            dh[r] = m.h[0] + eh[0]
            dj[r] = (m.jv[0] + ej[0]) - m.jv[0]
        assert dh.var() == pytest.approx(nm.sigma_h**2, rel=0.02)
        assert dj.var() == pytest.approx(nm.sigma_c**2, rel=0.02)


class TestNoiseModel:
    def test_rejects_negative_widths(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_h=-0.1, sigma_c=0.0)

    @pytest.mark.parametrize("fields", [(np.nan, 0.005), (0.06, np.inf),
                                        (0.06, 0.005, np.nan), (0.06, 0.005, 0.01, -np.inf)])
    def test_rejects_non_finite_fields(self, fields):
        # NoiseModel(nan, 0.005) used to make margin_model_run report CBF 0.0
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(*fields)

    @pytest.mark.parametrize("fields, match", [
        ((np.array([0.01, -0.02]), 0.005), ">= 0"),
        ((0.06, np.array([[0.0], [np.nan]])), "finite"),
        ((0.06, 0.005, np.array([0.01, 0.0]), np.array([1.0, np.inf])), "finite")])
    def test_array_fields_are_checked_elementwise(self, fields, match):
        with pytest.raises(ValueError, match=match):
            NoiseModel(*fields)

    def test_json_roundtrip(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005, corr_strength=0.01,
                        corr_exponent=1.64)
        r = NoiseModel(**json.loads(json.dumps(nm.to_dict())))  # as a run's metadata holds it
        assert r == nm
