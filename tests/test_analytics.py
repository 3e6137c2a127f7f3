import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcinv

from embednoise.analytics import (CbpModel, cbf_predict, cbp, cbp_vs_m,
                                  critical_chain_strength, erfc, erfc_inv,
                                  power_law_fit)
from embednoise.noise import NoiseModel, variance_law

# reference values computed once with mpmath at 40 decimal digits
ERFC_ORACLE = {
    0.5: 0.4795001221869534623,
    1.0: 0.1572992070502851306,
    2.0: 0.004677734981047265838,
    3.0: 2.209049699858544137e-5,
    5.0: 1.53745979442803485e-12,
    -0.7: 1.677801193837418473,
    0.1234: 0.8614615656435270109,
}
ERFCINV_ORACLE = {
    0.01: 1.821386367718449673,
    0.02: 1.644976357133187050,
    0.05: 1.385903824349677945,
    0.5: 0.476936276204469873,
}


class TestErfc:
    def test_zero(self):
        assert erfc(0.0) == 1.0

    @pytest.mark.parametrize("x,val", sorted(ERFC_ORACLE.items()))
    def test_oracle_values(self, x, val):
        assert erfc(x) == pytest.approx(val, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.9, 2.5, 6.0])
    def test_reflection_identity(self, x):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            erfc(float("nan"))


class TestErfcInv:
    def test_identity_point(self):
        assert erfc_inv(1.0) == 0.0

    @pytest.mark.parametrize("p,val", sorted(ERFCINV_ORACLE.items()))
    def test_oracle_values(self, p, val):
        assert erfc_inv(p) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.5, 1.3, 1.99])
    def test_round_trip(self, p):
        assert erfc(erfc_inv(p)) == pytest.approx(p, abs=1e-10)

    def test_negative_branch(self):
        assert erfc_inv(1.5) == pytest.approx(-erfc_inv(0.5), abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 2.0, -0.5, 2.5])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(ValueError):
            erfc_inv(p)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-9, 2.0 - 1e-9))
    def test_round_trip_property(self, p):
        assert erfc(erfc_inv(p)) == pytest.approx(p, abs=1e-10)

    # 1e-270 lies where a Newton step on erfc divided by an underflowed
    # exp(-x^2); at 1e-100 that solver was 1.5e-5 off
    @pytest.mark.parametrize("p", [1e-270, 1e-100, *np.logspace(-300, math.log10(1.99), 41)])
    def test_matches_scipy_erfcinv(self, p):
        assert erfc_inv(p) == pytest.approx(float(erfcinv(p)), rel=1e-12)

    def test_critical_strength_at_tiny_tau(self):
        nm = NoiseModel(0.06, 0.005)
        want = math.sqrt(2 * variance_law(10, nm)) * float(erfcinv(1e-270))
        assert critical_chain_strength(10, nm, 1e-270) == pytest.approx(want, rel=1e-12)


def model(kappa=0.35, sigma_h=0.06, sigma_c=0.005, **kw):
    return CbpModel(noise=NoiseModel(sigma_h=sigma_h, sigma_c=sigma_c, **kw), kappa=kappa)


class TestCbp:
    def test_model_is_noise_and_margin_only(self):
        # the margin is kappa = eta * k; a separate eta field was never read
        assert [f.name for f in fields(CbpModel)] == ["noise", "kappa"]
        with pytest.raises(ValueError, match="kappa must be > 0"):
            model(kappa=0.0)

    def test_matches_closed_form(self):
        m = model()
        var = variance_law(13, m.noise)
        assert cbp(13, m) == pytest.approx(math.erfc(0.35 / math.sqrt(2 * var)), abs=1e-15)

    def test_vanishes_for_large_kappa(self):
        vals = [cbp(13, model(kappa=k)) for k in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_inversion_identity(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        for tau in (0.01, 0.02, 0.05):
            kappa = math.sqrt(2 * variance_law(9, nm)) * erfc_inv(tau)
            assert cbp(9, CbpModel(noise=nm, kappa=kappa)) == pytest.approx(tau, abs=1e-12)

    def test_monotone_in_length(self):
        m = model()
        vals = [cbp(ell, m) for ell in range(1, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_zero_noise_gives_zero(self):
        assert cbp(5, model(sigma_h=0.0, sigma_c=0.0)) == 0.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            cbp(0.5, model())

    @settings(max_examples=100, deadline=None)
    @given(ell=st.floats(1, 50), kappa=st.floats(0.05, 3.0),
           sh=st.floats(0.001, 0.1), sc=st.floats(0.0, 0.1))
    def test_probability_range_property(self, ell, kappa, sh, sc):
        p = cbp(ell, CbpModel(noise=NoiseModel(sh, sc), kappa=kappa))
        assert 0.0 <= p <= 1.0


class TestCbfPredict:
    def test_uniform_lengths_reduce_to_cbp(self):
        m = model()
        assert cbf_predict([9] * 25, m) == pytest.approx(cbp(9, m), abs=1e-15)

    def test_mixed_lengths_are_arithmetic_mean(self):
        m = model()
        lengths = [2, 5, 5, 13]
        expect = np.mean([cbp(v, m) for v in lengths])
        assert cbf_predict(lengths, m) == pytest.approx(expect, abs=1e-15)

    def test_length_one_huge_kappa(self):
        assert cbf_predict([1], model(kappa=10.0)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cbf_predict([], model())


class TestCbpVsM:
    def test_constant_when_alpha_zero(self):
        m = model()
        vals = {cbp_vs_m(mm, 0.0, 7.0, m) for mm in range(1, 10)}
        assert len(vals) == 1

    def test_substitution(self):
        m = model()
        assert cbp_vs_m(10, 0.9, 1.3, m) == pytest.approx(cbp(0.9 * 10 + 1.3, m), abs=1e-15)

    def test_increasing_in_m(self):
        m = model()
        vals = [cbp_vs_m(mm, 0.9, 1.3, m) for mm in range(1, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_sub_unit_length(self):
        with pytest.raises(ValueError):
            cbp_vs_m(1, 0.1, 0.0, model())


class TestCriticalChainStrength:
    def test_inversion_consistency(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        for tau in (0.01, 0.02, 0.05):
            k = critical_chain_strength(13, nm, tau)
            assert cbp(13, CbpModel(noise=nm, kappa=k)) == pytest.approx(tau, abs=1e-9)

    def test_sqrt_law_under_pure_field_noise(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.0)
        assert critical_chain_strength(16, nm, 0.02) / critical_chain_strength(
            4, nm, 0.02) == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_as_tau_approaches_one(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        assert critical_chain_strength(8, nm, 0.999) < critical_chain_strength(8, nm, 0.5)
        assert critical_chain_strength(8, nm, 0.99999) < 1e-3

    def test_eta_scales_inverse(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        assert critical_chain_strength(8, nm, 0.02, eta=0.5) == pytest.approx(
            2 * critical_chain_strength(8, nm, 0.02, eta=1.0))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            critical_chain_strength(8, NoiseModel(0.06, 0.005), 1.5)


class TestPowerLawFit:
    def test_exact_power_law(self):
        ells = np.arange(2.0, 40.0)
        fit = power_law_fit(ells, 3.0 * ells**0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        fit = power_law_fit(np.arange(1.0, 10.0), np.full(9, 2.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_independent_noise_exponent_near_half(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        ells = np.arange(3, 31)
        ks = [critical_chain_strength(int(e), nm, 0.02) for e in ells]
        fit = power_law_fit(ells, ks)
        assert 0.45 <= fit.exponent <= 0.55

    def test_correlated_preset_exponent(self):
        # corr term dominating with gamma = 1.64 gives alpha = gamma / 2
        nm = NoiseModel(sigma_h=0.001, sigma_c=0.0, corr_strength=0.01,
                        corr_exponent=1.64)
        ells = np.arange(3, 31)
        ks = [critical_chain_strength(int(e), nm, 0.02) for e in ells]
        fit = power_law_fit(ells, ks)
        assert 0.78 <= fit.exponent <= 0.86

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_law_fit([1.0, 2.0], [1.0, -2.0])
