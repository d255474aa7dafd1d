import math

import pytest
from hypothesis import given, strategies as st

from qdrabi import (
    InvalidSpectrumError,
    MaterialConstants,
    ModelParams,
    detunings,
    dressed_coupling,
    gnl_from_material,
    huang_rhys,
    polaron_shift,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
mode_pairs = st.lists(st.tuples(finite, positive), max_size=8)


def spectrum(*pairs):
    return pairs


class TestPolaronShift:
    def test_empty_spectrum_is_zero(self):
        assert polaron_shift(spectrum()) == 0.0

    def test_single_mode(self):
        assert polaron_shift(spectrum((0.1, 1.0))) == pytest.approx(0.01, abs=1e-15)

    def test_two_modes(self):
        # 0.1^2/1 + 0.2^2/2 = 0.01 + 0.02
        assert polaron_shift(spectrum((0.1, 1.0), (0.2, 2.0))) == pytest.approx(0.03, abs=1e-15)

    def test_nonpositive_frequency_rejected(self):
        for entry in (polaron_shift, huang_rhys):
            with pytest.raises(InvalidSpectrumError):
                entry(spectrum((0.1, 0.0)))
            with pytest.raises(InvalidSpectrumError):
                entry(spectrum((0.1, -1.0)))

    def test_nonfinite_coupling_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            polaron_shift(spectrum((math.inf, 1.0)))

    @given(mode_pairs, mode_pairs)
    def test_additive_over_disjoint_spectra(self, first, second):
        combined = polaron_shift(spectrum(*first, *second))
        parts = polaron_shift(spectrum(*first)) + polaron_shift(spectrum(*second))
        assert combined == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestHuangRhys:
    def test_empty_spectrum_is_zero(self):
        assert huang_rhys(spectrum()) == 0.0

    def test_single_mode(self):
        assert huang_rhys(spectrum((0.1, 1.0))) == pytest.approx(0.01, abs=1e-15)

    @given(mode_pairs, mode_pairs)
    def test_additive_over_disjoint_spectra(self, first, second):
        combined = huang_rhys(spectrum(*first, *second))
        parts = huang_rhys(spectrum(*first)) + huang_rhys(spectrum(*second))
        assert combined == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_nonnegative(self):
        assert huang_rhys(spectrum((-0.3, 2.0), (0.4, 1.5))) >= 0.0


class TestDressedCoupling:
    def test_identity_at_zero(self):
        assert dressed_coupling(1.0, 0.0) == 1.0

    def test_direct_formula(self):
        assert dressed_coupling(2.0, 0.01) == pytest.approx(2.0 * math.exp(-0.005), rel=1e-15)

    def test_cdse_value(self):
        # lambda = 1 is the CdSe-dot benchmark
        assert dressed_coupling(1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            dressed_coupling(1.0, -0.1)

    @given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
    def test_monotone_decreasing_in_lambda(self, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert dressed_coupling(1.0, hi) <= dressed_coupling(1.0, lo)


class TestDetunings:
    def test_direct_substitution(self):
        assert detunings(3.0, 1.0, 0.0) == (2.0, 1.0)

    def test_resonant_with_fundamental(self):
        assert detunings(1.0, 1.0, 0.0) == (0.0, -1.0)

    def test_shifted_working_point(self):
        # lands on the delta_b = 0.1 operating point
        delta_a, delta_b = detunings(2.11, 1.0, 0.01)
        assert delta_a == pytest.approx(1.1, abs=1e-12)
        assert delta_b == pytest.approx(0.1, abs=1e-12)

    @given(finite, finite, finite)
    def test_difference_equals_omega_a(self, omega_ex, omega_a, shift):
        delta_a, delta_b = detunings(omega_ex, omega_a, shift)
        scale = max(1.0, abs(omega_ex), 2.0 * abs(omega_a), abs(shift))
        assert abs((delta_a - delta_b) - omega_a) <= 8e-16 * scale


class TestModelParams:
    def test_omega_b_defaults_to_twice_omega_a(self):
        p = ModelParams(g_a=1, g_b=1, g_nl=2, delta_a=1.0, delta_b=0.1)
        assert p.omega_b == 2 * (1.0 - 0.1)

    def test_inconsistent_omega_b_rejected(self):
        # every frequency is derived from the detunings, never passed
        for key in ("omega_a", "omega_b", "omega_ex"):
            with pytest.raises(TypeError, match=key):
                ModelParams(g_a=1, g_b=1, g_nl=0, delta_a=1.0, delta_b=0.1, **{key: 0.9})

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(g_a=1, g_b=1, g_nl=0, delta_a=1.0, delta_b=0.1, lam=-1.0)

    def test_frequencies_invert_the_detunings(self):
        p = ModelParams(1.0, 1.0, 2.0, delta_a=1.0, delta_b=0.1, lam=0.01)
        assert p.omega_a == 1.0 - 0.1
        assert p.omega_ex == 2.0 * 1.0 - 0.1
        delta_a, delta_b = detunings(p.omega_ex, p.omega_a)
        assert delta_a == pytest.approx(1.0, abs=1e-14)
        assert delta_b == pytest.approx(0.1, abs=1e-14)

    def test_dressed_couplings(self):
        p = ModelParams(2.0, 3.0, 0.0, 1.0, 0.1, lam=1.0)
        assert p.dressed_g_a() == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)
        assert p.dressed_g_b() == pytest.approx(3.0 * math.exp(-0.5), rel=1e-15)


class TestMaterialCoupling:
    def test_zero_susceptibility(self):
        mat = MaterialConstants(chi2=0.0, eps_r=12.25, vol_r=1e-18)
        assert gnl_from_material(mat, 1.3e15) == 0.0

    def test_linear_in_chi2(self):
        mat1 = MaterialConstants(chi2=370e-12, eps_r=12.25, vol_r=1e-18)
        mat2 = MaterialConstants(chi2=740e-12, eps_r=12.25, vol_r=1e-18)
        assert gnl_from_material(mat2, 1.3e15) == 2.0 * gnl_from_material(mat1, 1.3e15)

    def test_inverse_sqrt_in_volume(self):
        mat1 = MaterialConstants(chi2=370e-12, eps_r=12.25, vol_r=1e-18)
        mat4 = MaterialConstants(chi2=370e-12, eps_r=12.25, vol_r=4e-18)
        assert gnl_from_material(mat4, 1.3e15) == 0.5 * gnl_from_material(mat1, 1.3e15)

    def test_three_halves_power_of_frequency(self):
        mat = MaterialConstants(chi2=370e-12, eps_r=12.25, vol_r=1e-18)
        ratio = gnl_from_material(mat, 4.0e15) / gnl_from_material(mat, 1.0e15)
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_gaas_like_si_evaluation(self):
        # chi2 = 370 pm/V, eps_r = 12.25, V_r = 1 um^3, omega_a = 1.3e15 rad/s;
        # expected value computed independently with a 50-digit evaluation of
        # the same expression (mpmath), using the CODATA 2022 constants.
        mat = MaterialConstants(chi2=370e-12, eps_r=12.25, vol_r=1e-18)
        assert gnl_from_material(mat, 1.3e15) == pytest.approx(1395970802.6619942, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            MaterialConstants(chi2=1e-12, eps_r=0.0, vol_r=1e-18)
        with pytest.raises(ValueError):
            MaterialConstants(chi2=1e-12, eps_r=12.0, vol_r=-1e-18)
        mat = MaterialConstants(chi2=1e-12, eps_r=12.0, vol_r=1e-18)
        with pytest.raises(ValueError):
            gnl_from_material(mat, 0.0)
