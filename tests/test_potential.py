"""Double-well structure, the interface profile, and surface tension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actx.potential import (
    DoubleWell,
    PotentialError,
    profile_psi,
    surface_tension,
    validate_conditions,
)

QUARTIC = DoubleWell.quartic()
# the quartic scaled by 4, as an ascending-coefficient polynomial
SCALED4 = DoubleWell.from_coeffs([2.0, 0.0, -4.0, 0.0, 2.0], alpha=0.8, kappa=4.0)


class TestEval:
    def test_at_zero(self):
        w, wp, wpp = QUARTIC.eval(0.0)
        assert (w, wp, wpp) == (0.5, 0.0, -2.0)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_at_wells(self, s):
        w, wp, wpp = QUARTIC.eval(s)
        assert w == pytest.approx(0.0, abs=1e-15)
        assert wp == pytest.approx(0.0, abs=1e-15)
        assert wpp == pytest.approx(4.0, abs=1e-12)

    def test_w_same_bits_as_expression(self):
        # W alone, in explicit arrays, against the expression eval used to evaluate
        s = np.random.default_rng(3).uniform(-1.3, 1.3, (65, 33))
        one_m = 1.0 - s * s
        assert np.array_equal(QUARTIC.w(s), 0.5 * one_m * one_m)
        assert np.array_equal(QUARTIC.eval(s)[0], 0.5 * one_m * one_m)
        poly = np.polynomial.polynomial.polyval(s, SCALED4.coeffs)
        assert np.array_equal(SCALED4.w(s), poly)
        assert QUARTIC.eval(0.25)[0] == 0.5 * (1.0 - 0.0625) * (1.0 - 0.0625)

    @given(s=st.floats(-1.2, 1.2))
    @settings(max_examples=100, deadline=None)
    def test_derivative_consistency(self, s):
        # centered differences of W match W', and of W' match W'', to O(delta^2)
        d = 1e-5
        for well in (QUARTIC, SCALED4):
            _w0, wp0, wpp0 = well.eval(s)
            fd1 = (well.eval(s + d)[0] - well.eval(s - d)[0]) / (2 * d)
            fd2 = (well.eval(s + d)[1] - well.eval(s - d)[1]) / (2 * d)
            assert fd1 == pytest.approx(wp0, abs=1e-7)
            assert fd2 == pytest.approx(wpp0, abs=1e-7)


class TestValidate:
    def test_standard_passes(self):
        rep = validate_conditions(QUARTIC)
        assert rep.passed
        assert rep.gamma == pytest.approx(0.0, abs=1e-12)
        # W''(0.8) = 6*0.64 - 2 = 1.84 >= kappa = 1
        assert QUARTIC.eval(0.8)[2] == pytest.approx(1.84)

    def test_small_alpha_fails_with_witness(self):
        rep = validate_conditions(DoubleWell.quartic(alpha=0.3))
        assert not rep.passed and not rep.condition_c.passed
        wit = rep.condition_c.witness
        assert abs(abs(wit) - 0.3) < 1e-3
        assert DoubleWell.quartic().eval(wit)[2] == pytest.approx(-1.46, abs=1e-2)

    def test_gamma_reported_for_poly(self):
        assert validate_conditions(SCALED4).gamma == pytest.approx(0.0, abs=1e-10)

    def test_non_well_polynomial_rejected(self):
        # W = s^2: W'(s) = 2s has the wrong sign pattern on (-1, 1)
        with pytest.raises(PotentialError, match="sign"):
            DoubleWell.from_coeffs([0.0, 0.0, 1.0])


class TestProfile:
    def test_center_value(self):
        assert profile_psi(QUARTIC, 0.0) == 0.0

    def test_matches_tanh(self):
        s = np.linspace(-5, 5, 501)
        assert np.max(np.abs(profile_psi(QUARTIC, s) - np.tanh(s))) < 1e-10

    def test_truncation_is_exact(self):
        assert profile_psi(QUARTIC, 10.0) == 1.0
        assert profile_psi(QUARTIC, -37.0) == -1.0
        assert profile_psi(SCALED4, 12.5) == 1.0

    @pytest.mark.parametrize("well", [QUARTIC, SCALED4], ids=["quartic", "scaled4"])
    def test_first_integral_identity(self, well):
        # psi'^2 / 2 = W(psi) inside the truncation window, via centered differences
        s = np.linspace(-7.5, 7.5, 601)
        d = 1e-5
        psi = profile_psi(well, s)
        dpsi = (profile_psi(well, s + d) - profile_psi(well, s - d)) / (2 * d)
        resid = np.abs(0.5 * dpsi**2 - well.eval(psi)[0])
        assert np.max(resid) < 1e-8

    def test_monotone(self):
        s = np.linspace(-11, 11, 2000)
        dpsi = np.diff(profile_psi(SCALED4, s))
        assert np.all(dpsi >= -1e-15)


class TestSurfaceTension:
    def test_standard_value(self):
        assert surface_tension(QUARTIC) == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_scaling_homogeneity(self):
        # W -> 4W scales sqrt(2W) by 2, hence sigma by 2
        assert surface_tension(SCALED4) == pytest.approx(2 * surface_tension(QUARTIC), rel=1e-8)

    def test_symmetric_half_interval(self):
        # even integrand: doubling the half-interval quadrature matches the full one
        from scipy.integrate import quad

        full = surface_tension(QUARTIC)
        half, _ = quad(lambda s: np.sqrt(2 * QUARTIC.eval(s)[0]), 0.0, 1.0, epsabs=1e-14)
        assert 2 * half == pytest.approx(full, abs=1e-10)

    def test_positive_for_valid_wells(self):
        for scale in (0.5, 1.0, 3.0, 10.0):
            w = DoubleWell.from_coeffs(
                [0.5 * scale, 0.0, -scale, 0.0, 0.5 * scale], kappa=scale
            )
            assert surface_tension(w) > 0

    def test_wpp_max_on_basin(self):
        # used by the timestep rule: sup |W''| over [-1.1, 1.1] = 6*1.21 - 2
        assert QUARTIC.wpp_max(1.1) == pytest.approx(5.26, abs=1e-6)
