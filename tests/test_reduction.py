import math

import numpy as np
import pytest

from torusqubit import reduction
from torusqubit.model import energy_scale_of
from torusqubit.potential import PotentialParams
from torusqubit.reduction import (
    NUMERICAL_TAYLOR,
    CLOSED_FORM,
    OscillatorCoefficients,
    _even_derivatives,
    coefficients_for,
    coefficients_numerical,
    coefficients_closed_form,
    qubit_for,
    qubit_parameters,
    rabi_frequency,
)
from torusqubit.spectral import solve_sector

from oracles import E_CHARGE_SI, ELECTRON_MASS_SI, HBAR_SI

M_STAR = 0.3 * ELECTRON_MASS_SI


class TestPaperCoefficients:
    def test_beta_sq_zero_field_hand_value(self, fig3a_geom):
        r, R = fig3a_geom.r_minor, fig3a_geom.R_major
        oracle = (r / 4.0) * HBAR_SI**2 / (R - r) ** 3  # direct SI arithmetic
        coeffs = coefficients_closed_form(fig3a_geom, 0.0)
        assert coeffs.beta_sq == pytest.approx(oracle, rel=1e-14)

    def test_beta_sq_exactly_quadratic_in_field(self, fig3a_geom):
        r, R = fig3a_geom.r_minor, fig3a_geom.R_major
        base = coefficients_closed_form(fig3a_geom, 0.0).beta_sq
        for B in (0.1, 0.45, 1.0):
            gain = coefficients_closed_form(fig3a_geom, B).beta_sq - base
            oracle = (r / 4.0) * (E_CHARGE_SI * B) ** 2 * (R - r)
            assert gain == pytest.approx(oracle, rel=1e-13)

    def test_delta_negative_at_zero_field(self, fig3a_geom):
        assert coefficients_closed_form(fig3a_geom, 0.0).delta_anh < 0.0


class TestNumericalTaylor:
    def test_quadratic_potential_recovered(self):
        kappa = 3.7
        f = lambda t: 0.5 * kappa * (t - math.pi) ** 2
        f0, d2, d4, odd = _even_derivatives(f, math.pi)
        assert d2 / 2.0 == pytest.approx(0.5 * kappa, rel=1e-8)
        assert abs(d4 / 24.0) < 1e-10
        assert f0 == 0.0
        assert odd < 1e-12

    def test_odd_term_rejected(self, fig3a_geom, monkeypatch):
        # a sin(theta) term, like a static electric field, is odd about pi
        internal_terms = reduction.internal_terms

        def tilted(theta, params):
            bare, elec, mag = internal_terms(theta, params)
            return bare + 1e-3 * math.sin(theta), elec, mag

        monkeypatch.setattr(reduction, "internal_terms", tilted)
        with pytest.raises(ValueError, match="odd derivatives at theta=pi are not negligible"):
            coefficients_numerical(fig3a_geom, 0.45)

    def test_round_trip_on_reconstructed_polynomial(self, fig3a_geom):
        # rebuild the quartic from the closed-form coefficients and feed it
        # back through the numerical expansion: inputs recovered to 1e-10
        coeffs = coefficients_closed_form(fig3a_geom, 0.45)
        u = energy_scale_of(fig3a_geom)
        c2 = coeffs.beta_sq / (2.0 * M_STAR) / u
        c4 = coeffs.delta_anh / u
        c0 = coeffs.epsilon_const / u
        f = lambda t: c0 + c2 * (t - math.pi) ** 2 + c4 * (t - math.pi) ** 4
        f0, d2, d4, odd = _even_derivatives(f, math.pi)
        assert f0 == pytest.approx(c0, rel=1e-12)
        assert d2 / 2.0 == pytest.approx(c2, rel=1e-10)
        assert d4 / 24.0 == pytest.approx(c4, rel=1e-10, abs=1e-10)

    def test_odd_contamination_detected(self, fig3a_geom):
        f = lambda t: 0.5 * (t - math.pi) ** 2 + 0.01 * math.sin(t - math.pi)
        _, _, _, odd = _even_derivatives(f, math.pi)
        assert odd > 1e-10


class TestRouteComparison:
    """The closed forms and the direct expansion of the implemented potential
    disagree in their bare (field-independent) parts; the differences are
    reproducible closed-form quantities.  See README for the discussion."""

    def test_magnetic_parts_agree_exactly(self, fig3a_geom):
        # the B-dependence of both routes is identical: differences are
        # independent of B
        num0 = coefficients_numerical(fig3a_geom, 0.0)
        num1 = coefficients_numerical(fig3a_geom, 0.45)
        pap0 = coefficients_closed_form(fig3a_geom, 0.0)
        pap1 = coefficients_closed_form(fig3a_geom, 0.45)
        gain_num = num1.beta_sq - num0.beta_sq
        gain_pap = pap1.beta_sq - pap0.beta_sq
        assert gain_num == pytest.approx(gain_pap, rel=1e-7)

    def test_quadratic_term_discrepancy_closed_form(self, fig3a_geom):
        # (beta_closed^2 - beta_num^2)/(2 m*) = -(rho+2)/(2 (rho-1)^2) * u
        rho = fig3a_geom.aspect_ratio
        u = energy_scale_of(fig3a_geom)
        predicted = -(rho + 2.0) / (2.0 * (rho - 1.0) ** 2) * u
        for B in (0.0, 0.45):
            num = coefficients_numerical(fig3a_geom, B)
            closed = coefficients_closed_form(fig3a_geom, B)
            diff = (closed.beta_sq - num.beta_sq) / (2.0 * M_STAR)
            assert diff == pytest.approx(predicted, rel=1e-7)

    def test_constant_term_discrepancy_is_cross_term_sign_flip(self, fig3a_geom):
        # bare bracket at theta=pi: direct gives -(R^2+2Rr-2r^2)/4, the
        # closed form -(R^2-2Rr+2r^2)/4; the difference is the flipped cross
        # terms, r(R-r) over the same prefactor = hbar^2/(2 m* r (R-r))
        r, R = fig3a_geom.r_minor, fig3a_geom.R_major
        predicted = HBAR_SI**2 / (2.0 * M_STAR * r * (R - r))
        for B in (0.0, 0.45):
            num = coefficients_numerical(fig3a_geom, B)
            closed = coefficients_closed_form(fig3a_geom, B)
            diff = closed.epsilon_const - num.epsilon_const
            assert diff == pytest.approx(predicted, rel=1e-10)


class TestQubitParameters:
    def test_beta_sq_times_four_doubles_omega(self, fig3a_geom):
        base = coefficients_numerical(fig3a_geom, 0.45)
        scaled = OscillatorCoefficients(
            beta_sq=4.0 * base.beta_sq,
            delta_anh=base.delta_anh,
            epsilon_const=base.epsilon_const,
        )
        q1 = qubit_parameters(base, fig3a_geom, 0.45)
        q2 = qubit_parameters(scaled, fig3a_geom, 0.45)
        assert q2.omega == pytest.approx(2.0 * q1.omega, rel=1e-14)

    def test_omega_at_operating_point_si_chain(self, fig3a_geom, fig5_qubit):
        # hand-checked chain: c2 (internal) -> omega = hbar sqrt(c2)/(m* r^2)
        rho = fig3a_geom.aspect_ratio
        a = rho - 1.0
        b = E_CHARGE_SI * 0.45 * fig3a_geom.r_minor**2 / (2.0 * HBAR_SI)
        c2_internal = (2 * rho**2 + 2 * rho - 3) / (4 * a**3) + b * b * a
        oracle = HBAR_SI * math.sqrt(c2_internal) / (M_STAR * fig3a_geom.r_minor**2)
        assert fig5_qubit.omega == pytest.approx(oracle, rel=1e-8)
        assert fig5_qubit.omega == pytest.approx(354386525376.787, rel=1e-9)

    def test_alpha_from_quartic_coefficient(self, fig3a_geom):
        coeffs = coefficients_numerical(fig3a_geom, 0.45)
        qubit = qubit_parameters(coeffs, fig3a_geom, 0.45)
        s_sq = HBAR_SI / (2.0 * M_STAR * qubit.omega * fig3a_geom.r_minor**2)
        assert qubit.alpha_anh == pytest.approx(coeffs.delta_anh * s_sq**2, rel=1e-12)

    def test_anharmonicity_resolvable_at_operating_point(self, fig5_qubit):
        assert fig5_qubit.anharmonicity_ratio > 1e-6
        assert fig5_qubit.anharmonicity_ratio == pytest.approx(0.0542, abs=0.005)

    def test_unresolvable_anharmonicity_warns(self, fig3a_geom):
        base = coefficients_numerical(fig3a_geom, 0.45)
        tiny = OscillatorCoefficients(
            beta_sq=base.beta_sq, delta_anh=base.delta_anh * 1e-8,
            epsilon_const=base.epsilon_const,
        )
        with pytest.warns(UserWarning, match="anharmonicity"):
            qubit_parameters(tiny, fig3a_geom, 0.45)

    def test_nonpositive_beta_rejected(self, fig3a_geom):
        bad = OscillatorCoefficients(beta_sq=0.0, delta_anh=-1e-25, epsilon_const=0.0)
        with pytest.raises(ValueError):
            qubit_parameters(bad, fig3a_geom, 0.0)


class TestDipoleAndRabi:
    def test_zero_drive_zero_rabi(self, fig5_qubit):
        assert rabi_frequency(fig5_qubit.mu_dipole, 0.0) == 0.0

    def test_linearity(self, fig5_qubit):
        one = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        two = rabi_frequency(fig5_qubit.mu_dipole, 200.0)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_dipole_formula(self, fig3a_geom, fig5_qubit):
        s = fig5_qubit.zero_point_spread
        oracle = E_CHARGE_SI * fig3a_geom.r_minor * (s - s**3 / 6.0)
        assert fig5_qubit.mu_dipole == pytest.approx(oracle, rel=1e-12)
        assert qubit_for(fig3a_geom, 0.45).mu_dipole == pytest.approx(oracle, rel=1e-12)

    def test_rabi_vs_wavefunction_matrix_element(self, fig3a_geom, fig5_qubit, disc1024):
        # independent oracle: <chi_0| -e E r sin(theta) |chi_1> / hbar with
        # the finite-difference eigenfunctions; 10% agreement expected at
        # this anharmonicity
        spec = solve_sector(PotentialParams(geom=fig3a_geom, B=0.45, m_orbital=0), disc1024, k=2)
        theta = disc1024.theta
        h = disc1024.spacing
        chi0 = spec.states[0].wavefunction
        chi1 = spec.states[1].wavefunction
        element = abs(np.sum(chi0 * np.sin(theta) * chi1) * h)
        omega_me = E_CHARGE_SI * 100.0 * fig3a_geom.r_minor * element / HBAR_SI
        omega_mu = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        assert omega_mu == pytest.approx(omega_me, rel=0.10)

    def test_resonant_drive_regime(self, fig5_qubit):
        omega_rabi = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        assert omega_rabi / fig5_qubit.omega < 1e-2

    def test_shallow_trap_warns(self, fig3a_geom):
        base = coefficients_numerical(fig3a_geom, 0.45)
        shallow = OscillatorCoefficients(
            beta_sq=base.beta_sq * 1e-4, delta_anh=base.delta_anh,
            epsilon_const=base.epsilon_const,
        )
        with pytest.warns(UserWarning, match="spread"):
            qubit_parameters(shallow, fig3a_geom, 0.45)

    def test_negative_drive_rejected(self, fig5_qubit):
        with pytest.raises(ValueError):
            rabi_frequency(fig5_qubit.mu_dipole, -1.0)


class TestTwoLevelTruncationIdentities:
    """The substitution rules behind the two-level drive coupling, checked
    as plain 2x2 matrix algebra."""

    def test_ladder_cube_identity(self):
        sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]])
        x = sigma_minus + sigma_minus.T
        np.testing.assert_array_equal(np.linalg.matrix_power(x, 3), x)

    def test_ladder_fourth_power_identity(self):
        sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]])
        x = sigma_minus + sigma_minus.T
        np.testing.assert_array_equal(np.linalg.matrix_power(x, 4), np.eye(2))


def test_closed_form_overflow_names_route_and_field(fig3a_geom):
    # (e B)^2 passes the double range; the numerical route returns at this B
    with pytest.raises(OverflowError, match=r"^closed_form coefficients overflow at B=1e\+200$"):
        coefficients_closed_form(fig3a_geom, 1e200)


def test_qubit_for_sources(fig3a_geom):
    numerical = qubit_for(fig3a_geom, 0.45)
    closed = qubit_for(fig3a_geom, 0.45, source=CLOSED_FORM)
    assert numerical == qubit_parameters(coefficients_numerical(fig3a_geom, 0.45), fig3a_geom, 0.45)
    assert closed == qubit_parameters(coefficients_closed_form(fig3a_geom, 0.45), fig3a_geom, 0.45)
    assert numerical.omega != closed.omega


def test_unknown_source_rejected(fig3a_geom):
    for call in (coefficients_for, qubit_for):
        with pytest.raises(ValueError, match="bogus"):
            call(fig3a_geom, 0.45, source="bogus")
    assert coefficients_for(fig3a_geom, 0.45, CLOSED_FORM) == coefficients_closed_form(
        fig3a_geom, 0.45
    )
