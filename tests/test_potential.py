import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusqubit.model import Discretization, energy_scale_of
from torusqubit.potential import PotentialParams, internal_terms, total_internal

from conftest import run_cli
from oracles import E_CHARGE_SI, ELECTRON_MASS_SI, HBAR_SI

ANGSTROM = 1e-10

# Hand evaluation done before coding, fig3a geometry, theta=pi, m=0:
# bracket = -R^2/4 - r(R-r)/2, value = hbar^2/(2 m* r^2 (R-r)^2) * bracket
V_BARE_AT_PI_FIG3A = -1.6404330930234536e-23  # J
# e * hbar * B / m* at B = 0.45 T with m* = 0.3 m0
ZEEMAN_SPLIT_045T = 2.78220302180394e-23  # J


def _params(geom, **kwargs):
    return PotentialParams(geom=geom, **kwargs)


BARE, ELEC, MAG = range(3)


def _terms_si(theta, params):
    """(V_bare, V_E, V_B) in joules."""
    u = energy_scale_of(params.geom)
    return tuple(u * term for term in internal_terms(theta, params))


def _total_si(theta, params):
    return energy_scale_of(params.geom) * total_internal(theta, params)


class TestVBare:
    def test_value_at_pi_fig3a(self, fig3a_geom):
        r, R = fig3a_geom.r_minor, fig3a_geom.R_major
        mstar = 0.3 * ELECTRON_MASS_SI
        bracket = -(R**2) / 4.0 - r * (R - r) / 2.0
        oracle = HBAR_SI**2 / (2.0 * mstar * r**2 * (R - r) ** 2) * bracket
        value = _terms_si(math.pi, _params(fig3a_geom))[BARE]
        assert value == pytest.approx(oracle, rel=1e-13)
        assert value == pytest.approx(V_BARE_AT_PI_FIG3A, rel=1e-13)

    @given(theta=st.floats(0.0, 2.0 * math.pi))
    def test_even_about_zero(self, fig3a_geom, theta):
        params = _params(fig3a_geom, m_orbital=2)
        assert _terms_si(theta, params)[BARE] == pytest.approx(
            _terms_si(2.0 * math.pi - theta, params)[BARE], rel=1e-12, abs=1e-40
        )

    def test_m_enters_squared(self, fig3a_geom):
        theta = np.linspace(0, 2 * np.pi, 17)
        plus = _terms_si(theta, _params(fig3a_geom, m_orbital=1))[BARE]
        minus = _terms_si(theta, _params(fig3a_geom, m_orbital=-1))[BARE]
        np.testing.assert_array_equal(plus, minus)


class TestVElectric:
    def test_zero_at_nodes(self, fig3a_geom):
        params = _params(fig3a_geom, E_static=100.0)
        assert _terms_si(0.0, params)[ELEC] == 0.0
        assert abs(_terms_si(math.pi, params)[ELEC]) < 1e-40

    def test_direct_product_at_quarter_turn(self, fig3a_geom):
        params = _params(fig3a_geom, E_static=100.0)
        oracle = -E_CHARGE_SI * 100.0 * 3.5e-8
        assert _terms_si(math.pi / 2, params)[ELEC] == pytest.approx(oracle, rel=1e-14)

    @given(theta=st.floats(0.0, 2.0 * math.pi))
    def test_odd_symmetry(self, fig3a_geom, theta):
        params = _params(fig3a_geom, E_static=250.0)
        scale = E_CHARGE_SI * 250.0 * fig3a_geom.r_minor
        assert _terms_si(theta, params)[ELEC] == pytest.approx(
            -_terms_si(2.0 * math.pi - theta, params)[ELEC], rel=1e-12, abs=scale * 1e-12
        )


class TestVMagnetic:
    def test_zero_field(self, fig3a_geom):
        theta = np.linspace(0, 2 * np.pi, 33)
        for m in (-2, 0, 3):
            np.testing.assert_array_equal(
                _terms_si(theta, _params(fig3a_geom, m_orbital=m))[MAG], np.zeros_like(theta)
            )

    def test_positive_for_m0(self, fig3a_geom):
        theta = np.linspace(0, 2 * np.pi, 64)
        values = _terms_si(theta, _params(fig3a_geom, B=0.2))[MAG]
        assert np.all(values > 0)

    def test_degeneracy_lifting_term(self, fig3a_geom):
        theta = np.linspace(0, 2 * np.pi, 16)
        plus = _terms_si(theta, _params(fig3a_geom, B=0.45, m_orbital=1))[MAG]
        minus = _terms_si(theta, _params(fig3a_geom, B=0.45, m_orbital=-1))[MAG]
        split = minus - plus
        oracle = E_CHARGE_SI * HBAR_SI * 0.45 / (0.3 * ELECTRON_MASS_SI)
        np.testing.assert_allclose(split, oracle, rtol=1e-13)
        assert oracle == pytest.approx(ZEEMAN_SPLIT_045T, rel=1e-13)


class TestVTotal:
    def test_sum_of_terms_at_random_angles(self, fig3a_geom):
        rng = np.random.default_rng(7)
        params = _params(fig3a_geom, B=0.3, E_static=50.0, m_orbital=1)
        theta = rng.uniform(0, 2 * np.pi, size=7)
        bare, elec, mag = internal_terms(theta, params)
        np.testing.assert_array_equal(total_internal(theta, params), bare + elec + mag)
        for angle in theta:
            assert _total_si(angle, params) == pytest.approx(sum(_terms_si(angle, params)), rel=1e-14)

    def test_symmetric_profile_without_electric_field(self, fig3a_geom):
        values = total_internal(Discretization(256).theta, _params(fig3a_geom, B=0.45))
        # theta -> 2pi - theta maps grid index i -> n - i (mod n)
        np.testing.assert_allclose(values[1:], values[1:][::-1], rtol=1e-12, atol=1e-15)

    def test_two_pi_periodicity(self, fig3a_geom):
        params = _params(fig3a_geom, B=0.3, E_static=80.0, m_orbital=2)
        theta = np.linspace(0.1, 6.2, 23)
        a = _total_si(theta, params)
        b = _total_si(theta + 2 * np.pi, params)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_minimum_at_pi_for_fig3_geometries(self, fig3a_geom, fig3b_geom):
        for geom in (fig3a_geom, fig3b_geom):
            for B in (0.0, 0.45, 1.0):
                theta = Discretization(1024).theta
                argmin = int(np.argmin(total_internal(theta, _params(geom, B=B))))
                assert theta[argmin] == pytest.approx(math.pi, abs=1e-9)

    def test_m_degeneracy_at_zero_field(self, fig3a_geom):
        theta = np.linspace(0, 2 * np.pi, 64)
        for m in (1, 2, 5):
            plus = _total_si(theta, _params(fig3a_geom, m_orbital=m))
            minus = _total_si(theta, _params(fig3a_geom, m_orbital=-m))
            np.testing.assert_array_equal(plus, minus)


class TestParams:
    @pytest.mark.parametrize("m", [0.5, 1.0, "0"])
    def test_non_integer_m_rejected(self, fig3a_geom, m):
        with pytest.raises(TypeError, match="m_orbital must be an integer"):
            PotentialParams(geom=fig3a_geom, m_orbital=m)


class TestProfile:
    """`potential` samples internal_terms on the solver's grid and writes it as CSV."""

    @staticmethod
    def _profile(tmp_path, *args):
        return (run_cli(["--preset", "fig3a", *args], tmp_path).dir
                / "potential.csv").read_text().splitlines()

    def test_grid_shape(self, tmp_path):
        rows = self._profile(tmp_path, "--n-points", "128", "potential")[2:]
        assert len(rows) == 128
        theta = np.array([float(row.split(",")[0]) for row in rows])
        np.testing.assert_array_equal(theta, Discretization(128).theta)  # repr round trip

    def test_csv_round_trip(self, tmp_path, fig3a_geom):
        lines = self._profile(tmp_path, "--n-points", "64", "--B", "0.45", "potential",
                              "--E-static", "10")
        assert lines[0].startswith("# internal units: energy_scale_J=")
        assert lines[1] == "theta,V_bare,V_E,V_B,V_total"
        assert len(lines) == 2 + 64
        columns = np.array([[float(x) for x in line.split(",")] for line in lines[2:]]).T
        params = _params(fig3a_geom, B=0.45, E_static=10.0)
        terms = internal_terms(Discretization(64).theta, params)
        np.testing.assert_array_equal(columns[1:4], terms)
        np.testing.assert_array_equal(columns[4], sum(terms))

    def test_non_finite_total_rejected(self, tmp_path):
        # b^2 overflows: the magnetic term and the total are inf, which the CSV writer refuses
        run_cli("--preset fig3a --B 1e200 potential", tmp_path, 1,
                r"CSV column V_B must be finite at theta=0\.0, got inf")
