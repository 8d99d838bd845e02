import math

import pytest
from hypothesis import given, strategies as st

from torusqubit.model import (
    E_CHARGE,
    ELECTRON_MASS,
    HBAR,
    FieldConfig,
    TorusGeometry,
    UnitSystem,
    energy_scale_of,
)

from oracles import ELECTRON_MASS_SI, HBAR_SI

ANGSTROM = 1e-10

# Direct SI arithmetic, evaluated by hand before the build:
# hbar^2 / (2 * 0.3 * m0 * (3.5e-8 m)^2)
ENERGY_SCALE_FIG3A = 1.6610243033961332e-23  # J


class TestConstants:
    def test_codata_values(self):
        assert HBAR == 1.054571817e-34
        assert E_CHARGE == 1.602176634e-19
        assert ELECTRON_MASS == 9.1093837015e-31


class TestTorusGeometry:
    def test_self_intersecting_rejected(self):
        with pytest.raises(ValueError):
            TorusGeometry(r_minor=900 * ANGSTROM, R_major=350 * ANGSTROM)
        with pytest.raises(ValueError):
            TorusGeometry(r_minor=350 * ANGSTROM, R_major=350 * ANGSTROM)

    def test_mass_ratio_positive(self):
        with pytest.raises(ValueError):
            TorusGeometry(350 * ANGSTROM, 900 * ANGSTROM, effective_mass_ratio=0.0)

    def test_effective_mass(self, fig3a_geom):
        assert fig3a_geom.effective_mass == pytest.approx(0.3 * ELECTRON_MASS_SI, rel=1e-15)


class TestEnergyScale:
    def test_fig3a_value_against_hand_arithmetic(self, fig3a_geom):
        oracle = HBAR_SI**2 / (2.0 * 0.3 * ELECTRON_MASS_SI * (3.5e-8) ** 2)
        assert energy_scale_of(fig3a_geom) == pytest.approx(oracle, rel=1e-14)
        assert energy_scale_of(fig3a_geom) == pytest.approx(ENERGY_SCALE_FIG3A, rel=1e-14)

    def test_r_doubled_divides_by_four(self, fig3a_geom):
        doubled = TorusGeometry(2 * fig3a_geom.r_minor, fig3a_geom.R_major)
        assert energy_scale_of(fig3a_geom) / energy_scale_of(doubled) == pytest.approx(4.0, rel=1e-14)

    def test_mass_ratio_doubled_halves(self, fig3a_geom):
        heavier = TorusGeometry(fig3a_geom.r_minor, fig3a_geom.R_major, effective_mass_ratio=0.6)
        assert energy_scale_of(fig3a_geom) / energy_scale_of(heavier) == pytest.approx(2.0, rel=1e-14)

    @given(
        r=st.floats(1e-9, 1e-6),
        factor=st.floats(1.01, 10.0),
        ratio=st.floats(0.05, 5.0),
    )
    def test_strictly_decreasing_in_r_and_mass(self, r, factor, ratio):
        geom = TorusGeometry(r, 20e-6, effective_mass_ratio=ratio)
        bigger_r = TorusGeometry(r * factor, 20e-6, effective_mass_ratio=ratio)
        heavier = TorusGeometry(r, 20e-6, effective_mass_ratio=ratio * factor)
        assert energy_scale_of(bigger_r) < energy_scale_of(geom)
        assert energy_scale_of(heavier) < energy_scale_of(geom)


class TestUnitSystem:
    def test_identity_scale(self):
        units = UnitSystem(energy_scale=1.0, length_scale=1.0, time_scale=1.0)
        assert units.from_internal(1.0, "energy") == 1.0
        assert units.from_internal(0.0, "energy") == 0.0

    def test_one_mev_in_internal_units(self, fig3a_geom):
        units = UnitSystem.for_geometry(fig3a_geom)
        mev = 1e-3 * 1.602176634e-19  # J, SI arithmetic oracle
        assert units.from_internal(mev / ENERGY_SCALE_FIG3A, "energy") == pytest.approx(mev, rel=1e-14)

    @given(value=st.floats(-1e6, 1e6))
    def test_round_trip_identity(self, fig3a_geom, value):
        units = UnitSystem.for_geometry(fig3a_geom)
        got = units.from_internal(value, "energy") / units.energy_scale
        assert got == pytest.approx(value, rel=1e-14, abs=1e-300)

    def test_rejects_non_finite(self, fig3a_geom):
        units = UnitSystem.for_geometry(fig3a_geom)
        with pytest.raises(ValueError):
            units.from_internal(math.inf, "energy")
        with pytest.raises(ValueError):
            units.from_internal(math.nan, "energy")

    def test_rejects_unknown_kind(self, fig3a_geom):
        units = UnitSystem.for_geometry(fig3a_geom)
        for kind in ("voltage", "length", "time", "angular_frequency"):
            with pytest.raises(ValueError, match="kind"):
                units.from_internal(1.0, kind)

    def test_time_scale_is_hbar_over_energy(self, fig3a_geom):
        units = UnitSystem.for_geometry(fig3a_geom)
        assert units.time_scale == pytest.approx(HBAR_SI / ENERGY_SCALE_FIG3A, rel=1e-14)


class TestFieldConfig:
    def test_phase_normalized(self):
        config = FieldConfig(B=0.1, E0=10.0, omega_rf=1e9, phi=7.0)
        assert 0.0 <= config.phi < 2 * math.pi
        assert config.phi == pytest.approx(7.0 - 2 * math.pi, rel=1e-12)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            FieldConfig(B=-0.1)
        with pytest.raises(ValueError):
            FieldConfig(E0=-1.0)
