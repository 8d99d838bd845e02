"""Physical constants, internal unit system, the shared device, field and
grid types that a run configuration is validated with, the range rules
(check_finite, check_positive, check_count) that every layer and the CLI
check a scalar argument with, and the bounds those rules are given for a
relative field error, an integrator tolerance and a drive's length.

Every downstream module works in an internal unit system tied to the device
geometry: energies in units of hbar^2 / (2 m* r^2), lengths in units of the
minor radius r, times in units of hbar / energy_scale.  This keeps matrix
entries O(1) instead of O(1e-23 J) and makes the dimensionless field
parameters explicit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# CODATA 2018 values (SI).  Frozen on purpose: reproducibility of derived
# numbers beats configurability for this artifact.
HBAR = 1.054571817e-34  # reduced Planck constant [J s]
E_CHARGE = 1.602176634e-19  # elementary charge [C], exact
ELECTRON_MASS = 9.1093837015e-31  # electron rest mass [kg]

TWO_PI = 2.0 * math.pi

DEFAULT_LOC_THRESHOLD = 0.6  # bound-state localization cut; see spectral
CLOSED_FORM = "closed_form"  # the two coefficient routes of reduction
NUMERICAL_TAYLOR = "numerical_taylor"
MAX_RELATIVE_ERROR = 0.1  # largest |dB| or |dE| an errors.ErrorModel accepts
TOL_RANGE = (1e-12, 1e-6)  # integrator tolerances accepted by the lab-frame paths of dynamics
MAX_DRIVE_CYCLES = 2.0**63  # drive periods in one propagation; cycle counts are int64


@dataclass(frozen=True)
class TorusGeometry:
    """Nanotorus geometry: minor radius, major radius, effective-mass ratio.

    The torus must be non-self-intersecting (0 < r_minor < R_major).  The
    effective mass of the confined electron is effective_mass_ratio * m0.
    """

    r_minor: float  # tube radius [m]
    R_major: float  # ring radius [m]
    effective_mass_ratio: float = 0.3

    def __post_init__(self) -> None:
        check_positive(self.r_minor, "r_minor")
        if not self.r_minor < check_finite(self.R_major, "R_major"):
            raise ValueError(
                f"need 0 < r_minor < R_major, got r={self.r_minor!r}, R={self.R_major!r}"
            )
        check_positive(self.effective_mass_ratio, "effective_mass_ratio")
        # the unit conversions divide by these, and r_minor**2 past the range raises OverflowError
        r_sq = check_finite(self.r_minor * self.r_minor, "r_minor^2", sys.float_info.min)
        check_finite(self.effective_mass * r_sq, "m* r_minor^2", sys.float_info.min)
        check_finite(energy_scale_of(self), "energy scale", sys.float_info.min)

    @property
    def effective_mass(self) -> float:
        """m* in kg."""
        return self.effective_mass_ratio * ELECTRON_MASS

    @property
    def aspect_ratio(self) -> float:
        """R/r, the only geometric parameter entering dimensionless formulas."""
        return self.R_major / self.r_minor


@dataclass(frozen=True)
class FieldConfig:
    """External control fields: static B plus an oscillating drive field.

    phi is normalized into [0, 2*pi) at construction.
    """

    B: float = 0.0  # static magnetic flux density [T]
    E0: float = 0.0  # drive field amplitude [V/m]
    omega_rf: float = 0.0  # drive angular frequency [rad/s]
    phi: float = 0.0  # drive phase [rad]

    def __post_init__(self) -> None:
        for name, low in (("B", 0.0), ("E0", 0.0), ("omega_rf", -math.inf), ("phi", -math.inf)):
            check_finite(getattr(self, name), name, low)
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class Discretization:
    """Uniform periodic grid and stencil order for the 1D operator."""

    n_points: int = 1024
    stencil_order: int = 2

    def __post_init__(self) -> None:
        check_count(self.n_points, "n_points", 64)
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points

    @property
    def theta(self) -> np.ndarray:
        import numpy as np

        return np.arange(self.n_points) * self.spacing


def check_finite(value: float, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """value if it is finite and in [low, high]; otherwise a ValueError naming it."""
    if not (math.isfinite(value) and low <= value <= high):
        if high < math.inf:
            bound = f" and in [{low:g}, {high:g}]"
        else:
            bound = "" if low == -math.inf else f" and >= {low:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """value if it is finite and positive; otherwise a ValueError naming it."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def check_count(value: int, name: str, low: int, high: int | None = None) -> int:
    """value if it lies in [low, high]; otherwise a ValueError naming it."""
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def check_loc_threshold(value: float) -> float:
    """value if it is a bound-state localization cut, in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"loc_threshold must lie in (0, 1), got {value!r}")
    return value


def check_source(value: str) -> str:
    """value if it names a coefficient route of reduction."""
    if value not in (NUMERICAL_TAYLOR, CLOSED_FORM):
        raise ValueError(f"source must be {NUMERICAL_TAYLOR!r} or {CLOSED_FORM!r}, got {value!r}")
    return value


def energy_scale_of(geom: TorusGeometry) -> float:
    """Kinetic energy scale hbar^2 / (2 m* r^2) in joules."""
    return HBAR**2 / (2.0 * geom.effective_mass * geom.r_minor**2)


@dataclass(frozen=True)
class UnitSystem:
    """The SI scales of the geometry-tied internal units.

    Internal quantities are dimensionless multiples of the scales below;
    from_internal converts an internal energy to joules with one
    multiplication.
    """

    energy_scale: float  # [J]
    length_scale: float  # [m]
    time_scale: float  # [s]

    def __post_init__(self) -> None:
        for name in ("energy_scale", "length_scale", "time_scale"):
            check_positive(getattr(self, name), name)

    @classmethod
    def for_geometry(cls, geom: TorusGeometry) -> "UnitSystem":
        u = energy_scale_of(geom)
        return cls(energy_scale=u, length_scale=geom.r_minor, time_scale=HBAR / u)

    def from_internal(self, value: float, kind: str = "energy") -> float:
        """An internal energy in joules; "energy" is the only kind converted."""
        if kind != "energy":
            raise ValueError(f"unknown quantity kind {kind!r}; only 'energy' is converted")
        return check_finite(value, "internal energy") * self.energy_scale


def magnetic_parameter(geom: TorusGeometry, B: float) -> float:
    """Dimensionless magnetic field strength b = e B r^2 / (2 hbar).

    It is the natural scale on which the field reshapes the confinement:
    the paramagnetic level shift is -2*m*b and the diamagnetic confinement
    b^2 (R/r + cos(theta))^2, both in internal energy units.
    """
    return E_CHARGE * check_finite(B, "B", low=0.0) * geom.r_minor**2 / (2.0 * HBAR)


def electric_parameter(geom: TorusGeometry, E_static: float) -> float:
    """Dimensionless drive strength f = e E r / energy_scale."""
    return E_CHARGE * E_static * geom.r_minor / energy_scale_of(geom)
