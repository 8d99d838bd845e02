"""Confinement potential V(theta) = V_bare + V_E + V_B on the torus tube angle.

V_bare is the curvature-induced trapping potential; V_E and V_B add the
static electric and magnetic field contributions.  `internal_terms` is the
one place the field parameters enter; every value here is in internal
energy units (see `model.UnitSystem`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .model import TorusGeometry, UnitSystem, electric_parameter, magnetic_parameter

MIN_PROFILE_POINTS = 16


@dataclass(frozen=True)
class PotentialParams:
    """Geometry, static fields, and orbital quantum number for one sector."""

    geom: TorusGeometry
    B: float = 0.0  # [T]
    E_static: float = 0.0  # [V/m]
    m_orbital: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.m_orbital, (int, np.integer)):
            raise TypeError("m_orbital must be an integer")
        for name in ("B", "E_static"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.B < 0:
            raise ValueError("B must be non-negative")


def internal_terms(theta, params: PotentialParams):
    """(V_bare, V_E, V_B) at angle(s) theta, in internal energy units.

    With rho = R/r, c = cos(theta), s = sin(theta), b = e B r^2 / (2 hbar)
    and f = e E r / energy_scale:
    V_bare = (-rho^2/4 + m^2 + s^2/4 + (rho c + 1)/2) / (rho + c)^2 (curvature),
    V_E = -f s and V_B = b^2 (rho + c)^2 - 2 m b.
    """
    rho = params.geom.aspect_ratio
    b = magnetic_parameter(params.geom, params.B)
    f = electric_parameter(params.geom, params.E_static)
    m = params.m_orbital
    c, s = np.cos(theta), np.sin(theta)
    x = rho + c
    bare = (-0.25 * rho * rho + m * m + 0.25 * s**2 + 0.5 * (rho * c + 1.0)) / (x * x)
    return bare, -f * s, b * b * x * x - 2.0 * m * b


def total_internal(theta, params: PotentialParams):
    """Sum of the three terms in internal energy units (used by the solver)."""
    bare, elec, mag = internal_terms(theta, params)
    return bare + elec + mag


@dataclass(frozen=True)
class PotentialProfile:
    """Potential terms sampled on a uniform periodic grid, internal units.

    The grid covers [0, 2*pi) with the endpoint excluded (periodic wrap),
    matching the finite-difference stencil of the eigensolver.
    """

    theta_grid: np.ndarray
    bare: np.ndarray
    electric: np.ndarray
    magnetic: np.ndarray
    values: np.ndarray  # total
    params: PotentialParams

    def __post_init__(self) -> None:
        n = len(self.theta_grid)
        for arr in (self.bare, self.electric, self.magnetic, self.values):
            if len(arr) != n:
                raise ValueError("profile arrays must share the grid length")
            if not np.all(np.isfinite(arr)):
                raise ValueError("profile values must be finite")
        spacing = np.diff(self.theta_grid)
        if n >= 2 and not np.allclose(spacing, spacing[0], rtol=0, atol=1e-12):
            raise ValueError("theta grid must be uniform and strictly increasing")

    def to_csv(self) -> str:
        """CSV with columns theta,V_bare,V_E,V_B,V_total (internal units).

        The leading comment line records the unit scales so the file is
        self-describing in SI.
        """
        units = UnitSystem.for_geometry(self.params.geom)
        buf = io.StringIO()
        buf.write(
            f"# internal units: energy_scale_J={units.energy_scale!r},"
            f" length_scale_m={units.length_scale!r},"
            f" time_scale_s={units.time_scale!r}\n"
        )
        buf.write("theta,V_bare,V_E,V_B,V_total\n")
        for i in range(len(self.theta_grid)):
            buf.write(
                f"{float(self.theta_grid[i])!r},{float(self.bare[i])!r},"
                f"{float(self.electric[i])!r},{float(self.magnetic[i])!r},"
                f"{float(self.values[i])!r}\n"
            )
        return buf.getvalue()


def sample_profile(params: PotentialParams, n_points: int) -> PotentialProfile:
    """Sample all potential terms on a uniform grid including theta=0."""
    if n_points < MIN_PROFILE_POINTS:
        raise ValueError(f"n_points must be >= {MIN_PROFILE_POINTS}, got {n_points}")
    theta = np.arange(n_points) * (2.0 * np.pi / n_points)
    bare, elec, mag = internal_terms(theta, params)
    return PotentialProfile(
        theta_grid=theta,
        bare=bare,
        electric=elec,
        magnetic=mag,
        values=bare + elec + mag,
        params=params,
    )
