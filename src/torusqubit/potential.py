"""Confinement potential V(theta) = V_bare + V_E + V_B on the torus tube angle.

V_bare is the curvature-induced trapping potential; V_E and V_B add the
static electric and magnetic field contributions.  `internal_terms` is the
one place the field parameters enter; every value here is in internal
energy units (see `model.UnitSystem`).  A float angle is evaluated with
`math`, an array of angles with numpy, so a scalar caller never loads numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .model import TorusGeometry, check_finite, electric_parameter, magnetic_parameter


@dataclass(frozen=True)
class PotentialParams:
    """Geometry, static fields, and orbital quantum number for one sector."""

    geom: TorusGeometry
    B: float = 0.0  # [T]
    E_static: float = 0.0  # [V/m]
    m_orbital: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.m_orbital, numbers.Integral):  # numpy's integers too
            raise TypeError("m_orbital must be an integer")
        check_finite(self.B, "B", low=0.0)
        check_finite(self.E_static, "E_static")


def internal_terms(theta, params: PotentialParams):
    """(V_bare, V_E, V_B) at angle(s) theta, in internal energy units:
    floats for a float theta, arrays for an array of angles.

    With rho = R/r, c = cos(theta), s = sin(theta), b = e B r^2 / (2 hbar)
    and f = e E r / energy_scale:
    V_bare = (-rho^2/4 + m^2 + s^2/4 + (rho c + 1)/2) / (rho + c)^2 (curvature),
    V_E = -f s and V_B = b^2 (rho + c)^2 - 2 m b.
    """
    rho = params.geom.aspect_ratio
    b = magnetic_parameter(params.geom, params.B)
    f = electric_parameter(params.geom, params.E_static)
    m = params.m_orbital
    if isinstance(theta, float):
        c, s = math.cos(theta), math.sin(theta)
    else:
        import numpy as np

        c, s = np.cos(theta), np.sin(theta)
    x = rho + c
    bare = (-0.25 * rho * rho + m * m + 0.25 * s**2 + 0.5 * (rho * c + 1.0)) / (x * x)
    return bare, -f * s, b * b * x * x - 2.0 * m * b


def total_internal(theta, params: PotentialParams):
    """Sum of the three terms in internal energy units (used by the solver)."""
    bare, elec, mag = internal_terms(theta, params)
    return bare + elec + mag
