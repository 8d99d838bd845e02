"""Reduction of the trapping well at theta=pi to a driven two-level system.

Two independent routes produce the quartic-well coefficients
V(theta_pi) = beta^2/(2 m*) theta_pi^2 + delta theta_pi^4 + epsilon:

* ``coefficients_numerical`` Taylor-expands the implemented potential
  (curvature + magnetic terms) by Richardson-extrapolated central
  differences at theta = pi.  This is the default source downstream.
* ``coefficients_closed_form`` evaluates the closed-form expressions literally.

The two routes disagree for this potential; see the package README for the
documented discrepancy.  Both are exposed so the disagreement itself is
reproducible.  From the coefficients follow the oscillator frequency
omega = |beta| / (m* r), the anharmonic shift alpha, the effective dipole
moment mu, and the Rabi rate Omega(E) = mu E / hbar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .model import (CLOSED_FORM, E_CHARGE, HBAR, NUMERICAL_TAYLOR, TorusGeometry, check_finite,
                    check_positive, check_source, energy_scale_of)
from .potential import PotentialParams, internal_terms


@dataclass(frozen=True)
class OscillatorCoefficients:
    """Quartic-well coefficients in SI units.

    beta_sq: (kg m/s)^2 momentum-like stiffness, quadratic term = beta_sq/(2 m*).
    delta_anh: quartic coefficient [J/rad^4].
    epsilon_const: well-bottom energy offset [J].
    """

    beta_sq: float
    delta_anh: float
    epsilon_const: float


@dataclass(frozen=True)
class QubitParameters:
    """Two-level model parameters derived from the well coefficients."""

    omega: float  # qubit transition frequency [rad/s]
    alpha_anh: float  # anharmonic shift scale [J]
    mu_dipole: float  # effective dipole moment [C m]
    geom: TorusGeometry
    B: float  # [T]

    def __post_init__(self) -> None:
        check_positive(self.omega, "omega")

    @property
    def anharmonicity_ratio(self) -> float:
        """|alpha| / (hbar omega); must be resolvable for a usable two-level
        truncation."""
        return abs(self.alpha_anh) / (HBAR * self.omega)

    @property
    def zero_point_spread(self) -> float:
        """Dimensionless zero-point angular spread s = sqrt(hbar/(2 m* omega r^2))."""
        return math.sqrt(HBAR / (2.0 * self.geom.effective_mass * self.omega * self.geom.r_minor**2))


def coefficients_closed_form(geom: TorusGeometry, B: float) -> OscillatorCoefficients:
    """Literal evaluation of the closed-form well-coefficient expressions."""
    check_finite(B, "B", low=0.0)
    r = geom.r_minor
    R = geom.R_major
    mstar = geom.effective_mass
    try:
        e2b2 = (E_CHARGE * B) ** 2
        delta = -(1.0 / (96.0 * mstar)) * (
            HBAR**2 * r * (R + 8.0 * r) / (R - r) ** 4 + e2b2 * r * (R - 4.0 * r)
        )
        beta_sq = (r / 4.0) * (HBAR**2 / (R - r) ** 3 + e2b2 * (R - r))
        epsilon = (1.0 / (8.0 * mstar * (R - r) ** 2)) * (
            e2b2 * (R - r) ** 4 - HBAR**2 * (R**2 - 2.0 * R * r + 2.0 * r**2) / r**2
        )
    except OverflowError:
        raise OverflowError(f"{CLOSED_FORM} coefficients overflow at B={B!r}") from None
    except ZeroDivisionError:  # a divisor, a power of R - r, underflowed to zero
        raise ZeroDivisionError(f"{CLOSED_FORM} coefficients underflow at B={B!r}") from None
    return OscillatorCoefficients(beta_sq=beta_sq, delta_anh=delta, epsilon_const=epsilon)


def _richardson(samples: list[float]) -> float:
    """Extrapolate central-difference estimates D(h), D(h/2), ... (error ~ h^2)."""
    table = list(samples)
    factor = 4.0
    while len(table) > 1:
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0) for i in range(len(table) - 1)
        ]
        factor *= 4.0
    return table[0]


def _even_derivatives(f: Callable[[float], float], x0: float) -> tuple[float, float, float, float]:
    """(f(x0), f''(x0), f''''(x0), odd_residual) by Richardson extrapolation
    over the steps h = 0.4, 0.2, ..., 0.025 rad.

    odd_residual is the first/third central-derivative magnitude at the
    coarsest step (where roundoff amplification by 1/h^3 is negligible),
    normalized by the even-derivative scale; it vanishes for a potential
    that is even about x0.  The step sizes stay well inside the analyticity
    radius of the torus potential, so the h^2 error ladder the
    extrapolation assumes is valid.
    """
    f0 = f(x0)
    d2, d4 = [], []
    odd = 0.0
    for level in range(5):
        h = 0.4 / 2**level
        fp1, fm1 = f(x0 + h), f(x0 - h)
        fp2, fm2 = f(x0 + 2 * h), f(x0 - 2 * h)
        d2.append((fp1 - 2.0 * f0 + fm1) / h**2)
        d4.append((fp2 - 4.0 * fp1 + 6.0 * f0 - 4.0 * fm1 + fm2) / h**4)
        if level == 0:
            d1 = (fp1 - fm1) / (2.0 * h)
            d3 = (fp2 - 2.0 * fp1 + 2.0 * fm1 - fm2) / (2.0 * h**3)
            odd = max(abs(d1), abs(d3))
    d2_best = _richardson(d2)
    d4_best = _richardson(d4)
    scale = max(abs(d2_best), abs(d4_best), abs(f0), 1.0)
    return f0, d2_best, d4_best, odd / scale


def coefficients_numerical(geom: TorusGeometry, B: float) -> OscillatorCoefficients:
    """Quartic-well coefficients of the m=0 well from the implemented potential itself.

    Richardson-extrapolated central derivatives of V_bare + V_B at theta=pi
    give c0 + c2 theta_pi^2 + c4 theta_pi^4; the mapping to the oscillator
    form is beta^2 = 2 m* c2, delta = c4, epsilon = c0.  Fails if the odd
    derivatives do not vanish, which would signal a symmetry-breaking
    (electric-field-like) contamination of the inputs.
    """
    params = PotentialParams(geom=geom, B=B)

    def v(theta: float) -> float:
        bare, _, mag = internal_terms(theta, params)
        return float(bare + mag)

    c0_int, d2_int, d4_int, odd = _even_derivatives(v, math.pi)
    if not all(map(math.isfinite, (c0_int, d2_int, d4_int))):
        raise OverflowError(f"{NUMERICAL_TAYLOR} coefficients overflow at B={B!r}")
    if odd > 1e-10:
        raise ValueError(
            f"odd derivatives at theta=pi are not negligible (residual {odd:.2e}); "
            "the potential fed to the expansion is not symmetric about pi"
        )

    u = energy_scale_of(geom)
    c2 = 0.5 * d2_int * u  # J/rad^2
    c4 = d4_int / 24.0 * u  # J/rad^4
    return OscillatorCoefficients(
        beta_sq=2.0 * geom.effective_mass * c2,
        delta_anh=c4,
        epsilon_const=c0_int * u,
    )


def qubit_parameters(
    coeffs: OscillatorCoefficients, geom: TorusGeometry, B: float
) -> QubitParameters:
    """Oscillator and drive parameters of the two-level model.

    omega = sqrt(beta^2)/(m* r) and alpha = delta (hbar / (2 m* omega r^2))^2.
    The anharmonicity ratio |alpha|/(hbar omega) must be resolvable for the
    two-level truncation to make sense; a warning is issued when it drops
    below 1e-6.
    """
    check_positive(coeffs.beta_sq, "beta_sq")
    mstar = geom.effective_mass
    r = geom.r_minor
    omega = math.sqrt(coeffs.beta_sq) / (mstar * r)
    s_sq = HBAR / (2.0 * mstar * omega * r**2)
    alpha = coeffs.delta_anh * s_sq**2
    params = QubitParameters(
        omega=omega,
        alpha_anh=alpha,
        mu_dipole=_dipole_from_spread(math.sqrt(s_sq), r),
        geom=geom,
        B=B,
    )
    if params.anharmonicity_ratio < 1e-6:
        warnings.warn(
            f"anharmonicity ratio {params.anharmonicity_ratio:.2e} < 1e-6; "
            "the two-level truncation is not resolvable",
        )
    return params


def _dipole_from_spread(s: float, r_minor: float) -> float:
    if s >= 1.0:
        warnings.warn(
            f"zero-point angular spread s={s:.3f} >= 1: the sin(theta) expansion "
            "behind the dipole coupling is invalid (trapping too shallow)",
        )
    return E_CHARGE * r_minor * (s - s**3 / 6.0)


def rabi_frequency(mu: float, E0: float) -> float:
    """Rabi rate Omega = mu E0 / hbar [rad/s]; linear in the drive amplitude."""
    return mu * check_finite(E0, "E0", low=0.0) / HBAR


def coefficients_for(
    geom: TorusGeometry, B: float, source: str = NUMERICAL_TAYLOR
) -> OscillatorCoefficients:
    """Quartic-well coefficients from the route named by source.

    The one place a source name selects a route; any name other than
    NUMERICAL_TAYLOR or CLOSED_FORM raises ValueError (model.check_source).
    """
    if check_source(source) == NUMERICAL_TAYLOR:
        return coefficients_numerical(geom, B)
    return coefficients_closed_form(geom, B)


def qubit_for(geom: TorusGeometry, B: float, source: str = NUMERICAL_TAYLOR) -> QubitParameters:
    """Convenience: coefficients -> QubitParameters in one call."""
    return qubit_parameters(coefficients_for(geom, B, source), geom, B)
