"""Driven two-level dynamics: exact RWA rotations, lab-frame integration,
and a three-level leakage probe.

Conventions: basis (|0>, |1>) with |0> the ground state at the north pole
of the Bloch sphere (z = +1).  sigma_- = |0><1|, sigma_+ = |1><0|.  The
rotating-frame effective Hamiltonian of a drive segment is

    H_eff = hbar*Delta sigma_+ sigma_-
          + (hbar*Omega/2) (e^{i phi} sigma_- + e^{-i phi} sigma_+),

whose propagator is evaluated in closed form (a Rabi rotation).  Lab-frame
evolution propagates i hbar d|psi>/dt = H_dv(t) |psi> with

    H_dv(t) = hbar*omega sigma_+ sigma_-
            + hbar*Omega cos(omega_rf t + phi) (sigma_+ + sigma_-)

(and the three-level ladder likewise) with the period propagator: H_dv has
period T = 2 pi / omega_rf, so U(N T + r) = U(r) U_T^N.  One adaptive
DOP853 solve of the matrix ODE over a single period gives U_T and U(r);
U_T^N comes by repeated squaring, so the cost does not grow with the
number of drive cycles.  No renormalization is applied anywhere: norm
drift is a test observable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import HBAR, FieldConfig
from .reduction import QubitParameters, rabi_frequency

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_NORM_GUARD = 1e-4  # loose sanity guard; unitarity contracts live in tests
TOL_RANGE = (1e-12, 1e-6)  # integrator tolerances accepted by the lab-frame paths
_RTOL_FLOOR = 3e-14  # smallest rtol DOP853 honours (scipy raises smaller ones)


class IntegrationError(RuntimeError):
    """Raised when the lab-frame integrator cannot meet its tolerance."""


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitudes in the energy basis (two or three levels)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)  # own copy, also of a column view
        if amp.ndim != 1 or amp.size not in (2, 3):
            raise ValueError("state must hold 2 or 3 complex amplitudes")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if abs(np.vdot(amp, amp).real - 1.0) > _NORM_GUARD:
            raise ValueError(f"state norm deviates from 1 by more than {_NORM_GUARD}")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def ground(cls, dim: int = 2) -> "QuantumState":
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return cls(amp)

    @classmethod
    def of(cls, *amplitudes: complex) -> "QuantumState":
        amp = np.asarray(amplitudes, dtype=complex)
        return cls(amp / np.linalg.norm(amp))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "QuantumState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "QuantumState") -> float:
        return abs(self.overlap(other)) ** 2

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class PulseSpec:
    """One rotating-frame drive segment."""

    rabi_Omega: float  # [rad/s]
    detuning_Delta: float  # omega - omega_rf [rad/s]
    phase_phi: float  # [rad]
    duration: float  # [s]

    def __post_init__(self) -> None:
        for name in ("rabi_Omega", "detuning_Delta", "phase_phi", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class BlochPoint:
    x: float
    y: float
    z: float


def rwa_unitary(pulse: PulseSpec) -> np.ndarray:
    """Exact propagator exp(-i H_eff t / hbar) of one segment.

    Writing H_eff/hbar = (Delta/2) I + (1/2) n . sigma with
    n = (Omega cos phi, -Omega sin phi, -Delta), the propagator is a Rabi
    rotation by angle Omega_R t about n-hat, Omega_R = sqrt(Omega^2+Delta^2),
    times the scalar phase e^{-i Delta t / 2}.
    """
    omega, delta, phi, t = (
        pulse.rabi_Omega,
        pulse.detuning_Delta,
        pulse.phase_phi,
        pulse.duration,
    )
    omega_r = math.hypot(omega, delta)
    if omega_r == 0.0 or t == 0.0:
        return np.eye(2, dtype=complex)
    half_angle = 0.5 * omega_r * t
    axis = (
        np.array([omega * math.cos(phi), -omega * math.sin(phi), -delta]) / omega_r
    )
    n_dot_sigma = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    rot = math.cos(half_angle) * np.eye(2) - 1j * math.sin(half_angle) * n_dot_sigma
    return np.exp(-0.5j * delta * t) * rot


def evolve_rwa(state: QuantumState, pulse: PulseSpec) -> QuantumState:
    """Evolve a two-level state under one segment's effective Hamiltonian."""
    if state.amplitudes.size != 2:
        raise ValueError("evolve_rwa expects a two-level state")
    return QuantumState(rwa_unitary(pulse) @ state.amplitudes)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call.

    Importing scipy.integrate costs ~0.3 s, and only the lab-frame and
    three-level integrations need it.  Every integration in this module
    calls this module attribute.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _matrix_powers(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """base**n for every n in exponents, by repeated squaring."""
    dim = base.shape[0]
    out = np.broadcast_to(np.eye(dim, dtype=complex), (exponents.size, dim, dim)).copy()
    remaining = exponents.copy()
    while remaining.any():
        odd = (remaining & 1).astype(bool)
        out[odd] = out[odd] @ base
        base = base @ base
        remaining >>= 1
    return out


def _drive_propagators(
    h0: np.ndarray,
    coupling: np.ndarray,
    omega_rf: float,
    phi: float,
    times: np.ndarray,
    tol: float,
) -> np.ndarray:
    """U(t_j) for H(t) = h0 + cos(omega_rf t + phi) coupling, one per time.

    H(t) has period T = 2 pi / |omega_rf|, so U(N T + r) = U(r) U_T^N
    (Shirley, Phys. Rev. 138, B979 (1965)).  One DOP853 solve of the matrix
    ODE i hbar dU/dt = H(t) U over [0, T], evaluated at the sorted
    remainders r_j, gives U_T and every U(r_j); the powers U_T^N come by
    repeated squaring.  The cost is independent of the number of cycles N.

    Accuracy contract: with N the largest cycle count, the period is
    integrated at rtol = tol / (10 N), atol = tol / (1000 N), and its error
    compounds at most linearly, |dU| <~ N eps_T + eps_r.  While
    tol / (10 N) >= 3e-14 (N <= 3333 cycles at tol 1e-9) the result keeps
    the tolerance of a single solve.  Beyond that, rtol is held at DOP853's
    floor 3e-14 and the error grows as N times the one-period error at the
    floor, about N * 3e-14 at most (4e-15 per cycle measured for the fig5
    qubit against a 28-digit reference); a RuntimeWarning is raised
    when N * 3e-14 exceeds tol.  A direct solve through the N cycles
    accumulates more.  Without a drive frequency (omega_rf = 0) H is
    constant and is integrated directly over [0, max t_j] at tol.
    """
    low, high = TOL_RANGE
    if not low <= tol <= high:
        raise ValueError(f"tol must lie in [{low:g}, {high:g}], got {tol!r}")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("t must be finite and non-negative")
    dim = h0.shape[0]
    period = 2.0 * math.pi / abs(omega_rf) if omega_rf else math.inf
    cycles, rests = np.divmod(times, period)
    cycles = cycles.astype(np.int64)
    n_max = int(cycles.max())
    end = period if n_max else float(rests.max())
    identity = np.eye(dim, dtype=complex)
    if end == 0.0:
        return np.broadcast_to(identity, (times.size, dim, dim)).copy()

    a0 = (-1j / HBAR) * h0
    a1 = (-1j / HBAR) * coupling

    def rhs(time, u):
        return ((a0 + math.cos(omega_rf * time + phi) * a1) @ u.reshape(dim, dim)).ravel()

    grid = np.unique(np.append(rests, end))
    tol_period = tol / max(n_max, 1)
    if n_max * _RTOL_FLOOR > tol:
        warnings.warn(
            f"tol={tol:g} is below what {n_max} drive cycles at DOP853's rtol floor "
            f"{_RTOL_FLOOR:g} guarantee; the error bound is ~{n_max * _RTOL_FLOOR:.1e}",
            RuntimeWarning,
        )
    sol = solve_ivp(
        rhs,
        (0.0, end),
        identity.ravel(),
        method="DOP853",
        rtol=max(tol_period * 1e-1, _RTOL_FLOOR),
        atol=tol_period * 1e-3,
        t_eval=grid,
    )
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    on_grid = sol.y.T.reshape(grid.size, dim, dim)
    # on_grid[-1] is U_T whenever a cycle count is nonzero
    return on_grid[np.searchsorted(grid, rests)] @ _matrix_powers(on_grid[-1], cycles)


def drive_field(pulse: PulseSpec, qubit: QubitParameters) -> FieldConfig:
    """The lab-frame drive that realizes a rotating-frame pulse on a qubit.

    Its amplitude gives the Rabi rate Omega, E0 = Omega / rabi_frequency(mu, 1);
    it oscillates at omega_rf = omega - Delta with the pulse's phase.
    """
    e0 = pulse.rabi_Omega / rabi_frequency(qubit.mu_dipole, 1.0) if pulse.rabi_Omega else 0.0
    return FieldConfig(
        B=qubit.B, E0=e0, omega_rf=qubit.omega - pulse.detuning_Delta, phi=pulse.phase_phi
    )


def labframe_unitary(
    qubit: QubitParameters, field: FieldConfig, t: float, tol: float = 1e-9
) -> np.ndarray:
    """Lab-frame propagator U(t) of the driven two-level Hamiltonian H_dv.

    The drive amplitude is Omega(E0) = mu E0 / hbar with mu from the qubit
    reduction; omega_rf and phi come from the field configuration.  See
    _drive_propagators for the method and its accuracy contract.
    """
    h0 = HBAR * qubit.omega * np.diag([0.0, 1.0]).astype(complex)
    hx = HBAR * rabi_frequency(qubit.mu_dipole, field.E0) * SIGMA_X
    return _drive_propagators(h0, hx, field.omega_rf, field.phi, np.array([t]), tol)[0]


def evolve_labframe(
    state: QuantumState,
    qubit: QubitParameters,
    field: FieldConfig,
    t: float,
    tol: float = 1e-9,
) -> QuantumState:
    """Integrate the full driven two-level Hamiltonian in the lab frame.

    The state is propagated by labframe_unitary.  Norm drift of the result
    is bounded by ~10*tol (within the accuracy contract) and left in place.
    """
    if state.amplitudes.size != 2:
        raise ValueError("evolve_labframe expects a two-level state")
    return QuantumState(labframe_unitary(qubit, field, t, tol) @ state.amplitudes)


def rotating_frame(state: QuantumState, omega_rf: float, t: float) -> QuantumState:
    """Apply R(t) = exp(i omega_rf t sigma_+ sigma_-) to a lab-frame state."""
    amp = state.amplitudes.copy()
    amp[1] *= np.exp(1j * omega_rf * t)
    return QuantumState(amp)


def _ladder_operators() -> tuple[np.ndarray, np.ndarray]:
    """3x3 truncations of (a + a^dagger) and of its full cube.

    The cube's elements are those of the untruncated operator restricted to
    the lowest three levels: <1|X^3|0> = 3, <2|X^3|1> = 6*sqrt(2).
    """
    x = np.zeros((3, 3))
    x[0, 1] = x[1, 0] = 1.0
    x[1, 2] = x[2, 1] = math.sqrt(2.0)
    x3 = np.zeros((3, 3))
    x3[0, 1] = x3[1, 0] = 3.0
    x3[1, 2] = x3[2, 1] = 6.0 * math.sqrt(2.0)
    return x, x3


def leakage_probe(
    qubit: QubitParameters,
    field: FieldConfig,
    t: float,
    tol: float = 1e-9,
    initial: QuantumState | None = None,
    n_samples: int = 400,
) -> float:
    """Max population of the second excited level over a drive of duration t.

    The three-level ladder is (0, hbar*omega, 2*hbar*omega + 12*alpha): the
    12*alpha shift is the second difference of first-order quartic-term
    corrections <n|X^4|n> = 3(2n^2+2n+1), i.e. the amount by which the 1->2
    transition is detuned from the drive.  Drive matrix elements follow the
    dipole coupling e E r (s X - s^3/6 X^3) truncated to three levels.
    """
    _, amplitudes = ladder_trajectory(qubit, field, t, n_samples, tol=tol, initial=initial)
    return float(np.max(np.abs(amplitudes[:, 2]) ** 2))


def ladder_trajectory(
    qubit: QubitParameters,
    field: FieldConfig,
    t: float,
    n_samples: int,
    tol: float = 1e-9,
    initial: QuantumState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Times and three-level amplitudes of the driven anharmonic ladder.

    Same model as leakage_probe; returns (times, amplitudes) with one row of
    three complex amplitudes per sample time.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if initial is None:
        initial = QuantumState.ground(dim=3)
    if initial.amplitudes.size != 3:
        raise ValueError("ladder trajectory needs a three-level state")

    omega = qubit.omega
    alpha = qubit.alpha_anh
    s = qubit.zero_point_spread
    e_r = qubit.mu_dipole / (s - s**3 / 6.0)
    x, x3 = _ladder_operators()
    h0 = np.diag([0.0, HBAR * omega, 2.0 * HBAR * omega + 12.0 * alpha]).astype(complex)
    coupling = e_r * field.E0 * (s * x - (s**3 / 6.0) * x3)
    times = np.linspace(0.0, t, n_samples)
    props = _drive_propagators(h0, coupling, field.omega_rf, field.phi, times, tol)
    return times, props @ initial.amplitudes


def bloch(state: QuantumState) -> BlochPoint:
    """Bloch vector with |0> at the north pole (z = +1)."""
    if state.amplitudes.size != 2:
        raise ValueError("bloch expects a two-level state")
    a0, a1 = state.amplitudes
    cross = np.conj(a0) * a1
    return BlochPoint(
        x=float(2.0 * cross.real),
        y=float(2.0 * cross.imag),
        z=float(abs(a0) ** 2 - abs(a1) ** 2),
    )


def trajectory(
    state: QuantumState, pulse: PulseSpec, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Times and two-level amplitudes of the RWA evolution at n uniform times.

    Same shape as ladder_trajectory: one row of amplitudes per sample time.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    times = np.linspace(0.0, pulse.duration, n_samples)
    amplitudes = [evolve_rwa(state, replace(pulse, duration=float(time))).amplitudes
                  for time in times]
    return times, np.array(amplitudes)
