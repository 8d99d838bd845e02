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
period T = 2 pi / omega_rf, so U(N T + r) = U(r) U_T^N.  A sixth-order
Magnus integrator over a single period gives U_T and U(r), in numpy alone;
U_T^N comes by repeated squaring, so the cost does not grow with the number
of drive cycles.  Every Magnus step is unitary to roundoff.  No
renormalization is applied anywhere: norm drift is a test observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import HBAR, MAX_DRIVE_CYCLES, TOL_RANGE, FieldConfig, check_count, check_finite
from .reduction import QubitParameters, rabi_frequency

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_NORM_GUARD = 1e-4  # loose sanity guard; unitarity contracts live in tests
_GAUSS_NODES = 0.5 + (math.sqrt(15.0) / 10.0) * np.array([-1.0, 0.0, 1.0])
_MAX_STEPS = 2**13  # step doubling stops once M reaches this, even short of tol


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

    def overlap(self, other: "QuantumState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "QuantumState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class PulseSpec:
    """One rotating-frame drive segment."""

    rabi_Omega: float  # [rad/s]
    detuning_Delta: float  # omega - omega_rf [rad/s]
    phase_phi: float  # [rad]
    duration: float  # [s]

    def __post_init__(self) -> None:
        for name in ("rabi_Omega", "detuning_Delta", "phase_phi"):
            check_finite(getattr(self, name), name)
        check_finite(self.duration, "duration", low=0.0)


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


@dataclass(frozen=True)
class MagnusSolution:
    """Propagators at the requested times, and what they cost."""

    y: np.ndarray  # U(t_j), shape (times, dim, dim)
    nfev: int  # evaluations of H(t): three per step, over every M tried and the final pass


def _dagger(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _magnus_steps(
    a0: np.ndarray, a1: np.ndarray, omega_rf: float, phi: float, edges: np.ndarray
) -> np.ndarray:
    """exp(Omega_k) - I for each step [edges[k], edges[k+1]], all at once.

    Sixth-order Magnus with three Gauss-Legendre nodes (Blanes, Casas, Oteo
    and Ros, Phys. Rep. 470, 151 (2009)).  With A_i = A(t + c_i h) at
    c = 1/2 -+ sqrt(15)/10 and 1/2: alpha1 = h A_2, alpha2 = (sqrt(15) h/3)
    (A_3 - A_1), alpha3 = (10 h/3)(A_3 - 2 A_2 + A_1), and
    Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + [alpha1, alpha2],
    alpha2 - (1/60)[alpha1, 2 alpha3 + [alpha1, alpha2]]].  a0 cancels from
    alpha2 and alpha3.  Omega is anti-Hermitian, so exp(Omega) - I =
    V (exp(-i w) - 1) V^H with (w, V) the eigenpairs of i Omega; the
    difference form keeps the rounding proportional to the step.
    """
    h = np.diff(edges)
    f = np.cos(omega_rf * (edges[:-1, None] + h[:, None] * _GAUSS_NODES) + phi)
    h = h[:, None, None]
    alpha1 = h * (a0 + f[:, 1, None, None] * a1)
    alpha2 = (math.sqrt(15.0) / 3.0) * h * (f[:, 2] - f[:, 0])[:, None, None] * a1
    alpha3 = (10.0 / 3.0) * h * (f[:, 2] - 2.0 * f[:, 1] + f[:, 0])[:, None, None] * a1
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, 2.0 * alpha3 + c1) / -60.0
    omega = alpha1 + alpha3 / 12.0 + _commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
    w, v = np.linalg.eigh(0.5j * (omega - _dagger(omega)))
    return (v * np.expm1(-1j * w)[:, None, :]) @ _dagger(v)


def _propagators(
    a0: np.ndarray, a1: np.ndarray, omega_rf: float, phi: float, edges: np.ndarray
) -> np.ndarray:
    """U - I at each of the sorted edges, which start at 0, for one Magnus
    step between each pair of neighbours.

    The steps are multiplied by a Hillis-Steele scan of pairwise tree
    products, kept as differences from I: (I + X)(I + Y) = I + X + Y + XY.
    """
    out = _magnus_steps(a0, a1, omega_rf, phi, edges)
    span = 1
    while span < len(out):
        later, earlier = out[span:], out[:-span]
        out[span:] = later + earlier + later @ earlier
        span *= 2
    return np.concatenate([np.zeros((1,) + a0.shape, dtype=complex), out])


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a finite 1D array, ascending: np.unique, which
    imports numpy.ma (14 ms of a cold run) to rule out a masked array."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def solve_ivp(
    a0: np.ndarray, a1: np.ndarray, omega_rf: float, phi: float, times: np.ndarray, tol: float
) -> MagnusSolution:
    """U(t) at each of the times, in any order and repeats included, for
    dU/dt = (a0 + cos(omega_rf t + phi) a1) U, U(0) = I, with a0 and a1
    anti-Hermitian; numpy only.

    The scalar part tr(a0)/dim is split off as its exact phase.  M uniform
    steps over [0, max(times)] are exponentiated (_magnus_steps) and
    multiplied (_propagators); M doubles until the results for M and 2M
    agree to tol at every edge of the M steps.  The 2M steps, split at the
    times, then give the result.  The first M, steps of
    h |A| = 4 tol^(1/6) with |A| the spectral norms of the traceless a0 and
    of a1, meets tol at once for the fig5 drives: their one-period error,
    measured at Omega/omega = 1e-3 to 1e-1, is 0.003 to 1.2 times M^-6.
    Once M reaches _MAX_STEPS the loop stops even when tol lies below
    roundoff, which is near 1e-15 per period for any M.
    """
    dim = a0.shape[0]
    scalar = np.trace(a0) / dim
    a0 = a0 - scalar * np.eye(dim)
    end = times.max()
    angle = end * (np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2))
    m = min(_MAX_STEPS // 2, max(1, math.ceil(angle / (4.0 * tol ** (1.0 / 6.0)))))
    coarse = _propagators(a0, a1, omega_rf, phi, np.linspace(0.0, end, m + 1))
    nfev = 3 * m
    while True:
        m *= 2
        fine = _propagators(a0, a1, omega_rf, phi, np.linspace(0.0, end, m + 1))
        nfev += 3 * m
        if np.abs(fine[::2] - coarse).max() <= tol or m >= _MAX_STEPS:
            break
        coarse = fine
    edges = _sorted_distinct(np.append(np.linspace(0.0, end, m + 1), times))
    u = np.eye(dim) + _propagators(a0, a1, omega_rf, phi, edges)[np.searchsorted(edges, times)]
    return MagnusSolution(np.exp(scalar * times)[:, None, None] * u, nfev + 3 * (edges.size - 1))


def _check_unitary(u: np.ndarray, periods: float) -> np.ndarray:
    """u, a stack of square matrices, if none departs from unitarity by more
    than _NORM_GUARD; otherwise RuntimeError naming the drive's length."""
    drift = float(np.abs(_dagger(u) @ u - np.eye(u.shape[-1])).max())
    if not drift <= _NORM_GUARD:
        raise RuntimeError(
            f"propagator departs from unitarity by {drift:.2g} over {periods:.3g} drive"
            " periods: the per-period roundoff has compounded; shorten the duration"
        )
    return u


def _matrix_powers(base: np.ndarray, exponents: np.ndarray, periods: float) -> np.ndarray:
    """base**n for every n in exponents, by repeated squaring.

    Each square is checked by _check_unitary before it is used: squaring a
    drifting power on would grow its drift until the products overflow.
    """
    dim = base.shape[0]
    out = np.broadcast_to(np.eye(dim, dtype=complex), (exponents.size, dim, dim)).copy()
    remaining = exponents.copy()
    while True:
        odd = (remaining & 1).astype(bool)
        out[odd] = out[odd] @ base
        remaining >>= 1
        if not remaining.any():
            return out
        base = _check_unitary(base @ base, periods)


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
    (Shirley, Phys. Rev. 138, B979 (1965)).  One solve_ivp call, a
    sixth-order Magnus integration of i hbar dU/dt = H(t) U over [0, T]
    split at the remainders r_j, gives U_T and every U(r_j); the
    powers U_T^N come by repeated squaring.  The cost is independent of the number of
    cycles N.

    Accuracy contract: with N the largest cycle count, the number of steps
    per period doubles until two successive results agree to tol / N at
    every step edge, T included.  The returned result is the finer one, whose
    error is about 1/63 of that difference (the error falls 64-fold per
    halving of the step); it compounds at most linearly, |dU| <~ N eps_T +
    eps_r <= tol.  Each step is unitary to roundoff, and the rounding of one
    period is near 1e-15 whatever the step count, so U(t) carries up to about
    N * 1e-15 of roundoff: at tol 1e-12, the fig5 Hadamard is off a 28-digit
    reference by 1.2e-14 at 38 cycles and by 1.7e-12 at 3817.  Where tol / N
    lies below the roundoff, the doubling stops at a fixed cap of steps.
    Without a drive frequency (omega_rf = 0) H is constant, and one Magnus
    step is exact.  A time of MAX_DRIVE_CYCLES periods or more raises
    ValueError; a result, or a power U_T^(2^j) squared on the way to it,
    that departs from unitarity by more than _NORM_GUARD raises RuntimeError
    before the drift can overflow (for the fig5 ladder the compounded
    roundoff is 2.9e-5 at 5.6e10 periods and 8.2e-3 at 5.6e13).
    """
    check_finite(tol, "tol", *TOL_RANGE)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("t must be finite and non-negative")
    period = 2.0 * math.pi / abs(omega_rf) if omega_rf else math.inf
    longest = float(times.max()) / period  # a float quotient: inf past the range, no warning
    if not longest < MAX_DRIVE_CYCLES:
        raise ValueError(f"t spans {longest:.3g} drive periods; the limit is 2^63")
    cycles, rests = np.divmod(times, period)
    cycles = cycles.astype(np.int64)
    n_max = int(cycles.max())
    end = period if n_max else float(rests.max())
    sol = solve_ivp((-1j / HBAR) * h0, (-1j / HBAR) * coupling, omega_rf, phi,
                    np.append(rests, end), tol / max(n_max, 1))
    # sol.y[-1] is U_T whenever a cycle count is nonzero
    props = sol.y[:-1] @ _matrix_powers(sol.y[-1], cycles, longest)
    return _check_unitary(props, longest)


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
) -> float:
    """Max population of the second excited level over a drive of duration t,
    read at 400 evenly spaced times.

    The three-level ladder is (0, hbar*omega, 2*hbar*omega + 12*alpha): the
    12*alpha shift is the second difference of first-order quartic-term
    corrections <n|X^4|n> = 3(2n^2+2n+1), i.e. the amount by which the 1->2
    transition is detuned from the drive.  Drive matrix elements follow the
    dipole coupling e E r (s X - s^3/6 X^3) truncated to three levels.
    """
    _, amplitudes = ladder_trajectory(qubit, field, t, 400, tol=tol, initial=initial)
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
    check_count(n_samples, "n_samples", 2)
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
    check_count(n_samples, "n_samples", 2)
    times = np.linspace(0.0, pulse.duration, n_samples)
    amplitudes = [evolve_rwa(state, replace(pulse, duration=float(time))).amplitudes
                  for time in times]
    return times, np.array(amplitudes)
