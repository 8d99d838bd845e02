"""Pulse-sequence synthesis for state preparation and single-qubit gates.

Sequences are lists of rotating-frame drive segments (see dynamics.PulseSpec)
plus an optional trailing frame phase.  Each driven gate is one pulse: the
Hadamard a tilted pulse at detuning -Omega, a preparation a resonant one.
The frame phase realizes virtual phase gates exactly: it relabels the |1>
axis of the rotating frame, which is standard practice and costs no
evolution time.  A physical detuned-wait realization is provided as an
alternative.

`Gate` is the one home of the gate vocabulary: it parses a gate's name and
angles, synthesizes its sequence and scores a composed unitary against the
ideal matrix with the phase-insensitive fidelity |Tr(G^dagger U)| / 2, or a
prepared state against its target.  `gate_unitary` composes each segment's
exact RWA propagator (or its lab-frame integration, transformed back into
the segment's rotating frame).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState, PulseSpec, drive_field, labframe_unitary, rwa_unitary
from .model import check_finite, check_positive
from .reduction import QubitParameters, rabi_frequency

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def phase_insensitive_fidelity(target: np.ndarray, actual: np.ndarray) -> float:
    """|Tr(G^dagger U)| / 2: unit iff U equals G up to a global phase."""
    return abs(np.trace(target.conj().T @ actual)) / 2.0


@dataclass(frozen=True)
class PulseSequence:
    """Ordered drive segments plus a trailing virtual frame phase.

    frame_phase is applied after the listed pulses as diag(1, e^{i phase});
    it is exact in both evaluation modes.
    """

    pulses: tuple[PulseSpec, ...]
    frame_phase: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self.frame_phase, "frame_phase")
        object.__setattr__(self, "pulses", tuple(self.pulses))

    @property
    def total_duration(self) -> float:
        return sum(p.duration for p in self.pulses)


def target_state(theta: float, eta: float) -> QuantumState:
    """The preparation target sin(theta/2)|0> + e^{i eta} cos(theta/2)|1>."""
    return QuantumState.of(math.sin(theta / 2), cmath.exp(1j * eta) * math.cos(theta / 2))


def prepare_state(theta: float, eta: float, qubit: QubitParameters, E0: float) -> PulseSequence:
    """Resonant pulse taking |0> to the (theta, eta) target up to global phase.

    A resonant segment drives |0> to cos(Omega t/2)|0> +
    e^{-i(phi + pi/2)} sin(Omega t/2)|1>, so matching the target requires
    cos(Omega t / 2) = sin(theta/2) and phi = -eta - pi/2 (mod 2 pi):
    t = (2/Omega) arccos(sin(theta/2)).
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    if not 0.0 <= eta <= math.pi:
        raise ValueError("eta must lie in [0, pi]")
    omega_rabi = check_positive(rabi_frequency(qubit.mu_dipole, E0), "drive amplitude")
    duration = (2.0 / omega_rabi) * math.acos(min(1.0, math.sin(theta / 2)))
    phi = (-eta - math.pi / 2) % (2.0 * math.pi)
    return PulseSequence(
        pulses=(PulseSpec(rabi_Omega=omega_rabi, detuning_Delta=0.0, phase_phi=phi, duration=duration),)
    )


def hadamard_sequence(qubit: QubitParameters, E0: float) -> PulseSequence:
    """The Hadamard gate as one tilted pulse.

    The segment runs at detuning Delta = -Omega, phase 0, for a duration
    pi / (sqrt(2) Omega).  Its rotation axis is (1, 0, 1)/sqrt(2) (with the
    ground state at z = +1), and the rotation angle is pi, which is the
    Hadamard reflection up to a global phase.
    """
    omega_rabi = check_positive(rabi_frequency(qubit.mu_dipole, E0), "drive amplitude")
    return PulseSequence(
        pulses=(
            PulseSpec(
                rabi_Omega=omega_rabi,
                detuning_Delta=-omega_rabi,
                phase_phi=0.0,
                duration=math.pi / (math.sqrt(2.0) * omega_rabi),
            ),
        )
    )


def phase_gate_sequence(
    eta: float, qubit: QubitParameters, virtual: bool = True
) -> PulseSequence:
    """Relative-phase gate R_eta: a|0> + b|1> -> a|0> + b e^{i eta}|1>.

    Virtual realization (default): a frame-phase update, exact and free.
    Physical realization: a drive-off wait at detuning Delta_free, whose
    propagator diag(1, e^{-i Delta t}) is exact under both evaluation modes;
    Delta_free < 0 keeps the wait duration t = eta/|Delta_free| positive.
    """
    if not 0.0 <= eta < 2.0 * math.pi:
        raise ValueError("eta must lie in [0, 2 pi)")
    if virtual:
        return PulseSequence(pulses=(), frame_phase=eta)
    delta_free = -1e-3 * qubit.omega
    duration = eta / abs(delta_free)
    return PulseSequence(
        pulses=(
            PulseSpec(rabi_Omega=0.0, detuning_Delta=delta_free, phase_phi=0.0, duration=duration),
        )
    )


@dataclass(frozen=True)
class Gate:
    """A single-qubit task: "hadamard", "phase" with angles (eta,) or "prep" with (theta, eta)."""

    kind: str
    angles: tuple[float, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "Gate":
        """The gate "hadamard", "phase:ETA" or "prep:THETA,ETA"; ValueError unless in range."""
        kind, _, args = spec.partition(":")
        try:
            angles = tuple(float(v) for v in args.split(",")) if args else ()
        except ValueError:
            angles = None
        if angles is None or len(angles) != {"hadamard": 0, "phase": 1, "prep": 2}.get(kind):
            raise ValueError(f"must be hadamard, phase:ETA or prep:THETA,ETA, got {spec!r}")
        if kind == "phase" and not 0.0 <= angles[0] < 2.0 * math.pi:
            raise ValueError(f"phase:ETA needs ETA in [0, 2 pi), got {spec!r}")
        if kind == "prep" and not (0.0 < angles[0] <= math.pi and 0.0 <= angles[1] <= math.pi):
            raise ValueError(
                f"prep:THETA,ETA needs THETA in (0, pi] and ETA in [0, pi], got {spec!r}")
        return cls(kind, angles)

    @property
    def drives(self) -> bool:
        """Whether the sequence drives the qubit; a phase gate is a frame update."""
        return self.kind != "phase"

    def sequence(self, qubit: QubitParameters, E0: float) -> PulseSequence:
        """The pulses realizing the gate at drive amplitude E0 [V/m]."""
        if self.kind == "hadamard":
            return hadamard_sequence(qubit, E0)
        if self.kind == "phase":
            return phase_gate_sequence(*self.angles, qubit)
        return prepare_state(*self.angles, qubit, E0)

    def fidelity(self, unitary: np.ndarray) -> float:
        """|Tr(G^dagger U)| / 2 against the ideal G; for "prep", U|0>'s fidelity to target_state."""
        if self.kind == "prep":
            return target_state(*self.angles).fidelity(QuantumState(unitary[:, 0]))
        if self.kind == "hadamard":
            return phase_insensitive_fidelity(HADAMARD, unitary)
        return phase_insensitive_fidelity(np.diag([1.0, cmath.exp(1j * self.angles[0])]), unitary)


def gate_unitary(
    seq: PulseSequence,
    qubit: QubitParameters | None,
    mode: str = "rwa",
    tol: float = 1e-9,
) -> np.ndarray:
    """Composed evolution operator of a sequence, including the frame phase.

    RWA mode needs no qubit context (qubit may be None); lab-frame mode does.
    """
    if mode not in ("rwa", "labframe"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "labframe" and qubit is None:
        raise ValueError("labframe mode requires qubit parameters")
    unitary = np.eye(2, dtype=complex)
    for pulse in seq.pulses:
        if mode == "rwa":
            segment = rwa_unitary(pulse)
        else:
            # the drive runs at omega_rf = omega - Delta from t = 0; R(t) = exp(i omega_rf t
            # sigma_+ sigma_-) makes the lab-frame propagator comparable with the RWA one
            field = drive_field(pulse, qubit)
            segment = labframe_unitary(qubit, field, pulse.duration, tol=tol)
            segment[1] *= np.exp(1j * field.omega_rf * pulse.duration)
        unitary = segment @ unitary
    if seq.frame_phase:
        unitary = np.diag([1.0, cmath.exp(1j * seq.frame_phase)]) @ unitary
    return unitary


def apply_sequence(state: QuantumState, seq: PulseSequence) -> QuantumState:
    """Evolve a two-level state through a sequence by its RWA gate_unitary."""
    return QuantumState(gate_unitary(seq, None) @ state.amplitudes)
