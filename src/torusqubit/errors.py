"""Systematic-error study: perturbed gates, Bures infidelity, one field-error sweep.

Error semantics: the calibration (segment durations, drive frequencies,
phases, frame phases) is frozen at the reference point (B0, E0); only the
physical Hamiltonian parameters shift.  The two-level reduction depends on
the static field alone, so a QubitFactory takes B; the drive E0 enters
only through the Rabi rate.  A relative magnetic error dB moves
the qubit frequency and the dipole moment, so it shows up as a detuning
error Delta_err = omega(B0(1+dB)) - omega(B0) plus a Rabi-rate error; a
relative electric error dE rescales the Rabi rate only.

Gate error is the Bures infidelity 1 - |<psi_ideal|psi_real>|^2 for pure
states, averaged over input states drawn uniformly from the Bloch sphere.
Each input enters through its Bloch vector n: writing
M = U_ideal^dag U_pert = c0 I + c . sigma gives <psi|M|psi> = c0 + c . n,
so a grid point costs a few real elementwise passes over the ensemble.  The
ensemble is streamed in chunks, each a new array: a sweep draws it once and
evaluates every grid point on each chunk, so its memory is a few chunks
whatever the number of samples.  The same decomposition gives the exact
Haar average 1 - (|Tr M|^2 + Tr M^dag M) / 6 (Nielsen, Phys. Lett. A 303,
249 (2002)), which every report carries beside its Monte-Carlo mean as an
oracle, and for a unitary M the exact worst case over all inputs
1 - |Tr M|^2 / 4, which bounds its Monte-Carlo max; both are evaluated in
exact rationals (fractions) and rounded once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .control import PulseSequence, gate_unitary
from .model import MAX_RELATIVE_ERROR, check_count, check_finite, check_positive
from .reduction import QubitParameters

QubitFactory = Callable[[float], QubitParameters]  # B -> parameters


@dataclass(frozen=True)
class ErrorModel:
    """Relative field errors around a reference operating point."""

    delta_B_rel: float
    delta_E_rel: float
    B0: float  # [T]
    E0: float  # [V/m]

    def __post_init__(self) -> None:
        for name in ("delta_B_rel", "delta_E_rel"):
            check_finite(getattr(self, name), name, -MAX_RELATIVE_ERROR, MAX_RELATIVE_ERROR)
        check_positive(self.B0, "B0")
        check_positive(self.E0, "E0")


@dataclass(frozen=True)
class InfidelityReport:
    """Monte-Carlo infidelity summary; reproducible given the sweep's seed.

    haar_mean_exact is the exact Haar average the Monte-Carlo mean estimates,
    1 - (|Tr M|^2 + Tr M^dag M) / 6 for M = U_ideal^dag U_pert, and
    worst_case_exact the exact worst case over all inputs for a unitary M,
    1 - |Tr M|^2 / 4, which bounds the Monte-Carlo max.  Both are clipped to
    [0, 1], as the per-sample values are.
    """

    mean_infidelity: float
    max_infidelity: float
    haar_mean_exact: float
    worst_case_exact: float
    per_sample: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_infidelity <= self.max_infidelity <= 1.0 + 1e-12:
            raise ValueError("need 0 <= mean <= max <= 1")


def perturbed_pulse(
    gate_seq: PulseSequence,
    qubit_fn: QubitFactory,
    model: ErrorModel,
    window: tuple[float, float] | None = None,
) -> tuple[PulseSequence, tuple[str, ...]]:
    """Re-derive a calibrated sequence under field errors.

    Durations, drive frequencies (hence each segment's calibrated detuning
    offset) and phases stay frozen; the perturbed qubit frequency shifts
    every segment's detuning by Delta_err, and the Rabi rate is rescaled by
    (mu'/mu)(1 + dE).  If the two-bound-state window is supplied and the
    perturbed field leaves it, a flag says so (the two-level model itself
    is then suspect); the error averages raise each flag as a warning.
    """
    ideal = qubit_fn(model.B0)
    b_pert = model.B0 * (1.0 + model.delta_B_rel)
    pert = qubit_fn(b_pert)

    delta_err = pert.omega - ideal.omega
    rabi_scale = (pert.mu_dipole / ideal.mu_dipole) * (1.0 + model.delta_E_rel)

    pulses = tuple(
        replace(
            p,
            rabi_Omega=p.rabi_Omega * rabi_scale,
            detuning_Delta=p.detuning_Delta + delta_err,
        )
        for p in gate_seq.pulses
    )
    flags: tuple[str, ...] = ()
    if window is not None and not (window[0] <= b_pert <= window[1]):
        flags = (
            f"perturbed field {b_pert:.6g} T leaves the two-bound-state window "
            f"[{window[0]:.6g}, {window[1]:.6g}] T; qubit model invalid there",
        )
    return PulseSequence(pulses=pulses, frame_phase=gate_seq.frame_phase), flags


_CHUNK = 32768  # samples per chunk of the stream, whose arrays stay in cache


def _haar_stream(n: int, seed: int) -> Iterator[np.ndarray]:
    """(3, m) Bloch vectors of pure states uniform on the sphere, m <= _CHUNK at a time.

    z is uniform in [-1, 1] and the azimuth uniform in [0, 2 pi), which is
    the Haar measure for a single qubit.  They are the draws default_rng(seed)
    makes for n values of z and then n azimuths: z comes from that generator
    chunk by chunk, and the azimuth from a second copy of its bit generator
    advanced past the n draws of z.  Each chunk is a new array, made with a
    few temporaries of its size, so the stream's memory does not grow with n.
    """
    z_rng = np.random.default_rng(seed)
    azimuth_bits = np.random.PCG64(seed)
    azimuth_bits.advance(n)
    azimuth_rng = np.random.Generator(azimuth_bits)
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        z = z_rng.random(m) * 2.0 - 1.0  # uniform(-1, 1) draws -1 + 2 r
        rho = np.sqrt((1.0 - z) * (z + 1.0))
        azimuth = azimuth_rng.random(m) * (2.0 * np.pi)  # uniform(0, 2 pi) draws 2 pi r
        yield np.stack([rho * np.cos(azimuth), np.sin(azimuth) * rho, z])


def haar_bloch_vectors(n: int, seed: int) -> np.ndarray:
    """(3, n) Bloch vectors of the ensemble every Monte-Carlo average draws."""
    return np.hstack(list(_haar_stream(n, seed)))


def _exact_terms(m: np.ndarray) -> tuple[float, float]:
    """(1 - |Tr M|^2 / 4, 1 - (|Tr M|^2 + Tr M^dag M) / 6) of a 2x2 M.

    The first is s = 1 - |c0|^2 of the per-sample formula and, for a
    unitary M, the exact worst case over all inputs; the second is the
    exact Haar mean.  Evaluated exactly and rounded once: both sit near 0
    when M is near a unitary times a phase, where a float subtraction from 1
    would lose them.  Every double is a rational, so each result is a
    Fraction, and float() rounds it correctly.
    """
    parts = [Fraction(x) for v in m.flat for x in (v.real, v.imag)]
    trace2 = (parts[0] + parts[6]) ** 2 + (parts[1] + parts[7]) ** 2
    frobenius2 = sum(x * x for x in parts)
    return float(1 - trace2 / 4), float(1 - (trace2 + frobenius2) / 6)


def _infidelity_kernel(m: np.ndarray, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """kernel(bloch) is 1 - |<psi|M|psi>|^2 per Bloch vector n of bloch.

    With M = c0 I + c . sigma and c = p + i q, <psi|M|psi> = c0 + c . n, so
    with a = p . n and b = q . n the infidelity is
    s - a (a + 2 Re c0) - b (b + 2 Im c0), where s = 1 - |c0|^2.  This is
    exact algebra for any 2x2 M, unitary or not.  Each pass is elementwise:
    no reduction, so the values do not depend on threads.
    """
    c0 = (m[0, 0] + m[1, 1]) / 2
    c = np.array([(m[0, 1] + m[1, 0]) / 2, 1j * (m[0, 1] - m[1, 0]) / 2, (m[0, 0] - m[1, 1]) / 2])
    (px, py, pz), (qx, qy, qz) = c.real, c.imag
    re2, im2 = 2.0 * c0.real, 2.0 * c0.imag

    def kernel(bloch: np.ndarray) -> np.ndarray:
        x, y, z = bloch
        a = px * x + py * y + pz * z
        b = qx * x + qy * y + qz * z
        a *= a + re2
        b *= b + im2
        return s - a - b

    return kernel


def _error_operator(gate_seq: PulseSequence, qubit_fn: QubitFactory, model: ErrorModel, mode: str,
                    window: tuple[float, float] | None) -> np.ndarray:
    """M = U_ideal^dag U_pert of the gate under model; each window flag is a warning."""
    ideal_qubit = qubit_fn(model.B0)
    pert_seq, flags = perturbed_pulse(gate_seq, qubit_fn, model, window=window)
    for flag in flags:
        warnings.warn(flag)
    u_ideal = gate_unitary(gate_seq, ideal_qubit, mode=mode)
    u_pert = gate_unitary(pert_seq, ideal_qubit, mode=mode)
    return u_ideal.conj().T @ u_pert


def _monte_carlo(points: Sequence[np.ndarray], n_samples: int, seed: int,
                 keep_samples: bool = False) -> list[InfidelityReport]:
    """One InfidelityReport per point M from one pass over the Haar stream.

    Every point's per-sample infidelities are evaluated on each chunk while
    it is in cache, clipped to [0, 1], and reduced to the chunk's max and
    pairwise sum; the mean is the pairwise sum of the chunk sums over n,
    capped at the max.  Memory is a few chunks plus 16 B per chunk and
    point; only keep_samples, for a single point, keeps all n values.
    """
    check_count(n_samples, "n_samples", 1)
    per_sample = np.empty(n_samples) if keep_samples else None
    terms = [_exact_terms(m) for m in points]
    kernels = [_infidelity_kernel(m, s) for m, (s, _) in zip(points, terms)]
    sums, maxima = np.empty((2, len(points), -(-n_samples // _CHUNK)))
    for k, bloch in enumerate(_haar_stream(n_samples, seed)):
        for i, kernel in enumerate(kernels):
            out = kernel(bloch)
            np.clip(out, 0.0, 1.0, out=out)
            maxima[i, k] = out.max()
            sums[i, k] = np.add.reduce(out)
            if per_sample is not None:
                per_sample[k * _CHUNK : k * _CHUNK + out.size] = out
    reports = []
    for (s, exact), chunk_sums, chunk_maxima in zip(terms, sums, maxima):
        peak = float(chunk_maxima.max())
        reports.append(InfidelityReport(
            # the pairwise mean of n equal samples can round an ulp above their max
            mean_infidelity=min(float(np.add.reduce(chunk_sums) / n_samples), peak),
            max_infidelity=peak,
            haar_mean_exact=min(max(exact, 0.0), 1.0),  # roundoff in M can carry them past 0
            worst_case_exact=min(max(s, 0.0), 1.0),
            per_sample=per_sample,
        ))
    return reports


def average_gate_infidelity(
    gate_seq: PulseSequence,
    qubit_fn: QubitFactory,
    model: ErrorModel,
    n_samples: int,
    seed: int,
    mode: str = "rwa",
    window: tuple[float, float] | None = None,
    keep_samples: bool = False,
) -> InfidelityReport:
    """Average Bures infidelity of a gate over Haar-random input states.

    The ideal and perturbed evolutions run for the same calibrated gate
    duration; by default both are evaluated with the exact RWA propagators,
    with a lab-frame flag for cross-checks.  The mean sums chunk by chunk
    with numpy pairwise summation, so it is reproducible for a fixed seed
    regardless of any outer parallelization of scans.  The report also
    carries the exact Haar mean the Monte Carlo estimates.
    """
    point = _error_operator(gate_seq, qubit_fn, model, mode, window)
    return _monte_carlo([point], n_samples, seed, keep_samples)[0]


def field_error_sweep(
    synthesize: Callable[[QubitParameters, float], PulseSequence],
    qubit_fn: QubitFactory,
    point: dict[str, float],
    axis: str,
    grid: Sequence[float],
    n_samples: int,
    seed: int,
    mode: str = "rwa",
    window: tuple[float, float] | None = None,
) -> list[InfidelityReport]:
    """One InfidelityReport per grid value along one ErrorModel field.

    point holds the four ErrorModel fields, and each grid value replaces the
    one named by axis.  The gate is synthesized at every point's reference
    fields (a stronger drive means a shorter gate), then subjected to its
    relative errors.  Scanning delta_B_rel or delta_E_rel gives infidelity
    against field error; scanning E0 or B0 asks which operating point
    suppresses a fixed error.  For pure drive-amplitude errors no B0 can,
    since the relative Rabi error is field-independent under frozen
    calibration.  Every grid point is averaged in one pass over the Haar
    stream, so each report equals average_gate_infidelity at its point.
    qubit_fn runs once per distinct B of the sweep.
    """
    qubit_fn = functools.cache(qubit_fn)
    operators = []
    for value in grid:
        model = ErrorModel(**{**point, axis: float(value)})
        seq = synthesize(qubit_fn(model.B0), model.E0)
        operators.append(_error_operator(seq, qubit_fn, model, mode, window))
    return _monte_carlo(operators, n_samples, seed)
