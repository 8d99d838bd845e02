"""Simulator of a qubit encoded in curvature-bound electronic states of a
graphene nanotorus: bound-state spectra under external fields, reduction to
a driven two-level system, gate synthesis, and systematic-error analysis."""

__version__ = "0.1.0"

from .model import (
    FieldConfig,
    TorusGeometry,
    UnitSystem,
    energy_scale_of,
)
from .potential import PotentialParams, PotentialProfile, sample_profile
from .spectral import (
    BoundState,
    Discretization,
    Spectrum,
    build_hamiltonian,
    initialization_window,
    lowest_eigenpairs,
    solve_sector,
    sweep_field,
)
from .reduction import (
    OscillatorCoefficients,
    QubitParameters,
    coefficients_for,
    coefficients_numerical,
    coefficients_closed_form,
    qubit_for,
    qubit_parameters,
    rabi_frequency,
)
from .dynamics import (
    BlochPoint,
    PulseSpec,
    QuantumState,
    bloch,
    drive_field,
    evolve_labframe,
    evolve_rwa,
    ladder_trajectory,
    leakage_probe,
    trajectory,
)
from .control import (
    GateSpec,
    PulseSequence,
    gate_unitary,
    hadamard_sequence,
    phase_gate_sequence,
    phase_insensitive_fidelity,
    prepare_state,
)
from .errors import (
    ErrorModel,
    InfidelityReport,
    average_gate_infidelity,
    field_error_sweep,
    perturbed_pulse,
)

__all__ = [
    "BlochPoint",
    "BoundState",
    "Discretization",
    "ErrorModel",
    "FieldConfig",
    "GateSpec",
    "InfidelityReport",
    "OscillatorCoefficients",
    "PotentialParams",
    "PotentialProfile",
    "PulseSequence",
    "PulseSpec",
    "QuantumState",
    "QubitParameters",
    "Spectrum",
    "TorusGeometry",
    "UnitSystem",
    "average_gate_infidelity",
    "bloch",
    "build_hamiltonian",
    "coefficients_for",
    "coefficients_numerical",
    "coefficients_closed_form",
    "drive_field",
    "energy_scale_of",
    "evolve_labframe",
    "evolve_rwa",
    "field_error_sweep",
    "gate_unitary",
    "hadamard_sequence",
    "initialization_window",
    "ladder_trajectory",
    "leakage_probe",
    "lowest_eigenpairs",
    "perturbed_pulse",
    "phase_gate_sequence",
    "phase_insensitive_fidelity",
    "prepare_state",
    "qubit_for",
    "qubit_parameters",
    "rabi_frequency",
    "sample_profile",
    "solve_sector",
    "sweep_field",
    "trajectory",
]
