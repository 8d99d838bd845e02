import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusqubit.control import (
    HADAMARD,
    Gate,
    PulseSequence,
    apply_sequence,
    gate_unitary,
    hadamard_sequence,
    phase_gate_sequence,
    phase_insensitive_fidelity,
    prepare_state,
    target_state,
)
from torusqubit.dynamics import PulseSpec, QuantumState, bloch
from torusqubit.model import HBAR
from torusqubit.reduction import rabi_frequency

from test_dynamics import _count_rhs_evals


class TestGate:
    @pytest.mark.parametrize("spec, kind, angles", [
        ("hadamard", "hadamard", ()),
        ("phase:1.0", "phase", (1.0,)),
        ("prep:1.2,0.7", "prep", (1.2, 0.7)),
    ])
    def test_parse(self, spec, kind, angles):
        gate = Gate.parse(spec)
        assert (gate.kind, gate.angles) == (kind, angles)
        assert gate.drives == (kind != "phase")  # a phase gate is a frame update

    @pytest.mark.parametrize("spec, rule", [
        ("cnot", "must be hadamard"),
        ("hadamard:1", "must be hadamard"),
        ("phase", "must be hadamard"),
        ("phase:abc", "must be hadamard"),
        ("prep:1.2", "must be hadamard"),
        ("phase:-1", "phase:ETA needs ETA in [0, 2 pi)"),
        ("phase:6.3", "phase:ETA needs ETA in [0, 2 pi)"),
        ("prep:0,0.7", "prep:THETA,ETA needs THETA in (0, pi]"),
        ("prep:1.2,4", "prep:THETA,ETA needs THETA in (0, pi]"),
    ])
    def test_parse_rejects(self, spec, rule):
        with pytest.raises(ValueError) as info:
            Gate.parse(spec)
        assert str(info.value).startswith(rule) and str(info.value).endswith(f"got {spec!r}")

    @given(spec=st.one_of(
        st.just("hadamard"),
        st.floats(0.0, 2.0 * math.pi, exclude_max=True).map("phase:{!r}".format),
        st.tuples(st.floats(0.0, math.pi, exclude_min=True), st.floats(0.0, math.pi)).map(
            lambda angles: "prep:{!r},{!r}".format(*angles)),
    ), e0=st.floats(1e-3, 1e6))
    def test_driven_gate_is_one_pulse(self, fig5_qubit, spec, e0):
        # cmd_gate's leakage probe drives seq.pulses[0] for the whole sequence
        gate = Gate.parse(spec)
        assert len(gate.sequence(fig5_qubit, e0).pulses) == (1 if gate.drives else 0)

    @pytest.mark.parametrize("spec", ["hadamard", "phase:1.0", "prep:1.2,0.7"])
    def test_rwa_sequence_reaches_the_ideal(self, fig5_qubit, spec):
        gate = Gate.parse(spec)
        unitary = gate_unitary(gate.sequence(fig5_qubit, 100.0), None)
        assert gate.fidelity(unitary) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec, unitary, expected", [
        ("hadamard", np.eye(2), 0.0),  # Tr H = 0
        ("phase:1.0", np.diag([1.0, cmath.exp(-1j)]), abs(math.cos(1.0))),  # the opposite phase
        ("prep:1.2,0.7", np.eye(2), math.sin(0.6) ** 2),  # |<target|0>|^2
    ])
    def test_fidelity_of_a_wrong_unitary(self, spec, unitary, expected):
        assert Gate.parse(spec).fidelity(unitary) == pytest.approx(expected, abs=1e-15)


class TestPrepareState:
    def test_theta_pi_stays_ground(self, fig5_qubit):
        seq = prepare_state(math.pi, 0.3, fig5_qubit, 100.0)
        assert seq.total_duration == 0.0
        out = apply_sequence(QuantumState.ground(), seq)
        assert out.fidelity(QuantumState.ground()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, math.pi])
    def test_equator_states(self, fig5_qubit, eta):
        omega_rabi = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        seq = prepare_state(math.pi / 2, eta, fig5_qubit, 100.0)
        assert seq.total_duration == pytest.approx(math.pi / (2 * omega_rabi), rel=1e-12)
        assert seq.pulses[0].phase_phi == pytest.approx((-eta - math.pi / 2) % (2 * math.pi))
        out = apply_sequence(QuantumState.ground(), seq)
        assert out.fidelity(target_state(math.pi / 2, eta)) >= 1.0 - 1e-10

    def test_grid_fidelity_and_bloch_angles(self, fig5_qubit):
        thetas = np.linspace(0.2, math.pi, 6)
        etas = np.linspace(0.0, math.pi, 5)
        for theta in thetas:
            for eta in etas:
                seq = prepare_state(float(theta), float(eta), fig5_qubit, 100.0)
                out = apply_sequence(QuantumState.ground(), seq)
                target = target_state(float(theta), float(eta))
                assert out.fidelity(target) >= 1.0 - 1e-10
                got = bloch(out)
                want = bloch(target)
                polar_err = abs(math.acos(np.clip(got.z, -1, 1)) - math.acos(np.clip(want.z, -1, 1)))
                assert polar_err < 1e-6
                if abs(math.sin(theta)) > 1e-9:
                    azim_err = abs(
                        (math.atan2(got.y, got.x) - math.atan2(want.y, want.x) + math.pi)
                        % (2 * math.pi) - math.pi
                    )
                    assert azim_err < 1e-6

    def test_domain_validation(self, fig5_qubit):
        with pytest.raises(ValueError):
            prepare_state(0.0, 0.0, fig5_qubit, 100.0)
        with pytest.raises(ValueError):
            prepare_state(math.pi / 2, -0.1, fig5_qubit, 100.0)
        with pytest.raises(ValueError):
            prepare_state(math.pi / 2, 0.1, fig5_qubit, 0.0)


class TestHadamard:
    def test_zero_drive_rejected(self, fig5_qubit):
        with pytest.raises(ValueError, match="^drive amplitude must be finite and positive"):
            hadamard_sequence(fig5_qubit, 0.0)

    def test_maps_ground_to_plus(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        out = apply_sequence(QuantumState.ground(), seq)
        plus = QuantumState.of(1.0, 1.0)
        assert out.fidelity(plus) >= 1.0 - 1e-12

    def test_involution(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        twice = PulseSequence(pulses=seq.pulses + seq.pulses)
        u = gate_unitary(twice, fig5_qubit)
        assert phase_insensitive_fidelity(np.eye(2), u) >= 1.0 - 1e-9

    def test_rwa_fidelity(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        u = gate_unitary(seq, fig5_qubit)
        assert phase_insensitive_fidelity(HADAMARD, u) >= 1.0 - 1e-9

    def test_labframe_fidelity_at_small_drive(self, fig5_qubit):
        omega_rabi = 1e-3 * fig5_qubit.omega
        e0 = omega_rabi * HBAR / fig5_qubit.mu_dipole
        seq = hadamard_sequence(fig5_qubit, e0)
        u = gate_unitary(seq, fig5_qubit, mode="labframe", tol=1e-10)
        assert phase_insensitive_fidelity(HADAMARD, u) >= 0.999

    def test_labframe_cost_independent_of_gate_length(self, fig5_qubit, monkeypatch):
        # E0 = 10 V/m drives ten times as many cycles as 100 V/m (~382 vs ~38)
        evals = _count_rhs_evals(monkeypatch)
        for e0 in (100.0, 10.0):
            gate_unitary(hadamard_sequence(fig5_qubit, e0), fig5_qubit, mode="labframe")
        assert len(evals) == 2  # one matrix solve per segment
        short, long = evals
        assert long < 2 * short


class TestPhaseGate:
    def test_eta_zero_is_identity(self, fig5_qubit):
        for virtual in (True, False):
            seq = phase_gate_sequence(0.0, fig5_qubit, virtual=virtual)
            u = gate_unitary(seq, fig5_qubit)
            np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_ground_state_untouched(self, fig5_qubit):
        seq = phase_gate_sequence(1.1, fig5_qubit)
        out = apply_sequence(QuantumState.ground(), seq)
        assert out.fidelity(QuantumState.ground()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("virtual", [True, False])
    @pytest.mark.parametrize("eta", [0.4, 2.0, 5.5])
    def test_action_matches_ideal(self, fig5_qubit, eta, virtual):
        seq = phase_gate_sequence(eta, fig5_qubit, virtual=virtual)
        u = gate_unitary(seq, fig5_qubit)
        assert Gate("phase", (eta,)).fidelity(u) >= 1.0 - 1e-12

    def test_circuit_hadamard_then_phase(self, fig5_qubit):
        # the two-gate circuit reaching (|0> + e^{i eta}|1>)/sqrt(2)
        eta = 0.9
        h_seq = hadamard_sequence(fig5_qubit, 100.0)
        r_seq = phase_gate_sequence(eta, fig5_qubit)
        circuit = PulseSequence(pulses=h_seq.pulses + r_seq.pulses, frame_phase=r_seq.frame_phase)
        out = apply_sequence(QuantumState.ground(), circuit)
        want = QuantumState.of(1.0, cmath.exp(1j * eta))
        assert out.fidelity(want) >= 1.0 - 1e-10

    def test_domain(self, fig5_qubit):
        with pytest.raises(ValueError):
            phase_gate_sequence(-0.1, fig5_qubit)
        with pytest.raises(ValueError):
            phase_gate_sequence(2 * math.pi, fig5_qubit)


class TestGateUnitary:
    def test_empty_sequence_identity(self, fig5_qubit):
        u = gate_unitary(PulseSequence(pulses=()), fig5_qubit)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_pi_pulse_is_sigma_x(self, fig5_qubit):
        omega_rabi = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        seq = PulseSequence(pulses=(PulseSpec(omega_rabi, 0.0, 0.0, math.pi / omega_rabi),))
        u = gate_unitary(seq, fig5_qubit)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert phase_insensitive_fidelity(sigma_x, u) >= 1.0 - 1e-12

    def test_unitarity_defect(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        u = gate_unitary(seq, fig5_qubit)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-9

    def test_unknown_mode_rejected(self, fig5_qubit):
        with pytest.raises(ValueError):
            gate_unitary(PulseSequence(pulses=()), fig5_qubit, mode="heisenberg")

    def test_rwa_needs_no_qubit(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        np.testing.assert_array_equal(gate_unitary(seq, None), gate_unitary(seq, fig5_qubit))

    def test_labframe_needs_a_qubit(self, fig5_qubit):
        with pytest.raises(ValueError, match="qubit"):
            gate_unitary(hadamard_sequence(fig5_qubit, 100.0), None, mode="labframe")

    def test_apply_sequence_is_gate_unitary(self, fig5_qubit):
        seq = PulseSequence(pulses=prepare_state(1.2, 0.7, fig5_qubit, 100.0).pulses,
                            frame_phase=0.4)
        state = QuantumState.of(0.6, 0.8j)
        np.testing.assert_array_equal(
            apply_sequence(state, seq).amplitudes, gate_unitary(seq, None) @ state.amplitudes
        )


class TestEquatorCoverage:
    def test_max_coherence_on_64_point_grid(self, fig5_qubit):
        # the reachable equator family has maximal coherence |<0|psi><psi|1>|
        for eta in np.linspace(0.0, math.pi, 64):
            seq = prepare_state(math.pi / 2, float(eta), fig5_qubit, 100.0)
            out = apply_sequence(QuantumState.ground(), seq)
            a0, a1 = out.amplitudes
            coherence = abs(a0 * np.conj(a1))
            assert coherence == pytest.approx(0.5, abs=1e-9)
            assert abs(bloch(out).z) < 1e-9
