import math

import numpy as np
import pytest

from torusqubit.control import PulseSequence, gate_unitary, hadamard_sequence
from torusqubit.dynamics import PulseSpec, QuantumState
from torusqubit.errors import (
    ErrorModel,
    average_gate_infidelity,
    haar_states,
    field_error_sweep,
    infidelity,
    perturbed_pulse,
)

from oracles import (
    sphere_mean_infidelity,
    sphere_mean_infidelity_closed_form,
)


def _model(db=0.0, de=0.0):
    return ErrorModel(delta_B_rel=db, delta_E_rel=de, B0=0.45, E0=100.0)


class TestInfidelity:
    def test_identical_states(self):
        state = QuantumState.of(0.6, 0.8j)
        assert infidelity(state, state) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_states(self):
        assert infidelity(QuantumState.of(1, 0), QuantumState.of(0, 1)) == 1.0

    def test_half_for_equator_vs_pole(self):
        assert infidelity(QuantumState.of(1, 0), QuantumState.of(1, 1)) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self):
        a = QuantumState.of(0.3, 0.7 + 0.2j)
        b = QuantumState.of(0.5j, 0.4)
        assert infidelity(a, b) == pytest.approx(infidelity(b, a), abs=1e-15)
        rotated = QuantumState(np.exp(1.3j) * a.amplitudes)
        assert infidelity(rotated, b) == pytest.approx(infidelity(a, b), abs=1e-14)


class TestPerturbedPulse:
    def test_zero_errors_identity(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        pert, flags = perturbed_pulse(seq, qubit_factory, _model())
        assert pert == seq
        assert flags == ()

    def test_electric_error_scales_rabi_only(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        pert, _ = perturbed_pulse(seq, qubit_factory, _model(de=0.02))
        for original, shifted in zip(seq.pulses, pert.pulses):
            assert shifted.rabi_Omega == pytest.approx(1.02 * original.rabi_Omega, rel=1e-12)
            assert shifted.detuning_Delta == original.detuning_Delta
            assert shifted.duration == original.duration
            assert shifted.phase_phi == original.phase_phi

    def test_detuning_error_two_routes(self, fig5_qubit, qubit_factory):
        # reduction chain vs finite difference of omega(B): agree to 1%
        db = 1e-3
        seq = hadamard_sequence(fig5_qubit, 100.0)
        pert, _ = perturbed_pulse(seq, qubit_factory, _model(db=db))
        delta_err = pert.pulses[0].detuning_Delta - seq.pulses[0].detuning_Delta
        h = 1e-5 * 0.45
        domega_db = (
            qubit_factory(0.45 + h, 100.0).omega - qubit_factory(0.45 - h, 100.0).omega
        ) / (2 * h)
        assert delta_err == pytest.approx(domega_db * db * 0.45, rel=1e-2)

    def test_window_flag(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        _, flags = perturbed_pulse(seq, qubit_factory, _model(db=0.01), window=(0.449, 0.451))
        assert flags and "window" in flags[0]
        _, ok_flags = perturbed_pulse(seq, qubit_factory, _model(db=0.01), window=(0.3, 0.9))
        assert ok_flags == ()


class TestErrorModel:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(delta_B_rel=0.2, delta_E_rel=0.0, B0=0.45, E0=100.0)
        with pytest.raises(ValueError):
            ErrorModel(delta_B_rel=0.0, delta_E_rel=0.0, B0=-1.0, E0=100.0)


class TestHaarStates:
    def test_reproducible(self):
        a = haar_states(100, seed=9)
        b = haar_states(100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_read_only(self):
        states = haar_states(100, seed=9)
        with pytest.raises(ValueError, match="read-only"):
            states[0, 0] = 1.0

    def test_normalized(self):
        states = haar_states(1000, seed=1)
        np.testing.assert_allclose(np.sum(np.abs(states) ** 2, axis=1), 1.0, atol=1e-12)

    def test_uniform_z(self):
        states = haar_states(20000, seed=3)
        z = np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2
        assert abs(z.mean()) < 0.02
        assert np.var(z) == pytest.approx(1.0 / 3.0, abs=0.02)


class TestAverageGateInfidelity:
    def test_zero_error_zero_infidelity(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        report = average_gate_infidelity(seq, qubit_factory, _model(), 500, seed=4)
        assert report.mean_infidelity == pytest.approx(0.0, abs=1e-12)
        assert report.max_infidelity == pytest.approx(0.0, abs=1e-12)

    def test_seed_reproducibility(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        a = average_gate_infidelity(seq, qubit_factory, _model(db=2e-3), 2000, seed=11)
        b = average_gate_infidelity(seq, qubit_factory, _model(db=2e-3), 2000, seed=11)
        assert a.mean_infidelity == b.mean_infidelity
        assert a.max_infidelity == b.max_infidelity

    def test_cross_seed_consistency(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        n = 4000
        means = [
            average_gate_infidelity(seq, qubit_factory, _model(db=5e-3), n, seed=s).mean_infidelity
            for s in (1, 2)
        ]
        assert abs(means[0] - means[1]) < 5.0 / math.sqrt(n)

    def test_max_at_least_mean(self, fig5_qubit, qubit_factory):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        report = average_gate_infidelity(seq, qubit_factory, _model(db=5e-3), 1000, seed=8)
        assert report.max_infidelity >= report.mean_infidelity > 0

    def test_rabi_rate_error_matches_sphere_quadrature(self, fig5_qubit, qubit_factory):
        # pure over-rotation of a resonant pi/2 pulse: Monte Carlo mean vs
        # the deterministic sphere-quadrature oracle (and the oracle vs its
        # own closed form (2/3) sin^2(chi))
        omega_rabi = 1e7
        seq = PulseSequence(
            pulses=(PulseSpec(omega_rabi, 0.0, 0.0, math.pi / (2 * omega_rabi)),)
        )
        eps = 0.02
        pert = PulseSequence(
            pulses=(PulseSpec(omega_rabi * (1 + eps), 0.0, 0.0, math.pi / (2 * omega_rabi)),)
        )
        u_ideal = gate_unitary(seq, fig5_qubit)
        u_pert = gate_unitary(pert, fig5_qubit)
        quad = sphere_mean_infidelity(u_ideal, u_pert)
        closed = sphere_mean_infidelity_closed_form(u_ideal, u_pert)
        # over-rotation by eps*pi/2 -> rotation half-angle chi = eps*pi/4
        analytic = (2.0 / 3.0) * math.sin(math.pi * eps / 4.0) ** 2
        assert quad == pytest.approx(closed, abs=1e-12)
        assert quad == pytest.approx(analytic, rel=1e-10)

        n = 10000
        states = haar_states(n, seed=21)
        m = u_ideal.conj().T @ u_pert
        overlap = np.einsum("ni,ij,nj->n", states.conj(), m, states)
        mc = float(np.mean(1.0 - np.abs(overlap) ** 2))
        assert abs(mc - quad) <= 3.0 / math.sqrt(n)


def _synth(qubit, e0):
    return hadamard_sequence(qubit, e0)


class TestMitigationSweep:
    def test_non_increasing_with_drive(self, fig5_qubit, qubit_factory):
        rows = field_error_sweep(
            _synth,
            qubit_factory,
            B0=0.45,
            E0=100.0,
            axis="E0",
            grid=list(np.geomspace(100.0, 10000.0, 5)),
            delta_B_rel=5e-3,
            delta_E_rel=0.0,
            n_samples=2000,
            seed=5,
        )
        means = [r["mean_infidelity"] for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(means, means[1:]))
        assert rows[-1]["is_argmin"]

    def test_ensemble_drawn_once_per_sweep(self, qubit_factory):
        haar_states.cache_clear()
        field_error_sweep(
            _synth, qubit_factory, B0=0.45, E0=100.0, axis="E0", grid=[100.0, 300.0, 1000.0],
            delta_B_rel=5e-3, delta_E_rel=0.0, n_samples=200, seed=5,
        )
        info = haar_states.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_zero_error_row_is_zero(self, fig5_qubit, qubit_factory):
        rows = field_error_sweep(
            _synth,
            qubit_factory,
            B0=0.45,
            E0=100.0,
            axis="E0",
            grid=[100.0, 1000.0],
            delta_B_rel=0.0,
            delta_E_rel=0.0,
            n_samples=200,
            seed=5,
        )
        assert all(r["mean_infidelity"] == pytest.approx(0.0, abs=1e-12) for r in rows)

    def test_electric_error_floor_independent_of_b0(self, fig5_qubit, qubit_factory):
        # with frozen calibration, a pure Rabi-rate error gives the same
        # infidelity whatever the reference field
        means = []
        for b0 in (0.45, 0.6):
            qubit = qubit_factory(b0, 1000.0)
            seq = hadamard_sequence(qubit, 1000.0)
            model = ErrorModel(delta_B_rel=0.0, delta_E_rel=5e-3, B0=b0, E0=1000.0)
            report = average_gate_infidelity(seq, qubit_factory, model, 3000, seed=13)
            means.append(report.mean_infidelity)
        assert means[0] == pytest.approx(means[1], rel=1e-9)

    def test_grid_validation(self, qubit_factory):
        with pytest.raises(ValueError):
            field_error_sweep(
                _synth, qubit_factory, B0=0.45, E0=100.0, axis="E0", grid=[100.0, 50.0],
                delta_B_rel=0.0, delta_E_rel=0.0, n_samples=10, seed=1,
            )


class TestReferenceFieldSweep:
    def test_no_b0_beats_electric_error_floor(self, qubit_factory):
        rows = field_error_sweep(
            _synth,
            qubit_factory,
            B0=0.45,
            E0=1000.0,
            axis="B0",
            grid=[0.4, 0.55, 0.7, 0.85],
            delta_B_rel=0.0,
            delta_E_rel=5e-3,
            n_samples=2000,
            seed=17,
        )
        means = [r["mean_infidelity"] for r in rows]
        # pure drive-amplitude error: the floor is field-independent, so no
        # reference field improves on it
        floor = means[0]
        assert all(m == pytest.approx(floor, rel=1e-9) for m in means)
        assert [r["B0"] for r in rows] == [0.4, 0.55, 0.7, 0.85]

    def test_grid_validation(self, qubit_factory):
        with pytest.raises(ValueError):
            field_error_sweep(
                _synth, qubit_factory, B0=0.45, E0=100.0, axis="B0", grid=[0.6, 0.5],
                delta_B_rel=0.0, delta_E_rel=0.0, n_samples=10, seed=1,
            )
        with pytest.raises(ValueError, match="axis"):
            field_error_sweep(
                _synth, qubit_factory, B0=0.45, E0=100.0, axis="dB", grid=[0.4, 0.5],
                delta_B_rel=0.0, delta_E_rel=0.0, n_samples=10, seed=1,
            )
