import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import expm

from torusqubit import dynamics
from torusqubit.model import HBAR, FieldConfig
from torusqubit.reduction import rabi_frequency
from torusqubit.dynamics import (
    BlochPoint,
    PulseSpec,
    QuantumState,
    bloch,
    drive_field,
    evolve_labframe,
    evolve_rwa,
    ladder_trajectory,
    leakage_probe,
    rotating_frame,
    rwa_unitary,
    trajectory,
)
from torusqubit.control import hadamard_sequence


def _resonant(omega_rabi, phi, duration):
    return PulseSpec(rabi_Omega=omega_rabi, detuning_Delta=0.0, phase_phi=phi, duration=duration)


def _drive_for_ratio(qubit, ratio):
    """Field config whose Rabi rate is ratio * qubit frequency, resonant."""
    omega_rabi = ratio * qubit.omega
    e0 = omega_rabi * HBAR / qubit.mu_dipole
    return omega_rabi, FieldConfig(B=qubit.B, E0=e0, omega_rf=qubit.omega, phi=0.0)


class TestQuantumState:
    def test_normalization_guard(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1.0]))

    def test_of_normalizes(self):
        state = QuantumState.of(1.0, 1.0)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumState(np.array([bad, 0.0]))

    def test_two_level_paths_reject_a_three_level_state(self, fig5_qubit):
        ladder = QuantumState.ground(dim=3)
        field = FieldConfig(B=0.45, E0=100.0, omega_rf=fig5_qubit.omega)
        with pytest.raises(ValueError, match="evolve_rwa expects a two-level state"):
            evolve_rwa(ladder, PulseSpec(1e9, 0.0, 0.0, 1e-9))
        with pytest.raises(ValueError, match="evolve_labframe expects a two-level state"):
            evolve_labframe(ladder, fig5_qubit, field, 1e-12)
        with pytest.raises(ValueError, match="bloch expects a two-level state"):
            bloch(ladder)


class TestEvolveRwa:
    def test_identity_for_zero_pulse(self):
        pulse = PulseSpec(0.0, 0.0, 0.0, 1e-6)
        out = evolve_rwa(QuantumState.of(0.6, 0.8j), pulse)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.8j], atol=1e-15)

    def test_resonant_pi_pulse_flips(self):
        omega_rabi = 2 * math.pi * 1e6
        out = evolve_rwa(QuantumState.ground(), _resonant(omega_rabi, 0.0, math.pi / omega_rabi))
        assert abs(out.amplitudes[0]) < 1e-12
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 4.0])
    def test_resonant_evolution_closed_form(self, phi):
        # |0> -> cos(Omega t/2)|0> + e^{-i(phi+pi/2)} sin(Omega t/2)|1>
        omega_rabi = 1e7
        t = math.pi / (2 * omega_rabi)
        out = evolve_rwa(QuantumState.ground(), _resonant(omega_rabi, phi, t))
        expected0 = math.cos(omega_rabi * t / 2)
        expected1 = np.exp(-1j * (phi + math.pi / 2)) * math.sin(omega_rabi * t / 2)
        np.testing.assert_allclose(out.amplitudes, [expected0, expected1], atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pulse = PulseSpec(*rng.uniform(0.1, 3.0, 3), duration=rng.uniform(0, 5))
            u = rwa_unitary(pulse)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-10

    def test_composition(self):
        pulse_a = PulseSpec(1.3, 0.4, 0.9, 2.1)
        pulse_b = PulseSpec(1.3, 0.4, 0.9, 0.7)
        combined = PulseSpec(1.3, 0.4, 0.9, 2.8)
        u = rwa_unitary(pulse_b) @ rwa_unitary(pulse_a)
        np.testing.assert_allclose(u, rwa_unitary(combined), atol=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(1.0, 0.0, 0.0, -1.0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(rabi=st.floats(1e-3, 1e12), ratio=st.floats(-2.0, 2.0), phi=st.floats(0.0, 2 * math.pi),
           angles=st.tuples(st.floats(0.0, 20 * math.pi), st.floats(0.0, 20 * math.pi)))
    def test_composition_over_random_pulses(self, rabi, ratio, phi, angles):
        # U(t1 + t2) = U(t2) U(t1), for rotation angles up to 20 pi each
        t1, t2 = (angle / (rabi * math.hypot(1.0, ratio)) for angle in angles)

        def u(t):
            return rwa_unitary(PulseSpec(rabi, ratio * rabi, phi, t))

        assert np.abs(u(t1 + t2) - u(t2) @ u(t1)).max() <= 1e-12


class TestEvolveLabframe:
    def test_free_evolution_phases(self, fig5_qubit):
        # drive off: only |1> acquires the qubit phase e^{-i omega t}
        field = FieldConfig(B=0.45, E0=0.0, omega_rf=fig5_qubit.omega, phi=0.0)
        t = 20.0 / fig5_qubit.omega
        state = QuantumState.of(0.6, 0.8)
        out = evolve_labframe(state, fig5_qubit, field, t, tol=1e-11)
        expected = np.array([0.6, 0.8 * np.exp(-1j * fig5_qubit.omega * t)])
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-9)

    def test_rwa_agreement_at_small_drive(self, fig5_qubit):
        # Omega/omega = 1e-3, resonant pi/2 pulse: overlap with the RWA
        # result after the rotating-frame transform >= 0.9999
        omega_rabi, field = _drive_for_ratio(fig5_qubit, 1e-3)
        t = math.pi / (2 * omega_rabi)
        lab = evolve_labframe(QuantumState.ground(), fig5_qubit, field, t, tol=1e-10)
        rot = rotating_frame(lab, field.omega_rf, t)
        rwa = evolve_rwa(QuantumState.ground(), _resonant(omega_rabi, 0.0, t))
        assert rwa.fidelity(rot) >= 0.9999

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(ratio=st.floats(1e-3, 1e-1), detuning=st.floats(-1.0, 1.0),
           phi=st.floats(0.0, 2 * math.pi), fraction=st.floats(0.0, 1.0),
           polar=st.floats(0.0, math.pi), azimuth=st.floats(0.0, 2 * math.pi))
    def test_lab_frame_within_the_rwa_bound(self, fig5_qubit, ratio, detuning, phi, fraction,
                                            polar, azimuth):
        # a pulse of Rabi rate Omega = ratio * omega, detuning in [-Omega, Omega] and up to
        # one Rabi period, from a random state: the lab frame, rotated into the drive's frame,
        # is the RWA state to within 1 - F <= (2 Omega / omega)^2
        omega_rabi = ratio * fig5_qubit.omega
        pulse = PulseSpec(omega_rabi, detuning * omega_rabi, phi, fraction * 2 * math.pi / omega_rabi)
        field = drive_field(pulse, fig5_qubit)
        state = QuantumState.of(math.cos(polar / 2), np.exp(1j * azimuth) * math.sin(polar / 2))
        lab = evolve_labframe(state, fig5_qubit, field, pulse.duration)
        rwa = evolve_rwa(state, pulse)
        rotated = rotating_frame(lab, field.omega_rf, pulse.duration)
        assert 1.0 - rwa.fidelity(rotated) <= (2 * ratio) ** 2

    def test_self_convergence_under_tol_halving(self, fig5_qubit):
        omega_rabi, field = _drive_for_ratio(fig5_qubit, 2e-3)
        t = math.pi / (2 * omega_rabi)
        for tol in (1e-7, 1e-9):
            coarse = evolve_labframe(QuantumState.ground(), fig5_qubit, field, t, tol=tol)
            fine = evolve_labframe(QuantumState.ground(), fig5_qubit, field, t, tol=tol / 2)
            change = np.linalg.norm(coarse.amplitudes - fine.amplitudes)
            assert change <= 10.0 * tol

    def test_norm_drift_bounded(self, fig5_qubit):
        omega_rabi, field = _drive_for_ratio(fig5_qubit, 1e-3)
        t = math.pi / (2 * omega_rabi)
        for tol in (1e-6, 1e-9, 1e-12):
            out = evolve_labframe(QuantumState.ground(), fig5_qubit, field, t, tol=tol)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 10.0 * tol

    def test_tolerance_domain(self, fig5_qubit):
        field = FieldConfig(B=0.45, E0=1.0, omega_rf=fig5_qubit.omega, phi=0.0)
        with pytest.raises(ValueError):
            evolve_labframe(QuantumState.ground(), fig5_qubit, field, 1e-12, tol=1e-3)


class TestLeakage:
    def test_zero_drive_no_leakage(self, fig5_qubit):
        field = FieldConfig(B=0.45, E0=0.0, omega_rf=fig5_qubit.omega, phi=0.0)
        assert leakage_probe(fig5_qubit, field, 1e-10) == pytest.approx(0.0, abs=1e-20)

    def test_leakage_decreases_with_anharmonicity(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        field = FieldConfig(
            B=0.45, E0=100.0,
            omega_rf=fig5_qubit.omega - seq.pulses[0].detuning_Delta, phi=0.0,
        )
        leaks = []
        for scale in (0.5, 1.0, 8.0):
            q = dataclasses.replace(fig5_qubit, alpha_anh=fig5_qubit.alpha_anh * scale)
            leaks.append(leakage_probe(q, field, seq.total_duration, tol=1e-10))
        assert leaks[0] > leaks[1] > leaks[2]

    def test_operating_point_leakage_small(self, fig5_qubit):
        seq = hadamard_sequence(fig5_qubit, 100.0)
        field = FieldConfig(
            B=0.45, E0=100.0,
            omega_rf=fig5_qubit.omega - seq.pulses[0].detuning_Delta, phi=0.0,
        )
        assert leakage_probe(fig5_qubit, field, seq.total_duration, tol=1e-10) < 1e-3


class TestBloch:
    def test_ground_state_north_pole(self):
        point = bloch(QuantumState.ground())
        assert (point.x, point.y, point.z) == (0.0, 0.0, 1.0)

    def test_plus_state_on_x_axis(self):
        point = bloch(QuantumState.of(1.0, 1.0))
        assert point.x == pytest.approx(1.0, abs=1e-12)
        assert abs(point.y) < 1e-12
        assert abs(point.z) < 1e-12

    def test_purity_on_sphere(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            raw = rng.normal(size=4)
            state = QuantumState.of(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
            point = bloch(state)
            assert point.x**2 + point.y**2 + point.z**2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.0, 1.1, math.pi / 2])
    def test_resonant_trajectory_great_circle(self, phi):
        # rotation axis (cos phi, -sin phi, 0): trajectory stays in the
        # orthogonal plane through the poles, x cos phi - y sin phi = 0
        omega_rabi = 1e7
        pulse = _resonant(omega_rabi, phi, 2 * math.pi / omega_rabi)
        _, amplitudes = trajectory(QuantumState.ground(), pulse, 61)
        points = [bloch(QuantumState(amp)) for amp in amplitudes]
        zs = [p.z for p in points]
        for p in points:
            assert abs(p.x * math.cos(phi) - p.y * math.sin(phi)) < 1e-9
        assert min(zs) == pytest.approx(-1.0, abs=1e-9)
        assert max(zs) == pytest.approx(1.0, abs=1e-9)

    def test_quarter_pulse_hits_equator(self):
        omega_rabi = 1e7
        out = evolve_rwa(QuantumState.ground(), _resonant(omega_rabi, 0.4, math.pi / (2 * omega_rabi)))
        assert abs(bloch(out).z) < 1e-9

    def test_trajectory_needs_two_samples(self):
        with pytest.raises(ValueError):
            trajectory(QuantumState.ground(), _resonant(1.0, 0.0, 1.0), 1)

    def test_trajectory_shape_matches_ladder(self):
        pulse = PulseSpec(1e7, 2e6, 0.3, 1e-7)
        times, amplitudes = trajectory(QuantumState.ground(), pulse, 11)
        assert times.shape == (11,) and amplitudes.shape == (11, 2)
        assert times[-1] == pulse.duration
        np.testing.assert_array_equal(
            amplitudes[-1], evolve_rwa(QuantumState.ground(), pulse).amplitudes
        )


class TestDriveField:
    def test_realizes_the_pulse(self, fig5_qubit):
        pulse = PulseSpec(rabi_Omega=3.1e9, detuning_Delta=-2.0e8, phase_phi=1.3, duration=1e-9)
        field = drive_field(pulse, fig5_qubit)
        assert field.B == fig5_qubit.B
        assert field.omega_rf == fig5_qubit.omega - pulse.detuning_Delta
        assert field.phi == pulse.phase_phi
        assert rabi_frequency(fig5_qubit.mu_dipole, field.E0) == pytest.approx(
            pulse.rabi_Omega, rel=1e-15
        )

    def test_zero_rabi_rate_is_zero_field(self, fig5_qubit):
        field = drive_field(PulseSpec(0.0, 5e7, 0.0, 1e-9), fig5_qubit)
        assert field.E0 == 0.0
        assert field.omega_rf == fig5_qubit.omega - 5e7


class TestLadderTrajectory:
    def test_two_level_initial_state_rejected(self, fig5_qubit):
        field = FieldConfig(B=0.45, E0=100.0, omega_rf=fig5_qubit.omega)
        with pytest.raises(ValueError, match="needs a three-level state"):
            ladder_trajectory(fig5_qubit, field, 1e-12, 2, initial=QuantumState.ground())

    def test_populations_sum_to_one(self, fig5_qubit):
        from torusqubit.dynamics import ladder_trajectory

        seq_omega = 1e-3 * fig5_qubit.omega
        from torusqubit.model import HBAR as _hbar
        field = FieldConfig(
            B=0.45, E0=seq_omega * _hbar / fig5_qubit.mu_dipole,
            omega_rf=fig5_qubit.omega, phi=0.0,
        )
        t = math.pi / (2 * seq_omega)
        times, amplitudes = ladder_trajectory(fig5_qubit, field, t, 50, tol=1e-9)
        assert times.shape == (50,)
        assert amplitudes.shape == (50, 3)
        norms = np.sum(np.abs(amplitudes) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-7)

    def test_matches_leakage_probe(self, fig5_qubit):
        from torusqubit.dynamics import ladder_trajectory

        field = FieldConfig(B=0.45, E0=100.0, omega_rf=fig5_qubit.omega, phi=0.0)
        omega_rabi = 3.28e9
        t = math.pi / (2 * omega_rabi)
        _, amplitudes = ladder_trajectory(fig5_qubit, field, t, 400, tol=1e-10)
        direct = leakage_probe(fig5_qubit, field, t, tol=1e-10)
        assert float(np.max(np.abs(amplitudes[:, 2]) ** 2)) == pytest.approx(direct, rel=1e-6)

    def test_qubit_coupling_falls_short_of_the_dipole(self, fig5_qubit):
        # the ladder couples |0> and |1> by e r E0 (s - s^3/2), from
        # <1|X^3|0> = 3, where the two-level mu has s - s^3/6; so the default
        # pi/(2 Omega) pulse of `--preset fig5 evolve --three-level` rotates by
        # ratio * pi/2 and ends at p1 = sin^2(ratio pi/4), not 1/2
        s = fig5_qubit.zero_point_spread
        ratio = (s - s**3 / 2) / (s - s**3 / 6)
        assert ratio == pytest.approx(0.8400, abs=5e-5)
        omega_rabi = rabi_frequency(fig5_qubit.mu_dipole, 100.0)
        pulse = _resonant(omega_rabi, 0.0, math.pi / (2 * omega_rabi))
        field = drive_field(pulse, fig5_qubit)
        _, amplitudes = ladder_trajectory(fig5_qubit, field, pulse.duration, 2)
        p1 = abs(amplitudes[-1, 1]) ** 2
        assert p1 == pytest.approx(math.sin(ratio * math.pi / 4) ** 2, abs=1e-3)


def _direct_states(hamiltonian, psi0, times):
    """Reference: one tight DOP853 state solve straight through every cycle."""
    sol = scipy_solve_ivp(
        lambda time, psi: -1j / HBAR * (hamiltonian(time) @ psi),
        (0.0, times[-1]), np.asarray(psi0, dtype=complex),
        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times,
    )
    assert sol.success
    return sol.y.T


def _two_level(qubit, field):
    """H_dv(t) typed from the module docstring, with hbar*Omega = mu*E0."""
    h0 = HBAR * qubit.omega * np.diag([0.0, 1.0])
    hx = qubit.mu_dipole * field.E0 * np.array([[0.0, 1.0], [1.0, 0.0]])
    return lambda time: h0 + math.cos(field.omega_rf * time + field.phi) * hx


def _three_level(qubit, field):
    """The anharmonic ladder of leakage_probe's docstring."""
    s = qubit.zero_point_spread
    x = np.diag([1.0, math.sqrt(2.0)], 1)
    x = x + x.T
    x3 = 3.0 * np.diag([1.0, 2.0 * math.sqrt(2.0)], 1)
    x3 = x3 + x3.T
    omega = HBAR * qubit.omega
    h0 = np.diag([0.0, omega, 2.0 * omega + 12.0 * qubit.alpha_anh])
    coupling = qubit.mu_dipole / (s - s**3 / 6.0) * field.E0 * (s * x - s**3 / 6.0 * x3)
    return lambda time: h0 + math.cos(field.omega_rf * time + field.phi) * coupling


def _count_rhs_evals(monkeypatch):
    """Route dynamics.solve_ivp through a counter of right-hand-side calls."""
    evals = []
    real = dynamics.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        evals.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    return evals


class TestPeriodPropagator:
    def test_matches_direct_solve_over_many_cycles(self, fig5_qubit):
        omega_rabi, field = _drive_for_ratio(fig5_qubit, 1e-2)
        field = dataclasses.replace(field, phi=0.7)
        t = math.pi / (math.sqrt(2.0) * omega_rabi)
        assert 30 < t * field.omega_rf / (2 * math.pi) < 40
        state = QuantumState.of(0.6, 0.8j)
        out = evolve_labframe(state, fig5_qubit, field, t, tol=1e-10)
        ref = _direct_states(_two_level(fig5_qubit, field), state.amplitudes, [t])[-1]
        assert np.abs(out.amplitudes - ref).max() <= 1e-9

    @pytest.mark.parametrize("cycles", [0.37, 1.0, 3.0, 7.25])
    def test_partial_and_whole_periods(self, fig5_qubit, cycles):
        _, field = _drive_for_ratio(fig5_qubit, 1e-2)
        t = cycles * 2 * math.pi / field.omega_rf
        state = QuantumState.of(0.6, 0.8j)
        out = evolve_labframe(state, fig5_qubit, field, t, tol=1e-10)
        ref = _direct_states(_two_level(fig5_qubit, field), state.amplitudes, [t])[-1]
        assert np.abs(out.amplitudes - ref).max() <= 1e-9

    def test_zero_duration_is_identity(self, fig5_qubit):
        _, field = _drive_for_ratio(fig5_qubit, 1e-2)
        state = QuantumState.of(0.6, 0.8j)
        out = evolve_labframe(state, fig5_qubit, field, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_static_drive_matches_matrix_exponential(self, fig5_qubit):
        # omega_rf = 0: H is constant, so U(t) = exp(-i H t / hbar)
        field = FieldConfig(B=0.45, E0=100.0, omega_rf=0.0, phi=0.4)
        t = 5.0 / fig5_qubit.omega
        out = evolve_labframe(QuantumState.ground(), fig5_qubit, field, t, tol=1e-10)
        ref = expm(-1j * _two_level(fig5_qubit, field)(0.0) * t / HBAR)[:, 0]
        assert np.abs(out.amplitudes - ref).max() <= 1e-9

    def test_ladder_matches_direct_t_eval_solve(self, fig5_qubit):
        field = FieldConfig(B=0.45, E0=100.0, omega_rf=fig5_qubit.omega, phi=0.3)
        t = math.pi / (2 * rabi_frequency(fig5_qubit.mu_dipole, field.E0))
        times, amplitudes = ladder_trajectory(fig5_qubit, field, t, 60, tol=1e-10)
        ref = _direct_states(_three_level(fig5_qubit, field), [1.0, 0.0, 0.0], times)
        assert np.abs(amplitudes - ref).max() <= 1e-9

    def test_ladder_cost_independent_of_cycles(self, fig5_qubit, monkeypatch):
        evals = _count_rhs_evals(monkeypatch)
        _, field = _drive_for_ratio(fig5_qubit, 1e-2)
        period = 2 * math.pi / field.omega_rf
        for cycles in (20, 200):
            ladder_trajectory(fig5_qubit, field, (cycles + 0.5) * period, 40)
        short, long = evals
        assert long < 2 * short

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    @pytest.mark.parametrize("cycles", [0.3, 1e3, 1e9])
    def test_step_doubling_always_ends(self, fig5_qubit, monkeypatch, tol, cycles):
        # at 1e9 cycles tol / N lies far below roundoff, and the step cap ends the loop
        evals = _count_rhs_evals(monkeypatch)
        _, field = _drive_for_ratio(fig5_qubit, 1e-2)
        u = dynamics.labframe_unitary(fig5_qubit, field, cycles * 2 * math.pi / field.omega_rf, tol)
        assert np.all(np.isfinite(u))
        assert len(evals) == 1 and 0 < evals[0] < 12 * (dynamics._MAX_STEPS + 2)

    def test_step_cap_refuses_an_unverified_propagator(self, fig5_qubit):
        # 1e3 to 1e5 rad within 1e-11 s: at the cap of 8192 steps, successive results at
        # 1e16 and 1e15 rad/s still differ by more than tol 1e-9; at 1e14 they meet it (1.5e-13)
        for rabi, difference in ((1e16, r"1\.1e-05"), (1e15, r"4\.3e-09")):
            _, field = _drive_for_ratio(fig5_qubit, rabi / fig5_qubit.omega)
            with pytest.raises(RuntimeError, match=r"^step doubling reached its cap of 8192 Magnus "
                               rf"steps with successive results {difference} apart, above tol 1e-09$"):
                dynamics.labframe_unitary(fig5_qubit, field, 1e-11)
        _, field = _drive_for_ratio(fig5_qubit, 1e14 / fig5_qubit.omega)
        assert np.all(np.isfinite(dynamics.labframe_unitary(fig5_qubit, field, 1e-11)))

    @pytest.mark.parametrize("cycles", [2.0**63, 1e30, math.inf])
    def test_cycle_count_beyond_int64_rejected(self, fig5_qubit, cycles):
        # a cast to int64 would wrap, and the repeated squaring would never end;
        # 1e300 s is finite, but its count of periods overflows to inf
        _, field = _drive_for_ratio(fig5_qubit, 1e-2)
        t = min(cycles * 2 * math.pi / field.omega_rf, 1e300)
        with pytest.raises(ValueError, match="drive periods"):
            dynamics.labframe_unitary(fig5_qubit, field, t)

    def test_ladder_domain(self, fig5_qubit):
        field = FieldConfig(B=0.45, E0=100.0, omega_rf=fig5_qubit.omega, phi=0.0)
        with pytest.raises(ValueError, match="tol"):
            ladder_trajectory(fig5_qubit, field, 1e-10, 10, tol=1e-3)
        with pytest.raises(ValueError, match="non-negative"):
            ladder_trajectory(fig5_qubit, field, -1e-10, 10)


REFERENCE = json.loads(Path(__file__).with_name("propagator_reference.json").read_text())
# max|U(t) - reference| of the adaptive DOP853 period solve that the Magnus
# integrator replaced, per case and tol: the accuracy it must keep
DOP853_ERRORS = {
    ("hadamard-E0-100", 1e-9): 1.8e-11,
    ("hadamard-E0-100", 1e-12): 1.4e-13,
    ("hadamard-E0-10", 1e-9): 5.0e-11,
    ("hadamard-E0-10", 1e-12): 1.3e-12,
    ("hadamard-E0-1", 1e-9): 6.7e-11,
    ("hadamard-E0-1", 1e-12): 1.4e-11,
    ("resonant-50.5-cycles", 1e-9): 1.3e-11,
    ("resonant-50.5-cycles", 1e-12): 1.6e-13,
    ("ladder-E0-100", 1e-9): 2.7e-11,
    ("ladder-E0-100", 1e-12): 1.2e-13,
}


def _reference_matrix(entries):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in entries])


def _reference_run(name, tol):
    """Cycle count and (U, reference) pairs, the float period first, of one case."""
    case = REFERENCE[name]
    period = 2.0 * math.pi / case["omega_rf"]
    unitaries = dynamics._drive_propagators(
        np.array(case["h0"], dtype=complex), np.array(case["coupling"], dtype=complex),
        case["omega_rf"], case["phi"], np.array([period, *case["times"]]), tol,
    )
    refs = [_reference_matrix(u) for u in (case["period"], *case["unitaries"])]
    return int(max(case["times"]) // period), list(zip(unitaries, refs))


class TestPropagatorAccuracy:
    """Against the 28-digit mpmath propagators of tests/propagator_reference.py."""

    @pytest.mark.parametrize("name, tol", sorted(DOP853_ERRORS))
    def test_no_worse_than_dop853(self, name, tol):
        cycles, (period, *times) = _reference_run(name, tol)
        assert max(np.abs(u - ref).max() for u, ref in times) <= DOP853_ERRORS[name, tol]
        u, ref = period  # one period meets tol / N, down to its roundoff
        assert np.abs(u - ref).max() <= max(tol / cycles, 2e-15)

    @pytest.mark.parametrize("name, tol", sorted(DOP853_ERRORS))
    def test_unitary_to_roundoff(self, name, tol):
        cycles, pairs = _reference_run(name, tol)
        # U_T^N by repeated squaring drifts ~N * 3e-16 from unitarity, so
        # only the period is held to 1e-13 beyond 100 cycles
        for u, _ in pairs if cycles <= 100 else pairs[:1]:
            assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-13
