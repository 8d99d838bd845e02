import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusqubit.control import PulseSequence, gate_unitary, hadamard_sequence
from torusqubit.dynamics import PulseSpec, QuantumState
from torusqubit import errors
from torusqubit.errors import (
    _CHUNK,
    ErrorModel,
    _exact_terms,
    _infidelity_kernel,
    _monte_carlo,
    average_gate_infidelity,
    haar_bloch_vectors,
    field_error_sweep,
    perturbed_pulse,
)

from oracles import (
    ICOSAHEDRON,
    sphere_mean_infidelity,
    sphere_mean_infidelity_closed_form,
)


def _model(db=0.0, de=0.0):
    return ErrorModel(delta_B_rel=db, delta_E_rel=de, B0=0.45, E0=100.0)


class TestInfidelity:
    # the Bures infidelity 1 - F of pure states, which the Monte Carlo averages
    def test_identical_states(self):
        state = QuantumState.of(0.6, 0.8j)
        assert 1.0 - state.fidelity(state) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_states(self):
        assert 1.0 - QuantumState.of(1, 0).fidelity(QuantumState.of(0, 1)) == 1.0

    def test_half_for_equator_vs_pole(self):
        assert 1.0 - QuantumState.of(1, 0).fidelity(QuantumState.of(1, 1)) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self):
        a = QuantumState.of(0.3, 0.7 + 0.2j)
        b = QuantumState.of(0.5j, 0.4)
        assert a.fidelity(b) == pytest.approx(b.fidelity(a), abs=1e-15)
        rotated = QuantumState(np.exp(1.3j) * a.amplitudes)
        assert rotated.fidelity(b) == pytest.approx(a.fidelity(b), abs=1e-14)


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

    @pytest.mark.parametrize("axis", ["db", "de"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_range_bound_is_inclusive(self, axis, sign):
        # MAX_RELATIVE_ERROR = 0.1 is accepted, the next double past it is not
        assert errors.MAX_RELATIVE_ERROR == 0.1
        _model(**{axis: sign * 0.1})
        with pytest.raises(ValueError, match=r"must be finite and in \[-0\.1, 0\.1\]"):
            _model(**{axis: sign * math.nextafter(0.1, 1.0)})


class TestInfidelityReport:
    def test_mean_above_max_rejected(self):
        with pytest.raises(ValueError, match="mean <= max"):
            errors.InfidelityReport(mean_infidelity=0.2, max_infidelity=0.1, haar_mean_exact=0.2,
                                    worst_case_exact=0.3)


class TestHaarStates:
    def test_reproducible(self):
        a = haar_bloch_vectors(100, seed=9)
        b = haar_bloch_vectors(100, seed=9)
        assert a is not b
        np.testing.assert_array_equal(a, b)

    def test_no_state_shared_between_draws(self):
        bloch = haar_bloch_vectors(100, seed=9)
        bloch[0, 0] = 2.0
        assert haar_bloch_vectors(100, seed=9)[0, 0] != 2.0

    def test_normalized(self):
        bloch = haar_bloch_vectors(1000, seed=1)
        assert bloch.shape == (3, 1000)
        np.testing.assert_allclose(np.sum(bloch**2, axis=0), 1.0, rtol=0.0, atol=1e-15)

    def test_uniform_z(self):
        z = haar_bloch_vectors(20000, seed=3)[2]
        assert abs(z.mean()) < 0.02
        assert np.var(z) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_bloch_vectors_of_the_kets_from_the_same_draws(self):
        # the ensemble is the one of kets (sqrt((1+z)/2), e^{i phi} sqrt((1-z)/2))
        # drawn as z, then phi, from default_rng(seed)
        n, seed = 5000, 12
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.0, 1.0, size=n)
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=n)
        up = np.sqrt((1.0 + z) / 2.0)
        down = np.exp(1j * azimuth) * np.sqrt((1.0 - z) / 2.0)
        coherence = up * down
        kets = np.array([2.0 * coherence.real, 2.0 * coherence.imag, up**2 - np.abs(down) ** 2])
        np.testing.assert_allclose(haar_bloch_vectors(n, seed), kets, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 3, 2**20 + 5])
    def test_stream_is_the_one_shot_draw(self, n):
        # chunk by chunk from two generators, the stream draws the states one
        # default_rng(seed) draws as all of z, then all azimuths, bit for bit
        seed = 4242
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.0, 1.0, size=n)
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=n)
        rho = np.sqrt((1.0 - z) * (1.0 + z))
        want = np.array([rho * np.cos(azimuth), np.sin(azimuth) * rho, z])
        assert np.array_equal(haar_bloch_vectors(n, seed), want)


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mp_infidelity(m, n):
    """1 - |c0 + c . n|^2 in 40 digits, from the float entries of M and n."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e = [[mpmath.mpc(complex(m[i, j])) for j in range(2)] for i in range(2)]
        c0 = (e[0][0] + e[1][1]) / 2
        c = ((e[0][1] + e[1][0]) / 2, 1j * (e[0][1] - e[1][0]) / 2, (e[0][0] - e[1][1]) / 2)
        return [1 - abs(c0 + sum(ci * mpmath.mpf(float(x)) for ci, x in zip(c, col))) ** 2
                for col in n.T]


class TestEnsembleKernel:
    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
    @pytest.mark.parametrize("eps", [1e-7, 1e-4, 1e-2, 1.0])
    def test_per_sample_against_mpmath(self, eps, scale):
        # M = U^dag U exp(-i eps H), optionally scaled off unitarity as a
        # lab-frame propagator is: at most 1e-16 absolute error where the
        # infidelity is at most 1e-4, 5e-16 everywhere
        rng = np.random.default_rng(int(1e7 * eps) + 1)
        u = _random_unitary(rng)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, v = np.linalg.eigh((h + h.conj().T) / 2)
        m = u.conj().T @ (u @ ((v * np.exp(-1j * eps * w)) @ v.conj().T)) * scale
        bloch = haar_bloch_vectors(300, seed=31)
        got = _infidelity_kernel(m, _exact_terms(m)[0])(bloch)
        want = _mp_infidelity(m, bloch)
        err = np.array([abs(float(ref - value)) for ref, value in zip(want, got)])
        small = np.array([abs(ref) <= 1e-4 for ref in want])
        assert err.max() <= 5e-16
        assert err[small].max(initial=0.0) <= 1e-16

    def test_chunked_kernel_is_the_whole_array_expression(self):
        # the kernel's in-place products over the streamed chunks keep the
        # expression's order of operations, so every kept (clipped) value is
        # bit-identical, also in the short last chunk
        n = 2**17 + 3
        assert n % _CHUNK
        rng = np.random.default_rng(17)
        m = _random_unitary(rng) @ _random_unitary(rng) * (1.0 + 1e-9)
        bloch = haar_bloch_vectors(n, seed=29)
        s = _exact_terms(m)[0]
        c0 = (m[0, 0] + m[1, 1]) / 2
        c = np.array([(m[0, 1] + m[1, 0]) / 2, 1j * (m[0, 1] - m[1, 0]) / 2, (m[0, 0] - m[1, 1]) / 2])
        (px, py, pz), (qx, qy, qz) = c.real, c.imag
        re2, im2 = 2.0 * c0.real, 2.0 * c0.imag
        x, y, z = bloch
        a = (px * x + py * y) + pz * z
        b = (qx * x + qy * y) + qz * z
        want = np.clip(s - a * (a + re2) - b * (b + im2), 0.0, 1.0)
        [report] = _monte_carlo([m], n, seed=29, keep_samples=True)
        assert np.array_equal(report.per_sample, want)

    def test_kept_samples_are_each_points_own(self):
        # I leaves every input as it is and X flips all but the equator; over two
        # chunks, each point's row is what a run of that point alone keeps
        n = errors._CHUNK + 1000
        points = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
        reports = _monte_carlo(points, n, seed=5, keep_samples=True)
        for m, report in zip(points, reports):
            [alone] = _monte_carlo([m], n, seed=5, keep_samples=True)
            assert np.array_equal(report.per_sample, alone.per_sample)
            assert report.max_infidelity == report.per_sample.max()
            assert report.mean_infidelity == pytest.approx(report.per_sample.mean(), abs=1e-15)
        assert not reports[0].per_sample.any() and reports[1].per_sample.mean() > 0.6

    def test_exact_haar_mean_is_the_trace_formula(self):
        rng = np.random.default_rng(3)
        m = _random_unitary(rng) * (1.0 + 1e-9)
        trace_formula = 1.0 - (abs(np.trace(m)) ** 2 + np.trace(m.conj().T @ m).real) / 6.0
        assert _exact_terms(m)[1] == pytest.approx(trace_formula, rel=0.0, abs=1e-15)

    def test_exact_terms_are_the_rational_values_rounded_once(self):
        # the scaled-integer evaluation against the same algebra in Fraction,
        # bit for bit: random M over many magnitudes, near-identity M, subnormals
        def rational(m):
            parts = [Fraction(x) for v in m.flat for x in (v.real, v.imag)]
            re_tr, im_tr = parts[0] + parts[6], parts[1] + parts[7]
            trace2 = re_tr * re_tr + im_tr * im_tr
            frobenius2 = sum(x * x for x in parts)
            return float(1 - trace2 / 4), float(1 - (trace2 + frobenius2) / 6)

        rng = np.random.default_rng(41)
        cases = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex),
                 np.full((2, 2), 5e-324 + 5e-324j)]
        for _ in range(200):
            cases.append(_random_unitary(rng) * 10.0 ** rng.uniform(-300, 100))
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            w, v = np.linalg.eigh((h + h.conj().T) / 2)
            near = (v * np.exp(-1j * 10.0 ** rng.uniform(-12, -2) * w)) @ v.conj().T
            cases.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * near * (1.0 + 1e-12 * rng.normal()))
        for m in cases:
            assert _exact_terms(m) == rational(m)


class TestMonteCarloMean:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(angle=st.floats(1e-6, math.pi - 1e-6), polar=st.floats(0.0, math.pi),
           azimuth=st.floats(0.0, 2 * math.pi), phase=st.floats(0.0, 2 * math.pi),
           seed=st.integers(0, 2**32))
    # sigma = 0: M a phase times I, which the drawn angles stay 1e-6 away from, so that
    # every sample is the one value 1 - |Tr M|^2 / 4, the exact worst case
    @example(angle=0.0, polar=0.0, azimuth=0.0, phase=0.7, seed=0)
    # the pairwise mean of these equal samples rounds an ulp above their max
    @example(angle=0.0, polar=0.0, azimuth=0.0, phase=0.015707963267948967, seed=0)
    def test_within_five_design_sigmas(self, angle, polar, azimuth, phase, seed):
        # M = e^{i phase} (cos a - i sin a n . sigma), so sample n' has infidelity
        # |v|^2 - (v . n')^2 with v = sin a n: quadratic in n', and its square quartic,
        # so the icosahedron's 12 vertices give the exact mean and standard deviation sigma
        v = math.sin(angle) * np.array([math.sin(polar) * math.cos(azimuth),
                                        math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        (x, y, z), c = v, math.cos(angle)
        m = np.exp(1j * phase) * np.array([[c - 1j * z, -1j * x - y], [-1j * x + y, c + 1j * z]])
        n = 2048
        [report] = _monte_carlo([m], n, seed)
        sigma = math.sqrt(np.var(v @ v - (ICOSAHEDRON @ v) ** 2))
        # roundoff in M moves the samples and the exact mean alike, by a few ulps of 1
        bound = 5 * sigma / math.sqrt(n) + 1e-15
        assert abs(report.mean_infidelity - report.haar_mean_exact) <= bound
        if sigma == 0.0:
            assert report.max_infidelity == report.worst_case_exact


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
        m = u_ideal.conj().T @ u_pert
        exact = _exact_terms(m)[1]
        mc = _monte_carlo([m], n, seed=21)[0].mean_infidelity
        assert abs(mc - quad) <= 3.0 / math.sqrt(n)
        assert exact == pytest.approx(quad, abs=1e-15)

    def test_peak_memory_per_sample(self, qubit_factory):
        # a sweep holds one chunk of the stream and 16 B per chunk and grid
        # point: its peak at 2^20 samples is that at one chunk, within 1 MiB
        def peak(n):
            tracemalloc.start()
            try:
                field_error_sweep(_synth, qubit_factory, point=_point(db=5e-3), axis="E0",
                                  grid=[100.0, 300.0, 1000.0], n_samples=n, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # imports and caches outside the measurement
        assert peak(2**20) <= peak(2**15) + 2**20


def _synth(qubit, e0):
    return hadamard_sequence(qubit, e0)


def _point(db=0.0, de=0.0, B0=0.45, E0=100.0):
    return {"delta_B_rel": db, "delta_E_rel": de, "B0": B0, "E0": E0}


class TestMitigationSweep:
    def test_non_increasing_with_drive(self, fig5_qubit, qubit_factory):
        reports = field_error_sweep(
            _synth,
            qubit_factory,
            point=_point(db=5e-3),
            axis="E0",
            grid=list(np.geomspace(100.0, 10000.0, 5)),
            n_samples=2000,
            seed=5,
        )
        means = [r.mean_infidelity for r in reports]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(means, means[1:]))
        assert min(means) == means[-1]

    def test_ensemble_drawn_once_per_sweep(self, qubit_factory, monkeypatch):
        original, streams = errors._haar_stream, []

        def counting(n, seed):
            streams.append((n, seed))
            return original(n, seed)

        monkeypatch.setattr(errors, "_haar_stream", counting)
        field_error_sweep(
            _synth, qubit_factory, point=_point(db=5e-3), axis="E0", grid=[100.0, 300.0, 1000.0],
            n_samples=_CHUNK + 7, seed=5,
        )
        assert streams == [(_CHUNK + 7, 5)]

    def test_sweep_row_is_the_single_point_report_over_many_chunks(self, qubit_factory):
        n = 2 * _CHUNK + 11
        grid = [100.0, 1000.0]
        reports = field_error_sweep(_synth, qubit_factory, point=_point(db=5e-3), axis="E0",
                                    grid=grid, n_samples=n, seed=7)
        for e0, report in zip(grid, reports):
            seq = _synth(qubit_factory(0.45, e0), e0)
            model = ErrorModel(**_point(db=5e-3, E0=e0))
            assert report == average_gate_infidelity(seq, qubit_factory, model, n, seed=7)

    def test_chunk_sums_against_the_whole_array(self, fig5_qubit, qubit_factory):
        # the max is exact; the mean sums chunk sums instead of all values
        # pairwise, which moves it by a few ulp at most
        seq = hadamard_sequence(fig5_qubit, 100.0)
        report = average_gate_infidelity(seq, qubit_factory, _model(db=5e-3), 10**6, seed=19,
                                         keep_samples=True)
        values = report.per_sample
        assert values.shape == (10**6,)
        assert report.max_infidelity == values.max()
        assert abs(report.mean_infidelity - values.mean()) <= 4 * np.spacing(values.mean())

    def test_zero_error_row_is_zero(self, fig5_qubit, qubit_factory):
        reports = field_error_sweep(
            _synth,
            qubit_factory,
            point=_point(),
            axis="E0",
            grid=[100.0, 1000.0],
            n_samples=200,
            seed=5,
        )
        assert all(r.mean_infidelity == pytest.approx(0.0, abs=1e-12) for r in reports)

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


class TestReferenceFieldSweep:
    def test_no_b0_beats_electric_error_floor(self, qubit_factory):
        reports = field_error_sweep(
            _synth,
            qubit_factory,
            point=_point(de=5e-3, E0=1000.0),
            axis="B0",
            grid=[0.4, 0.55, 0.7, 0.85],
            n_samples=2000,
            seed=17,
        )
        means = [r.mean_infidelity for r in reports]
        # pure drive-amplitude error: the floor is field-independent, so no
        # reference field improves on it
        floor = means[0]
        assert all(m == pytest.approx(floor, rel=1e-9) for m in means)
        assert len(reports) == 4


class TestSweepQubitCache:
    @pytest.mark.parametrize("axis, grid, distinct", [
        ("delta_E_rel", [-0.01, 0.0, 0.02], 1),
        ("delta_B_rel", [-0.01, 0.0, 0.02], 3),
        ("E0", [100.0, 300.0, 1000.0], 2),  # B0 and B0 (1 + dB), whatever E0
    ])
    def test_one_qubit_call_per_distinct_point(self, qubit_factory, axis, grid, distinct):
        calls = []

        def counting(B):
            calls.append(B)
            return qubit_factory(B)

        point = _point(db=5e-3) if axis == "E0" else _point()
        reports = field_error_sweep(_synth, counting, point=point, axis=axis, grid=grid,
                                    n_samples=500, seed=3)
        assert len(calls) == len(set(calls)) == distinct
        # the sweep without the cache: every point reduced afresh
        operators = []
        for value in grid:
            model = ErrorModel(**{**point, axis: value})
            seq = _synth(qubit_factory(model.B0), model.E0)
            operators.append(errors._error_operator(seq, qubit_factory, model, "rwa", None))
        assert reports == _monte_carlo(operators, 500, 3)


class TestRelativeErrorSweep:
    @pytest.mark.parametrize("axis", ["delta_B_rel", "delta_E_rel"])
    def test_each_row_is_the_report_at_its_error(self, qubit_factory, axis):
        # scanning a relative error synthesizes the gate at the fixed
        # reference point, so each row is that point's own report
        grid = [-0.01, 0.0, 0.02]
        reports = field_error_sweep(_synth, qubit_factory, point=_point(), axis=axis,
                                    grid=grid, n_samples=500, seed=3)
        seq = _synth(qubit_factory(0.45, 100.0), 100.0)
        for value, report in zip(grid, reports):
            model = ErrorModel(**{**_point(), axis: value})
            assert report == average_gate_infidelity(seq, qubit_factory, model, 500, seed=3)

    def test_window_flags_are_warnings(self, qubit_factory):
        # only the perturbed field 0.45 * 1.05 leaves the window
        with pytest.warns(UserWarning) as caught:
            field_error_sweep(_synth, qubit_factory, point=_point(), axis="delta_B_rel",
                              grid=[0.0, 0.05], n_samples=50, seed=3, window=(0.4, 0.46))
        [flag] = [str(w.message) for w in caught]
        assert flag.startswith("perturbed field 0.4725 T leaves the two-bound-state window")
