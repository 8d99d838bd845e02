import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from torusqubit import spectral
from torusqubit.model import TorusGeometry, UnitSystem
from torusqubit.potential import PotentialParams, total_internal
from torusqubit.spectral import (
    Discretization,
    EigensolverError,
    WindowNotFoundError,
    build_hamiltonian,
    initialization_window,
    lowest_eigenpairs,
    solve_sector,
    sweep_field,
)

from oracles import (E_CHARGE_SI, ELECTRON_MASS_SI, HBAR_SI, jacobi_eigenvalues, lanczos_lowest,
                     lanczos_reference, sparse_hamiltonian)
from test_cli import openblas_dynamic_arch, source_env

ANGSTROM = 1e-10
THIN_GEOM = TorusGeometry(r_minor=350 * ANGSTROM, R_major=1.05 * 350 * ANGSTROM)


def _kinetic_only(params, disc):
    """Isolate the implemented kinetic stencil by subtracting the potential."""
    return build_hamiltonian(params, disc) - np.diag(total_internal(disc.theta, params))


def _sparse_kinetic_only(params, disc):
    """_kinetic_only in the sparse assembly, for grids too large for a dense solve."""
    return sparse_hamiltonian(params, disc) - sp.diags_array(total_internal(disc.theta, params))


class TestBuildHamiltonian:
    def test_exact_symmetry(self, fig3a_geom, disc1024):
        params = PotentialParams(geom=fig3a_geom, B=0.45, m_orbital=1)
        H = build_hamiltonian(params, disc1024)
        assert np.abs(H - H.T).max() == 0.0

    def test_free_particle_spectrum_analytic(self, fig3a_geom):
        disc = Discretization(n_points=256)
        params = PotentialParams(geom=fig3a_geom)
        H = _kinetic_only(params, disc)
        h = disc.spacing
        k = np.arange(256)
        analytic = np.sort((2.0 - 2.0 * np.cos(2.0 * np.pi * k / 256)) / h**2)
        energies, _ = lowest_eigenpairs(H, 10)
        np.testing.assert_allclose(energies, analytic[:10], rtol=1e-10, atol=1e-10)

    def test_free_particle_continuum_limit(self, fig3a_geom):
        # discrete eigenvalues approach k^2 as the grid refines
        params = PotentialParams(geom=fig3a_geom)
        disc = Discretization(n_points=2048)
        H = _sparse_kinetic_only(params, disc)
        energies, _ = lanczos_lowest(H, 5, shift=-1.0)  # the stencil is positive semidefinite
        np.testing.assert_allclose(energies, [0.0, 1.0, 1.0, 4.0, 4.0], rtol=2e-5, atol=1e-9)

    def test_harmonic_substitute_matches_oscillator(self, fig3a_geom):
        # V = kappa/2 * (theta-pi)^2 -> levels sqrt(2 kappa) (n + 1/2) + 0,
        # valid while the eigenfunctions stay localized inside the window
        kappa = 50.0
        disc = Discretization(n_points=1024)
        params = PotentialParams(geom=fig3a_geom)
        kin = _sparse_kinetic_only(params, disc)
        H = kin + sp.diags_array(0.5 * kappa * (disc.theta - np.pi) ** 2)
        energies, _ = lanczos_lowest(H, 4, shift=-1.0)  # below the kinetic and the potential minimum
        omega = math.sqrt(2.0 * kappa)
        analytic = omega * (np.arange(4) + 0.5)
        np.testing.assert_allclose(energies, analytic, rtol=1e-4)

    def test_fourth_order_stencil_more_accurate(self, fig3a_geom):
        params = PotentialParams(geom=fig3a_geom)
        n = 128
        errs = {}
        for order in (2, 4):
            disc = Discretization(n_points=n, stencil_order=order)
            H = _kinetic_only(params, disc)
            energies, _ = lowest_eigenpairs(H, 4)
            errs[order] = abs(energies[3] - 4.0)
        assert errs[4] < errs[2] / 50


class TestLowestEigenpairs:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            lowest_eigenpairs(np.ones((3, 4)), 1)

    def test_non_finite_potential_rejected(self, fig3a_geom):
        # b^2 overflows: the magnetic term is inf on the whole grid
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="potential evaluated to non-finite values"):
                spectral._grid_potential(PotentialParams(geom=fig3a_geom, B=1e200),
                                         Discretization(64))

    def test_two_by_two_analytic(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        energies, vectors = lowest_eigenpairs(H, 2)
        np.testing.assert_allclose(energies, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vectors), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-14)

    @pytest.mark.parametrize("value", [3.0, -2.5])
    def test_one_by_one(self, value):
        # a one-point grid has no theta in (0, pi): the sign rule reads row 0
        energies, vectors = lowest_eigenpairs(np.array([[value]]), 1)
        assert energies.tolist() == [value]
        assert vectors.tolist() == [[1.0]]

    def test_diagonal_matrix(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=40)
        energies, _ = lowest_eigenpairs(np.diag(d), 7)
        np.testing.assert_allclose(energies, np.sort(d)[:7], atol=1e-13)

    def test_random_matrix_against_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(50, 50))
        H = (a + a.T) / 2.0
        energies, vectors = lowest_eigenpairs(H, 50)
        oracle = jacobi_eigenvalues(H)
        scale = np.abs(H).sum(axis=1).max()
        np.testing.assert_allclose(energies, oracle, atol=1e-9 * scale)
        # orthonormality to 1e-9
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(50)).max() < 1e-9

    def test_sparse_path_matches_dense(self, fig3a_geom, disc1024):
        # the tests' shift-invert Lanczos oracle against a dense LAPACK solve
        params = PotentialParams(geom=fig3a_geom, B=0.45)
        energies, _ = lanczos_reference(params, disc1024, 6)
        dense_e, _ = sla.eigh(build_hamiltonian(params, disc1024), subset_by_index=(0, 5))
        np.testing.assert_allclose(energies, dense_e, rtol=1e-11, atol=1e-11)

    def test_asymmetric_rejected(self):
        H = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, 1)

    def test_bad_k_rejected(self):
        H = np.eye(4)
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, 0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, 5)

    def test_residual_failure_raises(self, fig3a_geom, monkeypatch):
        H = build_hamiltonian(PotentialParams(geom=fig3a_geom, B=0.45), Discretization(64))
        eigh = np.linalg.eigh

        def perturbed_eigh(matrix):
            values, vectors = eigh(matrix)
            return values, vectors + 1e-3 * np.roll(vectors, 1, axis=0)

        monkeypatch.setattr("torusqubit.spectral.np.linalg.eigh", perturbed_eigh)
        with pytest.raises(EigensolverError, match="exceeds contract") as info:
            lowest_eigenpairs(H, 3)
        assert info.value.residual > 1e-9 * np.abs(H).sum(axis=1).max()


class TestBoundClassification:
    def test_single_bound_state_at_zero_field(self, fig3a_geom, disc1024):
        spec = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=0), disc1024)
        assert spec.n_bound == 1
        assert spec.states[0].bound

    def test_first_excited_m0_not_bound_at_zero_field(self, fig3a_geom, disc1024):
        spec = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=0), disc1024)
        assert not spec.states[1].bound

    def test_new_bound_state_at_operating_field(self, fig3a_geom, disc1024):
        spec = solve_sector(PotentialParams(geom=fig3a_geom, B=0.45, m_orbital=0), disc1024)
        assert spec.n_bound >= 2

    def test_wavefunction_normalization(self, fig3a_geom, disc1024):
        spec = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=0), disc1024)
        h = disc1024.spacing
        for state in spec.states:
            assert np.sum(state.wavefunction**2) * h == pytest.approx(1.0, abs=1e-10)

    def test_localization_definition(self, fig3a_geom, disc1024):
        spec = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=0), disc1024)
        theta = disc1024.theta
        h = disc1024.spacing
        inner = (theta >= np.pi / 2) & (theta <= 3 * np.pi / 2)
        ground = spec.states[0]
        manual = np.sum(ground.wavefunction[inner] ** 2) * h
        assert ground.localization == pytest.approx(manual, rel=1e-12)
        assert 0.0 <= ground.localization <= 1.0

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, float("nan")])
    def test_loc_threshold_range(self, fig3a_geom, threshold):
        params = PotentialParams(geom=fig3a_geom, m_orbital=0)
        with pytest.raises(ValueError, match="loc_threshold"):
            solve_sector(params, Discretization(n_points=64), loc_threshold=threshold)


class TestSweep:
    def test_zero_field_m_degeneracy(self, fig3a_geom, disc1024):
        spectra = sweep_field(fig3a_geom, [1, -1], np.array([0.0, 0.05]), disc1024, k=3)
        at_zero = [s for s in spectra if s.params.B == 0.0]
        e_plus = at_zero[0].states[0].energy
        e_minus = at_zero[1].states[0].energy
        assert abs(e_plus - e_minus) <= 1e-9 * max(abs(e_plus), 1e-30)

    def test_zeeman_split_slope_matches_analytic(self, fig3a_geom, disc1024):
        # ground-state split between m=-1 and m=+1 grows linearly with slope
        # e*hbar/m*; finite-difference the sweep and compare
        fields = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        spectra = sweep_field(fig3a_geom, [1, -1], fields, disc1024, k=2)
        units = UnitSystem.for_geometry(fig3a_geom)
        splits = []
        for i, B in enumerate(fields):
            plus, minus = spectra[2 * i], spectra[2 * i + 1]
            split_internal = minus.states[0].energy - plus.states[0].energy
            splits.append(units.from_internal(split_internal, "energy"))
        slope = np.polyfit(fields, splits, 1)[0]
        analytic = E_CHARGE_SI * HBAR_SI / (0.3 * ELECTRON_MASS_SI)
        assert slope == pytest.approx(analytic, rel=5e-3)

    def test_two_bound_state_region_exists(self, fig3a_geom, disc1024):
        spectra = sweep_field(fig3a_geom, [0], np.array([0.45, 0.6]), disc1024)
        assert all(s.n_bound == 2 for s in spectra)


class TestWindow:
    def test_fig3a_window_contains_operating_point(self, fig3a_geom, disc1024):
        b_min, b_max = initialization_window(fig3a_geom, disc1024)
        assert b_min < 0.45 < b_max
        assert b_max > b_min

    def test_fig3b_window_differs(self, fig3a_geom, fig3b_geom, disc1024):
        win_a = initialization_window(fig3a_geom, disc1024)
        win_b = initialization_window(fig3b_geom, disc1024)
        assert win_b[1] > win_b[0]
        assert abs(win_b[0] - win_a[0]) > 0.02 or abs(win_b[1] - win_a[1]) > 0.02

    def test_scan_below_onset_fails(self, fig3a_geom, disc1024):
        with pytest.raises(WindowNotFoundError):
            initialization_window(fig3a_geom, disc1024, B_scan_max=0.05)

    @staticmethod
    def _full_scan(geom, disc, scan_max, n_coarse=41, tol=1e-3):
        """Window edges and solve count of a coarse scan that reads every
        grid point before bisecting both edges."""
        solves = []

        def count(B):
            solves.append(B)
            return solve_sector(PotentialParams(geom=geom, B=B), disc).n_bound

        grid = np.linspace(0.0, scan_max, n_coarse)
        counts = [count(float(B)) for B in grid]
        first_two = counts.index(2)
        past = next((i for i in range(first_two, n_coarse) if counts[i] > 2), None)

        def bisect(i, beyond):
            lo, hi = float(grid[i - 1]), float(grid[i])
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if beyond(count(mid)) else (mid, hi)
            return lo, hi

        b_min = bisect(first_two, lambda c: c >= 2)[1]
        b_max = bisect(past, lambda c: c != 2)[0] if past is not None else float(grid[-1])
        unread = 0 if past is None else n_coarse - 1 - past  # coarse points past the stop
        return (b_min, b_max), len(solves), unread

    @pytest.mark.parametrize("scan_max", [0.8, 1.8, 2.2])
    def test_scan_stops_past_the_window(self, fig3a_geom, monkeypatch, scan_max):
        # at 0.8 T the scan never leaves the window, so it reads every point
        disc = Discretization(256)
        edges, full_solves, unread = self._full_scan(fig3a_geom, disc, scan_max)
        solves = []

        def counting(params, *args, **kwargs):
            solves.append(params.B)
            return solve_sector(params, *args, **kwargs)

        monkeypatch.setattr(spectral, "solve_sector", counting)
        assert initialization_window(fig3a_geom, disc, B_scan_max=scan_max) == edges
        assert len(solves) == full_solves - unread
        assert (unread > 0) == (scan_max > 1.0)
        assert max(solves) <= edges[1] + scan_max / 40


class TestInvariants:
    def test_convergence_order_h2(self, fig3a_geom):
        # eigenvalue error vs a 4x finer reference decreases as h^2
        params = PotentialParams(geom=fig3a_geom, B=0.45, m_orbital=0)
        sizes = [128, 256, 512]
        ref = solve_sector(params, Discretization(2048), k=1).states[0].energy
        errors = []
        for n in sizes:
            e = solve_sector(params, Discretization(n), k=1).states[0].energy
            errors.append(abs(e - ref))
        slope = np.polyfit(np.log([2 * np.pi / n for n in sizes]), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_gauge_offset_invariance(self, fig3a_geom):
        disc = Discretization(256)
        params = PotentialParams(geom=fig3a_geom, B=0.45)
        H = build_hamiltonian(params, disc)
        c = 7.25
        energies, vectors = lowest_eigenpairs(H, 3)
        shifted_e, shifted_v = lowest_eigenpairs(H + c * np.eye(256), 3)
        np.testing.assert_allclose(shifted_e - energies, c, atol=1e-10)
        np.testing.assert_allclose(shifted_v, vectors, atol=1e-10)

    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    def test_gauge_offset_invariance_on_an_avx2_kernel(self):
        # with a whole-ring sign rule the odd state's sign followed the kernel's
        # roundoff, and on Haswell it flipped between the two solves
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestInvariants::test_gauge_offset_invariance"],
            env=source_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True)
        assert done.returncode == 0, done.stdout

    def test_m_reflection_symmetry_at_zero_field(self, fig3a_geom, disc1024):
        for m in (1, 2):
            plus = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=m), disc1024, k=3)
            minus = solve_sector(PotentialParams(geom=fig3a_geom, m_orbital=-m), disc1024, k=3)
            for sp, sm in zip(plus.states, minus.states):
                assert sp.energy == pytest.approx(sm.energy, rel=1e-12, abs=1e-12)

    def test_orthonormality_gram_identity(self, fig3a_geom, disc1024):
        _, vectors = lanczos_reference(PotentialParams(geom=fig3a_geom, B=0.45), disc1024, 6)
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(6)).max() < 1e-9


class TestElectricSweep:
    def test_electric_field_sweep_runs(self, fig3a_geom):
        disc = Discretization(256)
        spectra = sweep_field(
            fig3a_geom, [0], np.array([0.0, 500.0]), disc, field="E", k=2
        )
        assert len(spectra) == 2
        assert spectra[1].params.E_static == 500.0
        # the electric term tilts the well, shifting the ground energy
        assert spectra[0].states[0].energy != spectra[1].states[0].energy

    def test_unknown_field_rejected(self, fig3a_geom, disc1024):
        with pytest.raises(ValueError):
            sweep_field(fig3a_geom, [0], np.array([0.0, 1.0]), disc1024, field="Z")


class TestStructuredSolve:
    """solve_sector against a dense reference of the same operator."""

    @staticmethod
    def _check_against_dense(spec, params, disc):
        H = build_hamiltonian(params, disc)
        scale = np.abs(H).sum(axis=1).max()
        energies = np.array([s.energy for s in spec.states])
        # the lowest levels up to two past the computed ones; the last lies
        # outside every computed level's cluster, so each cluster is whole
        ref_e, ref_v = sla.eigh(H, subset_by_index=(0, min(energies.size + 1, disc.n_points - 1)))
        assert ref_e.size == disc.n_points or ref_e[-1] - energies[-1] > 1e-8 * scale
        np.testing.assert_allclose(energies, ref_e[: energies.size], rtol=0, atol=1e-12 * scale)
        for state in spec.states:
            # weight inside the reference eigenspace of that energy: the
            # |overlap| for a simple level, the subspace norm for a cluster
            near = np.abs(ref_e - state.energy) <= 1e-8 * scale
            weight = np.sum((ref_v[:, near].T @ state.wavefunction) ** 2) * disc.spacing
            assert weight == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [64, 65, 257])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("e_static", [0.0, 400.0])
    @pytest.mark.parametrize("k", [1, 6, "n"])
    def test_matches_dense_reference(self, fig3a_geom, n, order, e_static, k):
        disc = Discretization(n, order)
        params = PotentialParams(geom=fig3a_geom, B=0.45, E_static=e_static, m_orbital=1)
        spec = solve_sector(params, disc, k=n if k == "n" else k)
        self._check_against_dense(spec, params, disc)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("e_static", [0.0, -300.0])
    def test_odd_grid_above_the_ritz_cap_matches_dense(self, fig3a_geom, order, e_static):
        # odd n, above the 600 modes where the Ritz basis stops being the whole grid
        disc = Discretization(1025, order)
        params = PotentialParams(geom=fig3a_geom, B=0.2, E_static=e_static, m_orbital=0)
        self._check_against_dense(solve_sector(params, disc), params, disc)

    @pytest.mark.parametrize("n", [1024, 1025])
    @pytest.mark.parametrize("order", [2, 4])
    def test_parity_at_zero_electric_field(self, fig3a_geom, n, order):
        # without a static field H commutes with theta -> -theta, so a level
        # a gap g away from every other level is a parity eigenstate to
        # within about eps ||H|| / g; the near-degenerate ring doublets mix
        # at that level, the isolated bound states are parity-exact
        disc = Discretization(n, order)
        params = PotentialParams(geom=fig3a_geom, B=0.45)
        spec = solve_sector(params, disc, k=9)
        scale = np.abs(build_hamiltonian(params, disc)).sum(axis=1).max()
        energies = np.array([s.energy for s in spec.states])
        mirror = (-np.arange(n)) % n
        parities = set()
        # the last level's nearest neighbour may lie above the k computed
        for i, state in enumerate(spec.states[:-1]):
            psi = state.wavefunction / np.abs(state.wavefunction).max()
            even = np.abs(psi[mirror] - psi).max()
            odd = np.abs(psi[mirror] + psi).max()
            gap = np.delete(np.abs(energies - energies[i]), i).min()
            assert min(even, odd) <= np.finfo(float).eps * scale / gap
            if state.bound:
                assert min(even, odd) <= 1e-12
            parities.add(even < odd)
        assert parities == {True, False}

    @pytest.mark.parametrize("e_static", [0.0, 200.0])
    def test_sign_rule_and_repeatability(self, fig3a_geom, disc1024, e_static):
        params = PotentialParams(geom=fig3a_geom, B=0.45, E_static=e_static)
        first = solve_sector(params, disc1024, k=6)
        again = solve_sector(params, disc1024, k=6)
        upper = slice(1, disc1024.n_points // 2)  # theta in (0, pi)
        for state, repeat in zip(first.states, again.states):
            psi = state.wavefunction
            assert psi[upper][np.argmax(np.abs(psi[upper]))] > 0
            assert psi.tobytes() == repeat.wavefunction.tobytes()
        if e_static == 0.0:  # the rule must cover odd states, where psi(0) = 0
            assert any(
                abs(state.wavefunction[0]) < 1e-9 * np.abs(state.wavefunction).max()
                for state in first.states
            )

    @pytest.mark.parametrize("order", [2, 4])
    def test_large_grid_memory(self, fig3a_geom, order):
        # a dense operator at this size would need 2 GiB
        params = PotentialParams(geom=fig3a_geom, B=0.45)
        tracemalloc.start()
        try:
            spec = solve_sector(params, Discretization(16384, order))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert spec.n_bound == 2

    def test_k_range(self, fig3a_geom):
        params = PotentialParams(geom=fig3a_geom)
        for k in (0, 65):
            with pytest.raises(ValueError, match=rf"^k must be in \[1, 64\], got {k}$"):
                solve_sector(params, Discretization(64), k=k)

    def test_residual_contract_enforced(self, fig3a_geom, monkeypatch):
        eigh = np.linalg.eigh

        def rolled_eigh(matrix):
            energies, vectors = eigh(matrix)
            return energies, np.roll(vectors, 1, axis=0)

        # n = 64 is a complete Fourier basis, so only the residual check can object
        monkeypatch.setattr("torusqubit.spectral.np.linalg.eigh", rolled_eigh)
        with pytest.raises(EigensolverError, match="exceeds contract") as info:
            solve_sector(PotentialParams(geom=fig3a_geom), Discretization(64), k=2)
        assert info.value.residual > 0.0

    def test_basis_cap_raises(self, monkeypatch):
        # the thin torus needs more than the 65 starting modes, here also the cap
        monkeypatch.setattr("torusqubit.spectral._RITZ_CAP", 65)
        params = PotentialParams(geom=THIN_GEOM, B=0.45)
        with pytest.raises(EigensolverError, match="cap of 65 modes") as info:
            solve_sector(params, Discretization(1024), k=6)
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("mirror", [False, True])
    def test_basis_cap_leaves_room_for_k_levels(self, mirror):
        # k = _RITZ_CAP // 2 + 1 levels on n = 2k points: the cap of 2k + 1
        # modes admits the complete basis, so a rough potential that no
        # truncated basis resolves is solved exactly
        k = spectral._RITZ_CAP // 2 + 1
        n = 2 * k
        v = np.random.default_rng(7).uniform(-1.0, 1.0, n)
        if mirror:
            v = 0.5 * (v + v[(-np.arange(n)) % n])
        disc = Discretization(n)
        energies, _ = spectral._sector_eigenpairs(v, disc, k, mirror=mirror)
        stencil = spectral._stencil(disc)
        dense = spectral._apply_operator(stencil, stencil[0] + v, np.eye(n))
        np.testing.assert_allclose(energies, np.linalg.eigvalsh(dense)[:k], rtol=1e-12,
                                   atol=1e-12 * np.abs(dense).sum(axis=1).max())

    def test_sweep_failure_names_its_point(self, monkeypatch):
        monkeypatch.setattr("torusqubit.spectral._RITZ_CAP", 65)
        with pytest.raises(EigensolverError) as info:
            sweep_field(THIN_GEOM, [0], np.array([0.45, 0.5]), Discretization(1024), k=6)
        assert str(info.value).startswith(
            "eigensolve failed at B=0.45, m=0: Fourier basis reached its cap of 65 modes")
        assert info.value.residual == info.value.__cause__.residual > 0.0

    def test_window_failure_names_its_point(self, monkeypatch):
        monkeypatch.setattr("torusqubit.spectral._RITZ_CAP", 65)
        with pytest.raises(EigensolverError) as info:
            initialization_window(THIN_GEOM, Discretization(1024))
        assert str(info.value).startswith(
            "eigensolve failed at B=0.0, m=0: Fourier basis reached its cap of 65 modes")
        assert info.value.residual == info.value.__cause__.residual > 0.0

    def test_electric_failure_names_its_field(self, monkeypatch):
        # one block of 2K + 1 modes, as the static field breaks the mirror
        monkeypatch.setattr("torusqubit.spectral._RITZ_CAP", 65)
        with pytest.raises(EigensolverError) as info:
            solve_sector(PotentialParams(geom=THIN_GEOM, B=0.45, E_static=200.0),
                         Discretization(1024), k=6)
        assert str(info.value).startswith("eigensolve failed at B=0.45, E=200.0, m=0:"
                                          " Fourier basis reached its cap of 65 modes")
        assert info.value.residual == info.value.__cause__.residual > 0.0


def _recorded_eigh_sizes(monkeypatch) -> list[int]:
    """The row counts of the matrices the sector solve hands to eigh, in call order."""
    eigh, sizes = np.linalg.eigh, []

    def recording_eigh(matrix):
        sizes.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr("torusqubit.spectral.np.linalg.eigh", recording_eigh)
    return sizes


def _parity_reference(params, disc, k):
    """Energies and unit grid vectors of the k lowest levels of the dense
    operator with the exactly mirror-symmetrized potential, solved apart in
    the even and odd subspaces and merged by energy, even first on a tie."""
    n = disc.n_points
    mirror = (-np.arange(n)) % n
    v = spectral._grid_potential(params, disc)
    H = build_hamiltonian(params, disc)
    H[np.diag_indices(n)] += 0.5 * (v[mirror] - v)
    energies, vectors = [], []
    for sign, rows in ((1.0, np.arange(n // 2 + 1)), (-1.0, np.arange(1, (n + 1) // 2))):
        basis = np.zeros((n, rows.size))
        basis[rows, np.arange(rows.size)] += 1.0
        basis[mirror[rows], np.arange(rows.size)] += sign
        basis /= np.linalg.norm(basis, axis=0)
        w, c = np.linalg.eigh(basis.T @ H @ basis)
        energies.append(w[:k])
        vectors.append(basis @ c[:, :k])
    order = np.argsort(np.concatenate(energies), kind="stable")[:k]
    return np.concatenate(energies)[order], np.concatenate(vectors, axis=1)[:, order]


class TestParitySplit:
    """At E_static = 0 the sector solve runs its cosine and sine blocks apart."""

    @pytest.mark.parametrize("n", [1024, 1031])
    @pytest.mark.parametrize("m", [0, 1, -1])
    @pytest.mark.parametrize("B", [0.0, 0.45, 1.2])
    @pytest.mark.parametrize("preset", ["fig3a", "fig3b"])
    def test_states_are_parity_pure(self, fig3a_geom, fig3b_geom, preset, B, m, n):
        geom = fig3a_geom if preset == "fig3a" else fig3b_geom
        params = PotentialParams(geom=geom, B=B, m_orbital=m)
        disc = Discretization(n)
        mirror = (-np.arange(n)) % n
        parities = set()
        for state in solve_sector(params, disc, k=6).states:
            psi = state.wavefunction
            even = np.abs(psi[mirror] - psi).max()
            odd = np.abs(psi[mirror] + psi).max()
            assert min(even, odd) <= 1e-12 * np.abs(psi).max()
            parities.add(even < odd)
        assert parities == {True, False}

        # the same levels as one solve of the whole basis
        v = spectral._grid_potential(params, disc)
        split, _ = spectral._sector_eigenpairs(v, disc, 6, mirror=True)
        full, _ = spectral._sector_eigenpairs(v, disc, 6, mirror=False)
        np.testing.assert_allclose(split, full, rtol=1e-12, atol=0.0)

    def test_exact_tie_puts_the_even_level_first(self):
        # a constant potential: cos(q theta) and sin(q theta) share each level exactly
        disc = Discretization(64)
        energies, vectors = spectral._sector_eigenpairs(np.full(64, 0.7), disc, 5, mirror=True)
        assert energies[1] == energies[2] and energies[3] == energies[4]
        mirror = (-np.arange(64)) % 64
        for i, sign in enumerate([1.0, 1.0, -1.0, 1.0, -1.0]):
            np.testing.assert_allclose(vectors[mirror, i], sign * vectors[:, i], atol=1e-15)

    def test_parity_broken_solve_is_one_block(self, fig3a_geom, disc1024, monkeypatch):
        sizes = _recorded_eigh_sizes(monkeypatch)
        solve_sector(PotentialParams(geom=fig3a_geom, B=0.45, E_static=200.0), disc1024)
        assert sizes == [2 * spectral._RITZ_START + 1]

    @pytest.mark.parametrize("B", [0.1, 0.125])
    def test_near_degenerate_pair_matches_symmetrized_potential(self, fig3b_geom, disc1024, B):
        # levels 4 and 5 are a ring doublet 1.5e-5 (B = 0.1) and 8.5e-5 apart,
        # which a whole-basis solve can mix by roundoff (a 65-mode one moved
        # level 5's localization by 2.8e-10); the split solve keeps them pure
        params = PotentialParams(geom=fig3b_geom, B=B)
        spec = solve_sector(params, disc1024, k=6)
        energies, vectors = _parity_reference(params, disc1024, 6)
        theta = disc1024.theta
        reference = np.sum(vectors[(theta >= np.pi / 2) & (theta <= 3 * np.pi / 2)] ** 2, axis=0)
        assert spec.states[5].localization == pytest.approx(reference[5], rel=0.0, abs=1e-12)
        np.testing.assert_allclose([s.energy for s in spec.states], energies, rtol=1e-10, atol=0.0)

    def test_field_sweeps_converge_in_small_blocks(self, fig3a_geom, fig3b_geom, disc1024,
                                                   monkeypatch):
        # the level diagrams and the window: every solve converges at its
        # first cutoff, in blocks small enough that eigh stays single-threaded
        sizes = _recorded_eigh_sizes(monkeypatch)
        fields = np.linspace(0.0, 2.2, 23)
        spectra = [spec for geom in (fig3a_geom, fig3b_geom)
                   for spec in sweep_field(geom, [0, 1, -1], fields, disc1024)]
        assert len(sizes) == 2 * len(spectra)
        assert max(sizes) <= 25


class TestAssemblyReference:
    """The sector solve's setup tables, in-place fills and single reductions
    against the per-call arithmetic they replaced, bit for bit."""

    @pytest.mark.parametrize("geom, n, order, e_static", [
        ("fig3a", 64, 2, 0.0),
        ("fig3a", 1025, 4, 400.0),
        ("thin", 1024, 2, -300.0),  # grows the basis: several cutoffs
    ])
    def test_ritz_matrix_matches_block_assembly(self, fig3a_geom, monkeypatch, geom, n, order,
                                                e_static):
        eigh, matrices = np.linalg.eigh, []

        def recording_eigh(matrix):
            matrices.append(matrix.copy())
            return eigh(matrix)

        monkeypatch.setattr("torusqubit.spectral.np.linalg.eigh", recording_eigh)
        params = PotentialParams(geom=fig3a_geom if geom == "fig3a" else THIN_GEOM, B=0.45,
                                 E_static=e_static)
        disc = Discretization(n, order)
        solve_sector(params, disc)

        f = np.fft.rfft(spectral._grid_potential(params, disc))
        cos_sums = np.concatenate([f.real, f.real[1 : (n + 1) // 2][::-1]])
        sin_sums = np.concatenate([-f.imag, f.imag[1 : (n + 1) // 2][::-1]])

        def half_sum(sums, p, q, sign):
            return 0.5 * (sums[(p[:, None] - q) % n] + sign * sums[(p[:, None] + q) % n])

        norm_s = math.sqrt(2.0 / n)
        # at E = 0 each cutoff solves its cosine block, then its sine block;
        # otherwise one matrix of both
        split = e_static == 0.0
        solves = zip(matrices[::2], matrices[1::2]) if split else ((m,) for m in matrices)
        for recorded in solves:
            size = recorded[0].shape[0]
            cutoff = size - 1 if split else next(
                c for c in range(n) if c + 1 + min(c, (n - 1) // 2) == size)
            cos_q = np.arange(cutoff + 1)
            sin_q = np.arange(1, min(cutoff, (n - 1) // 2) + 1)
            norm_c = np.where((cos_q == 0) | (2 * cos_q == n), 1.0 / math.sqrt(n), norm_s)
            cc = half_sum(cos_sums, cos_q, cos_q, 1.0) * np.outer(norm_c, norm_c)
            ss = half_sum(cos_sums, sin_q, sin_q, -1.0) * norm_s**2
            cs = -half_sum(sin_sums, cos_q, sin_q, -1.0) * (norm_c[:, None] * norm_s)
            expected = np.block([[cc, cs], [cs.T, ss]])
            freq = np.concatenate([cos_q, sin_q])
            expected[np.diag_indices_from(expected)] += spectral._kinetic_eigenvalues(disc, freq)
            # the diagonal blocks of the reference, and no cosine-sine block at E = 0
            blocks = ((expected[: cos_q.size, : cos_q.size], expected[cos_q.size :, cos_q.size :])
                      if split else (expected,))
            assert [m.tobytes() for m in recorded] == [b.tobytes() for b in blocks]
        assert len(matrices) == (3 if geom == "thin" else 1) * (2 if split else 1)

    def test_ritz_setup_is_shared_and_read_only(self):
        basis = spectral._ritz_basis(Discretization(1024, 4), 32)
        # one table per (n, order, cutoff)
        assert spectral._ritz_basis(Discretization(1024, 4), 32) is basis
        assert spectral._ritz_basis(Discretization(1024, 2), 32) is not basis
        assert not any(array.flags.writeable for array in vars(basis).values())

    @pytest.mark.parametrize("order", [2, 4])
    def test_operator_from_slices_matches_roll(self, order):
        rng = np.random.default_rng(3)
        vectors, v = rng.standard_normal((65, 3)), rng.standard_normal(65)
        stencil = spectral._stencil(Discretization(65, order))
        expected = (stencil[0] + v)[:, None] * vectors
        for d, coupling in enumerate(stencil[1:], start=1):
            expected += coupling * (np.roll(vectors, d, axis=0) + np.roll(vectors, -d, axis=0))
        applied = spectral._apply_operator(stencil, stencil[0] + v, vectors)
        assert applied.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_levels_match_per_level_loop(self, fig3a_geom, n):
        disc = Discretization(n)
        params = PotentialParams(geom=fig3a_geom, B=0.45, E_static=200.0)
        spec = solve_sector(params, disc, k=9)
        _, vectors = spectral._sector_eigenpairs(spectral._grid_potential(params, disc), disc, 9)
        vectors = spectral._fix_signs(vectors)
        inner = (disc.theta >= np.pi / 2) & (disc.theta <= 3 * np.pi / 2)
        for i, state in enumerate(spec.states):
            assert state.localization == float(np.sum(vectors[inner, i] ** 2))
            wavefunction = vectors[:, i] / math.sqrt(disc.spacing)
            assert state.wavefunction.tobytes() == wavefunction.tobytes()


class TestFourierRitzAccuracy:
    """solve_sector against shift-invert Lanczos on the sparse operator."""

    @staticmethod
    def _check_against_sparse(params, disc, k):
        H = sparse_hamiltonian(params, disc)
        scale = float(abs(H).sum(axis=1).max())
        spec = solve_sector(params, disc, k=k)
        energies = np.array([s.energy for s in spec.states])
        vectors = np.array([s.wavefunction for s in spec.states]).T * math.sqrt(disc.spacing)
        residual = np.linalg.norm(H @ vectors - vectors * energies, axis=0)
        assert residual.max() <= 1e-13 * scale
        reference, _ = lanczos_reference(params, disc, k)
        assert np.abs(energies - reference).max() <= 1e-11 * scale

    @pytest.mark.parametrize("n", [64, 1025, 8192])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("preset, B, e_static, m", [
        ("fig3a", 0.0, 0.0, 0),
        ("fig3a", 2.2, 3500.0, -1),
        ("fig3b", 0.45, -3500.0, 2),
        ("fig3b", 1.0, 0.0, 1),
    ])
    def test_presets(self, fig3a_geom, fig3b_geom, n, order, preset, B, e_static, m):
        geom = fig3a_geom if preset == "fig3a" else fig3b_geom
        params = PotentialParams(geom=geom, B=B, E_static=e_static, m_orbital=m)
        self._check_against_sparse(params, Discretization(n, order), k=6)

    @pytest.mark.parametrize("order", [2, 4])
    def test_fifty_levels(self, fig3a_geom, order):
        params = PotentialParams(geom=fig3a_geom, B=0.45, E_static=1000.0)
        self._check_against_sparse(params, Discretization(1024, order), k=50)

    @pytest.mark.parametrize("order", [2, 4])
    def test_thin_torus_grows_the_basis(self, monkeypatch, order):
        sizes = _recorded_eigh_sizes(monkeypatch)
        params = PotentialParams(geom=THIN_GEOM, B=0.45)
        self._check_against_sparse(params, Discretization(1024, order), k=6)
        # the cosine and sine blocks of the 24 starting frequencies, then larger ones
        assert sizes[:2] == [25, 24] and max(sizes) > 25
