"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the eigenvalue oracle is
a hand-rolled cyclic Jacobi diagonalization (no LAPACK), the large-grid
reference solve is shift-invert Lanczos (ARPACK) on a sparse assembly of the
operator, and the ensemble infidelity oracle is deterministic quadrature over
the Bloch sphere (no Monte Carlo, no reuse of the package's sampling).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusqubit import spectral

# CODATA 2018, typed here independently of the package.
HBAR_SI = 1.054571817e-34
E_CHARGE_SI = 1.602176634e-19
ELECTRON_MASS_SI = 9.1093837015e-31


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    scale = np.abs(a).max() or 1.0
    for _ in range(sweeps):
        off = np.sqrt((a**2).sum() - (np.diag(a) ** 2).sum())
        if off < tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def sparse_hamiltonian(params, disc) -> sp.csr_array:
    """spectral.build_hamiltonian in CSR form, from the same stencil and grid
    potential: the reference operator at grids where n x n floats do not fit."""
    n = disc.n_points
    stencil = spectral._stencil(disc)
    offsets, diagonals = [0], [stencil[0] + spectral._grid_potential(params, disc.theta)]
    for d, coupling in enumerate(stencil[1:], start=1):
        # neighbours at distance d: two bands plus their cyclic corners
        offsets += [d, -d, n - d, d - n]
        diagonals += [coupling] * 4
    return sp.diags_array(diagonals, offsets=offsets, shape=(n, n), format="csr")


def lanczos_lowest(matrix, k: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenvalues (ascending) and unit eigenvectors of a sparse
    real symmetric matrix, by shift-invert Lanczos about shift.

    shift must lie strictly below the whole spectrum, so that the k
    eigenvalues of largest magnitude of (H - shift)^-1 are the k lowest of H;
    Lanczos converges the faster the closer it lies to the lowest level.
    """
    n = matrix.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))  # fixed start for reproducibility
    energies, vectors = spla.eigsh(matrix, k=k, sigma=shift, which="LM", v0=v0)
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def lanczos_reference(params, disc, k: int) -> tuple[np.ndarray, np.ndarray]:
    """lanczos_lowest on sparse_hamiltonian(params, disc).  Both kinetic
    stencils are positive semidefinite, so min V - 1 lies below the spectrum;
    a Gershgorin bound lies far lower and makes fourth-order Lanczos slow."""
    shift = float(np.min(spectral._grid_potential(params, disc.theta))) - 1.0
    return lanczos_lowest(sparse_hamiltonian(params, disc), k, shift)


def bloch_sphere_states(n_polar: int = 128, n_azimuth: int = 128):
    """Gauss-Legendre x trapezoid quadrature nodes/weights on the sphere.

    Returns (states, weights): states is (N, 2) complex, weights sum to 1.
    The azimuth rule is exact for trigonometric polynomials (periodic
    trapezoid), the polar rule Gauss-Legendre in z = cos(theta).
    """
    z_nodes, z_weights = np.polynomial.legendre.leggauss(n_polar)
    azimuths = np.arange(n_azimuth) * (2.0 * np.pi / n_azimuth)
    z = np.repeat(z_nodes, n_azimuth)
    phi = np.tile(azimuths, n_polar)
    w = np.repeat(z_weights, n_azimuth) / (2.0 * n_azimuth)
    states = np.empty((z.size, 2), dtype=complex)
    states[:, 0] = np.sqrt((1.0 + z) / 2.0)
    states[:, 1] = np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)
    return states, w


PHI = (1 + math.sqrt(5)) / 2
# the 12 vertices of the icosahedron, a spherical 5-design: their average of
# a polynomial of degree <= 5 in the unit vector is its average over the sphere
ICOSAHEDRON = np.array([np.roll((0.0, a, b * PHI), k) for k in range(3)
                        for a in (1, -1) for b in (1, -1)]) / math.hypot(1.0, PHI)


def sphere_mean_infidelity(u_ideal: np.ndarray, u_pert: np.ndarray,
                           n_polar: int = 128, n_azimuth: int = 128) -> float:
    """Quadrature average of 1 - |<psi| U_ideal^dag U_pert |psi>|^2."""
    m = u_ideal.conj().T @ u_pert
    states, weights = bloch_sphere_states(n_polar, n_azimuth)
    overlap = np.einsum("ni,ij,nj->n", states.conj(), m, states)
    return float(np.sum(weights * (1.0 - np.abs(overlap) ** 2)))


def sphere_mean_infidelity_closed_form(u_ideal: np.ndarray, u_pert: np.ndarray) -> float:
    """(2/3) sin^2(chi) with chi the rotation angle of U_ideal^dag U_pert.

    For M = e^{i gamma}(cos chi - i sin chi n.sigma), |<psi|M|psi>|^2 =
    cos^2 chi + sin^2 chi (n.r)^2 and the Haar mean of (n.r)^2 is 1/3.
    """
    m = u_ideal.conj().T @ u_pert
    cos_chi = abs(np.trace(m)) / 2.0
    return (2.0 / 3.0) * max(0.0, 1.0 - cos_chi**2)
