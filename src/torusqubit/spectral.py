"""Periodic 1D Schrodinger eigensolver and bound-state classification.

The tube-angle Hamiltonian H = -d^2/dtheta^2 + V(theta) (internal units) is
discretized with central differences on a uniform periodic grid, giving a
real symmetric matrix with cyclic corner entries.  The grid Fourier modes
cos(q theta) and sin(q theta) are exact eigenvectors of its kinetic part, so
each orbital sector is solved by Rayleigh-Ritz in the lowest of those modes,
in numpy alone and with no n x n matrix unless n <= max(600, 2k + 1).  At
zero static electric field the potential is mirror-symmetric, and the cosine
and sine modes are solved as two blocks, so every state is even or odd.  The
levels are classified as bound or ring-delocalized, and sweeps over the
external magnetic field locate the qubit initialization window (the field
interval with exactly two bound m=0 states).  build_hamiltonian and
lowest_eigenpairs are a dense numpy reference of the same operator, for
small grids and the tests; no sector solve uses them.

Bound classification uses both an energy criterion (below the barrier: the
grid potential's theta = 0 sample, the value the solve used) and a
localization criterion (probability weight >= the threshold, by default 0.6,
in the trapping sector theta in [pi/2, 3pi/2]).  The cut does not fall in a
gap between trapped and delocalized states: the states that set the
initialization window's edges carry 0.60-0.64, and the upper edge, where a
level far below the barrier crosses the cut, moves with the cut and with
the grid (fig3a: 0.9789 T at n = 256, 0.9891 T at n = 4096).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DEFAULT_LEVELS, DEFAULT_LOC_THRESHOLD, DEFAULT_SCAN_MAX, Discretization,
                    TorusGeometry, check_count, check_loc_threshold)
from .potential import PotentialParams, total_internal

_RITZ_CAP = 600  # most modes a Ritz basis may hold (or 2k + 1): bounds an unconverged solve
# smallest Fourier cutoff of a sector solve.  Over fig3a and fig3b at n = 1024,
# B in [0, 2.2] T and m in {0, +-1}, the worst Ritz tail at 24 is 1.3e-21 and
# 2.4e-17 against _RITZ_TAIL (at 20, 2.2e-11 for fig3b).  A parity block of at
# most 25 modes runs eigh's QL/QR (below SMLSIZ = 25), which wakes no BLAS worker;
# k > 24 or a doubled cutoff runs divide-and-conquer, whose BLAS calls can wake
# OpenBLAS workers: at 2 BLAS threads eigh wakes one from 26 rows up, and a
# parity-broken solve's single block starts at 49 rows.
_RITZ_START = 24
_RITZ_TAIL = 1e-14  # converged: most weight any Ritz vector keeps in the top quarter of the modes


class EigensolverError(RuntimeError):
    """Raised when no eigensolver path meets the residual contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class WindowNotFoundError(RuntimeError):
    """Raised when no two-bound-state field window exists in the scan range."""


@dataclass(frozen=True)
class BoundState:
    """One eigenpair of a sector, with its localization and bound flag.

    The wavefunction is real, sampled on the grid, and L2-normalized so that
    sum(|chi|^2) * h = 1.  localization is the probability weight in the
    trapping sector theta in [pi/2, 3pi/2].
    """

    m_orbital: int
    level_index: int
    energy: float  # internal units
    wavefunction: np.ndarray
    localization: float
    bound: bool


@dataclass(frozen=True)
class Spectrum:
    """Sorted bound-state ladder of one sector at one field point."""

    params: PotentialParams
    states: tuple[BoundState, ...]
    barrier_energy: float  # the solve's grid potential at theta = 0, internal units

    @property
    def n_bound(self) -> int:
        return sum(1 for s in self.states if s.bound)


def _stencil(disc: Discretization) -> tuple[float, ...]:
    """Kinetic stencil of -d^2/dtheta^2: the diagonal, then the coupling to
    the neighbours at distance 1 (and 2 for the fourth-order stencil)."""
    h = disc.spacing
    if disc.stencil_order == 2:
        return (2.0 / h**2, -1.0 / h**2)
    c = 1.0 / (12.0 * h**2)
    return (30.0 * c, -16.0 * c, 1.0 * c)


def _grid_potential(params: PotentialParams, theta: np.ndarray) -> np.ndarray:
    v = np.asarray(total_internal(theta, params), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential evaluated to non-finite values")
    return v


def build_hamiltonian(params: PotentialParams, disc: Discretization) -> np.ndarray:
    """Dense real symmetric Hamiltonian in internal units, n x n.

    Kinetic part: -(d^2/dtheta^2) via central differences with periodic
    wraparound (the corner entries); potential on the diagonal.  It is the
    operator the residual check of the sector solve applies, column by column.
    """
    stencil = _stencil(disc)
    return _apply_operator(stencil, stencil[0] + _grid_potential(params, disc.theta),
                           np.eye(disc.n_points))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector sign: on a periodic grid of n points, the
    largest-magnitude entry among rows 1 .. (n - 1) // 2 (theta in (0, pi))
    is positive.  Odd states have |chi(theta)| = |chi(-theta)|, so a rule
    over the whole ring would leave their sign to roundoff.  For n = 2 the
    rule reads row 1, and for n = 1 row 0."""
    out = vectors.copy()
    window = out[min(1, len(out) - 1) : max(2, (len(out) + 1) // 2)]
    flip = window[np.argmax(np.abs(window), axis=0), np.arange(out.shape[1])] < 0
    out[:, flip] *= -1.0
    return out


def lowest_eigenpairs(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenvalues (ascending) with orthonormal eigenvectors of a
    dense real symmetric matrix, by LAPACK's eigh on the whole matrix.

    The contract is the residual bound ||H v - lambda v|| <= 1e-9 ||H||_inf;
    EigensolverError carries the worst residual when it fails.  Each
    eigenvector's sign follows _fix_signs, the half-ring rule of solve_sector.
    """
    H = np.asarray(matrix, dtype=float)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("matrix must be square")
    check_count(k, "k", 1, n)
    if not np.array_equal(H, H.T):
        raise ValueError("matrix must be exactly symmetric")

    energies, vectors = np.linalg.eigh(H)
    energies, vectors = energies[:k], vectors[:, :k]
    _check_residuals(H @ vectors - vectors * energies, float(np.abs(H).sum(axis=1).max()))
    return energies, _fix_signs(vectors)


def _check_residuals(residuals: np.ndarray, norm: float, unconverged: str | None = None) -> None:
    """The contract of both solvers: each column H v - lambda v of residuals has norm
    <= 1e-9 norm, where norm >= ||H||_inf >= ||H||_2.  EigensolverError carries the worst
    norm when the contract fails, or whatever it is when unconverged says why the pairs fail."""
    # taken over norm and scaled back: a residual past 1e154 squares to inf, its norm is finite
    worst = float(np.linalg.norm(residuals / (norm or 1.0), axis=0).max()) * norm
    tol = 1e-9 * norm
    if unconverged is not None:
        raise EigensolverError(f"{unconverged}; residual {worst:.3e}", residual=worst)
    if not worst <= tol:  # a NaN residual fails too
        raise EigensolverError(f"eigensolver residual {worst:.3e} exceeds contract {tol:.3e}",
                               residual=worst)


def _kinetic_eigenvalues(disc: Discretization, q: np.ndarray) -> np.ndarray:
    """Kinetic-stencil eigenvalue of the grid modes cos(q theta), sin(q theta).

    (2 - 2 cos qh) / h^2 and (30 - 32 cos qh + 2 cos 2qh) / (12 h^2), written
    with squared sines so that the low modes keep their relative accuracy.
    """
    h = disc.spacing
    half = np.sin(0.5 * q * h) ** 2
    if disc.stencil_order == 2:
        return 4.0 * half / h**2
    return (16.0 * half - np.sin(q * h) ** 2) / (3.0 * h**2)


def _apply_operator(stencil: tuple[float, ...], diagonal: np.ndarray,
                    vectors: np.ndarray) -> np.ndarray:
    """The periodic stencil operator with the given diagonal applied to the
    columns of vectors, each neighbour row taken from a slice."""
    n, reach = vectors.shape[0], len(stencil) - 1
    # the rows -reach .. n - 1 + reach of the periodic grid
    ring = np.concatenate([vectors[n - reach :], vectors, vectors[:reach]])
    applied = diagonal[:, None] * vectors
    for d, coupling in enumerate(stencil[1:], start=1):
        applied += coupling * (ring[reach - d : reach - d + n] + ring[reach + d : reach + d + n])
    return applied


def _sector_eigenpairs(
    v: np.ndarray, disc: Discretization, k: int, mirror: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs (ascending, unit-norm grid vectors) of the periodic
    stencil operator plus diag(v), by Rayleigh-Ritz in grid Fourier modes.

    The real orthonormal modes sqrt(2/n) cos(q theta_j) and sqrt(2/n)
    sin(q theta_j) (1/sqrt(n) for q = 0 and the Nyquist cosine) are
    eigenvectors of the kinetic part.  One FFT of v gives every element
    <mode|diag(v)|mode'> through cos a cos b = [cos(a-b) + cos(a+b)]/2 and its
    sine analogues, so the Ritz matrix of the modes q <= K costs no n x n
    work (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).  When v is
    mirror-symmetric, v(theta_j) = v(theta_{n-j}) (mirror), the cosine-sine
    block holds only roundoff and is left out of the solve: the cosine block
    (K + 1 modes) and the sine block (K modes) are solved apart, and their
    levels sorted together by a stable sort, even first on an exact tie, so
    every vector is even or odd by construction.  Otherwise all 2K + 1 modes
    are solved together.
    K starts at max(_RITZ_START, k) and doubles until the k merged Ritz
    vectors carry at most 1e-14 of weight in the top quarter of the
    frequencies; at K = n // 2 the basis is complete and the solve exact.
    The basis never exceeds max(_RITZ_CAP, 2k + 1) modes: a potential the
    modes cannot resolve fails after an eigh of at most that order, and a
    k-level solve always has room for k levels.

    The contract is that of lowest_eigenpairs, ||H v - lambda v|| <= 1e-9
    ||H||_inf, checked on the grid; EigensolverError carries the worst
    residual when the contract fails or the basis reaches its cap first.
    """
    n = disc.n_points
    f = np.fft.rfft(v)
    # sum_j v_j cos(q theta_j) and sum_j v_j sin(q theta_j) for q = 0 .. n-1
    cos_sums = np.concatenate([f.real, f.real[1 : (n + 1) // 2][::-1]])
    sin_sums = np.concatenate([-f.imag, f.imag[1 : (n + 1) // 2][::-1]])
    norm_s = math.sqrt(2.0 / n)  # of every sine, and of the cosines but q = 0 and q = n / 2
    cap = max(_RITZ_CAP, 2 * k + 1)
    limit = n // 2 if n <= cap else (cap - 1) // 2
    cutoff = min(max(_RITZ_START, k), limit)
    while True:
        q = np.arange(cutoff + 1)  # frequencies of the cosine modes, first in the basis
        sines = slice(1, min(cutoff, (n - 1) // 2) + 1)  # q[sines], of the sines: no Nyquist sine
        norm_c = np.where((q == 0) | (2 * q == n), 1.0 / math.sqrt(n), norm_s)
        freq = np.concatenate([q, q[sines]])
        even = q.size
        # <p|diag(v)|q> from the sums at (p - q) mod n and (p + q) mod n, times both normalizations
        diff, total = (q[:, None] - q) % n, (q[:, None] + q) % n
        ritz = np.zeros((freq.size, freq.size))
        at_diff, at_total = cos_sums[diff], cos_sums[total]
        ritz[:even, :even] = (at_diff + at_total) * 0.5 * np.outer(norm_c, norm_c)
        ritz[even:, even:] = (at_diff - at_total)[sines, sines] * 0.5 * norm_s**2
        if not mirror:  # for a mirror-symmetric v the cosine-sine block holds only roundoff
            # cos(p theta) sin(q theta) = [sin((p + q) theta) - sin((p - q) theta)] / 2
            diff, total = diff[:, sines], total[:, sines]
            ritz[:even, even:] = -((sin_sums[diff] - sin_sums[total]) * 0.5
                                   * (norm_c[:, None] * norm_s))
            ritz[even:, :even] = ritz[:even, even:].T
        ritz.ravel()[:: freq.size + 1] += _kinetic_eigenvalues(disc, freq)
        levels, coeffs = np.empty(freq.size), np.zeros_like(ritz)
        for block in (slice(None, even), slice(even, None)) if mirror else (slice(None),):
            levels[block], coeffs[block, block] = np.linalg.eigh(ritz[block, block])
        order = np.argsort(levels, kind="stable")[:k]
        tail = float(np.max(np.sum(coeffs[freq > 0.75 * cutoff] ** 2, axis=0)[order]))
        converged = cutoff == n // 2 or tail <= _RITZ_TAIL
        if converged or cutoff == limit:
            break
        cutoff = min(2 * cutoff, limit)

    coeffs = coeffs[:, order]
    spectrum = np.zeros((n // 2 + 1, k), dtype=complex, order="F")
    spectrum[q] = coeffs[:even] / norm_c[:, None]
    spectrum[q[sines]] -= 1j * coeffs[even:] / norm_s
    vectors = np.fft.irfft(spectrum, n, axis=0)
    energies = levels[order]

    stencil = _stencil(disc)
    diagonal = stencil[0] + v
    unconverged = None if converged else (
        f"Fourier basis reached its cap of {len(ritz)} modes with Ritz tail weight {tail:.3e}")
    _check_residuals(_apply_operator(stencil, diagonal, vectors) - vectors * energies,
                     float(np.abs(diagonal).max()) + 2.0 * sum(map(abs, stencil[1:])), unconverged)
    return energies, vectors


def solve_sector(
    params: PotentialParams,
    disc: Discretization,
    k: int = DEFAULT_LEVELS,
    loc_threshold: float = DEFAULT_LOC_THRESHOLD,
) -> Spectrum:
    """Lowest-k spectrum of one orbital sector, with bound classification.

    The eigenpairs come from Rayleigh-Ritz in the grid Fourier modes
    (_sector_eigenpairs), in numpy alone and with no n x n matrix unless
    n <= max(600, 2k + 1) (the Ritz basis cap), in parity blocks when
    params.E_static == 0; they meet the residual contract of
    lowest_eigenpairs, the dense reference of the same operator.  Each
    wavefunction's largest sample in theta in (0, pi) is positive (_fix_signs).
    Every failure names the point (B, E unless zero, and m): a potential that
    is not finite as a ValueError, and every eigensolve failure, LAPACK's
    LinAlgError included (with residual None), as an EigensolverError.  An
    overflow or NaN on the way raises no numpy warning: the failure it causes,
    in the finiteness test, LAPACK or the contract, is its one report.
    """
    check_loc_threshold(loc_threshold)
    check_count(k, "k", 1, disc.n_points)
    field = f", E={params.E_static!r}" if params.E_static else ""
    point = f"B={params.B!r}{field}, m={params.m_orbital}"
    theta = disc.theta
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails below
            v = _grid_potential(params, theta)
            # only the static electric field, V_E = -f sin(theta), breaks the mirror theta -> -theta
            energies, unsigned = _sector_eigenpairs(v, disc, k, mirror=params.E_static == 0)
    except (EigensolverError, np.linalg.LinAlgError) as exc:  # LAPACK's names no residual
        raise EigensolverError(f"eigensolve failed at {point}: {exc}",
                               getattr(exc, "residual", None)) from exc
    except ValueError as exc:  # a potential that is not finite
        raise ValueError(f"{exc} at {point}") from None
    waves = np.ascontiguousarray(_fix_signs(unsigned).T)  # one level per row
    # theta in [pi/2, 3pi/2] as a slice: a row gather would sum in another order
    inner = slice(theta.searchsorted(np.pi / 2), theta.searchsorted(3 * np.pi / 2, "right"))
    localizations = np.sum(waves[:, inner] ** 2, axis=1)
    waves /= math.sqrt(disc.spacing)
    barrier = float(v[0])  # theta[0] = 0 on every grid

    states = []
    for i, (energy, loc) in enumerate(zip(energies.tolist(), localizations.tolist())):
        states.append(BoundState(
            m_orbital=params.m_orbital,
            level_index=i,
            energy=energy,
            wavefunction=waves[i],
            localization=loc,
            # bound: below the theta=0 barrier and localized in the trapping sector
            bound=energy < barrier and loc >= loc_threshold,
        ))
    return Spectrum(params=params, states=tuple(states), barrier_energy=barrier)


def sweep_field(
    geom: TorusGeometry,
    m_list: list[int],
    field_values: np.ndarray,
    disc: Discretization,
    field: str = "B",
    k: int = DEFAULT_LEVELS,
    loc_threshold: float = DEFAULT_LOC_THRESHOLD,
) -> list[Spectrum]:
    """One Spectrum per (field value, m sector), ordered by field then m.

    field selects which knob the values sweep: the static magnetic field "B"
    or a static electric field "E".  Eigensolver failures propagate with the
    offending field value attached.
    """
    if field not in ("B", "E"):
        raise ValueError("field must be 'B' or 'E'")
    key = "B" if field == "B" else "E_static"
    return [solve_sector(PotentialParams(geom=geom, m_orbital=m, **{key: float(value)}), disc,
                         k=k, loc_threshold=loc_threshold)
            for value in field_values for m in m_list]


def initialization_window(
    geom: TorusGeometry,
    disc: Discretization,
    B_scan_max: float = DEFAULT_SCAN_MAX,
    loc_threshold: float = DEFAULT_LOC_THRESHOLD,
) -> tuple[float, float]:
    """Field interval [B_min, B_max] with exactly two bound m=0 states.

    A coarse scan of 41 points over [0, B_scan_max], in increasing field,
    locates the first region with a two-state count.  It stops at the first
    point past that region with more than two bound states, and solves no
    point beyond it; it runs to B_scan_max only when no such point exists.
    Both edges are then bisected to 1e-3 T; an eigensolve failure names its
    field (solve_sector).  Raises WindowNotFoundError when the two-state
    condition never occurs.
    """

    def count(B: float) -> int:
        """Number of bound states in the m=0 sector at field B."""
        return solve_sector(PotentialParams(geom=geom, B=B), disc, loc_threshold=loc_threshold).n_bound

    grid = np.linspace(0.0, B_scan_max, 41)
    counts: list[int] = []
    for B in grid:
        counts.append(count(float(B)))
        if counts[-1] > 2 and 2 in counts:
            break
    if 2 not in counts:
        raise WindowNotFoundError(
            f"no field in [0, {B_scan_max}] T yields exactly two bound m=0 states"
            f" (counts seen: {sorted(set(counts))})"
        )

    def bisect(i: int, beyond) -> tuple[float, float]:
        """Shrink [grid[i-1], grid[i]] to 1e-3 T; beyond(count) marks the upper side."""
        lo, hi = float(grid[i - 1]), float(grid[i])
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if beyond(count(mid)):
                hi = mid
            else:
                lo = mid
        return lo, hi

    b_min = 0.0 if counts[0] == 2 else bisect(counts.index(2), lambda c: c >= 2)[1]
    b_max = bisect(len(counts) - 1, lambda c: c != 2)[0] if counts[-1] > 2 else float(grid[-1])
    return b_min, b_max
