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

Bound classification uses both an energy criterion (below the barrier at
theta=0) and a localization criterion (probability weight >= the threshold,
by default 0.6, in the trapping sector theta in [pi/2, 3pi/2]).  The cut
does not fall in a gap between trapped and delocalized states: the states
that set the initialization window's edges carry 0.60-0.64, and the upper
edge, where a level far below the barrier crosses the cut, moves with the
cut and with the grid (fig3a: 0.9789 T at n = 256, 0.9891 T at n = 4096).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (DEFAULT_LOC_THRESHOLD, Discretization, TorusGeometry, check_count,
                    check_loc_threshold)
from .potential import PotentialParams, total_internal

_RITZ_CAP = 600  # most modes a Ritz basis may hold (or 2k + 1): bounds an unconverged solve
# smallest Fourier cutoff of a sector solve.  Over fig3a and fig3b at n = 1024,
# B in [0, 2.2] T and m in {0, +-1}, the worst Ritz tail at 24 is 1.3e-21 and
# 2.4e-17 against _RITZ_TAIL (at 20, 2.2e-11 for fig3b).  Each parity block
# then has at most 25 modes: LAPACK's eigh stays below its divide-and-conquer
# crossover (SMLSIZ = 25) and runs QL/QR, and a threaded BLAS wakes no worker
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
    barrier_energy: float  # V_total at theta=0, internal units

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


def _grid_potential(params: PotentialParams, disc: Discretization) -> np.ndarray:
    v = np.asarray(total_internal(disc.theta, params), dtype=float)
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
    return _apply_operator(stencil, stencil[0] + _grid_potential(params, disc),
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
    worst = float(np.linalg.norm(residuals, axis=0).max())
    tol = 1e-9 * norm
    if unconverged is not None:
        raise EigensolverError(f"{unconverged}; residual {worst:.3e}", residual=worst)
    if worst > tol:
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


@dataclass(frozen=True)
class _RitzBasis:
    """Read-only setup of one Ritz block: the grid Fourier modes q <= cutoff
    of one parity, or of both.

    Entry (a, b) of the block's Ritz matrix of diag(v) is
    0.5 * (sums[first[a, b]] + sums[second[a, b]]) * scale[a, b], where sums
    stacks the cosine sums, the sine sums and their negatives (blocks of n,
    in that order) at the frequency indices (p - q) mod n and (p + q) mod n
    of the two modes p and q.  A cosine-sine entry is negated through its
    scale, which is exact.  The even block holds the cosines alone, the odd
    block the sines alone, and the whole basis both; each block's entries
    equal those of the whole basis bit for bit.
    """

    cos_q: np.ndarray  # frequencies of the cosine modes, 0 .. cutoff (none in the odd block)
    sin_q: np.ndarray  # of the sine modes, 1 .. cutoff, no Nyquist sine (none in the even block)
    norm_c: np.ndarray  # (cos_q.size, 1) normalizations of the cosines
    first: np.ndarray
    second: np.ndarray
    scale: np.ndarray
    kinetic: np.ndarray  # kinetic-stencil eigenvalue of each mode: the Ritz diagonal
    top: np.ndarray  # mask of the modes in the top quarter of the frequencies


@functools.lru_cache(maxsize=16)
def _ritz_basis(disc: Discretization, cutoff: int, parity: int = 0) -> _RitzBasis:
    """The _RitzBasis of the modes q <= cutoff on disc: the cosines for
    parity 1, the sines for parity -1, both for 0.  One per (n, order,
    cutoff, parity); a sweep builds it once."""
    n = disc.n_points
    cos_q = np.arange(cutoff + 1 if parity >= 0 else 0)
    sin_q = np.arange(1, min(cutoff, (n - 1) // 2) + 1 if parity <= 0 else 1)
    norm_s = math.sqrt(2.0 / n)  # of every sine, and of the cosines but q = 0 and q = n / 2
    norm_c = np.where((cos_q == 0) | (2 * cos_q == n), 1.0 / math.sqrt(n), norm_s)[:, None]

    def layout(cc, cs, ss):
        """The Ritz matrix of its cosine-cosine, cosine-sine and sine-sine blocks."""
        return np.block([[cc, cs], [cs.T, ss]])

    first = layout((cos_q[:, None] - cos_q) % n, n + (cos_q[:, None] - sin_q) % n,
                   (sin_q[:, None] - sin_q) % n)
    second = layout((cos_q[:, None] + cos_q) % n, 3 * n + (cos_q[:, None] + sin_q) % n,
                    2 * n + (sin_q[:, None] + sin_q) % n)
    scale = layout(norm_c * norm_c.T, np.broadcast_to(-norm_c * norm_s, (cos_q.size, sin_q.size)),
                   np.full((sin_q.size, sin_q.size), norm_s**2))
    freq = np.concatenate([cos_q, sin_q])
    basis = _RitzBasis(cos_q, sin_q, norm_c, first, second, scale,
                       _kinetic_eigenvalues(disc, freq), freq > 0.75 * cutoff)
    for array in vars(basis).values():
        array.flags.writeable = False
    return basis


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
    block holds only roundoff and is never formed: the cosine block (K + 1
    modes) and the sine block (K modes) are solved apart, and their levels
    merged by a stable sort, even first on an exact tie, so every vector is
    even or odd by construction.  Otherwise one block holds all 2K + 1 modes.
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
    # sum_j v_j cos(q theta_j) and sum_j v_j sin(q theta_j) for q = 0 .. n-1,
    # then their negatives: the sums of _RitzBasis
    sums = np.concatenate([f.real, f.real[1 : (n + 1) // 2][::-1],
                           -f.imag, f.imag[1 : (n + 1) // 2][::-1]])
    sums = np.concatenate([sums, -sums])
    cap = max(_RITZ_CAP, 2 * k + 1)
    limit = n // 2 if n <= cap else (cap - 1) // 2
    cutoff = min(max(_RITZ_START, k), limit)
    parities = (1, -1) if mirror else (0,)
    while True:
        blocks, levels, tails = [], [], []
        for parity in parities:
            basis = _ritz_basis(disc, cutoff, parity)
            ritz = (sums[basis.first] + sums[basis.second]) * 0.5 * basis.scale
            ritz.ravel()[:: ritz.shape[0] + 1] += basis.kinetic
            values, coeffs = np.linalg.eigh(ritz)
            blocks.append((basis, coeffs[:, :k]))
            levels.append(values[:k])
            tails.append(np.sum(coeffs[basis.top, :k] ** 2, axis=0))
        levels = np.concatenate(levels)
        order = np.argsort(levels, kind="stable")[:k]
        tail = float(np.max(np.concatenate(tails)[order]))
        converged = cutoff == n // 2 or tail <= _RITZ_TAIL
        if converged or cutoff == limit:
            break
        cutoff = min(2 * cutoff, limit)

    columns = []
    for basis, coeffs in blocks:
        spectrum = np.zeros((n // 2 + 1, coeffs.shape[1]), dtype=complex)
        spectrum[basis.cos_q] = coeffs[: basis.cos_q.size] / basis.norm_c
        # the sine normalization is sqrt(2 / n)
        spectrum[basis.sin_q] -= 1j * coeffs[basis.cos_q.size :] / math.sqrt(2.0 / n)
        columns.append(spectrum)
    vectors = np.fft.irfft(np.concatenate(columns, axis=1)[:, order], n, axis=0)
    energies = levels[order]

    stencil = _stencil(disc)
    diagonal = stencil[0] + v
    unconverged = None if converged else (
        f"Fourier basis reached its cap of {sum(basis.kinetic.size for basis, _ in blocks)} modes"
        f" with Ritz tail weight {tail:.3e}")
    _check_residuals(_apply_operator(stencil, diagonal, vectors) - vectors * energies,
                     float(np.abs(diagonal).max()) + 2.0 * sum(map(abs, stencil[1:])), unconverged)
    return energies, vectors


def solve_sector(
    params: PotentialParams,
    disc: Discretization,
    k: int = 6,
    loc_threshold: float = DEFAULT_LOC_THRESHOLD,
) -> Spectrum:
    """Lowest-k spectrum of one orbital sector, with bound classification.

    The eigenpairs come from Rayleigh-Ritz in the grid Fourier modes
    (_sector_eigenpairs), in numpy alone and with no n x n matrix unless
    n <= max(600, 2k + 1) (the Ritz basis cap), in parity blocks when
    params.E_static == 0; they meet the residual contract of
    lowest_eigenpairs, the dense reference of the same operator.  Each
    wavefunction's largest sample in theta in (0, pi) is positive (_fix_signs).
    An EigensolverError is re-raised naming the point: B, E unless zero, and m.
    """
    check_loc_threshold(loc_threshold)
    check_count(k, "k", 1, disc.n_points)
    try:
        # only the static electric field, V_E = -f sin(theta), breaks the mirror theta -> -theta
        energies, unsigned = _sector_eigenpairs(_grid_potential(params, disc), disc, k,
                                                mirror=params.E_static == 0)
    except EigensolverError as exc:
        field = f", E={params.E_static!r}" if params.E_static else ""
        raise EigensolverError(f"eigensolve failed at B={params.B!r}{field},"
                               f" m={params.m_orbital}: {exc}", residual=exc.residual) from exc
    waves = np.ascontiguousarray(_fix_signs(unsigned).T)  # one level per row
    # theta in [pi/2, 3pi/2] as a slice: a row gather would sum in another order
    theta = disc.theta
    inner = slice(theta.searchsorted(np.pi / 2), theta.searchsorted(3 * np.pi / 2, "right"))
    localizations = np.sum(waves[:, inner] ** 2, axis=1)
    waves /= math.sqrt(disc.spacing)
    barrier = float(total_internal(0.0, params))

    states = []
    for i in range(k):
        energy, loc = float(energies[i]), float(localizations[i])
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
    k: int = 6,
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
    B_scan_max: float = 2.0,
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
    first_two = past = None
    for i, B in enumerate(grid):
        counts.append(count(float(B)))
        if first_two is None and counts[i] == 2:
            first_two = i
        elif first_two is not None and counts[i] > 2:
            past = i
            break
    if first_two is None:
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

    b_min = bisect(first_two, lambda c: c >= 2)[1] if first_two else 0.0
    b_max = bisect(past, lambda c: c != 2)[0] if past is not None else float(grid[-1])
    return b_min, b_max
