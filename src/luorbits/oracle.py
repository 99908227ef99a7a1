"""Numerical verification of orbit dimensions and symplectic rank.

Everything here is computed by plain linear algebra on fundamental vector
fields: the real rank of the projected tangent collection gives the orbit
dimension, and the rank of the symplectic Gram form gives the rank of the
projective-space two-form restricted to the orbit.  No closed-form dimension
formula enters, so these routines serve as an independent check of the
stratum classification.

Boson and fermion tangents live in Sym(N) or Alt(N), so they are stored by
their upper triangle with off-diagonal entries weighted by sqrt(2).  Entries
(r, k) and (k, r) agree up to sign, so sqrt(2) times one of them carries the
pair's share of every inner product: packing is an isometry, and projections,
singular values and Gram matrices are those of the full N x N coordinates.
Distinguishable tangents come in two groups, xi (x) 1 and 1 (x) eta.  The two
commute, and Im <A v, B v> is proportional to <v, [A, B] v>, so the two-form
between the groups vanishes and the Gram splits into one block per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .moment import reduced_matrix
from .states import QuantumState, check_tolerance
from .strata import DEFAULT_CLUSTER_TOL, orbit_invariants

DEFAULT_RANK_TOL = 1e-9
_AMBIGUOUS = "{}: singular value within a factor of 10 of the rank threshold"


@dataclass(frozen=True)
class OracleReport:
    """Numeric orbit/symplectic data next to the formula predictions."""

    orbit_dim_numeric: int
    symplectic_rank_numeric: int
    degeneracy_numeric: int
    formula_orbit_dim: int
    formula_degeneracy: int
    agree: bool
    rank_tolerance_used: float
    warnings: tuple[str, ...] = ()


@lru_cache(maxsize=16)
def su_basis(n: int) -> np.ndarray:
    """Real basis of su(N), stacked (N^2-1, N, N): i-diagonals, then (re, im) off-diagonal pairs.

    Built once per N and shared, so the array is read-only.
    """
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    k = np.arange(n - 1)
    basis[k, k, k] = 1j
    basis[k, k + 1, k + 1] = -1j
    rows, cols = np.triu_indices(n, 1)
    re = n - 1 + 2 * np.arange(len(rows))
    basis[re, rows, cols] = 1.0
    basis[re, cols, rows] = -1.0
    basis[re + 1, rows, cols] = 1j
    basis[re + 1, cols, rows] = 1j
    basis.setflags(write=False)
    return basis


def _acted_vectors(state: QuantumState):
    """rho(xi_a) C over the su(N) basis, shaped (groups, N^2-1, dim), and C in the same coordinates.

    Bosons and fermions form one group, packed to the upper triangle of
    Sym(N) or Alt(N); distinguishable particles form two, one per tensor leg.
    C is exactly (anti)symmetric after validation, so C xi^t = sign (xi C)^t
    and the congruence action needs only the one product xi C.
    """
    c = state.coeffs
    basis = su_basis(state.n_levels)
    left = basis @ c
    sign = state.case.symmetry_sign
    if sign is None:
        acted = np.concatenate([left, c @ basis.transpose(0, 2, 1)])
        return acted.reshape(2, len(basis), -1), c.ravel()
    # a boolean mask picks the upper triangle in row-major order, like
    # np.triu_indices, and gathers faster than index arrays do
    idx = np.arange(state.n_levels)
    upper = idx - idx[:, None] >= (0 if sign == 1 else 1)
    weight = np.where(idx == idx[:, None], 1.0, np.sqrt(2.0))[upper]
    acted = (left[:, upper] + sign * left.transpose(0, 2, 1)[:, upper]) * weight
    return acted[np.newaxis], c[upper] * weight


def _thresholded_rank(svals: np.ndarray, rank_tol: float, scale_floor: float = 0.0):
    """Count singular values above rank_tol * scale; returns (rank, ambiguous).

    ``scale_floor`` guards the all-zero case: a form that vanishes on the
    whole orbit leaves only noise-level singular values, which must not be
    measured against their own maximum.
    """
    smax = max(svals.max(initial=0.0), scale_floor)
    if smax == 0.0:
        return 0, False
    threshold = rank_tol * smax
    rank = int(np.count_nonzero(svals > threshold))
    ambiguous = bool(np.any((svals >= threshold / 10) & (svals <= threshold * 10)))
    return rank, ambiguous


def _orbit_rank(acted: np.ndarray, c: np.ndarray, rank_tol: float):
    """(rank, ambiguous) of all acted vectors together, projected off the state c.

    The groups' tangent spaces overlap, so their rows go into one SVD.
    """
    rows = acted.reshape(-1, acted.shape[-1])
    tangents = rows - np.outer(rows @ c.conj(), c)
    # interleaved (re, im) columns: an orthogonal permutation of [re | im]
    svals = np.linalg.svd(tangents.view(float), compute_uv=False)
    return _thresholded_rank(svals, rank_tol)


def _symplectic_rank(acted: np.ndarray, rank_tol: float):
    """(rank, ambiguous) of the two-form -Im <xi C, eta C> over the algebra basis.

    For anti-Hermitian representations <v, [xi, eta] v> = <xi v, eta v> - conj,
    so the projective two-form on the orbit is the imaginary part of the Gram
    matrix of the acted vectors; isotropy and phase directions land in its
    kernel automatically.  With A = X + iY, -Im(conj(A) A^t) = K^t - K for
    K = X Y^t, one real product.  Elements of different groups commute, so
    [xi, eta] = 0 makes their block of the two-form zero; only the per-group
    blocks are formed, all in one batched SVD.  The scale floor is the
    largest squared tangent norm over all groups.
    """
    re, im = acted.real, acted.imag
    k = re @ im.transpose(0, 2, 1)
    svals = np.linalg.svd(k.transpose(0, 2, 1) - k, compute_uv=False)
    floor = np.max(np.sum(re * re + im * im, axis=-1))
    return _thresholded_rank(svals, rank_tol, scale_floor=floor)


def oracle_check(
    state: QuantumState,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> OracleReport:
    """Compare numeric orbit dimension and degeneracy with the formula values.

    Rank ambiguities are reported in ``warnings``.
    """
    check_tolerance("rank_tol", rank_tol, positive=True, below=1.0)
    inv = orbit_invariants(reduced_matrix(state), cluster_tol)
    acted, c = _acted_vectors(state)
    orbit_dim, orbit_ambiguous = _orbit_rank(acted, c, rank_tol)
    rank, rank_ambiguous = _symplectic_rank(acted, rank_tol)
    flags = {"orbit dimension": orbit_ambiguous, "symplectic rank": rank_ambiguous}
    notes = tuple(_AMBIGUOUS.format(what) for what, ambiguous in flags.items() if ambiguous)
    degeneracy = orbit_dim - rank
    agree = not notes and (orbit_dim, degeneracy) == (inv.orbit_dim, inv.degeneracy_D)
    return OracleReport(
        orbit_dim_numeric=orbit_dim,
        symplectic_rank_numeric=rank,
        degeneracy_numeric=degeneracy,
        formula_orbit_dim=inv.orbit_dim,
        formula_degeneracy=inv.degeneracy_D,
        agree=agree,
        rank_tolerance_used=rank_tol,
        warnings=notes,
    )


# ---------------------------------------------------------------------------
# Three-qubit counterexample: equal moment images, provably distinct orbits.
# ---------------------------------------------------------------------------


def _det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def three_tangle(tensor) -> float:
    """Three-qubit tangle: four times the modulus of the 2x2x2 hyperdeterminant."""
    t = np.array(tensor, dtype=complex)  # a C-ordered copy, so it has a float view
    if t.shape != (2, 2, 2):
        raise ValidationError("three_tangle needs a 2x2x2 coefficient tensor")
    if not np.all(np.isfinite(t)):
        raise ValidationError("three_tangle needs finite entries")
    # the tangle is scale-free: bring the largest real or imaginary part into
    # [1/2, 1) by a power of two, which is exact and keeps every product finite
    parts = t.view(float)
    top = np.abs(parts).max()
    if top == 0.0:
        raise ValidationError("zero tensor")
    t = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    norm2 = np.real(np.vdot(t, t))
    # Cayley's hyperdeterminant: the discriminant b^2 - 4ac of det(t[0] + x t[1])
    a, c = _det2(t[0]), _det2(t[1])
    b = _det2(t[0] + t[1]) - a - c
    det = b * b - 4.0 * a * c
    return float(4.0 * abs(det) / norm2**2)


def single_site_spectra(tensor) -> np.ndarray:
    """Sorted spectra of the three one-qubit reduced matrices, one row per site."""
    t = np.asarray(tensor, dtype=complex)
    sites = np.stack([np.moveaxis(t, site, 0).reshape(2, 4) for site in range(3)])
    return np.linalg.svd(sites, compute_uv=False) ** 2


def counterexample_demo() -> dict:
    """Two three-qubit states with equal single-site spectra but distinct orbits.

    The GHZ-type state carries tangle 8/9 while the W-type state has tangle 0,
    so the bipartite spectral test must not be extended to three parties.
    """
    x1 = np.zeros((2, 2, 2), dtype=complex)
    x1[0, 0, 0] = np.sqrt(2.0 / 3.0)
    x1[1, 1, 1] = np.sqrt(1.0 / 3.0)
    x2 = np.zeros((2, 2, 2), dtype=complex)
    x2[1, 0, 0] = x2[0, 1, 0] = x2[0, 0, 1] = 1.0 / np.sqrt(3.0)
    spectra1 = single_site_spectra(x1)
    spectra2 = single_site_spectra(x2)
    spectral_diff = float(np.max(np.abs(spectra1 - spectra2)))
    tangle1 = three_tangle(x1)
    tangle2 = three_tangle(x2)
    return {
        "spectra_x1": spectra1.tolist(),
        "spectra_x2": spectra2.tolist(),
        "max_spectral_difference": spectral_diff,
        "moment_images_equal": spectral_diff <= 1e-12,
        "tangle_x1": tangle1,
        "tangle_x2": tangle2,
        "tangle_gap": tangle1 - tangle2,
        "distinct_orbits": abs(tangle1 - tangle2) > 1e-6,
        "conclusion": (
            "equal moment images, provably distinct local-unitary orbits: "
            "spectra decide equivalence for two particles only"
        ),
    }
