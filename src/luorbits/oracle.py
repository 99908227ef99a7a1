"""Numerical verification of orbit dimensions and symplectic rank.

Everything here is computed by plain linear algebra on fundamental vector
fields: the real rank of the projected tangent collection gives the orbit
dimension, and the rank of the symplectic Gram form gives the rank of the
projective-space two-form restricted to the orbit.  No closed-form dimension
formula enters, so these routines serve as an independent check of the
stratum classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import canonicalize
from .errors import ValidationError
from .states import ParticleCase, QuantumState
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
    warnings: tuple[str, ...] = field(default=())


def su_basis(n: int) -> np.ndarray:
    """Real basis of su(N), stacked (N^2-1, N, N): i-diagonals, then (re, im) off-diagonal pairs."""
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
    return basis


def algebra_basis(case: ParticleCase, n: int) -> list:
    """Basis of the local algebra: su(N), or two copies for distinguishable."""
    if n < 2:
        raise ValidationError("n must be at least 2")
    single = list(su_basis(n))
    if case is not ParticleCase.DISTINGUISHABLE:
        return single
    zero = np.zeros((n, n), dtype=complex)
    return [(xi, zero) for xi in single] + [(zero, xi) for xi in single]


def _acted_vectors(state: QuantumState) -> np.ndarray:
    """Stack of rho(xi_a) C over the algebra basis, flattened, one row each.

    C is exactly (anti)symmetric after validation, so C xi^t = sign (xi C)^t
    and the congruence action needs only the one product xi C.
    """
    c = state.coeffs
    basis = su_basis(state.n_levels)
    left = basis @ c
    sign = state.case.symmetry_sign
    if sign is None:
        acted = np.concatenate([left, c @ basis.transpose(0, 2, 1)])
    else:
        acted = left + sign * left.transpose(0, 2, 1)
    return acted.reshape(len(acted), -1)


def _thresholded_rank(svals: np.ndarray, rank_tol: float, scale_floor: float = 0.0):
    """Count singular values above rank_tol * scale; returns (rank, ambiguous).

    ``scale_floor`` guards the all-zero case: a form that vanishes on the
    whole orbit leaves only noise-level singular values, which must not be
    measured against their own maximum.
    """
    smax = max(svals[0] if len(svals) else 0.0, scale_floor)
    if smax == 0.0:
        return 0, False
    threshold = rank_tol * smax
    rank = int(np.count_nonzero(svals > threshold))
    ambiguous = bool(np.any((svals >= threshold / 10) & (svals <= threshold * 10)))
    return rank, ambiguous


def _orbit_rank(acted: np.ndarray, c: np.ndarray, rank_tol: float):
    """(rank, ambiguous) of the acted vectors projected off the flattened state c."""
    tangents = acted - np.outer(acted @ c.conj(), c)
    real_rows = np.hstack([tangents.real, tangents.imag])
    svals = np.linalg.svd(real_rows, compute_uv=False)
    return _thresholded_rank(svals, rank_tol)


def _symplectic_rank(acted: np.ndarray, rank_tol: float):
    """(rank, ambiguous) of the two-form -Im <xi C, eta C> over the algebra basis.

    For anti-Hermitian representations <v, [xi, eta] v> = <xi v, eta v> - conj,
    so the projective two-form on the orbit is the imaginary part of the Gram
    matrix of the acted vectors; isotropy and phase directions land in its
    kernel automatically.
    """
    gram = acted.conj() @ acted.T
    svals = np.linalg.svd(-gram.imag, compute_uv=False)
    return _thresholded_rank(svals, rank_tol, scale_floor=gram.real.diagonal().max())


def oracle_check(
    state: QuantumState,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> OracleReport:
    """Compare numeric orbit dimension and degeneracy with the formula values.

    Rank ambiguities are reported in ``warnings``.
    """
    acted = _acted_vectors(state)
    orbit_dim, orbit_ambiguous = _orbit_rank(acted, state.coeffs.ravel(), rank_tol)
    rank, rank_ambiguous = _symplectic_rank(acted, rank_tol)
    flags = {"orbit dimension": orbit_ambiguous, "symplectic rank": rank_ambiguous}
    notes = tuple(_AMBIGUOUS.format(what) for what, ambiguous in flags.items() if ambiguous)
    degeneracy = orbit_dim - rank
    inv = orbit_invariants(canonicalize(state), cluster_tol)
    agree = (
        not notes
        and orbit_dim == inv.orbit_dim
        and degeneracy == inv.degeneracy_D
    )
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


def oracle_to_dict(report: OracleReport) -> dict:
    return {
        "orbit_dim_numeric": report.orbit_dim_numeric,
        "symplectic_rank_numeric": report.symplectic_rank_numeric,
        "degeneracy_numeric": report.degeneracy_numeric,
        "formula_orbit_dim": report.formula_orbit_dim,
        "formula_degeneracy": report.formula_degeneracy,
        "agree": report.agree,
        "rank_tolerance_used": report.rank_tolerance_used,
        "warnings": list(report.warnings),
    }


# ---------------------------------------------------------------------------
# Three-qubit counterexample: equal moment images, provably distinct orbits.
# ---------------------------------------------------------------------------


def three_tangle(tensor) -> float:
    """Three-qubit tangle: four times the modulus of the 2x2x2 hyperdeterminant."""
    t = np.asarray(tensor, dtype=complex)
    if t.shape != (2, 2, 2):
        raise ValidationError("three_tangle needs a 2x2x2 coefficient tensor")
    norm2 = np.real(np.vdot(t, t))
    if norm2 == 0.0:
        raise ValidationError("zero tensor")
    det = (
        t[0, 0, 0] ** 2 * t[1, 1, 1] ** 2
        + t[0, 0, 1] ** 2 * t[1, 1, 0] ** 2
        + t[0, 1, 0] ** 2 * t[1, 0, 1] ** 2
        + t[1, 0, 0] ** 2 * t[0, 1, 1] ** 2
        - 2 * t[0, 0, 0] * t[0, 0, 1] * t[1, 1, 0] * t[1, 1, 1]
        - 2 * t[0, 0, 0] * t[0, 1, 0] * t[1, 0, 1] * t[1, 1, 1]
        - 2 * t[0, 0, 0] * t[0, 1, 1] * t[1, 0, 0] * t[1, 1, 1]
        - 2 * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 1] * t[1, 1, 0]
        - 2 * t[0, 0, 1] * t[0, 1, 1] * t[1, 1, 0] * t[1, 0, 0]
        - 2 * t[0, 1, 0] * t[0, 1, 1] * t[1, 0, 1] * t[1, 0, 0]
        + 4 * t[0, 0, 0] * t[0, 1, 1] * t[1, 0, 1] * t[1, 1, 0]
        + 4 * t[0, 0, 1] * t[0, 1, 0] * t[1, 0, 0] * t[1, 1, 1]
    )
    return float(4.0 * abs(det) / norm2**2)


def single_site_spectra(tensor) -> np.ndarray:
    """Sorted spectra of the three one-qubit reduced matrices, one row per site."""
    t = np.asarray(tensor, dtype=complex)
    rows = []
    for site in range(3):
        m = np.moveaxis(t, site, 0).reshape(2, 4)
        rows.append(np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1])
    return np.array(rows)


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
