"""Numerical verification of orbit dimensions and symplectic rank at the slice point.

What the oracle checks: the closed-form dimension formulas of ``strata``
against the rank of the local algebra action, computed at the state's slice
point Lambda.  What it trusts: the state's one SVD, and the Takagi, Youla and
SVD normal-form theorems that put Lambda on the state's orbit.  The dense
route at C over the whole algebra basis, which shares nothing with the
classification, is kept in the test suite as the reference it is pinned to.

The two-particle actions are spherical, so every local orbit meets the slice
of canonical forms, and Lambda is fixed by the root spectrum s of the SVD.  The
orbit rank and the rank of the projective two-form on the orbit are orbit
invariants over a Frobenius-orthonormal su(N) basis: off-diagonals
(E_ij - E_ji)/sqrt(2) and i(E_ij + E_ji)/sqrt(2), and Cartan elements i diag(q)
for an orthonormal basis Q of the traceless vectors.  At Lambda an
off-diagonal element touches only its own pair of levels, so their singular
values are closed forms in s; only the Cartan block, projected off the state,
takes an SVD.  Distinguishable tangents come in two groups, xi (x) 1 and
1 (x) eta, which commute, so the two-form has one block per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .moment import reduced_matrix, state_svd
from .states import ParticleCase, QuantumState, check_tolerance, scaled_array
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


@lru_cache(maxsize=16)
def _traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis Q of the traceless vectors, (N, N - 1), read-only.

    Helmert columns: column k - 1 is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)).
    """
    k = np.arange(1, n)
    level = np.arange(n)[:, np.newaxis]
    q = ((level < k) - k * (level == k)) / np.sqrt(k * (k + 1.0))
    q.setflags(write=False)
    return q


def _pair_values(v: np.ndarray):
    """|v_i - v_j| and v_i + v_j over the pairs i < j."""
    upper = np.less.outer(np.arange(len(v)), np.arange(len(v)))
    return abs(v[:, np.newaxis] - v)[upper], (v[:, np.newaxis] + v)[upper]


def _slice_spectra(case: ParticleCase, s: np.ndarray):
    """Singular values of the tangent map and of the two-form at the slice point of s.

    ``s`` is the descending root spectrum scaled to unit norm; p = s^2, P =
    diag(s) - s p^t, pairs i < j.  Bosons: |s_i - s_j| and s_i + s_j, then
    svd(2 P Q); two-form |p_i - p_j| twice.  Distinguishable: the same pair
    values over sqrt(2), each twice, then svd(sqrt(2) P Q); two-form
    |p_i - p_j| / 2 four times.  Fermions, with pair values lam_k =
    (s_2k + s_2k+1) / 2 and k < l: lam_k + lam_l and |lam_k - lam_l| four
    times each, lam_k four times at odd N (the zero level), then the svd of
    the Cartan block sqrt(2) lam_k (q_2k + q_2k+1) projected off c = sqrt(2)
    lam; two-form |lam_k^2 - lam_l^2| eight times, lam_k^2 four times at odd N.
    Every other singular value of the dense route is zero.
    """
    n = len(s)
    q = _traceless_basis(n)
    if case is ParticleCase.FERMION:
        m = n // 2
        lam = (s[0:2 * m:2] + s[1:2 * m:2]) / 2
        gap, total = _pair_values(lam)
        c = np.sqrt(2.0) * lam
        cartan = c[:, np.newaxis] * (q[0:2 * m:2] + q[1:2 * m:2])
        cartan -= np.outer(c, c @ cartan) / (c @ c)
        zero_level = np.tile(lam, 4 * (n % 2))
        orbit = [np.repeat(total, 4), np.repeat(gap, 4), zero_level]
        form = [np.repeat(gap * total, 8), zero_level**2]
    else:
        copies, scale = (1, 1.0) if case is ParticleCase.BOSON else (2, np.sqrt(0.5))
        gap, total = (np.repeat(values * scale, copies) for values in _pair_values(s))
        cartan = 2 * scale * (s[:, np.newaxis] * q - np.outer(s, (s * s) @ q))
        orbit = [gap, total]
        form = [np.repeat(gap * total, 2)]
    orbit.append(np.linalg.svd(cartan, compute_uv=False))
    return np.concatenate(orbit), np.concatenate(form)


def oracle_check(
    state: QuantumState,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> OracleReport:
    """Compare the orbit dimension and degeneracy at the slice point with the formula values.

    The root spectrum s is read from the state's one SVD, which also gives the
    moment image the formula side classifies; no canonical form is computed,
    and the only further SVD is that of the Cartan block.  Both ranks count
    the spectra of ``_slice_spectra`` above ``rank_tol`` times a
    basis-invariant scale: for the orbit rank the largest value, floored at
    |c| = 1; for the two-form rank the largest value, floored at the mean
    squared tangent norm per generator (the sum of the squared orbit values
    over G (N^2 - 1), G = 2 tangent groups for distinguishable particles and
    1 otherwise).  Rank ambiguities are reported in ``warnings``.
    """
    check_tolerance("rank_tol", rank_tol, positive=True, below=1.0)
    inv = orbit_invariants(reduced_matrix(state), cluster_tol)
    s = state_svd(state)[1]
    n, case = len(s), state.case
    orbit, form = _slice_spectra(case, s / np.linalg.norm(s))
    groups = 2 if case is ParticleCase.DISTINGUISHABLE else 1
    orbit_dim, orbit_ambiguous = _thresholded_rank(orbit, rank_tol, scale_floor=1.0)
    floor = np.sum(orbit * orbit) / (groups * (n * n - 1))
    rank, rank_ambiguous = _thresholded_rank(form, rank_tol, scale_floor=floor)
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
    t, _ = scaled_array(tensor, "three_tangle")
    if t.shape != (2, 2, 2):
        raise ValidationError("three_tangle needs a 2x2x2 coefficient tensor")
    norm2 = np.real(np.vdot(t, t))
    if norm2 == 0.0:
        raise ValidationError("zero tensor")
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
