"""Congruence canonical forms: Takagi, antisymmetric Youla, and two-sided SVD.

Every local orbit meets the slice of sorted nonnegative diagonal (boson,
distinguishable) or standard-symplectic-block (fermion) representatives in
exactly one point; these routines produce that representative together with
unitary witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, ValidationError
from .moment import state_svd
from .states import (DEFAULT_SYMMETRY_TOL, ParticleCase, QuantumState, _intake, check_case, check_integer,
                     complex_array, into_special_unitary)

# Numeric cluster threshold of the congruence forms, relative to s0 (not the
# stratum tolerance).  The SVD couples two clusters a gap apart at 40-60x, not
# 1x, eps * s0 / gap (measured), reaching the 1e-10 residual bar near a gap of
# 1e-4 * s0; gaps up to 1e-3 * s0 form one cluster, whose root is exact inside.
CLUSTER_TOL = 1e-3
SNAP_TOL = 1e-12
_LABELS = {1: "takagi", -1: "youla", None: "svd"}


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Slice representative and SU(N) witnesses, stored; the residual on access.

    The original coefficients satisfy C = global_phase * (witness reconstruction)
    up to ``residual`` in Frobenius norm.  ``lambdas`` is 1-D: N values (fermions: floor(N/2)).
    """

    case: ParticleCase
    lambdas: np.ndarray
    witness_u: np.ndarray
    witness_v: np.ndarray | None
    global_phase: complex
    _coeffs: np.ndarray = field(repr=False)  # the state's own read-only C

    def __post_init__(self):
        check_case(self.case)
        if np.ndim(self.witness_u) != 2 or np.shape(self.witness_u)[0] != np.shape(self.witness_u)[1]:
            raise ValidationError(f"witness_u: expected a square matrix, got shape {np.shape(self.witness_u)}")
        count = self.n_levels // 2 if self.case is ParticleCase.FERMION else self.n_levels
        if np.ndim(self.lambdas) != 1 or len(self.lambdas) != count:
            raise ValidationError(f"N={self.n_levels} needs {count} lambdas, got shape {np.shape(self.lambdas)}")

    @property
    def n_levels(self) -> int:
        return len(self.witness_u)

    @property
    def residual(self) -> float:
        """Frobenius norm of C - reconstruct(self)."""
        return float(np.linalg.norm(self._coeffs - reconstruct(self)))


def cluster_bounds(values, cluster_tol: float) -> list[int]:
    """Block boundaries of a descending nonnegative vector.

    Returns 0, every index that follows a drop larger than
    ``cluster_tol * values[0]``, and ``len(values)``; consecutive entries
    delimit one block of equal values.
    """
    values = np.asarray(values)
    cuts = np.flatnonzero(values[:-1] - values[1:] > cluster_tol * values[0]) + 1
    return [0, *cuts.tolist(), len(values)]


def _pair_basis(z: np.ndarray) -> np.ndarray:
    """Unitary R with R J R^t = z for an antisymmetric unitary z, J = sum of J_2 blocks.

    Greedy pairing: a unit vector a orthogonal to the pairs found so far is
    paired with b = -z conj(a), which is a unit vector orthogonal to a and to
    every earlier pair.  Pair k projects the one of the first 2k + 2
    coordinate vectors that keeps the largest unpaired part, so when z is
    (nearly) block diagonal over sub-blocks of the cluster, each pair stays
    in the sub-block whose singular values it is given.
    """
    m = z.shape[0]
    r = np.empty((m, m), dtype=complex)
    proj = np.eye(m, dtype=complex)  # projector onto the span not yet paired
    for k in range(0, m, 2):
        j = int(np.argmax(proj.diagonal()[: k + 2].real))
        a = proj[:, j] / np.linalg.norm(proj[:, j])
        proj -= np.outer(a, a.conj())
        b = proj @ (-z @ a.conj())
        b /= np.linalg.norm(b)
        proj -= np.outer(b, b.conj())
        r[:, k], r[:, k + 1] = a, b
    return r


def _takagi_vectors(t: np.ndarray) -> np.ndarray:
    """Unitary R with t = R diag(sigma) R^t, sigma descending, for a symmetric t.

    In real coordinates x = a + ib, the map x -> t conj(x) with t = X + iY is
    the real symmetric matrix [[X, Y], [Y, -X]].  Its eigenvalues come in
    pairs +-sigma, (a, b) -> (-b, a) swapping the two, so the eigenvectors of
    the positive half are orthonormal as complex vectors a + ib and are
    Takagi vectors of t, whatever basis ``eigh`` picks inside an eigenspace.
    """
    m = len(t)
    h = np.empty((2 * m, 2 * m))
    h[:m, :m] = t.real
    h[m:, m:] = -t.real
    h[:m, m:] = h[m:, :m] = t.imag
    vecs = np.linalg.eigh(h)[1][:, m:][:, ::-1]
    return vecs[:m] + 1j * vecs[m:]


def _congruence_basis(v, s, wh, sign: int, n_live: int) -> np.ndarray:
    """Unitary U with c = U core(s) U^t from the SVD c = V diag(s) W^dag.

    On a cluster of singular values S the coupling Z = W_blk^dag conj(V_blk)
    is a sign-symmetric unitary, and U_blk = V_blk R with R S R^t = S Z
    (sign +1, core diagonal) or R J R^t = Z (sign -1, core of J_2 blocks).
    Singletons and fermion pairs are fixed by a scalar phase; larger
    clusters by the pairing, or by the Takagi vectors of (I + S / s_lo) Z
    with s_lo = max S.  That shift puts the Takagi values in (1, 2], in the
    order of s: those of Z are all 1, so its vectors need not follow s, and
    those of S Z can be so small that eigh mixes +s with -s.  Columns from
    ``n_live`` on hold values at or below the snap to zero and are kept as
    they are.
    """
    u = v.copy()
    bounds = cluster_bounds(s[:n_live], CLUSTER_TOL)
    unit = 1 if sign > 0 else 2
    blocks = list(zip(bounds[:-1], bounds[1:]))
    small = np.array([lo for lo, hi in blocks if hi - lo == unit], dtype=int)
    if len(small):
        # Z is the 1 x 1 phase z, or the 2 x 2 block z J_2; R = sqrt(z) I
        last = small + unit - 1
        z = np.sum(wh[small] * v[:, last].T.conj(), axis=1)
        if sign < 0:
            z = (z - np.sum(wh[last] * v[:, small].T.conj(), axis=1)) / 2.0
        root = np.sqrt(z / np.abs(z))
        u[:, small] *= root
        if sign < 0:
            u[:, last] *= root
    for lo, hi in blocks:
        if hi - lo == unit:
            continue
        z = wh[lo:hi] @ v[:, lo:hi].conj()
        if sign > 0:
            z += (s[lo:hi, None] / s[lo]) * z
        z = (z + sign * z.T) / 2.0
        r = _takagi_vectors(z) if sign > 0 else _pair_basis(z)
        u[:, lo:hi] = v[:, lo:hi] @ r
    return u


def _factored(c, e: int, sign: int | None, svd=None):
    """Factor c 2^e = U core W^t from one SVD of c (``svd``, left unchanged, or taken here).

    Returns (U, s, W), W None for sign +-1.  sign +1: c symmetric, core diag(s),
    W = U.  sign -1: c antisymmetric, core sum_j s_2j J_2, W = U.  sign None:
    core diag(s), U and W from the SVD itself.  s holds all N singular values,
    descending, those at or below SNAP_TOL * s0 set to zero; the factorization
    returned is the one checked against 1e-10 * max(1, s0).
    """
    label = _LABELS[sign]
    try:
        v, s, wh = np.linalg.svd(c) if svd is None else svd
        s = s.copy()  # the snap writes into a copy, never into a stored s
        n_live = int(np.count_nonzero(s > SNAP_TOL * s[0]))
        if sign == -1:
            n_live += n_live % 2  # a pair straddling the snap stays whole
        s[n_live:] = 0.0
        if sign is None:
            u, right = v, wh
        else:
            u = _congruence_basis(v, s, wh, sign, n_live) if n_live else v
            right = u.T
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{label}: {exc}") from exc
    n = len(s)
    left = u @ fermion_pair_matrix(s[: 2 * (n // 2) : 2], n) if sign == -1 else u * s
    if math.frexp(s[0])[1] + e > 1024:  # s0 * 2^e, s0 at the caller's scale, is beyond the float range
        raise ValidationError(f"{label}: singular value {s[0]:.6f} * 2^{e} exceeds the float range")
    np.ldexp(s, e, out=s)  # back to the caller's scale, exactly, before the bar
    residual = math.ldexp(np.linalg.norm(c - left @ right), e)
    accept = 1e-10 * max(1.0, s[0])
    if residual <= accept:
        return u, s, (right.T if sign is None else None)
    raise ConvergenceFailure(f"{label} residual {residual:.3e} above tolerance {accept:.3e}")


def takagi(c):
    """Factor a complex symmetric matrix as c = U diag(lam) U^t.

    Returns (U, lam) with U unitary and lam the singular values of c in
    descending order.
    """
    return _factored(*_intake(c, 1, DEFAULT_SYMMETRY_TOL, _LABELS[1]), 1)[:2]


def youla_antisymmetric(c):
    """Factor a complex antisymmetric matrix as c = U (sum lam_j J_2 + 0) U^t.

    Returns (U, lam) with lam of length floor(N/2) sorted descending; each
    lam_j is a doubled singular value of c (Youla 1961).
    """
    u, s, _ = _factored(*_intake(c, -1, DEFAULT_SYMMETRY_TOL, _LABELS[-1]), -1)
    return u, s[: 2 * (len(s) // 2) : 2]


def svd_congruence(c):
    """Two-sided diagonalization c = U diag(lam) V^t with lam descending."""
    return _factored(*_intake(c, None, DEFAULT_SYMMETRY_TOL, _LABELS[None]), None)


def fermion_pair_matrix(lam, n: int) -> np.ndarray:
    """Block matrix sum_j lam_j J_2 padded with a zero row/column for odd n."""
    check_integer("n", n, 1)
    lam = complex_array(lam, "lam")
    if lam.ndim != 1 or len(lam) > n // 2:
        raise ValidationError(f"expected at most {n // 2} pair values for n={n}, got shape {lam.shape}")
    out = np.zeros((n, n), dtype=complex)
    idx = np.arange(len(lam))
    out[2 * idx, 2 * idx + 1] = lam
    out[2 * idx + 1, 2 * idx] = -lam
    return out


def reconstruct(cf: CanonicalForm) -> np.ndarray:
    """global_phase * U Lambda U^t (or U Lambda V^t), Lambda the slice form; approximates C."""
    if cf.case is ParticleCase.FERMION:
        core = fermion_pair_matrix(cf.lambdas, cf.n_levels)
    else:
        core = np.diag(cf.lambdas.astype(complex))
    right = cf.witness_u if cf.witness_v is None else cf.witness_v
    return cf.global_phase * (cf.witness_u @ core @ right.T)


def canonicalize(state: QuantumState) -> CanonicalForm:
    """Reduce a state to its unique slice representative with SU(N) witnesses.

    The form is factored from the state's one SVD, with no second intake, and
    stored on the state in its place; later calls return the same object.
    """
    derived = state._derived
    if "canonical" not in derived:
        derived["canonical"] = _canonical_form(state)
        del derived["svd"]
    return derived["canonical"]


def _canonical_form(state: QuantumState) -> CanonicalForm:
    c, sign = state.coeffs, state.case.symmetry_sign
    u, s, v = _factored(c, 0, sign, state_svd(state))
    lam = s[: 2 * (len(s) // 2) : 2] if sign == -1 else s
    u, zu = into_special_unitary(u)
    phase = zu ** -2
    if v is not None:
        v, zv = into_special_unitary(v)
        phase = 1.0 / (zu * zv)
        v.setflags(write=False)
    u.setflags(write=False)
    lam.setflags(write=False)
    return CanonicalForm(state.case, lam, u, v, complex(phase), c)
