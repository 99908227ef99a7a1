"""Congruence canonical forms: Takagi, antisymmetric Youla, and two-sided SVD.

Every local orbit meets the slice of sorted nonnegative diagonal (boson,
distinguishable) or standard-symplectic-block (fermion) representatives in
exactly one point; these routines produce that representative together with
unitary witnesses.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, SymmetryViolation
from .states import ParticleCase, QuantumState

# Numeric cluster threshold of the congruence forms, relative to s0; it is
# not the semantic stratum tolerance.  A singleton's phase fix is off by about
# eps * s0 / gap, which breaks the 1e-10 residual bar below a gap of about
# 2e-6 * s0, so gaps up to 1e-4 * s0 are fixed as one cluster.  The cluster
# root stays exact for any gap inside a cluster.
CLUSTER_TOL = 1e-4
SNAP_TOL = 1e-12
SYMMETRY_PRE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Slice representative, SU(N) witnesses, and the reconstruction residual.

    The original coefficients satisfy C = global_phase * (witness reconstruction)
    up to ``residual`` in Frobenius norm.
    """

    case: ParticleCase
    n_levels: int
    lambdas: np.ndarray
    witness_u: np.ndarray
    witness_v: np.ndarray | None
    global_phase: complex
    residual: float


def cluster_bounds(values, cluster_tol: float) -> list[int]:
    """Block boundaries of a descending nonnegative vector.

    Returns 0, every index that follows a drop larger than
    ``cluster_tol * values[0]``, and ``len(values)``; consecutive entries
    delimit one block of equal values.
    """
    values = np.asarray(values)
    cuts = np.flatnonzero(values[:-1] - values[1:] > cluster_tol * values[0]) + 1
    return [0, *cuts.tolist(), len(values)]


def _symmetric_unitary_root(z: np.ndarray) -> np.ndarray:
    """R with R R^t = z for a symmetric unitary z.

    One Newton-Schulz step first puts z back on the unitary group, where
    rounding in tiny clusters can leave it.  R is then a square root taken
    eigenvalue by eigenvalue, so it is a function of z, symmetric and
    unitary.  The branch cut sits in the widest gap between the eigenvalue
    phases, which keeps (nearly) equal eigenvalues on one branch.  A 2 x 2 z,
    the most frequent cluster, takes the closed form (z + s I) / sqrt(tr z + 2 s)
    with s^2 = det z, the sign of s keeping the denominator away from zero.
    """
    m = len(z)
    z = z @ (1.5 * np.eye(m) - 0.5 * (z.conj().T @ z))
    if m == 2:
        s = cmath.sqrt(z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0])
        tr = z[0, 0] + z[1, 1]
        if abs(tr - 2.0 * s) > abs(tr + 2.0 * s):
            s = -s
        return (z + s * np.eye(2)) / cmath.sqrt(tr + 2.0 * s)
    evals, vecs = np.linalg.eig(z)
    theta = sorted(cmath.phase(e) for e in evals.tolist())
    gaps = [b - a for a, b in zip(theta, theta[1:] + [theta[0] + 2.0 * cmath.pi])]
    k = max(range(m), key=gaps.__getitem__)
    turn = cmath.exp(1j * (cmath.pi - theta[k] - gaps[k] / 2.0))
    roots = np.sqrt(evals * turn) / cmath.sqrt(turn)
    return (vecs * roots) @ np.linalg.inv(vecs)


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


def _congruence_basis(v, s, wh, sign: int, n_live: int) -> np.ndarray:
    """Unitary U with c = U core(s) U^t from the SVD c = V diag(s) W^dag.

    On a cluster of equal singular values the coupling Z = W_blk^dag conj(V_blk)
    is a sign-symmetric unitary, and U_blk = V_blk R with R R^t = Z (sign +1,
    core diagonal) or R J R^t = Z (sign -1, core of J_2 blocks).  Singletons
    and fermion pairs are fixed by a scalar phase; larger clusters by the
    matrix root or the pairing.  Columns from ``n_live`` on hold values at
    or below the snap to zero and are kept as they are.
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
        z = (z + sign * z.T) / 2.0
        r = _symmetric_unitary_root(z) if sign > 0 else _pair_basis(z)
        u[:, lo:hi] = v[:, lo:hi] @ r
    return u


def _congruence_form(c, sign: int):
    """Factor a sign-symmetric matrix as c = U core U^t; returns (U, s).

    s holds all N singular values, descending; the core is diag(s) for sign
    +1 and sum_j s_2j J_2 for sign -1.
    """
    label, kind = ("takagi", "symmetric") if sign > 0 else ("youla", "antisymmetric")
    c = np.asarray(c, dtype=complex)
    if np.linalg.norm(c - sign * c.T) > SYMMETRY_PRE_TOL:
        raise SymmetryViolation(f"matrix is not {kind} within 1e-10")
    c = (c + sign * c.T) / 2.0
    n = c.shape[0]
    try:
        v, s, wh = np.linalg.svd(c)
        if s[0] == 0.0:
            return np.eye(n, dtype=complex), s
        n_live = int(np.count_nonzero(s > SNAP_TOL * s[0]))
        if sign > 0:
            accept = 1e-10 * max(1.0, s[0])
        else:
            n_live += n_live % 2  # a pair straddling the snap stays whole
            accept = 1e-10 * max(1.0, float(np.linalg.norm(s)))
            core = fermion_pair_matrix(s[: 2 * (n // 2) : 2], n)
        u = _congruence_basis(v, s, wh, sign, n_live)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{label}: {exc}") from exc
    left = u * s if sign > 0 else u @ core
    residual = np.linalg.norm(c - left @ u.T)
    if residual <= accept:
        return u, s
    raise ConvergenceFailure(f"{label} residual {residual:.3e} above tolerance {accept:.3e}")


def takagi(c):
    """Factor a complex symmetric matrix as c = U diag(lam) U^t.

    Returns (U, lam) with U unitary and lam the singular values of c in
    descending order.
    """
    return _congruence_form(c, 1)


def youla_antisymmetric(c):
    """Factor a complex antisymmetric matrix as c = U (sum lam_j J_2 + 0) U^t.

    Returns (U, lam) with lam of length floor(N/2) sorted descending; each
    lam_j is a doubled singular value of c (Youla 1961).
    """
    u, s = _congruence_form(c, -1)
    return u, s[: 2 * (len(s) // 2) : 2]


def svd_congruence(c):
    """Two-sided diagonalization c = U diag(lam) V^t with lam descending."""
    c = np.asarray(c, dtype=complex)
    try:
        u, s, vh = np.linalg.svd(c)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"svd: {exc}") from exc
    return u, s, vh.T


def fermion_pair_matrix(lam, n: int) -> np.ndarray:
    """Block matrix sum_j lam_j J_2 padded with a zero row/column for odd n."""
    out = np.zeros((n, n), dtype=complex)
    lam = np.asarray(lam)
    idx = np.arange(len(lam))
    out[2 * idx, 2 * idx + 1] = lam
    out[2 * idx + 1, 2 * idx] = -lam
    return out


def _into_special_unitary(u: np.ndarray):
    """Rescale a unitary into SU(N); returns (u * z, z) with det(u * z) = 1."""
    det = np.linalg.det(u)
    z = det ** (-1.0 / u.shape[0])
    return u * z, z


def canonical_matrix(cf: CanonicalForm) -> np.ndarray:
    """The slice representative matrix Lambda (or its fermionic block form)."""
    if cf.case is ParticleCase.FERMION:
        return fermion_pair_matrix(cf.lambdas, cf.n_levels)
    return np.diag(cf.lambdas.astype(complex))


def reconstruct(cf: CanonicalForm) -> np.ndarray:
    """global_phase * U Lambda U^t (or U Lambda V^t), which approximates C."""
    core = canonical_matrix(cf)
    right = cf.witness_u if cf.witness_v is None else cf.witness_v
    return cf.global_phase * (cf.witness_u @ core @ right.T)


def canonicalize(state: QuantumState) -> CanonicalForm:
    """Reduce a state to its unique slice representative with SU(N) witnesses.

    The form is computed once per state and stored on it; later calls return
    the same object.
    """
    derived = state._derived
    if "canonical" not in derived:
        derived["canonical"] = _canonical_form(state)
    return derived["canonical"]


def _canonical_form(state: QuantumState) -> CanonicalForm:
    c = state.coeffs
    n = state.n_levels
    if state.case is ParticleCase.BOSON:
        u, lam = takagi(c)
        v = None
    elif state.case is ParticleCase.FERMION:
        u, lam = youla_antisymmetric(c)
        v = None
    else:
        u, lam, v = svd_congruence(c)
    lam = lam.copy()
    if lam[0] > 0.0:
        lam[lam < SNAP_TOL * lam[0]] = 0.0
    u, zu = _into_special_unitary(u)
    phase = zu ** -2
    if v is not None:
        v, zv = _into_special_unitary(v)
        phase = 1.0 / (zu * zv)
        v.setflags(write=False)
    u.setflags(write=False)
    lam.setflags(write=False)
    cf = CanonicalForm(state.case, n, lam, u, v, complex(phase), 0.0)
    residual = float(np.linalg.norm(c - reconstruct(cf)))
    if residual > 1e-9:
        raise ConvergenceFailure(f"canonical reconstruction residual {residual:.3e}")
    return CanonicalForm(state.case, n, lam, u, v, complex(phase), residual)


def canonical_to_dict(cf: CanonicalForm) -> dict:
    from .states import complex_matrix_to_json

    return {
        "lambdas": [float(x) for x in cf.lambdas],
        "residual": cf.residual,
        "global_phase": [cf.global_phase.real, cf.global_phase.imag],
        "witness_u": complex_matrix_to_json(cf.witness_u),
        "witness_v": None if cf.witness_v is None else complex_matrix_to_json(cf.witness_v),
    }
