"""Shared helpers for the test suite."""

import numpy as np
import scipy.linalg

from luorbits import LocalUnitary, ParticleCase, apply_group_action
from reference_oracle import su_basis

ALL_CASES = list(ParticleCase)


def assert_unitary(u, tol=1e-10):
    n = u.shape[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= tol


def assert_special_unitary(u, tol=1e-10):
    assert_unitary(u, tol)
    assert abs(np.linalg.det(u) - 1.0) <= tol


def reduced_density(c):
    """rho = C C^dag / Tr(C^dag C), the left one-particle reduced matrix; pass C^t for the right one."""
    return c @ c.conj().T / np.vdot(c, c).real


def group_action_derivative(state, xi, t=1e-5):
    """Central finite difference of the group action along exp(t xi)."""
    if state.case is ParticleCase.DISTINGUISHABLE:
        def move(tt):
            g = LocalUnitary(state.case, scipy.linalg.expm(tt * xi[0]),
                             scipy.linalg.expm(tt * xi[1]))
            return apply_group_action(state, g).coeffs
    else:
        def move(tt):
            g = LocalUnitary(state.case, scipy.linalg.expm(tt * xi))
            return apply_group_action(state, g).coeffs
    return (move(t) - move(-t)) / (2 * t)


def algebra_action(state, xi):
    """Linearized action xi C + C xi^t, or xi1 C + C xi2^t for a pair (xi1, xi2).

    The per-element reference for the dense reference oracle's batched acted vectors.
    """
    c = state.coeffs
    if state.case is ParticleCase.DISTINGUISHABLE:
        return xi[0] @ c + c @ xi[1].T
    out = xi @ c + c @ xi.T
    sign = state.case.symmetry_sign
    return (out + sign * out.T) / 2.0


def pack(matrices, case):
    """Upper triangle of Sym(N) / Alt(N) matrices, off-diagonal entries times sqrt(2)."""
    rows, cols = np.triu_indices(matrices.shape[-1], 0 if case is ParticleCase.BOSON else 1)
    return matrices[..., rows, cols] * np.where(rows == cols, 1.0, np.sqrt(2.0))


def algebra_basis(case, n):
    """Basis of the local algebra as a list: su(N), or (xi, 0) and (0, xi) pairs for distinguishable.

    In the row order of the dense reference oracle's acted vectors.
    """
    single = list(su_basis(n))
    if case is not ParticleCase.DISTINGUISHABLE:
        return single
    zero = np.zeros((n, n), dtype=complex)
    return [(xi, zero) for xi in single] + [(zero, xi) for xi in single]


def random_su_algebra(n, rng):
    """Random traceless anti-Hermitian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (a - a.conj().T) / 2
    return a - np.trace(a) / n * np.eye(n)


# --- independent tangle oracle: residual entanglement from concurrences ----

_SY = np.array([[0.0, -1j], [1j, 0.0]])


def _concurrence_mixed(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    rho_tilde = np.kron(_SY, _SY) @ rho.conj() @ np.kron(_SY, _SY)
    eigs = np.linalg.eigvals(rho @ rho_tilde)
    roots = np.sqrt(np.abs(np.sort(eigs.real)[::-1]))
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def ckw_three_tangle(tensor):
    """Three-tangle via the monogamy residual C^2_A(BC) - C^2_AB - C^2_AC."""
    t = np.asarray(tensor, dtype=complex)
    t = t / np.linalg.norm(t)
    m = t.reshape(2, 4)
    rho_a = m @ m.conj().T
    c_a_bc_sq = 4 * np.real(np.linalg.det(rho_a))
    full = np.outer(t.ravel(), t.ravel().conj())
    rho_ab = full.reshape(2, 2, 2, 2, 2, 2).trace(axis1=2, axis2=5).reshape(4, 4)
    rho_ac = full.reshape(2, 2, 2, 2, 2, 2).trace(axis1=1, axis2=4).reshape(4, 4)
    return c_a_bc_sq - _concurrence_mixed(rho_ab) ** 2 - _concurrence_mixed(rho_ac) ** 2
