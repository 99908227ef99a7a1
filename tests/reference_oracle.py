"""Dense reference oracle: the local algebra action at C over an orthonormal su(N) basis.

It shares nothing with the classification: no SVD of C, no slice point, no
closed form.  Every basis element acts on the state itself, the acted vectors
are projected off c, and the orbit rank and the two-form rank are the ranks of
the resulting real matrices.  ``luorbits.oracle`` reads the same spectra in
closed form at the slice point; the tests pin the two against each other.

Boson and fermion tangents live in Sym(N) or Alt(N), so they are stored by
their upper triangle with off-diagonal entries weighted by sqrt(2).  Entries
(r, k) and (k, r) agree up to sign, so sqrt(2) times one of them carries the
pair's share of every inner product: packing is an isometry, and projections,
singular values and Gram matrices are those of the full N x N coordinates.
Distinguishable tangents come in two groups, xi (x) 1 and 1 (x) eta.  The two
commute, and Im <A v, B v> is proportional to <v, [A, B] v>, so the two-form
between the groups vanishes and the Gram splits into one block per group.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def su_basis(n):
    """Frobenius-orthonormal real basis of su(N), stacked (N^2-1, N, N), read-only.

    Cartan elements i diag(q) for a QR basis of the traceless vectors, then
    (E_ij - E_ji) / sqrt(2) and i (E_ij + E_ji) / sqrt(2) for each pair i < j.
    """
    basis = np.zeros((n * n - 1, n, n), dtype=complex)
    steps = np.eye(n, n - 1) - np.eye(n, n - 1, -1)  # columns e_k - e_{k+1}
    k = np.arange(n)
    basis[: n - 1, k, k] = 1j * np.linalg.qr(steps)[0].T
    rows, cols = np.triu_indices(n, 1)
    re = n - 1 + 2 * np.arange(len(rows))
    basis[re, rows, cols] = np.sqrt(0.5)
    basis[re, cols, rows] = -np.sqrt(0.5)
    basis[re + 1, rows, cols] = 1j * np.sqrt(0.5)
    basis[re + 1, cols, rows] = 1j * np.sqrt(0.5)
    basis.setflags(write=False)
    return basis


def acted_vectors(state):
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
    idx = np.arange(state.n_levels)
    upper = idx - idx[:, None] >= (0 if sign == 1 else 1)
    weight = np.where(idx == idx[:, None], 1.0, np.sqrt(2.0))[upper]
    acted = (left[:, upper] + sign * left.transpose(0, 2, 1)[:, upper]) * weight
    return acted[np.newaxis], c[upper] * weight


def dense_spectra(state):
    """Singular values of the projected tangents and of the per-group two-form blocks, descending.

    With A = X + iY, the two-form -Im(conj(A) A^t) is K^t - K for K = X Y^t.
    """
    acted, c = acted_vectors(state)
    rows = acted.reshape(-1, acted.shape[-1])
    tangents = rows - np.outer(rows @ c.conj(), c)
    orbit = np.linalg.svd(tangents.view(float), compute_uv=False)
    k = acted.real @ acted.imag.transpose(0, 2, 1)
    form = np.linalg.svd(k.transpose(0, 2, 1) - k, compute_uv=False).ravel()
    return orbit, np.sort(form)[::-1]
