"""One-particle reduced matrices, moment spectra, and the probability polytope.

The moment image of a state is materialized as the traceless Hermitian matrix
rho - I/N, where rho = C C^dag / Tr(C^dag C) is the (left) one-particle
reduced matrix.  All comparisons are spectrum-based, so the positive scale
factor dropped from the anti-Hermitian convention never affects a decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import ParticleCase, QuantumState


@dataclass(frozen=True, eq=False)
class MomentImage:
    """Reduced matrix (pair for distinguishable) plus its translated spectrum."""

    case: ParticleCase
    n_levels: int
    rho_left: np.ndarray
    rho_right: np.ndarray | None
    q_spectrum: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        """Sorted-descending eigenvalues of rho_left (the p vector)."""
        return self.q_spectrum + 1.0 / self.n_levels


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def reduced_matrix(state: QuantumState) -> MomentImage:
    """Compute the one-particle reduced matrix and its translated spectrum.

    The image is computed once per state and stored on it; later calls return
    the same object.
    """
    derived = state._derived
    if "moment" not in derived:
        derived["moment"] = _moment_image(state)
    return derived["moment"]


def _moment_image(state: QuantumState) -> MomentImage:
    c = state.coeffs
    n = state.n_levels
    weight = np.real(np.vdot(c, c))
    rho_left = _hermitize(c @ c.conj().T / weight)
    rho_right = None
    if state.case is ParticleCase.DISTINGUISHABLE:
        rho_right = _hermitize(c.T @ c.conj() / weight)
    p = np.sort(np.linalg.eigvalsh(rho_left))[::-1]
    q = p - 1.0 / n
    for arr in (rho_left, rho_right, q):
        if arr is not None:
            arr.setflags(write=False)
    return MomentImage(state.case, n, rho_left, rho_right, q)


def polytope_membership(q, case: ParticleCase, tol: float = 1e-10) -> bool:
    """Check that q + (1/N)(1,...,1) is an admissible probability vector.

    For fermions the sorted probabilities must additionally pair up
    (doubled singular values), with a forced zero entry when N is odd.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    p = q + 1.0 / n
    if np.any(p < -tol) or abs(p.sum() - 1.0) > tol:
        return False
    if case is ParticleCase.FERMION:
        p = np.sort(p)[::-1]
        for j in range(n // 2):
            if abs(p[2 * j] - p[2 * j + 1]) > tol:
                return False
        if n % 2 == 1 and p[-1] > tol:
            return False
    return True


def moment_to_dict(image: MomentImage) -> dict:
    return {
        "case": image.case.value,
        "q": [float(x) for x in image.q_spectrum],
        "p": [float(x) for x in image.probabilities],
    }
