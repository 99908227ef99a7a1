"""One-particle reduced matrices and moment spectra.

The moment image of a state is rho - I/N, with rho = C C^dag / Tr(C^dag C) the
(left) one-particle reduced matrix.  Its spectrum p is the squared singular
values of C over their sum, from one values-only SVD; rho is built on request.
Comparisons are spectrum-based, so the positive scale factor dropped from the
anti-Hermitian convention never affects a decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure
from .states import ParticleCase, QuantumState


@dataclass(frozen=True, eq=False)
class MomentImage:
    """Spectrum p of rho, descending, stored; the reduced matrices on access."""

    case: ParticleCase
    n_levels: int
    probabilities: np.ndarray
    _coeffs: np.ndarray = field(repr=False)  # the state's own read-only C

    @property
    def q_spectrum(self) -> np.ndarray:
        """Spectrum of rho - I/N (p - 1/N), descending."""
        return self.probabilities - 1.0 / self.n_levels

    @property
    def rho_left(self) -> np.ndarray:
        return _gram(self._coeffs)

    @property
    def rho_right(self) -> np.ndarray | None:
        return _gram(self._coeffs.T) if self.case is ParticleCase.DISTINGUISHABLE else None


def _gram(c: np.ndarray) -> np.ndarray:
    return c @ c.conj().T / np.vdot(c, c).real


def reduced_matrix(state: QuantumState) -> MomentImage:
    """Compute the moment spectrum of a state; rho is built on access.

    The image is computed once per state and stored on it; later calls return
    the same object.
    """
    derived = state._derived
    if "moment" not in derived:
        derived["moment"] = _moment_image(state)
    return derived["moment"]


def _moment_image(state: QuantumState) -> MomentImage:
    try:
        s = np.linalg.svd(state.coeffs, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"moment svd: {exc}") from exc
    p = s**2 / np.sum(s**2)
    p.setflags(write=False)
    return MomentImage(state.case, state.n_levels, p, state.coeffs)
