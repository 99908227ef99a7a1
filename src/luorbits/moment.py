"""Moment images: the stratum of a state is read off its moment spectrum.

The moment image of a state is rho - I/N, with rho = C C^dag / Tr(C^dag C) the
(left) one-particle reduced matrix.  Its coadjoint orbit is fixed by the
spectrum p of rho, so the image is held as (case, N, p): p is the squared
singular values of C over their sum, from one values-only SVD, and rho itself
is never built.  Comparisons are spectrum-based, so the positive scale factor
dropped from the anti-Hermitian convention never affects a decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .states import ParticleCase, QuantumState


@dataclass(frozen=True, eq=False)
class MomentImage:
    """Spectrum p of rho, descending (fermions: each pair value twice, then 0 for odd N)."""

    case: ParticleCase
    n_levels: int
    probabilities: np.ndarray

    @property
    def q_spectrum(self) -> np.ndarray:
        """Spectrum of rho - I/N (p - 1/N), descending."""
        return self.probabilities - 1.0 / self.n_levels


def reduced_matrix(state: QuantumState) -> MomentImage:
    """Compute the moment image of a state.

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
    return MomentImage(state.case, state.n_levels, p)
