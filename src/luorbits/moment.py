"""Moment images: the stratum of a state is read off its moment spectrum.

The moment image of a state is rho - I/N, with rho = C C^dag / Tr(C^dag C) the
(left) one-particle reduced matrix.  Its coadjoint orbit is fixed by the
spectrum p of rho, so the image is held as (case, N, p): p is the squared
singular values of C over their sum, from the state's one SVD (shared with
``canonicalize``, whichever asks first), and rho itself is never built.
Comparisons are spectrum-based, so the positive scale factor dropped from the
anti-Hermitian convention never affects a decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, UnsortedInput, ZeroState
from .states import ParticleCase, QuantumState, _freeze


@dataclass(frozen=True, eq=False)
class MomentImage:
    """Spectrum p of rho, descending (fermions: each pair value twice, then 0 for odd N)."""

    case: ParticleCase
    n_levels: int
    probabilities: np.ndarray

    def __post_init__(self):  # p as a read-only float array, whatever real sequence was passed
        try:
            if np.iscomplexobj(self.probabilities):  # a float cast would drop the imaginary part
                raise TypeError
            object.__setattr__(self, "probabilities", _freeze(np.array(self.probabilities, dtype=float)))
        except (OverflowError, ValueError, TypeError):
            raise UnsortedInput("probabilities must be a vector of real numbers") from None

    @property
    def q_spectrum(self) -> np.ndarray:
        """Spectrum of rho - I/N (p - 1/N), descending."""
        return self.probabilities - 1.0 / self.n_levels


def reduced_matrix(state: QuantumState) -> MomentImage:
    """Compute the moment image of a state, stored on it with its SVD; later calls return the same object."""
    derived = state._derived
    if "moment" not in derived:
        state_svd(state)
    return derived["moment"]


def state_svd(state: QuantumState):
    """The state's one SVD (V, s, W^dag), read-only; taken on first need and stored with its image p.

    A state whose largest singular value is not positive has no image: ``ZeroState``.
    """
    derived = state._derived
    if "svd" not in derived:
        try:
            v, s, wh = map(_freeze, np.linalg.svd(state.coeffs))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"svd: {exc}") from exc
        if not s[0] > 0.0:
            raise ZeroState("zero state: its SVD has no positive singular value")
        derived["moment"] = MomentImage(state.case, state.n_levels, s**2 / np.sum(s**2))
        derived["svd"] = v, s, wh
    return derived["svd"]
