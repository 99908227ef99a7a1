"""Decision procedure for local-unitary equivalence with witness construction.

For two bosons, two fermions, or two distinguishable particles the moment
spectrum separates local orbits, so equality of sorted spectra is a sound and
complete test.  The witness is assembled from canonical-form unitaries; any
valid pair of decompositions composes to an exact intertwiner, so degenerate
spectrum blocks need no extra gauge fixing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonicalize
from .errors import CaseMismatch, ConvergenceFailure, DimensionMismatch, ValidationError
from .moment import reduced_matrix
from .states import LocalUnitary, ParticleCase, QuantumState, apply_group_action, check_tolerance

DEFAULT_SPECTRUM_TOL = 1e-8
WITNESS_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """Outcome of the spectral test plus an optional reconstruction witness."""

    equivalent: bool
    spectral_distance: float
    witness: LocalUnitary | None
    witness_residual: float | None
    witness_phase: complex | None
    warnings: tuple[str, ...] = ()


def _check_pair(a: QuantumState, b: QuantumState) -> None:
    if a.case is not b.case:
        raise CaseMismatch(f"cannot compare {a.case.value} with {b.case.value}")
    if a.n_levels != b.n_levels:
        raise DimensionMismatch(f"N mismatch: {a.n_levels} vs {b.n_levels}")


def _build_witness(a: QuantumState, b: QuantumState):
    """Witness g with g.a = phase * b, from composed canonical unitaries."""
    cfa = canonicalize(a)
    cfb = canonicalize(b)
    u = cfb.witness_u @ cfa.witness_u.conj().T
    v = None
    if a.case is ParticleCase.DISTINGUISHABLE:
        v = cfb.witness_v @ cfa.witness_v.conj().T
    g = LocalUnitary(a.case, u, v)
    moved = apply_group_action(a, g).coeffs
    overlap = np.vdot(b.coeffs, moved)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0 + 0.0j
    residual = float(np.linalg.norm(moved - phase * b.coeffs))
    return g, residual, complex(phase)


def lu_equivalent(
    a: QuantumState, b: QuantumState, tol: float = DEFAULT_SPECTRUM_TOL
) -> EquivalenceVerdict:
    """Decide local-unitary equivalence of two states of the same case and N.

    The verdict is spectral; the witness is best effort: a failed decomposition
    or a non-unitary witness only appends a warning, never flips the decision.
    """
    _check_pair(a, b)
    check_tolerance("tol", tol)
    qa = reduced_matrix(a).q_spectrum
    qb = reduced_matrix(b).q_spectrum
    distance = float(np.max(np.abs(qa - qb)))
    if distance > tol:
        return EquivalenceVerdict(False, distance, None, None, None)
    try:
        g, residual, phase = _build_witness(a, b)
    except (ConvergenceFailure, ValidationError) as exc:
        return EquivalenceVerdict(True, distance, None, None, None, (f"witness failed: {exc}",))
    if residual > WITNESS_RESIDUAL_TOL:
        return EquivalenceVerdict(
            True, distance, None, None, None,
            (f"witness residual {residual:.3e} above {WITNESS_RESIDUAL_TOL:.1e}",),
        )
    return EquivalenceVerdict(True, distance, g, residual, phase)
