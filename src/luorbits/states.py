"""State containers, validation, and local special-unitary group/algebra actions.

A two-particle pure state is held as its complex N x N coefficient matrix:
symmetric for bosons, antisymmetric for fermions, unconstrained for
distinguishable particles.  The local group acts by congruence U C U^t in the
first two cases and by U C V^t in the third.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CaseMismatch,
    DimensionMismatch,
    NonSquareInput,
    NotAntiHermitian,
    ParseError,
    SymmetryViolation,
    ValidationError,
    ZeroState,
)

DEFAULT_SYMMETRY_TOL = 1e-9
ANTIHERMITIAN_TOL = 1e-10


class ParticleCase(enum.Enum):
    """The three two-particle state classes."""

    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "dist"

    @classmethod
    def from_label(cls, label: str) -> "ParticleCase":
        for case in cls:
            if case.value == label:
                return case
        raise ParseError(f"unknown particle case {label!r}; expected boson, fermion or dist")

    @property
    def diagonal_action(self) -> bool:
        """True when a single unitary acts by congruence (bosons, fermions)."""
        return self is not ParticleCase.DISTINGUISHABLE

    @property
    def symmetry_sign(self) -> int | None:
        """+1 for symmetric, -1 for antisymmetric, None if unconstrained."""
        if self is ParticleCase.BOSON:
            return 1
        if self is ParticleCase.FERMION:
            return -1
        return None


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Validated state: unit Frobenius norm, exact symmetry class.

    ``coeffs`` is read-only on every state the package makes, so the state
    never changes.  Forms derived from it alone (the canonical form, the
    moment image) are computed on first request and stored on the instance.
    """

    case: ParticleCase
    n_levels: int
    coeffs: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Element of SU(N) (diagonal cases) or SU(N) x SU(N) (distinguishable)."""

    case: ParticleCase
    u: np.ndarray
    v: np.ndarray | None = None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _make_state(case: ParticleCase, coeffs: np.ndarray) -> QuantumState:
    return QuantumState(case, coeffs.shape[0], _freeze(coeffs))


def validate(raw, case: ParticleCase, tol: float = DEFAULT_SYMMETRY_TOL) -> QuantumState:
    """Check, (anti)symmetrize and normalize a raw coefficient matrix.

    Symmetry defects up to ``tol`` (relative to the Frobenius norm) are
    repaired silently; larger defects raise SymmetryViolation.
    """
    try:
        arr = np.array(raw, dtype=complex, order="C")
    except (ValueError, TypeError) as exc:
        raise NonSquareInput(f"input is not a complex matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareInput(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValidationError("one-particle dimension must be at least 2")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains NaN or Inf entries")
    # scale the real and imaginary parts by the largest of them first, so
    # that no norm below under- or overflows; |z| can overflow near the float
    # limit, and complex division by a subnormal overflows in its reciprocal
    parts = arr.view(float)
    scale = np.abs(parts).max()
    if scale == 0.0:
        raise ZeroState("coefficient matrix is zero")
    parts /= scale
    sign = case.symmetry_sign
    if sign is not None:
        defect = np.linalg.norm(arr - sign * arr.T) / np.linalg.norm(arr)
        if defect > tol:
            kind = "symmetry" if sign == 1 else "antisymmetry"
            raise SymmetryViolation(f"{kind} defect {defect:.3e} exceeds tolerance {tol:.3e}")
        arr = (arr + sign * arr.T) / 2.0
    arr = arr / np.linalg.norm(arr)
    return _make_state(case, arr)


def _check_compatible(state: QuantumState, g: LocalUnitary) -> None:
    if g.case is not state.case:
        raise CaseMismatch(f"state is {state.case.value}, unitary is {g.case.value}")
    if g.u.shape != (state.n_levels, state.n_levels):
        raise DimensionMismatch(f"unitary shape {g.u.shape} does not match N={state.n_levels}")
    if state.case is ParticleCase.DISTINGUISHABLE:
        if g.v is None:
            raise CaseMismatch("distinguishable action needs a pair (u, v)")
        if g.v.shape != g.u.shape:
            raise DimensionMismatch("second unitary has mismatched shape")


def apply_group_action(state: QuantumState, g: LocalUnitary) -> QuantumState:
    """Return the state with coefficients U C U^t, or U C V^t when distinguishable."""
    _check_compatible(state, g)
    c = state.coeffs
    if state.case.diagonal_action:
        out = g.u @ c @ g.u.T
        sign = state.case.symmetry_sign
        out = (out + sign * out.T) / 2.0
    else:
        out = g.u @ c @ g.v.T
    return _make_state(state.case, out)


def _check_antihermitian(xi: np.ndarray, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n, n):
        raise DimensionMismatch(f"algebra element shape {xi.shape} does not match N={n}")
    herm = np.linalg.norm(xi + xi.conj().T) / 2.0
    if herm > ANTIHERMITIAN_TOL:
        raise NotAntiHermitian(f"Hermitian part norm {herm:.3e} exceeds {ANTIHERMITIAN_TOL:.1e}")
    return xi


def apply_algebra_action(state: QuantumState, xi) -> np.ndarray:
    """Linearized action: xi C + C xi^t, or xi1 C + C xi2^t for a pair.

    Returns the tangent matrix (not a state); the symmetry class of the
    input is preserved exactly.
    """
    c = state.coeffs
    n = state.n_levels
    if state.case.diagonal_action:
        xi = _check_antihermitian(xi, n)
        out = xi @ c + c @ xi.T
        sign = state.case.symmetry_sign
        return (out + sign * out.T) / 2.0
    if not isinstance(xi, (tuple, list)) or len(xi) != 2:
        raise CaseMismatch("distinguishable algebra action needs a pair (xi1, xi2)")
    xi1 = _check_antihermitian(xi[0], n)
    xi2 = _check_antihermitian(xi[1], n)
    return xi1 @ c + c @ xi2.T


def random_state(case: ParticleCase, n: int, seed: int) -> QuantumState:
    """Gaussian random state projected onto the symmetry class, unit norm."""
    if n < 2:
        raise ValidationError("n must be at least 2")
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sign = case.symmetry_sign
    if sign is not None:
        arr = (arr + sign * arr.T) / 2.0
    return validate(arr, case, tol=np.inf if sign is None else 1.0)


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(N) matrix via QR with phase fix and det normalization."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / n)


def random_local_unitary(case: ParticleCase, n: int, seed: int) -> LocalUnitary:
    """Deterministic Haar-random element of the local group for the given case."""
    if n < 2:
        raise ValidationError("n must be at least 2")
    rng = np.random.default_rng(seed)
    u = haar_special_unitary(n, rng)
    if case is ParticleCase.DISTINGUISHABLE:
        return LocalUnitary(case, _freeze(u), _freeze(haar_special_unitary(n, rng)))
    return LocalUnitary(case, _freeze(u))


# ---------------------------------------------------------------------------
# State file format: {"case": "boson"|"fermion"|"dist", "n": N,
#                     "matrix": [[[re, im], ...], ...]} row-major N x N.
# ---------------------------------------------------------------------------


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, complex)]


def complex_matrix_from_json(rows, n: int | None = None) -> np.ndarray:
    """Decode a [[re, im], ...] matrix, rejecting ragged rows and NaN/Inf."""
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty list of rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise ParseError("matrix rows must be lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged matrix rows")
        entries = []
        for entry in row:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
            ):
                raise ParseError("matrix entries must be [re, im] number pairs")
            if not (math.isfinite(entry[0]) and math.isfinite(entry[1])):
                raise ParseError("matrix entries must be finite")
            entries.append(complex(entry[0], entry[1]))
        out.append(entries)
    if n is not None and (len(out) != n or width != n):
        raise ParseError(f"matrix shape {len(out)}x{width} does not match n={n}")
    return np.array(out, dtype=complex)


def state_to_dict(state: QuantumState) -> dict:
    return {
        "case": state.case.value,
        "n": state.n_levels,
        "matrix": complex_matrix_to_json(state.coeffs),
    }


def state_from_dict(data, tol: float = DEFAULT_SYMMETRY_TOL) -> QuantumState:
    if not isinstance(data, dict):
        raise ParseError("state payload must be a JSON object")
    for key in ("case", "n", "matrix"):
        if key not in data:
            raise ParseError(f"state payload missing {key!r}")
    case = ParticleCase.from_label(data["case"])
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ParseError("field 'n' must be an integer >= 2")
    mat = complex_matrix_from_json(data["matrix"], n)
    return validate(mat, case, tol)
