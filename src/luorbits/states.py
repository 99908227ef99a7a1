"""State containers, validation, and the local special-unitary group action.

A two-particle pure state is held as its complex N x N coefficient matrix:
symmetric for bosons, antisymmetric for fermions, unconstrained for
distinguishable particles.  The local group acts by congruence U C U^t in the
first two cases and by U C V^t in the third.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CaseMismatch,
    DimensionMismatch,
    NonSquareInput,
    ParseError,
    SymmetryViolation,
    ValidationError,
    ZeroState,
)

DEFAULT_SYMMETRY_TOL = 1e-9
NORM_TOL = 4 * DEFAULT_SYMMETRY_TOL


class ParticleCase(enum.Enum):
    """The three two-particle state classes."""

    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "dist"

    @classmethod
    def from_label(cls, label: str) -> "ParticleCase":
        try:
            return cls(label)
        except ValueError:
            raise ParseError(f"unknown particle case {label!r}; expected boson, fermion or dist") from None

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
    """A unit vector of Sym^2, Lambda^2 or C^N (x) C^N, checked when built; ``validate`` makes one.

    ``coeffs`` is a read-only complex N x N array that owns its data (else it is copied, so the caller's
    array can change and the state does not), N >= 2, exactly symmetric (boson) or antisymmetric (fermion),
    with | ||C||^2 - 1 | <= NORM_TOL = 4d: a LocalUnitary is accepted up to ||U^dag U - I|| <= d =
    DEFAULT_SYMMETRY_TOL, so one action moves ||C||^2 by at most (1 + d)^2 - 1 = 2d + d^2, and the other
    2d cover rounding.  Forms derived from the state alone are computed on first request and stored.
    """

    case: ParticleCase
    coeffs: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):  # N is read from coeffs
        check_case(self.case)
        c = self.coeffs
        if not (isinstance(c, np.ndarray) and c.ndim == 2 and c.shape[0] == c.shape[1] > 0):
            raise NonSquareInput(f"coeffs: expected a nonempty square numpy array, got {type(c).__name__}")
        if c.flags.writeable or not c.flags.owndata or c.dtype != complex:  # a copy that no caller holds
            c = _freeze(complex_array(c, "coeffs"))
            object.__setattr__(self, "coeffs", c)
        if len(c) < 2:
            raise ValidationError("one-particle dimension must be at least 2")
        sign = self.case.symmetry_sign
        if sign is not None and not np.array_equal(c, sign * c.T):
            raise SymmetryViolation(f"coeffs are not exactly {'anti' if sign < 0 else ''}symmetric")
        deviation = np.vdot(c, c).real - 1.0
        if deviation == -1.0:
            raise ZeroState("zero state: the coefficient matrix is zero")
        if not abs(deviation) <= NORM_TOL:
            raise ValidationError(f"coeffs: ||C||^2 - 1 = {deviation:.3e} exceeds NORM_TOL = {NORM_TOL:.0e}")

    @property
    def n_levels(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Local unitary u, or (u, v) for dist, stored as read-only, checked unitary copies.

    Any unitary is accepted: the state is a ray, so a determinant other than 1
    changes only its global phase.  The witnesses the package builds are in SU(N).
    """

    case: ParticleCase
    u: np.ndarray
    v: np.ndarray | None = None

    def __post_init__(self):
        check_case(self.case)
        if self.case is ParticleCase.DISTINGUISHABLE and self.v is None:
            raise CaseMismatch("distinguishable action needs a pair (u, v)")
        for name in ("u",) if self.v is None else ("u", "v"):
            m = complex_array(getattr(self, name), name)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NonSquareInput(f"{name}: expected a square matrix, got shape {m.shape}")
            with np.errstate(all="ignore"):  # huge entries overflow to inf or nan, which fail below
                defect = np.linalg.norm(m.conj().T @ m - np.eye(len(m)))
            if not defect <= DEFAULT_SYMMETRY_TOL:
                raise ValidationError(f"{name}: not unitary, ||U^dag U - I|| = {defect:.3e}")
            object.__setattr__(self, name, _freeze(m))
        if self.v is not None and self.v.shape != self.u.shape:
            raise DimensionMismatch("second unitary has mismatched shape")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_tolerance(name: str, tol, *, positive: bool = False, below: float = math.inf) -> None:
    """Raise ValidationError unless ``tol`` lies in [0, below), or in (0, below) if ``positive``.

    NaN, infinity and anything that is not a number are rejected.
    """
    if not isinstance(tol, numbers.Real) or not 0.0 <= tol < below or (positive and tol == 0.0):
        bounds = f"{'(' if positive else '['}0, {below:g})"
        raise ValidationError(f"{name} must be a finite number in {bounds}, got {tol!r}")


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an integer (not a bool) and at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_case(case) -> None:
    """Raise ValidationError unless ``case`` is a ParticleCase."""
    if not isinstance(case, ParticleCase):
        raise ValidationError(f"case must be a ParticleCase, got {case!r}")


def complex_array(raw, label: str) -> np.ndarray:
    """A C-ordered complex copy of ``raw``; ValidationError unless every entry is finite."""
    try:
        a = np.array(raw, dtype=complex, order="C")
    except OverflowError:  # an int beyond the float range
        raise ValidationError(f"{label}: entries must be finite") from None
    except (ValueError, TypeError) as exc:
        raise NonSquareInput(f"{label}: input is not a complex array: {exc}") from None
    if not np.isfinite(a).all():
        raise ValidationError(f"{label}: entries must be finite")
    return a


def scaled_array(raw, label: str):
    """(a, e): complex_array(raw) times 2^-e, its largest real or imaginary part in [1/2, 1)."""
    a = complex_array(raw, label)
    parts = a.reshape(-1).view(float)
    e = math.frexp(np.abs(parts).max(initial=0.0))[1]  # exact; no norm of the copy under- or overflows
    np.ldexp(parts, -e, out=parts)
    return a, e


def _intake(raw, sign: int | None, tol: float, label: str):
    """(a, e), the one intake of ``validate``, ``takagi``, ``youla_antisymmetric`` and ``svd_congruence``:

    ``scaled_array(raw)``, checked nonempty and square, then (a + sign a^t) / 2 (a for sign None),
    or SymmetryViolation if ||a - sign a^t|| > tol ||a||."""
    a, e = scaled_array(raw, label)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise NonSquareInput(f"{label}: expected a nonempty square matrix, got shape {a.shape}")
    if sign is None:
        return a, e
    defect, norm = np.linalg.norm(a - sign * a.T), np.linalg.norm(a)
    if defect > tol * norm:
        kind = "symmetry" if sign == 1 else "antisymmetry"
        raise SymmetryViolation(f"{kind} defect {defect / norm:.3e} exceeds tolerance {tol:.3e}")
    return (a + sign * a.T) / 2.0, e


def validate(raw, case: ParticleCase, tol: float = DEFAULT_SYMMETRY_TOL) -> QuantumState:
    """The door to ``QuantumState``: check, (anti)symmetrize and normalize a raw coefficient matrix.

    Symmetry defects up to ``tol`` (relative to the Frobenius norm) are repaired
    silently; larger defects raise SymmetryViolation.  Any finite nonzero N x N
    matrix, N >= 2, within ``tol`` of the case's symmetry yields a state.
    """
    check_case(case)
    check_tolerance("tol", tol)
    arr, _ = _intake(raw, case.symmetry_sign, tol, "matrix")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ZeroState("coefficient matrix is zero")
    return QuantumState(case, _freeze(arr / norm))


def _check_compatible(state: QuantumState, g: LocalUnitary) -> None:
    if g.case is not state.case:
        raise CaseMismatch(f"state is {state.case.value}, unitary is {g.case.value}")
    if g.u.shape != (state.n_levels, state.n_levels):
        raise DimensionMismatch(f"unitary shape {g.u.shape} does not match N={state.n_levels}")


def apply_group_action(state: QuantumState, g: LocalUnitary) -> QuantumState:
    """Return the state with coefficients U C U^t, or U C V^t when distinguishable."""
    _check_compatible(state, g)
    c = state.coeffs
    sign = state.case.symmetry_sign
    if sign is not None:
        out = g.u @ c @ g.u.T
        out = (out + sign * out.T) / 2.0
    else:
        out = g.u @ c @ g.v.T
    return QuantumState(state.case, _freeze(out))


def random_state(case: ParticleCase, n: int, seed: int) -> QuantumState:
    """Gaussian random state projected onto the symmetry class, unit norm."""
    check_case(case)
    check_integer("n", n, 2)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return validate(arr, case, tol=2.0)  # ||a - sign a^t|| <= 2 ||a||: the intake projects any matrix


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(N) matrix via QR with phase fix and det normalization."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return into_special_unitary(q * (d / np.abs(d)))[0]


def into_special_unitary(u: np.ndarray):
    """Rescale a unitary into SU(N); returns (u * z, z) with det(u * z) = 1."""
    z = np.linalg.det(u) ** (-1.0 / u.shape[0])
    return u * z, z


def random_local_unitary(case: ParticleCase, n: int, seed: int) -> LocalUnitary:
    """Deterministic Haar-random element of the local group for the given case."""
    check_case(case)
    check_integer("n", n, 2)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    u = haar_special_unitary(n, rng)
    return LocalUnitary(case, u, haar_special_unitary(n, rng) if case is ParticleCase.DISTINGUISHABLE else None)


# ---------------------------------------------------------------------------
# State file format: {"case": "boson"|"fermion"|"dist", "n": N,
#                     "matrix": [[[re, im], ...], ...]} row-major N x N.
# ---------------------------------------------------------------------------


def complex_matrix_to_json(mat: np.ndarray) -> list:
    """Rows of [re, im] pairs at full precision, so that a state file round-trips bit for bit."""
    a = np.ascontiguousarray(mat, complex)
    return a.view(float).reshape(a.shape + (2,)).tolist()


def complex_matrix_from_json(rows, n: int) -> np.ndarray:
    """Decode an n x n matrix of [re, im] number pairs through the intake, complex_array."""
    try:
        parts = np.array(rows, dtype=object)
    except ValueError:  # numpy arrays of unequal shapes nested in the rows; JSON cannot hold them
        parts = np.empty(0, dtype=object)
    types = set(map(type, parts.flat))  # checked once per distinct type; numpy.float64 is a float subclass
    numbers_only = all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types)
    if parts.shape != (n, n, 2) or not numbers_only:
        raise ParseError(f"matrix must be {n} x {n} [re, im] pairs of numbers")
    try:
        return complex_array(parts.astype(float).view(complex)[..., 0], "matrix")
    except (OverflowError, ValidationError):  # an int beyond the float range, NaN or Inf
        raise ParseError("matrix entries must be finite") from None


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
