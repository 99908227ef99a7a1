"""Multiplicity vectors, flag and fiber dimensions, and stratum enumeration.

The discrete type of a local orbit is the block pattern d = (d_1, ..., d_k)
of equal entries in the sorted moment spectrum together with a degeneracy
flag (rank-deficient coefficient matrix).  The moment image of the orbit is
a flag manifold of real dimension N^2 - sum d_i^2 (doubled for
distinguishable particles); the fiber over it is a torus times symmetric
spaces, and its dimension is the symplectic degeneracy D of the orbit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalForm, cluster_bounds, fermion_pair_matrix
from .errors import InvalidStratum, UnsortedInput, ValidationError
from .moment import MomentImage
from .states import (
    ParticleCase,
    QuantumState,
    apply_group_action,
    check_case,
    check_integer,
    check_tolerance,
    random_local_unitary,
    validate,
)

DEFAULT_CLUSTER_TOL = 1e-8
MAX_LISTING_BITS = 16  # listings stop at 2^16 - 1 strata: boson/dist N <= 16, fermion N <= 33


@dataclass(frozen=True)
class MultiplicityVector:
    """Block sizes of the sorted moment spectrum; degenerate = zero last block."""

    d: tuple[int, ...]
    degenerate: bool

    def __post_init__(self):  # d stored as a tuple of Python ints, degenerate as a bool
        try:
            d = tuple([operator.index(b) for b in self.d])
        except TypeError:
            d = ()
        if not d or min(d) <= 0:
            raise InvalidStratum(f"blocks must be one or more positive integers, got {self.d!r}")
        if not isinstance(self.degenerate, (bool, np.bool_)):
            raise InvalidStratum(f"degenerate must be a bool, got {self.degenerate!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "degenerate", bool(self.degenerate))

    @property
    def k(self) -> int:
        return len(self.d)

    @property
    def n_levels(self) -> int:
        return sum(self.d)


@dataclass(frozen=True)
class FiberFactor:
    """One factor of the moment fiber: a torus, symmetric space, or group manifold."""

    kind: str  # "torus" | "sym_so" | "sym_usp" | "group_su"
    m: int
    dim: int


def torus_factor(t: int) -> FiberFactor:
    return FiberFactor("torus", t, t)


def sym_so_factor(m: int) -> FiberFactor:
    """SU_m / SO_m, real dimension (m - 1)(m + 2) / 2."""
    return FiberFactor("sym_so", m, (m - 1) * (m + 2) // 2)


def sym_usp_factor(m: int) -> FiberFactor:
    """SU_m / USp_m (m even), real dimension (m - 2)(m + 1) / 2."""
    if m % 2 != 0:
        raise InvalidStratum(f"USp factor needs an even block, got {m}")
    return FiberFactor("sym_usp", m, (m - 2) * (m + 1) // 2)


def group_su_factor(m: int) -> FiberFactor:
    """Group manifold (SU_m x SU_m) / SU_m = SU_m, real dimension m^2 - 1."""
    return FiberFactor("group_su", m, m * m - 1)


@dataclass(frozen=True)
class OrbitInvariants:
    """Dimension data of one orbit type.

    orbit_dim = flag_dim_real + fiber_dim and degeneracy_D = fiber_dim;
    boundary_gap is the gap in s = sqrt(p), relative to s_0, to the nearest
    coarser stratum (None for abstractly enumerated strata).
    """

    d: MultiplicityVector
    flag_dim_real: int
    fiber_factors: tuple[FiberFactor, ...]
    fiber_dim: int
    orbit_dim: int
    degeneracy_D: int
    boundary_gap: float | None = None


def _checked_spectrum(values) -> np.ndarray:
    """A finite, descending, nonnegative float vector; entries within the sort slack of 0 become 0."""
    try:
        values = np.asarray(values, dtype=float)
    except (ValueError, TypeError):
        raise UnsortedInput("expected a vector of real numbers") from None
    if values.ndim != 1 or len(values) == 0:
        raise UnsortedInput("expected a non-empty vector")
    if not np.all(np.isfinite(values)):
        raise UnsortedInput("spectrum contains NaN or Inf entries")
    slack = 1e-12 * abs(values[0])
    if np.any(np.diff(values) > slack) or values[-1] < -slack:
        raise UnsortedInput("input must be sorted descending and nonnegative")
    values = np.maximum(values, 0.0)
    if values[0] <= 0.0:
        raise InvalidStratum("all-zero spectrum describes the zero state")
    return values


def _multiplicity(s: np.ndarray, cluster_tol: float):
    """Multiplicity vector of a checked root spectrum s = sqrt(p), and its boundary gap."""
    bounds = cluster_bounds(s, cluster_tol)
    sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
    zero_last = bool(s[-1] <= cluster_tol * s[0])
    # distance to the nearest coarser stratum: merge two blocks, or drop the
    # smallest block to zero when the state is full rank
    candidates = [float(s[pos - 1] - s[pos]) / s[0] for pos in bounds[1:-1]]
    if not zero_last:
        candidates.append(float(s[bounds[-2]]) / s[0])
    gap = min(candidates) if candidates else 1.0
    return MultiplicityVector(tuple(sizes), zero_last), gap


def flag_dimension(mv: MultiplicityVector, case: ParticleCase) -> int:
    """Real dimension of the flag manifold F(d_1, ..., d_k) in the moment image."""
    check_case(case)
    n = mv.n_levels
    base = n * n - sum(di * di for di in mv.d)
    return 2 * base if case is ParticleCase.DISTINGUISHABLE else base


def fiber_structure(mv: MultiplicityVector, case: ParticleCase) -> list[FiberFactor]:
    """Factors of the moment fiber for an orbit of type (d, degenerate).

    The zero block of a degenerate stratum is absorbed into the isotropy and
    contributes no factor; the torus rank drops by one accordingly.
    """
    check_case(case)
    if mv.degenerate and mv.k == 1:
        raise InvalidStratum("single all-zero block is the zero state")
    blocks = mv.d[:-1] if mv.degenerate else mv.d
    if case is ParticleCase.BOSON:
        factor = sym_so_factor
    elif case is ParticleCase.FERMION:
        factor = sym_usp_factor
    else:
        factor = group_su_factor
    return [torus_factor(len(blocks) - 1)] + [factor(m) for m in blocks]


def invariants_for(
    mv: MultiplicityVector, case: ParticleCase, boundary_gap: float | None = None
) -> OrbitInvariants:
    """Assemble all dimension data for an orbit type."""
    factors = tuple(fiber_structure(mv, case))
    fiber_dim = sum(f.dim for f in factors)
    flag = flag_dimension(mv, case)
    return OrbitInvariants(mv, flag, factors, fiber_dim, flag + fiber_dim, fiber_dim, boundary_gap)


def orbit_invariants(
    source: MomentImage | CanonicalForm, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> OrbitInvariants:
    """Classify a moment image into its stratum and compute its dimensions.

    Every case is clustered on the root spectrum s = sqrt(p), the canonical
    slice values, so ``cluster_tol`` and ``boundary_gap`` are relative gaps
    in s.  A ``CanonicalForm`` is still accepted only because the benchmark
    harness classifies forms; it goes once that passes images.
    """
    check_tolerance("cluster_tol", cluster_tol, positive=True)
    case, n = source.case, source.n_levels
    check_case(case)
    if isinstance(source, MomentImage):
        check_integer("n_levels", n, 2)
        s = np.sqrt(_checked_spectrum(source.probabilities))
        if len(s) != n:
            raise ValidationError(f"expected {n} probabilities p for N={n}, got {len(s)}")
    else:  # a Youla form holds one lambda per pair, fewer than N
        lam = source.lambdas
        s = _checked_spectrum(lam if len(lam) == n else np.concatenate([np.repeat(lam, 2), np.zeros(n % 2)]))
    mv, gap = _multiplicity(s, cluster_tol)
    return invariants_for(mv, case, boundary_gap=gap)


def _compositions(total: int):
    """Ordered compositions of a nonnegative integer."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _multiplicity_candidates(n: int, unit: int):
    """``unit`` times each composition of N - z, then the zero tail z = N mod unit, + unit, ... < N if z > 0."""
    for z in range(n % unit, n, unit):
        for comp in _compositions((n - z) // unit):
            yield MultiplicityVector(tuple([unit * c for c in comp]) + ((z,) if z else ()), z > 0)


def enumerate_strata(case: ParticleCase, n: int) -> list[OrbitInvariants]:
    """All orbit types for the given case and N, sorted by orbit dimension.

    Fermion blocks come in pairs (unit 2, else 1).  Counted from the
    compositions there are 2^b - 1, with b = floor(N / unit); b above
    ``MAX_LISTING_BITS`` is refused before any is built.
    """
    check_case(case)
    check_integer("n", n, 2)
    unit = 2 if case is ParticleCase.FERMION else 1
    bits = n // unit
    if bits > MAX_LISTING_BITS:
        raise ValidationError(f"N={n} has 2^{bits} - 1 strata; listings stop at 2^{MAX_LISTING_BITS} - 1")
    strata = [invariants_for(mv, case) for mv in _multiplicity_candidates(n, unit)]
    strata.sort(key=lambda inv: (-inv.orbit_dim, -inv.degeneracy_D, inv.d.d))
    return strata


def representative_state(
    mv: MultiplicityVector, case: ParticleCase, seed: int | None = None
) -> QuantumState:
    """A state realizing the given orbit type, with spectrum gaps >= 0.05.

    ``fiber_structure`` checks the pattern.  The state is the slice point of its
    root spectrum s; a seed rotates it by a deterministic random local unitary.
    """
    fiber_structure(mv, case)
    # strictly decreasing block values with a uniform gap; a half-step floor
    # keeps the nondegenerate spectrum bounded away from zero
    weights = [w if mv.degenerate else w + 0.5 for w in range(mv.k - 1, -1, -1)]
    scale = sum(d * w for d, w in zip(mv.d, weights))
    s = np.concatenate([np.full(d, np.sqrt(w / scale)) for d, w in zip(mv.d, weights)])
    if case is ParticleCase.FERMION:
        coeffs = fermion_pair_matrix(s[1::2], mv.n_levels)  # one value per pair of levels
    else:
        coeffs = np.diag(s.astype(complex))
    state = validate(coeffs, case)
    if seed is not None:
        state = apply_group_action(state, random_local_unitary(case, mv.n_levels, seed))
    return state
