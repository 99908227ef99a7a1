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

    def __post_init__(self):
        try:
            valid = bool(self.d) and all(operator.index(b) > 0 for b in self.d)
        except TypeError:
            valid = False
        if not valid:
            raise InvalidStratum(f"blocks must be one or more positive integers, got {self.d!r}")

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
    boundary_gap is the relative spectral distance to the nearest coarser
    stratum (None for abstractly enumerated strata).
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


def _multiplicity(values: np.ndarray, case: ParticleCase, cluster_tol: float, n_levels: int):
    """Multiplicity vector of a checked spectrum, and its boundary gap.

    ``values`` is p, or for fermions the floor(N/2) lambdas: their blocks
    count double, and the forced zero of odd N joins the final block.
    """
    vmax = values[0]
    bounds = cluster_bounds(values, cluster_tol)
    sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
    zero_last = bool(values[-1] <= cluster_tol * vmax)
    # distance to the nearest coarser stratum: merge two blocks, or drop the
    # smallest block to zero when the state is full rank
    candidates = [float(values[pos - 1] - values[pos]) / vmax for pos in bounds[1:-1]]
    if not zero_last:
        candidates.append(float(values[bounds[-2]]) / vmax)
    gap = min(candidates) if candidates else float(values[0]) / vmax
    if case is ParticleCase.FERMION:
        sizes = [2 * size for size in sizes]
        if n_levels % 2 == 1:
            sizes = sizes[:-1] + [sizes[-1] + 1] if zero_last else sizes + [1]
            zero_last = True
    return MultiplicityVector(tuple(sizes), zero_last), gap


def flag_dimension(mv: MultiplicityVector, case: ParticleCase) -> int:
    """Real dimension of the flag manifold F(d_1, ..., d_k) in the moment image."""
    n = mv.n_levels
    base = n * n - sum(di * di for di in mv.d)
    return 2 * base if case is ParticleCase.DISTINGUISHABLE else base


def fiber_structure(mv: MultiplicityVector, case: ParticleCase) -> list[FiberFactor]:
    """Factors of the moment fiber for an orbit of type (d, degenerate).

    The zero block of a degenerate stratum is absorbed into the isotropy and
    contributes no factor; the torus rank drops by one accordingly.
    """
    if mv.degenerate and mv.k == 1:
        raise InvalidStratum("single all-zero block is the zero state")
    blocks = mv.d[:-1] if mv.degenerate else mv.d
    torus_dim = mv.k - 2 if mv.degenerate else mv.k - 1
    if case is ParticleCase.BOSON:
        factor = sym_so_factor
    elif case is ParticleCase.FERMION:
        factor = sym_usp_factor
    else:
        factor = group_su_factor
    return [torus_factor(torus_dim)] + [factor(m) for m in blocks]


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

    A fermion image is clustered on sqrt(p) at every other entry, the Youla
    lambdas of a unit-norm state, so ``cluster_tol`` and ``boundary_gap``
    are measured on the lambdas.  A ``CanonicalForm`` (clustered on
    lambda^2 / sum, fermions on the lambdas) is still accepted only because
    the benchmark harness classifies forms; it goes once that passes images.
    """
    check_tolerance("cluster_tol", cluster_tol, positive=True)
    case, n = source.case, source.n_levels
    if isinstance(source, MomentImage):
        if not isinstance(case, ParticleCase):
            raise ValidationError(f"case must be a ParticleCase, got {case!r}")
        check_integer("n_levels", n, 2)
        p = _checked_spectrum(source.probabilities)
        if len(p) != n:
            raise ValidationError(f"expected {n} probabilities p for N={n}, got {len(p)}")
        values = np.sqrt(p[: 2 * (n // 2) : 2]) if case is ParticleCase.FERMION else p
    elif case is ParticleCase.FERMION:
        values = _checked_spectrum(source.lambdas)
    else:
        p = source.lambdas**2
        values = _checked_spectrum(p / p.sum())
    mv, gap = _multiplicity(values, case, cluster_tol, n)
    return invariants_for(mv, case, boundary_gap=gap)


def _compositions(total: int):
    """Ordered compositions of a nonnegative integer."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _multiplicity_candidates(case: ParticleCase, n: int):
    if case is not ParticleCase.FERMION:
        for comp in _compositions(n):
            yield MultiplicityVector(comp, False)
            if len(comp) >= 2:
                yield MultiplicityVector(comp, True)
        return
    if n % 2 == 0:
        for comp in _compositions(n // 2):
            d = tuple(2 * c for c in comp)
            yield MultiplicityVector(d, False)
            if len(d) >= 2:
                yield MultiplicityVector(d, True)
        return
    for tail in range(1, n + 1, 2):
        for comp in _compositions((n - tail) // 2):
            d = tuple(2 * c for c in comp) + (tail,)
            if len(d) >= 2:
                yield MultiplicityVector(d, True)


def enumerate_strata(case: ParticleCase, n: int) -> list[OrbitInvariants]:
    """All orbit types for the given case and N, sorted by orbit dimension.

    Counted from the compositions there are 2^b - 1, with b = N (fermions:
    b = floor(N/2)); b above ``MAX_LISTING_BITS`` is refused before any is built.
    """
    check_integer("n", n, 2)
    bits = n // 2 if case is ParticleCase.FERMION else n
    if bits > MAX_LISTING_BITS:
        raise ValidationError(f"N={n} has 2^{bits} - 1 strata; listings stop at 2^{MAX_LISTING_BITS} - 1")
    strata = [invariants_for(mv, case) for mv in _multiplicity_candidates(case, n)]
    strata.sort(key=lambda inv: (-inv.orbit_dim, -inv.degeneracy_D, inv.d.d))
    return strata


def representative_state(
    mv: MultiplicityVector, case: ParticleCase, seed: int | None = None
) -> QuantumState:
    """A state realizing the given orbit type, with spectrum gaps >= 0.05.

    The representative sits on the canonical slice; pass a seed to rotate it
    off the slice by a deterministic random local unitary.
    """
    if mv.degenerate and mv.k == 1:
        raise InvalidStratum("single all-zero block is the zero state")
    if case is ParticleCase.FERMION:
        if any(d % 2 for d in mv.d[:-1]) or mv.n_levels % 2 != mv.d[-1] % 2:
            raise InvalidStratum("fermion blocks must be even (odd N: odd zero tail)")
        if mv.n_levels % 2 == 1 and not mv.degenerate:
            raise InvalidStratum("odd-N fermion strata are always degenerate")
    k = mv.k
    # strictly decreasing block values with a uniform gap; a half-step floor
    # keeps the nondegenerate spectrum bounded away from zero
    weights = [(k - j) if mv.degenerate else (k - j + 0.5) for j in range(1, k + 1)]
    scale = sum(d * w for d, w in zip(mv.d, weights))
    if case is ParticleCase.FERMION:
        lam = np.concatenate([np.full(d // 2, np.sqrt(w / scale)) for d, w in zip(mv.d, weights)])
        coeffs = fermion_pair_matrix(lam, mv.n_levels)
    else:
        p = np.concatenate([np.full(d, w / scale) for d, w in zip(mv.d, weights)])
        coeffs = np.diag(np.sqrt(p).astype(complex))
    state = validate(coeffs, case, tol=1e-12)
    if seed is not None:
        state = apply_group_action(state, random_local_unitary(case, mv.n_levels, seed))
    return state
