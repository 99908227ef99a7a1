"""Seeded inputs with a known answer, and the paper's dimension formulas.

Every state is built from a planted spectrum on the canonical slice and then
rotated by a Haar-random local unitary drawn here, so the answer each check
expects comes from this file and never from the program under test.  The
program receives only the resulting matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CASES = ("boson", "fermion", "dist")


@dataclass(frozen=True)
class Stratum:
    """Orbit type: block sizes of the probability spectrum, zero last block if degenerate."""

    case: str
    d: tuple[int, ...]
    degenerate: bool

    @property
    def n(self) -> int:
        return sum(self.d)

    @property
    def nonzero_blocks(self) -> tuple[int, ...]:
        return self.d[:-1] if self.degenerate else self.d


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def strata(case: str, n: int) -> list[Stratum]:
    """Every orbit type of the case at this N, in a fixed order.

    Bosons and distinguishable particles: any composition of N, full rank or
    with a zero last block.  Fermions: probabilities come in equal pairs, so
    nonzero blocks are even; odd N forces an odd zero block.
    """
    out = []
    if case != "fermion":
        for comp in _compositions(n):
            out.append(Stratum(case, comp, False))
            if len(comp) >= 2:
                out.append(Stratum(case, comp, True))
        return out
    if n % 2 == 0:
        for comp in _compositions(n // 2):
            d = tuple(2 * c for c in comp)
            out.append(Stratum(case, d, False))
            if len(d) >= 2:
                out.append(Stratum(case, d, True))
        return out
    for tail in range(1, n, 2):
        for comp in _compositions((n - tail) // 2):
            out.append(Stratum(case, tuple(2 * c for c in comp) + (tail,), True))
    return out


def generic_stratum(case: str, n: int) -> Stratum:
    """The open stratum: all probabilities distinct (paired for fermions)."""
    if case != "fermion":
        return Stratum(case, (1,) * n, False)
    if n % 2 == 0:
        return Stratum(case, (2,) * (n // 2), False)
    return Stratum(case, (2,) * (n // 2) + (1,), True)


@dataclass(frozen=True)
class Dimensions:
    flag: int
    fiber: int

    @property
    def orbit(self) -> int:
        return self.flag + self.fiber


def dimensions(st: Stratum) -> Dimensions:
    """Flag-manifold and moment-fiber dimensions of an orbit type.

    The flag manifold F(d_1..d_k) has real dimension N^2 - sum d_i^2, doubled
    for two distinguishable particles.  The fiber is a torus of rank k - 1
    (k - 2 when the zero block is present) times one factor per nonzero
    block of size m: SU_m/SO_m for bosons, (m-1)(m+2)/2; SU_m/USp_m for
    fermions, (m-2)(m+1)/2; SU_m for distinguishable particles, m^2 - 1.
    The fiber dimension equals the symplectic degeneracy D of the orbit.
    """
    n = st.n
    flag = n * n - sum(m * m for m in st.d)
    if st.case == "dist":
        flag *= 2
    torus = len(st.d) - (2 if st.degenerate else 1)
    if st.case == "boson":
        blocks = sum((m - 1) * (m + 2) // 2 for m in st.nonzero_blocks)
    elif st.case == "fermion":
        blocks = sum((m - 2) * (m + 1) // 2 for m in st.nonzero_blocks)
    else:
        blocks = sum(m * m - 1 for m in st.nonzero_blocks)
    return Dimensions(flag, torus + blocks)


@dataclass(frozen=True)
class Planted:
    """A point of the canonical slice: its stratum, slice values and matrix."""

    stratum: Stratum
    lambdas: np.ndarray  # what canonicalize must return, descending
    p: np.ndarray  # probabilities, descending
    core: np.ndarray  # diag(lambdas), or the fermion pair-block matrix


def block_values(st: Stratum, rng: np.random.Generator, near_gap: float | None = None) -> np.ndarray:
    """Descending values of the clustering quantity, one per nonzero block.

    Relative gaps are drawn around 0.5/k so that the smallest value stays
    above a quarter of the largest.  ``near_gap`` replaces the gap between the
    two largest blocks, to plant a nearly degenerate spectrum.
    """
    k = len(st.nonzero_blocks)
    gaps = rng.uniform(0.5, 1.5, size=max(k - 1, 0)) * (0.5 / k)
    if near_gap is not None:
        gaps[0] = near_gap
    return 1.0 - np.concatenate([[0.0], np.cumsum(gaps)])


def plant(st: Stratum, rng: np.random.Generator, near_gap: float | None = None) -> Planted:
    """Draw slice values for the stratum; gaps are relative to the largest value.

    The gap is planted on the quantity the program clusters: probabilities
    for bosons and distinguishable particles, lambdas for fermions.
    """
    values = block_values(st, rng, near_gap)
    n = st.n
    if st.case == "fermion":
        lam = np.zeros(n // 2)
        lam[: sum(st.nonzero_blocks) // 2] = np.repeat(values, [m // 2 for m in st.nonzero_blocks])
        lam /= np.sqrt(2.0 * np.sum(lam**2))
        core = np.zeros((n, n), dtype=complex)
        idx = np.arange(n // 2)
        core[2 * idx, 2 * idx + 1] = lam
        core[2 * idx + 1, 2 * idx] = -lam
        p = np.zeros(n)
        p[: 2 * len(lam)] = np.repeat(lam**2, 2)
        p = np.sort(p)[::-1]
    else:
        p = np.zeros(n)
        p[: sum(st.nonzero_blocks)] = np.repeat(values, st.nonzero_blocks)
        p /= p.sum()
        lam = np.sqrt(p)
        core = np.diag(lam.astype(complex))
    return Planted(st, lam, p, core)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(N) matrix: QR of a complex Gaussian with the phases of R removed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rotate(pl: Planted, rng: np.random.Generator) -> np.ndarray:
    """A fresh point of the planted orbit: phase * U core U^t (or U core V^t), unit norm."""
    n = pl.stratum.n
    u = haar_unitary(n, rng)
    right = haar_unitary(n, rng) if pl.stratum.case == "dist" else u
    phase = np.exp(2j * np.pi * rng.uniform())
    c = phase * (u @ pl.core @ right.T)
    return c / np.linalg.norm(c)


def partner(pl: Planted, rng: np.random.Generator) -> Planted | None:
    """A planted state on another orbit: a generic spectrum away from pl's.

    Two fermions with N <= 3 have a single orbit, so they get no partner.
    """
    st = pl.stratum
    if st.case == "fermion" and st.n <= 3:
        return None
    while True:
        other = plant(generic_stratum(st.case, st.n), rng)
        if np.max(np.abs(other.p - pl.p)) > 1e-4:
            return other
