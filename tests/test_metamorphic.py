"""Metamorphic checks: transformations of the input that must not change the answer.

Orbits live in projective space, so a state's stratum, its lambdas up to the
common factor and the three-tangle do not depend on the scale of C or on a
global phase, and no result depends on the memory layout of the array passed.
A local unitary moves C along its orbit.  Complex conjugation and, for
distinguishable particles, the swap C -> C^t keep the singular values, so
they keep p, d and the orbit ranks, and by the spectral theorem the state's
local-unitary class.
"""

import numpy as np
import pytest

from luorbits import (
    MultiplicityVector,
    ParticleCase,
    lu_equivalent,
    oracle_check,
    orbit_invariants,
    random_local_unitary,
    random_state,
    reduced_matrix,
    representative_state,
    svd_congruence,
    takagi,
    three_tangle,
    validate,
    youla_antisymmetric,
)
from conftest import ALL_CASES

SCALE_EXPONENTS = range(-300, 301, 15)
FACTORIZATION = {
    ParticleCase.BOSON: takagi,
    ParticleCase.FERMION: youla_antisymmetric,
    ParticleCase.DISTINGUISHABLE: svd_congruence,
}
# a degenerate, rank-deficient stratum of each case at N = 5
DEGENERATE = {
    ParticleCase.BOSON: MultiplicityVector((2, 2, 1), True),
    ParticleCase.FERMION: MultiplicityVector((2, 2, 1), True),
    ParticleCase.DISTINGUISHABLE: MultiplicityVector((3, 2), True),
}


def _local_unitary(c, case):
    g = random_local_unitary(case, c.shape[0], 5)
    return g.u @ c @ (g.u if g.v is None else g.v).T


TRANSFORMS = {
    "global-phase": lambda c, case: np.exp(0.7j) * c,
    "fortran-order": lambda c, case: np.asfortranarray(c),
    # C for bosons, -C for fermions, the swap C -> C^t for distinguishable particles
    "transposed-view": lambda c, case: c.T,
    # the reversal permutation on both legs, passed as a negative-stride view
    "negative-strides": lambda c, case: c[::-1, ::-1],
    "local-unitary": _local_unitary,
    "conjugate": lambda c, case: c.conj(),
    "scale": lambda c, case: 1e250 * c,
}


class TestScale:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_lambdas_and_validated_state_do_not_depend_on_scale(self, case):
        for base in (random_state(case, 6, 3), representative_state(DEGENERATE[case], case, seed=2)):
            unit = FACTORIZATION[case](base.coeffs)[1]
            for k in SCALE_EXPONENTS:
                c = base.coeffs * 10.0**k
                lam = FACTORIZATION[case](c)[1] / 10.0**k
                np.testing.assert_allclose(lam, unit, rtol=1e-12, atol=1e-12 * unit[0])
                np.testing.assert_allclose(validate(c, case).coeffs, base.coeffs, rtol=0, atol=1e-14)

    def test_three_tangle_does_not_depend_on_scale_phase_or_layout(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        unit = three_tangle(t)
        for k in SCALE_EXPONENTS:
            assert three_tangle(t * 10.0**k) == pytest.approx(unit, rel=1e-12)
        # a phase, a layout, a bit flip on every qubit as a negative-stride view, a permutation of the qubits
        for moved in (np.exp(2.1j) * t, np.asfortranarray(t), t[::-1, ::-1, ::-1], t.transpose(2, 0, 1)):
            assert three_tangle(moved) == pytest.approx(unit, rel=1e-12)


def _states(case):
    return {
        "generic": random_state(case, 4, 8),
        "degenerate": representative_state(DEGENERATE[case], case, seed=9),
    }


@pytest.mark.parametrize("kind", ["generic", "degenerate"])
@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("case", ALL_CASES)
def test_invariants_survive_the_transform(case, transform, kind):
    base = _states(case)[kind]
    moved = validate(TRANSFORMS[transform](base.coeffs, case), case)
    np.testing.assert_allclose(reduced_matrix(moved).probabilities, reduced_matrix(base).probabilities,
                               rtol=0, atol=1e-12)
    assert orbit_invariants(reduced_matrix(moved)).d == orbit_invariants(reduced_matrix(base)).d
    before, after = oracle_check(base), oracle_check(moved)
    ranks = ("orbit_dim_numeric", "symplectic_rank_numeric", "degeneracy_numeric", "agree")
    assert [getattr(after, r) for r in ranks] == [getattr(before, r) for r in ranks]
    verdict = lu_equivalent(base, moved)
    assert verdict.equivalent and verdict.witness is not None and verdict.warnings == ()
