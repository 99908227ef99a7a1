"""Tests for multiplicity vectors, fiber structure, and stratum enumeration."""

import numpy as np
import pytest

from luorbits import (
    InvalidStratum,
    MomentImage,
    MultiplicityVector,
    ParticleCase,
    UnsortedInput,
    ValidationError,
    apply_group_action,
    canonicalize,
    enumerate_strata,
    fiber_structure,
    flag_dimension,
    orbit_invariants,
    random_local_unitary,
    reduced_matrix,
    representative_state,
    validate,
)
from luorbits.canonical import cluster_bounds
from luorbits.strata import DEFAULT_CLUSTER_TOL, group_su_factor, sym_so_factor, sym_usp_factor, torus_factor
from conftest import ALL_CASES

BOSON = ParticleCase.BOSON
FERMION = ParticleCase.FERMION
DIST = ParticleCase.DISTINGUISHABLE


def blocks(case, n, p, cluster_tol=DEFAULT_CLUSTER_TOL):
    """The multiplicity vector of a raw spectrum, handed over as a moment image."""
    return orbit_invariants(MomentImage(case, n, p), cluster_tol).d


def fermion_p(lambdas, n):
    """The fermion image of a lambda vector: each lambda^2 twice, then 0 for odd N."""
    return np.concatenate([np.repeat(np.square(lambdas), 2), np.zeros(n % 2)])


class TestMultiplicityVector:
    def test_all_distinct(self):
        mv = blocks(BOSON, 3, [0.5, 0.3, 0.2])
        assert mv == MultiplicityVector((1, 1, 1), False)

    def test_zero_block(self):
        mv = blocks(BOSON, 3, [0.5, 0.5, 0.0])
        assert mv == MultiplicityVector((2, 1), True)

    def test_fermion_doubling_with_forced_zero(self):
        mv = blocks(FERMION, 5, fermion_p(np.sqrt([0.3, 0.2]), 5))
        assert mv == MultiplicityVector((2, 2, 1), True)

    def test_fermion_even(self):
        mv = blocks(FERMION, 6, fermion_p([0.6, 0.6, 0.2], 6))
        assert mv == MultiplicityVector((4, 2), False)

    def test_fermion_odd_zero_lambda_merges(self):
        mv = blocks(FERMION, 5, fermion_p([0.9, 0.0], 5))
        assert mv == MultiplicityVector((2, 3), True)

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInput):
            blocks(BOSON, 2, [0.2, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(UnsortedInput):
            blocks(BOSON, 2, [0.5, -0.1])

    @pytest.mark.parametrize("values", [["a", "b"], [0.5 + 1j, 0.5]])
    def test_non_real_entries_rejected(self, values):
        with pytest.raises(UnsortedInput, match="real numbers"):
            blocks(BOSON, 2, values)

    @pytest.mark.parametrize("d", [(0,), (3, -1), (), (2.5,)])
    def test_blocks_must_be_positive_integers(self, d):
        with pytest.raises(InvalidStratum, match="positive integers"):
            MultiplicityVector(d, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("case", [BOSON, FERMION])
    def test_non_finite_rejected(self, case, bad):
        image = (4, fermion_p([bad, 0.5], 4)) if case is FERMION else (2, [bad, 0.5])
        with pytest.raises(UnsortedInput, match="NaN or Inf"):
            blocks(case, *image)

    @pytest.mark.parametrize("p", [[0.6, 0.6, -0.1, -0.1], [0.1, 0.1, 0.6, 0.6], [0.6, 0.6, 0.2, 0.3]])
    def test_malformed_fermion_image_rejected_before_the_square_root(self, p):
        # under the suite's warnings-as-errors filter, a numpy warning from
        # sqrt of a negative entry would surface as a RuntimeWarning instead
        with pytest.raises(UnsortedInput, match="sorted descending and nonnegative"):
            blocks(FERMION, 4, p)

    @pytest.mark.parametrize("case, n, p", [(FERMION, 4, [0.5, 0.5]), (FERMION, 5, [0.5, 0.5, 0.0, 0.0]),
                                            (BOSON, 3, [0.5, 0.5]), (DIST, 2, [0.5, 0.3, 0.2])])
    def test_wrong_length_names_p(self, case, n, p):
        with pytest.raises(ValidationError, match=f"expected {n} probabilities p"):
            blocks(case, n, p)

    @pytest.mark.parametrize("n", [2.0, True, 1, "2"])
    def test_image_size_must_be_an_integer(self, n):
        with pytest.raises(ValidationError, match="n_levels must be an integer >= 2"):
            blocks(BOSON, n, [0.5, 0.5])

    @pytest.mark.parametrize("case", ["fermion", None])
    def test_image_case_must_be_a_particle_case(self, case):
        # a label is not a case: "fermion" was clustered as distinguishable
        with pytest.raises(ValidationError, match="case must be a ParticleCase"):
            blocks(case, 4, [0.3, 0.3, 0.2, 0.2])

    def test_cluster_tolerance(self):
        assert blocks(BOSON, 3, [0.5, 0.5 - 1e-10, 0.3]).d == (2, 1)
        assert blocks(BOSON, 3, [0.5, 0.4, 0.3]).d == (1, 1, 1)

    def test_cluster_bounds_match_a_scalar_loop(self):
        def loop_bounds(values, tol):
            bounds = [0]
            for i in range(len(values) - 1):
                if values[i] - values[i + 1] > tol * values[0]:
                    bounds.append(i + 1)
            return bounds + [len(values)]

        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            steps = rng.choice([0.0, 1e-12, 1e-9, 1e-8, 1e-7, 0.1], size=n)
            values = np.maximum(1.0 - np.cumsum(steps) + steps[0], 0.0)
            for tol in (1e-8, 1e-4):
                assert cluster_bounds(values, tol) == loop_bounds(values, tol)


class TestDimensionFormulas:
    def test_factor_dimensions(self):
        assert torus_factor(3).dim == 3
        assert sym_so_factor(1).dim == 0
        assert sym_so_factor(2).dim == 2
        assert sym_so_factor(3).dim == 5
        assert sym_usp_factor(2).dim == 0
        assert sym_usp_factor(4).dim == 5
        assert group_su_factor(1).dim == 0
        assert group_su_factor(2).dim == 3

    def test_flag_point(self):
        assert flag_dimension(MultiplicityVector((4,), False), BOSON) == 0

    def test_flag_full(self):
        assert flag_dimension(MultiplicityVector((1, 1), False), BOSON) == 2

    def test_flag_doubled_for_distinguishable(self):
        assert flag_dimension(MultiplicityVector((1, 1), False), DIST) == 4


class TestFiberStructure:
    def test_boson_maximally_mixed(self):
        factors = fiber_structure(MultiplicityVector((2,), False), BOSON)
        assert [(f.kind, f.m, f.dim) for f in factors] == [("torus", 0, 0), ("sym_so", 2, 2)]

    def test_fermion_generic(self):
        for n_pairs in (1, 2, 3):
            mv = MultiplicityVector((2,) * n_pairs, False)
            factors = fiber_structure(mv, FERMION)
            assert sum(f.dim for f in factors) == n_pairs - 1

    def test_bell(self):
        factors = fiber_structure(MultiplicityVector((2,), False), DIST)
        assert [(f.kind, f.dim) for f in factors] == [("torus", 0), ("group_su", 3)]

    def test_degenerate_drops_zero_block(self):
        factors = fiber_structure(MultiplicityVector((1, 3), True), BOSON)
        assert [(f.kind, f.dim) for f in factors] == [("torus", 0), ("sym_so", 0)]

    def test_zero_state_rejected(self):
        with pytest.raises(InvalidStratum):
            fiber_structure(MultiplicityVector((4,), True), BOSON)

    def test_odd_usp_block_rejected(self):
        with pytest.raises(InvalidStratum):
            fiber_structure(MultiplicityVector((3, 1), False), FERMION)


class TestOrbitInvariants:
    def test_boson_highest_weight(self):
        for n in range(2, 7):
            c = np.zeros((n, n))
            c[0, 0] = 1.0
            inv = orbit_invariants(canonicalize(validate(c, BOSON)))
            assert inv.d == MultiplicityVector((1, n - 1), True)
            assert inv.degeneracy_D == 0
            assert inv.orbit_dim == 2 * (n - 1)

    def test_fermion_plucker_orbit(self):
        from luorbits import fermion_pair_matrix
        s = validate(fermion_pair_matrix([1.0, 0.0], 4), FERMION)
        inv = orbit_invariants(canonicalize(s))
        assert inv.d == MultiplicityVector((2, 2), True)
        assert inv.degeneracy_D == 0
        assert inv.orbit_dim == 8  # real dimension of Gr(2, 4)

    def test_boson_generic_torus_fiber(self):
        for n in range(2, 7):
            p = np.linspace(2 * n, n + 1, n)
            p = p / p.sum()
            inv = orbit_invariants(canonicalize(validate(np.diag(np.sqrt(p)), BOSON)))
            assert inv.d == MultiplicityVector((1,) * n, False)
            assert inv.degeneracy_D == n - 1

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_bad_cluster_tolerance_rejected(self, tol):
        cf = canonicalize(validate(np.diag([0.8, 0.6]), BOSON))
        with pytest.raises(ValidationError, match="cluster_tol must be"):
            orbit_invariants(cf, tol)
        with pytest.raises(ValidationError, match="cluster_tol must be"):
            blocks(BOSON, 2, [0.5, 0.5], cluster_tol=tol)

    def test_boundary_gap_reported(self):
        s = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), BOSON)
        inv = orbit_invariants(canonicalize(s))
        assert inv.boundary_gap == pytest.approx(0.3 / 0.7, rel=1e-6)

    @pytest.mark.parametrize("n", [4, 5])
    def test_fermion_moment_image_clusters_the_lambdas(self, n):
        # a relative lambda gap of 0.7 cluster_tol is one block on the
        # lambdas, but 1.4 cluster_tol on p = lambda^2 would split it
        from luorbits import fermion_pair_matrix
        s = validate(fermion_pair_matrix([1.0, 1.0 - 0.7e-8], n), FERMION)
        s = apply_group_action(s, random_local_unitary(FERMION, n, 2))
        from_moment, from_form = orbit_invariants(reduced_matrix(s)), orbit_invariants(canonicalize(s))
        assert from_moment.d == from_form.d == MultiplicityVector((4,) + (1,) * (n - 4), n == 5)
        assert from_moment.boundary_gap == pytest.approx(from_form.boundary_gap, rel=1e-6)

    @pytest.mark.parametrize("tol", [0.0, np.nan])
    def test_moment_image_checks_the_cluster_tolerance(self, tol):
        image = reduced_matrix(validate(np.diag([0.8, 0.6]), DIST))
        with pytest.raises(ValidationError, match="cluster_tol must be"):
            orbit_invariants(image, tol)


class TestEnumerateStrata:
    def test_boson_two_levels(self):
        strata = enumerate_strata(BOSON, 2)
        table = {(s.d.d, s.d.degenerate): s.degeneracy_D for s in strata}
        assert table == {((2,), False): 2, ((1, 1), False): 1, ((1, 1), True): 0}

    def test_fermion_two_levels_single_point(self):
        strata = enumerate_strata(FERMION, 2)
        assert len(strata) == 1
        assert strata[0].d == MultiplicityVector((2,), False)
        assert strata[0].orbit_dim == 0

    def test_distinguishable_two_levels(self):
        table = {(s.d.d, s.d.degenerate): s.degeneracy_D for s in enumerate_strata(DIST, 2)}
        assert table == {((2,), False): 3, ((1, 1), False): 1, ((1, 1), True): 0}

    def test_sorted_by_orbit_dimension(self):
        for case in ALL_CASES:
            dims = [s.orbit_dim for s in enumerate_strata(case, 5)]
            assert dims == sorted(dims, reverse=True)

    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_identity_and_unique_symplectic_stratum(self, case, n):
        strata = enumerate_strata(case, n)
        for s in strata:
            assert 0 <= s.degeneracy_D <= s.orbit_dim
            assert s.orbit_dim - s.degeneracy_D == s.flag_dim_real
        zero_d = [(s.d.d, s.d.degenerate) for s in strata if s.degeneracy_D == 0]
        if case is FERMION:
            expected = ((2,), False) if n == 2 else ((2, n - 2), True)
        else:
            expected = ((1, n - 1), True)
        assert zero_d == [expected]

    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_generic_stratum_has_maximal_dimension(self, case, n):
        strata = enumerate_strata(case, n)
        if case is FERMION:
            generic = (2,) * (n // 2) + ((1,) if n % 2 else ())
        else:
            generic = (1,) * n
        top = strata[0]
        assert top.d.d == generic
        assert all(s.orbit_dim <= top.orbit_dim for s in strata)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_listing_size_is_the_composition_count(self, case):
        for n in range(2, 10):
            bits = n // 2 if case is FERMION else n
            assert len(enumerate_strata(case, n)) == 2**bits - 1

    @pytest.mark.parametrize("case, n", [(BOSON, 17), (DIST, 17), (FERMION, 34), (BOSON, 10**9)])
    def test_oversized_listing_refused_before_it_is_built(self, case, n, monkeypatch):
        import luorbits.strata as strata_module

        def no_candidates(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(strata_module, "_multiplicity_candidates", no_candidates)
        with pytest.raises(ValidationError, match="listings stop at"):
            enumerate_strata(case, n)

    def test_fermion_block_parity(self):
        for n in range(2, 7):
            for s in enumerate_strata(FERMION, n):
                assert all(d % 2 == 0 for d in s.d.d[:-1])
                assert s.d.d[-1] % 2 == n % 2
                if n % 2 == 1:
                    assert s.d.degenerate


class TestRepresentativeState:
    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_representatives_hit_their_stratum(self, case, n):
        for index, inv in enumerate(enumerate_strata(case, n)):
            rep = representative_state(inv.d, case, seed=index)
            got = orbit_invariants(canonicalize(rep))
            assert got.d == inv.d
            assert got.orbit_dim == inv.orbit_dim

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_spectrum_gaps_at_least_five_percent(self, case):
        for n in range(2, 7):
            for inv in enumerate_strata(case, n):
                rep = representative_state(inv.d, case)
                p = reduced_matrix(rep).probabilities
                distinct = [p[0]]
                for value in p[1:]:
                    if distinct[-1] - value > 1e-9:
                        distinct.append(value)
                gaps = [a - b for a, b in zip(distinct[:-1], distinct[1:])]
                if gaps:
                    assert min(gaps) >= 0.05 - 1e-9

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        mv = MultiplicityVector((2, 1), False)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            representative_state(mv, BOSON, seed)
        representative_state(mv, BOSON, None)
        representative_state(mv, BOSON, np.int64(0))

    def test_invalid_fermion_parity_rejected(self):
        with pytest.raises(InvalidStratum):
            representative_state(MultiplicityVector((3, 1), False), FERMION)
