"""Tests for state validation, serialization, the group action and the algebra-action reference."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luorbits
from luorbits import (
    CaseMismatch,
    DimensionMismatch,
    LocalUnitary,
    NonSquareInput,
    ParseError,
    ParticleCase,
    SymmetryViolation,
    ValidationError,
    ZeroState,
    apply_group_action,
    canonicalize,
    enumerate_strata,
    random_local_unitary,
    random_state,
    representative_state,
    state_from_dict,
    state_to_dict,
    validate,
)
from conftest import (
    ALL_CASES,
    algebra_action,
    assert_special_unitary,
    group_action_derivative,
    random_su_algebra,
)


class TestValidate:
    def test_symmetric_input_accepted_as_boson(self):
        s = validate([[0, 1], [1, 0]], ParticleCase.BOSON, 1e-9)
        assert np.isclose(np.linalg.norm(s.coeffs), 1.0, atol=1e-12)
        np.testing.assert_allclose(s.coeffs, np.array([[0, 1], [1, 0]]) / np.sqrt(2), atol=1e-15)

    def test_symmetric_input_rejected_as_fermion(self):
        with pytest.raises(SymmetryViolation):
            validate([[0, 1], [1, 0]], ParticleCase.FERMION)

    def test_antisymmetric_unit_accepted_as_fermion(self):
        s = validate([[0, 1], [-1, 0]], ParticleCase.FERMION)
        np.testing.assert_allclose(s.coeffs, np.array([[0, 1], [-1, 0]]) / np.sqrt(2), atol=1e-15)

    def test_small_defect_repaired(self):
        raw = np.array([[0, 1 + 1e-12], [1, 0]], dtype=complex)
        s = validate(raw, ParticleCase.BOSON, tol=1e-9)
        assert np.linalg.norm(s.coeffs - s.coeffs.T) == 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroState):
            validate(np.zeros((3, 3)), ParticleCase.BOSON)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareInput):
            validate(np.ones((2, 3)), ParticleCase.BOSON)

    def test_ragged_rejected(self):
        with pytest.raises(NonSquareInput):
            validate([[1, 0], [0]], ParticleCase.BOSON)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            validate([[np.nan, 0], [0, 1]], ParticleCase.BOSON)

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_beyond_the_float_range(self, big):
        with pytest.raises(ValidationError, match="finite"):
            validate([[big, 0], [0, 1]], ParticleCase.BOSON)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9, "loose"])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance used to pass this skewed matrix off as a boson
        with pytest.raises(ValidationError, match="tol must be"):
            validate([[1, 5], [0, 1]], ParticleCase.BOSON, tol=tol)

    def test_zero_tolerance_accepts_exact_symmetry(self):
        assert validate([[1, 5], [5, 1]], ParticleCase.BOSON, tol=0.0).n_levels == 2
        with pytest.raises(SymmetryViolation):
            validate([[1, 5], [5 + 1e-12, 1]], ParticleCase.BOSON, tol=0.0)

    def test_one_by_one_rejected(self):
        with pytest.raises(ValidationError):
            validate([[1.0]], ParticleCase.BOSON)

    def test_coeffs_read_only(self):
        s = random_state(ParticleCase.BOSON, 3, 0)
        with pytest.raises(ValueError):
            s.coeffs[0, 0] = 1.0

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_every_state_maker_freezes_coeffs(self, case):
        # stored canonical forms and moment images rely on this
        base = random_state(case, 4, 2)
        states = [
            base,
            validate(np.array(base.coeffs), case),
            apply_group_action(base, random_local_unitary(case, 4, 3)),
            representative_state(enumerate_strata(case, 4)[-1].d, case, seed=1),
            state_from_dict(state_to_dict(base)),
        ]
        assert all(not s.coeffs.flags.writeable for s in states)

    def test_fortran_ordered_input(self):
        raw = np.asfortranarray(np.diag([1.0, 2.0, 3.0, 4.0]) + 0j)
        s = validate(raw, ParticleCase.BOSON)
        np.testing.assert_allclose(s.coeffs, np.diag([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30), atol=1e-15)

    def test_transposed_view_input(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        raw = np.ascontiguousarray(base.T).T
        assert not raw.flags.c_contiguous
        s = validate(raw, ParticleCase.DISTINGUISHABLE)
        np.testing.assert_allclose(s.coeffs, base / np.linalg.norm(base), atol=1e-15)

    def test_non_contiguous_nan_rejected(self):
        raw = np.asfortranarray(np.eye(3, dtype=complex))
        raw[1, 2] = complex(0.0, np.nan)
        with pytest.raises(ValidationError):
            validate(raw, ParticleCase.DISTINGUISHABLE)

    @pytest.mark.parametrize("case", [ParticleCase.BOSON, ParticleCase.FERMION])
    def test_random_state_at_n128(self, case):
        s = random_state(case, 128, 3)
        assert s.coeffs.shape == (128, 128)
        assert np.isclose(np.linalg.norm(s.coeffs), 1.0, atol=1e-12)
        assert np.array_equal(s.coeffs, case.symmetry_sign * s.coeffs.T)

    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_extreme_scale(self, case, scale):
        # norms of the raw input would under- or overflow at these scales
        unit = random_state(case, 4, 5)
        s = validate(unit.coeffs * scale, case)
        assert np.isclose(np.linalg.norm(s.coeffs), 1.0, atol=1e-12)
        np.testing.assert_allclose(canonicalize(s).lambdas, canonicalize(unit).lambdas, rtol=0, atol=1e-12)

    def test_subnormal_entries(self):
        s = validate(np.diag([8.0, 6.0]) * 5e-324, ParticleCase.BOSON)
        np.testing.assert_allclose(s.coeffs, np.diag([0.8, 0.6]), rtol=0, atol=1e-15)


class TestGroupAction:
    def test_boson_congruence_stays_symmetric(self):
        s = validate(np.eye(2), ParticleCase.BOSON)
        g = random_local_unitary(ParticleCase.BOSON, 2, 3)
        moved = apply_group_action(s, g)
        np.testing.assert_allclose(moved.coeffs, g.u @ g.u.T / np.sqrt(2), atol=1e-14)
        assert np.linalg.norm(moved.coeffs - moved.coeffs.T) == 0.0

    def test_su2_fixes_the_fermion_singlet(self):
        # 2x2 identity U J U^t = det(U) J, checked numerically over SU(2)
        s = validate([[0, 1], [-1, 0]], ParticleCase.FERMION)
        for seed in range(5):
            g = random_local_unitary(ParticleCase.FERMION, 2, seed)
            moved = apply_group_action(s, g)
            np.testing.assert_allclose(moved.coeffs, s.coeffs, atol=1e-12)

    def test_distinguishable_identity(self):
        s = validate(np.diag([1.0, 0.0]), ParticleCase.DISTINGUISHABLE)
        g = LocalUnitary(ParticleCase.DISTINGUISHABLE, np.eye(2), np.eye(2))
        np.testing.assert_allclose(apply_group_action(s, g).coeffs, s.coeffs)

    def test_case_mismatch(self):
        s = random_state(ParticleCase.BOSON, 2, 0)
        with pytest.raises(CaseMismatch):
            apply_group_action(s, random_local_unitary(ParticleCase.FERMION, 2, 0))

    def test_dimension_mismatch(self):
        s = random_state(ParticleCase.BOSON, 2, 0)
        with pytest.raises(DimensionMismatch):
            apply_group_action(s, random_local_unitary(ParticleCase.BOSON, 3, 0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7),
           case=st.sampled_from(ALL_CASES))
    def test_norm_preserved(self, seed, n, case):
        s = random_state(case, n, seed)
        g = random_local_unitary(case, n, seed + 1)
        moved = apply_group_action(s, g)
        assert abs(np.linalg.norm(moved.coeffs) - 1.0) <= 1e-12
        sign = case.symmetry_sign
        if sign is not None:
            assert np.linalg.norm(moved.coeffs - sign * moved.coeffs.T) <= 1e-12


class TestAlgebraAction:
    def test_zero_element(self):
        s = random_state(ParticleCase.BOSON, 3, 1)
        np.testing.assert_array_equal(algebra_action(s, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_diagonal_element_on_maximally_mixed_boson(self):
        s = validate(np.eye(2), ParticleCase.BOSON)
        xi = 1j * np.diag([1.0, -1.0])
        expected = 2 * xi @ s.coeffs
        np.testing.assert_allclose(algebra_action(s, xi), expected, atol=1e-14)

    def test_su2_annihilates_the_fermion_singlet(self):
        # xi J + J xi^t = tr(xi) J = 0 on su(2)
        s = validate([[0, 1], [-1, 0]], ParticleCase.FERMION)
        rng = np.random.default_rng(5)
        for _ in range(5):
            xi = random_su_algebra(2, rng)
            assert np.linalg.norm(algebra_action(s, xi)) <= 1e-12

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_matches_group_action_derivative(self, case):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(10**6)))
            if case is ParticleCase.DISTINGUISHABLE:
                xi = (random_su_algebra(n, rng), random_su_algebra(n, rng))
            else:
                xi = random_su_algebra(n, rng)
            fd = group_action_derivative(s, xi)
            assert np.linalg.norm(fd - algebra_action(s, xi)) <= 1e-6


class TestRandomGenerators:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_state_determinism_and_class(self, case):
        a = random_state(case, 4, 11)
        b = random_state(case, 4, 11)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert abs(np.linalg.norm(a.coeffs) - 1.0) <= 1e-12
        sign = case.symmetry_sign
        if sign is not None:
            assert np.linalg.norm(a.coeffs - sign * a.coeffs.T) <= 1e-14

    def test_fermion_two_levels_is_the_singlet_direction(self):
        s = random_state(ParticleCase.FERMION, 2, 9)
        assert abs(s.coeffs[0, 0]) <= 1e-14
        assert abs(s.coeffs[1, 1]) <= 1e-14
        assert np.isclose(abs(s.coeffs[0, 1]), 1 / np.sqrt(2))

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_unitary_determinism_and_invariants(self, case):
        g1 = random_local_unitary(case, 3, 5)
        g2 = random_local_unitary(case, 3, 5)
        np.testing.assert_array_equal(g1.u, g2.u)
        assert_special_unitary(g1.u)
        if case is ParticleCase.DISTINGUISHABLE:
            assert_special_unitary(g1.v)
            np.testing.assert_array_equal(g1.v, g2.v)
        else:
            assert g1.v is None


    @pytest.mark.parametrize("n", [3.0, 2.5, True, 1, "3", None])
    @pytest.mark.parametrize("make", [
        lambda n: random_state(ParticleCase.BOSON, n, 1),
        lambda n: random_local_unitary(ParticleCase.DISTINGUISHABLE, n, 1),
        lambda n: enumerate_strata(ParticleCase.FERMION, n),
    ], ids=["random_state", "random_local_unitary", "enumerate_strata"])
    def test_n_must_be_an_integer_of_at_least_two(self, make, n):
        with pytest.raises(ValidationError, match="n must be an integer >= 2"):
            make(n)
        make(np.int64(3))

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    @pytest.mark.parametrize("make", [
        lambda seed: random_state(ParticleCase.BOSON, 3, seed),
        lambda seed: random_local_unitary(ParticleCase.DISTINGUISHABLE, 3, seed),
    ], ids=["random_state", "random_local_unitary"])
    def test_seed_must_be_a_nonnegative_integer(self, make, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            make(seed)
        make(np.int64(0))


class TestStateFiles:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_round_trip(self, case):
        s = random_state(case, 4, 2)
        recovered = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
        np.testing.assert_allclose(recovered.coeffs, s.coeffs, atol=1e-15)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 2})

    def test_bad_case_label(self):
        with pytest.raises(ParseError):
            state_from_dict({"case": "anyon", "n": 2, "matrix": [[[1, 0]] * 2] * 2})

    @pytest.mark.parametrize("label", ["bosons", ["boson"], None])
    def test_near_miss_or_unhashable_case_label(self, label):
        with pytest.raises(ParseError, match="unknown particle case"):
            state_from_dict({"case": label, "n": 2, "matrix": [[[1, 0]] * 2] * 2})

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})

    def test_nan_entry(self):
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]]
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 2, "matrix": bad})

    def test_inf_entry(self):
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("inf"), 0.0]]]
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 2, "matrix": bad})

    def test_non_pair_entry(self):
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]})

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            state_from_dict({"case": "boson", "n": 3, "matrix": [[[1, 0]] * 2] * 2})

    @pytest.mark.parametrize("part", [0, 1])
    def test_integer_beyond_the_float_range(self, part):
        entry = [0, 0]
        entry[part] = 10**400
        with pytest.raises(ParseError, match="finite"):
            state_from_dict({"case": "boson", "n": 2, "matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]})


class TestPublicSurface:
    def test_every_exported_name_resolves_once(self):
        assert len(luorbits.__all__) == len(set(luorbits.__all__))
        for name in luorbits.__all__:
            assert getattr(luorbits, name) is not None

    @pytest.mark.parametrize("name", [
        "apply_algebra_action", "NotAntiHermitian", "same_stratum", "polytope_membership", "canonical_matrix",
        "canonical_to_dict", "moment_to_dict", "verdict_to_dict", "stratum_to_dict", "oracle_to_dict",
        "check_levels", "multiplicity_vector",
    ])
    def test_removed_name_stays_removed(self, name):
        assert name not in luorbits.__all__
        for module in (luorbits, luorbits.canonical, luorbits.equivalence, luorbits.errors,
                       luorbits.moment, luorbits.oracle, luorbits.states, luorbits.strata):
            assert not hasattr(module, name)
