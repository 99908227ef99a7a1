"""Tests for the numerical orbit/symplectic oracle and the three-qubit demo."""

import numpy as np
import pytest

from luorbits import (
    ParticleCase,
    algebra_basis,
    apply_algebra_action,
    apply_group_action,
    counterexample_demo,
    fermion_pair_matrix,
    oracle_check,
    random_local_unitary,
    random_state,
    three_tangle,
    validate,
)
from luorbits.oracle import _acted_vectors
from conftest import ALL_CASES, ckw_three_tangle

BOSON = ParticleCase.BOSON
FERMION = ParticleCase.FERMION
DIST = ParticleCase.DISTINGUISHABLE


class TestAlgebraBasis:
    def test_sizes(self):
        assert len(algebra_basis(BOSON, 2)) == 3
        assert len(algebra_basis(FERMION, 3)) == 8
        assert len(algebra_basis(DIST, 2)) == 6

    def test_elements_antihermitian_traceless(self):
        for xi in algebra_basis(BOSON, 4):
            assert np.linalg.norm(xi + xi.conj().T) <= 1e-14
            assert abs(np.trace(xi)) <= 1e-14

    def test_real_span_is_the_full_algebra(self):
        basis = algebra_basis(BOSON, 3)
        stacked = np.array([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis])
        assert np.linalg.matrix_rank(stacked) == 8


class TestActedVectors:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_matches_the_per_element_algebra_action(self, case):
        c = fermion_pair_matrix([1.0], 5) if case is FERMION else np.diag([0.8, 0.6, 0.0, 0.0])
        rank_deficient = apply_group_action(validate(c, case), random_local_unitary(case, len(c), 4))
        for s in [random_state(case, n, 40 + n) for n in range(2, 6)] + [rank_deficient]:
            reference = np.array([apply_algebra_action(s, xi).ravel()
                                  for xi in algebra_basis(case, s.n_levels)])
            assert np.max(np.abs(_acted_vectors(s) - reference)) <= 1e-14 * np.linalg.norm(s.coeffs)


class TestOrbitDimension:
    def test_lagrangian_boson_orbit(self):
        report = oracle_check(validate(np.eye(2), BOSON))
        assert report.orbit_dim_numeric == 2
        assert report.symplectic_rank_numeric == 0

    def test_highest_weight_boson_orbit(self):
        report = oracle_check(validate(np.diag([1.0, 0.0]), BOSON))
        assert report.orbit_dim_numeric == 2
        assert report.symplectic_rank_numeric == 2

    def test_bell(self):
        report = oracle_check(validate(np.eye(2), DIST))
        assert report.orbit_dim_numeric == 3
        assert report.symplectic_rank_numeric == 0

    def test_generic_fermion_four_levels(self):
        report = oracle_check(validate(fermion_pair_matrix([0.8, 0.6], 4), FERMION))
        assert report.orbit_dim_numeric == 9
        assert report.symplectic_rank_numeric == 8

    def test_rank_is_even(self):
        rng = np.random.default_rng(0)
        for case in ALL_CASES:
            for _ in range(5):
                n = int(rng.integers(2, 6))
                s = random_state(case, n, int(rng.integers(10**6)))
                assert oracle_check(s).symplectic_rank_numeric % 2 == 0

    def test_degeneracy_nonnegative(self):
        rng = np.random.default_rng(1)
        for case in ALL_CASES:
            for _ in range(5):
                n = int(rng.integers(2, 7))
                s = random_state(case, n, int(rng.integers(10**6)))
                report = oracle_check(s)
                assert report.symplectic_rank_numeric <= report.orbit_dim_numeric


class TestOracleCheck:
    def test_bell_report(self):
        report = oracle_check(validate(np.eye(2), DIST))
        assert report.agree
        assert report.orbit_dim_numeric == 3
        assert report.degeneracy_numeric == 3
        assert report.formula_degeneracy == 3

    def test_rank_deficient_distinguishable(self):
        base = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3), 0.0, 0.0]), DIST)
        s = apply_group_action(base, random_local_unitary(DIST, 4, 3))
        report = oracle_check(s)
        assert report.agree

    def test_odd_fermion_generic(self):
        s = validate(fermion_pair_matrix([0.8, 0.5], 5), FERMION)
        report = oracle_check(s)
        assert report.agree
        assert report.degeneracy_numeric == 1

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_gauge_independence(self, case):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(10**6)))
            g = random_local_unitary(case, n, int(rng.integers(10**6)))
            report, moved = oracle_check(s), oracle_check(apply_group_action(s, g))
            assert report.orbit_dim_numeric == moved.orbit_dim_numeric
            assert report.symplectic_rank_numeric == moved.symplectic_rank_numeric

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_rank_stability_under_tolerance_change(self, case):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(10**6)))
            fine, coarse = oracle_check(s, 1e-9), oracle_check(s, 1e-8)
            assert fine.orbit_dim_numeric == coarse.orbit_dim_numeric
            assert fine.symplectic_rank_numeric == coarse.symplectic_rank_numeric

    def test_ambiguous_rank_reported_not_raised(self):
        # a spectrum gap at the threshold scale lands singular values in the
        # ambiguity band; the computation must still return
        c = np.diag([1.0, 2e-9, 0.0])
        s = validate(c, DIST)
        report = oracle_check(s, rank_tol=1e-9)
        assert report.warnings == (
            "orbit dimension: singular value within a factor of 10 of the rank threshold",
        )
        assert not report.agree


class TestThreeTangle:
    def test_weighted_ghz(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = np.sqrt(2 / 3)
        t[1, 1, 1] = np.sqrt(1 / 3)
        assert three_tangle(t) == pytest.approx(8 / 9, abs=1e-12)
        assert ckw_three_tangle(t) == pytest.approx(8 / 9, abs=1e-10)

    def test_w_state(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[1, 0, 0] = t[0, 1, 0] = t[0, 0, 1] = 1 / np.sqrt(3)
        assert three_tangle(t) <= 1e-12
        assert abs(ckw_three_tangle(t)) <= 1e-10

    def test_product_state(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        assert three_tangle(t) == 0.0

    def test_matches_monogamy_residual_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            t /= np.linalg.norm(t)
            assert three_tangle(t) == pytest.approx(ckw_three_tangle(t), abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            assert 0.0 <= three_tangle(t) <= 1.0 + 1e-12


class TestCounterexample:
    def test_equal_single_site_spectra(self):
        report = counterexample_demo()
        assert report["max_spectral_difference"] <= 1e-12
        assert report["moment_images_equal"]
        for row in report["spectra_x1"]:
            np.testing.assert_allclose(row, [2 / 3, 1 / 3], atol=1e-12)

    def test_tangles_separate_the_orbits(self):
        report = counterexample_demo()
        assert report["tangle_x1"] == pytest.approx(8 / 9, abs=1e-10)
        assert report["tangle_x2"] == pytest.approx(0.0, abs=1e-12)
        assert report["distinct_orbits"]
