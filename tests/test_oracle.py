"""Tests for the numerical orbit/symplectic oracle and the three-qubit demo."""

import numpy as np
import pytest

from luorbits import (
    ParticleCase,
    ValidationError,
    apply_group_action,
    canonicalize,
    counterexample_demo,
    enumerate_strata,
    fermion_pair_matrix,
    oracle_check,
    orbit_invariants,
    random_local_unitary,
    random_state,
    representative_state,
    three_tangle,
    validate,
)
from luorbits.oracle import _acted_vectors, su_basis
from conftest import ALL_CASES, algebra_action, algebra_basis, ckw_three_tangle, pack

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

    def test_built_once_per_n_and_read_only(self):
        basis = su_basis(4)
        assert su_basis(4) is basis
        assert basis.shape == (15, 4, 4)
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 0.0


def full_acted(s):
    """Acted vectors in full N x N coordinates, one row per basis element, groups concatenated."""
    basis = algebra_basis(s.case, s.n_levels)
    return np.array([algebra_action(s, xi).ravel() for xi in basis])


def sample_states(case):
    """Random states at N = 2..6 (odd-N fermions included) and one rank-deficient state."""
    c = fermion_pair_matrix([1.0], 5) if case is FERMION else np.diag([0.8, 0.6, 0.0, 0.0])
    rank_deficient = apply_group_action(validate(c, case), random_local_unitary(case, len(c), 4))
    return [random_state(case, n, 40 + n) for n in range(2, 7)] + [rank_deficient]


class TestActedVectors:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_matches_the_per_element_algebra_action(self, case):
        for s in sample_states(case):
            n = s.n_levels
            per_element = np.array([algebra_action(s, xi) for xi in algebra_basis(case, n)])
            if case is DIST:
                reference, c = per_element.reshape(2, n * n - 1, n * n), s.coeffs.ravel()
            else:
                reference, c = pack(per_element, case)[np.newaxis], pack(s.coeffs, case)
            acted, packed_c = _acted_vectors(s)
            assert acted.shape == reference.shape
            assert np.max(np.abs(acted - reference)) <= 1e-14 * np.linalg.norm(s.coeffs)
            assert np.max(np.abs(packed_c - c)) <= 1e-15

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_gram_and_projection_match_full_coordinates(self, case):
        for s in sample_states(case):
            full = full_acted(s)
            acted, c = _acted_vectors(s)
            scale = np.linalg.norm(s.coeffs) ** 2
            m, full_gram = acted.shape[1], full.conj() @ full.T
            for i, group in enumerate(acted):
                block = full_gram[i * m:(i + 1) * m, i * m:(i + 1) * m]
                assert np.max(np.abs(group.conj() @ group.T - block)) <= 1e-14 * scale
            projection = acted.reshape(-1, acted.shape[-1]) @ c.conj()
            assert np.max(np.abs(projection - full @ s.coeffs.ravel().conj())) <= 1e-14 * scale

    def test_cross_block_of_the_two_form_vanishes(self):
        for s in sample_states(DIST):
            (left, right), _ = _acted_vectors(s)
            cross = left.conj() @ right.T
            assert np.max(np.abs(cross.imag)) <= 1e-14 * np.linalg.norm(s.coeffs) ** 2


def reference_ranks(s, rank_tol=1e-9):
    """Full-coordinate ranks with one symplectic Gram over all generators.

    Returns (orbit rank, symplectic rank, orbit ambiguous, symplectic ambiguous).
    """
    def thresholded(svals, scale_floor=0.0):
        smax = max(svals[0], scale_floor)
        if smax == 0.0:
            return 0, False
        threshold = rank_tol * smax
        ambiguous = np.any((svals >= threshold / 10) & (svals <= threshold * 10))
        return int(np.count_nonzero(svals > threshold)), bool(ambiguous)

    acted, c = full_acted(s), s.coeffs.ravel()
    tangents = acted - np.outer(acted @ c.conj(), c)
    orbit = thresholded(np.linalg.svd(np.hstack([tangents.real, tangents.imag]), compute_uv=False))
    gram = acted.conj() @ acted.T
    rank = thresholded(np.linalg.svd(-gram.imag, compute_uv=False), gram.real.diagonal().max())
    return orbit[0], rank[0], orbit[1], rank[1]


def reference_cases():
    seed = 0
    for case in ALL_CASES:
        for n in range(2, 7):
            for inv in enumerate_strata(case, n):
                seed += 1
                yield representative_state(inv.d, case, seed=seed)
        for n in (12, 16):
            yield random_state(case, n, n)
    yield validate(np.diag([1.0, 2e-9, 0.0]), DIST)


class TestAgainstFullCoordinateReference:
    def test_ranks_and_flags_match(self):
        for s in reference_cases():
            report = oracle_check(s)
            orbit, rank, orbit_ambiguous, rank_ambiguous = reference_ranks(s)
            flags = {"orbit dimension": orbit_ambiguous, "symplectic rank": rank_ambiguous}
            notes = tuple(f"{what}: singular value within a factor of 10 of the rank threshold"
                          for what, ambiguous in flags.items() if ambiguous)
            assert (report.orbit_dim_numeric, report.symplectic_rank_numeric) == (orbit, rank)
            assert report.warnings == notes

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_three_svds_with_one_batched_symplectic_call(self, case, monkeypatch):
        # one values-only SVD of C for the moment spectrum, one for the orbit
        # rank, one for all Gram blocks together
        n = 4
        s = random_state(case, n, 5)
        calls = []
        svd = np.linalg.svd

        def recorded_svd(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        oracle_check(s)
        assert len(calls) == 3
        assert calls[0] == ((n, n), False)
        groups = 2 if case is DIST else 1
        assert calls[-1][0] == (groups, n * n - 1, n * n - 1)


class TestFormulaSide:
    def test_no_canonical_form_is_computed(self):
        for case in ALL_CASES:
            s = random_state(case, 5, 3)
            oracle_check(s)
            assert "canonical" not in s._derived

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_matches_the_canonical_form_invariants(self, case):
        states = [representative_state(inv.d, case, seed=index)
                  for n in range(2, 7) for index, inv in enumerate(enumerate_strata(case, n))]
        for s in states + [random_state(case, 12, 12)]:
            report = oracle_check(s)
            inv = orbit_invariants(canonicalize(s))
            assert (report.formula_orbit_dim, report.formula_degeneracy) == (
                inv.orbit_dim, inv.degeneracy_D)


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

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-9, 1.0, 2.0, np.nan, np.inf])
    def test_bad_rank_tolerance_rejected(self, rank_tol):
        # rank_tol = 0 used to report an odd symplectic rank, NaN ranks of 0
        s = validate(np.diag([1.0, 1.0, 0.5]), DIST)
        with pytest.raises(ValidationError, match="rank_tol must be"):
            oracle_check(s, rank_tol=rank_tol)

    @pytest.mark.parametrize("cluster_tol", [0.0, np.nan])
    def test_bad_cluster_tolerance_rejected(self, cluster_tol):
        with pytest.raises(ValidationError, match="cluster_tol must be"):
            oracle_check(random_state(BOSON, 3, 0), cluster_tol=cluster_tol)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        for tensor in (np.full((2, 2, 2), bad), np.where(t == 0.0, t, bad)):
            with pytest.raises(ValidationError, match="finite"):
                three_tangle(tensor)

    def test_scale_free(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = np.sqrt(2 / 3)
        t[1, 1, 1] = np.sqrt(1 / 3)
        unit = three_tangle(t)
        for k in (600, -600):
            assert three_tangle(t * 2.0**k) == unit
        for scale in (1e160, 1e-160, 1e200, 1e-200):
            assert three_tangle(t * scale) == pytest.approx(unit, rel=0, abs=1e-15)
        with pytest.raises(ValidationError, match="zero tensor"):
            three_tangle(np.zeros((2, 2, 2)))

    def test_demo_tangles_unchanged(self):
        report = counterexample_demo()
        assert (report["tangle_x1"], report["tangle_x2"]) == (0.8888888888888888, 0.0)


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
