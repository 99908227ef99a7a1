"""Tests for reduced matrices, moment spectra, and polytope membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luorbits import (
    ParticleCase,
    apply_group_action,
    fermion_pair_matrix,
    polytope_membership,
    random_local_unitary,
    random_state,
    reduced_matrix,
    validate,
)
from conftest import ALL_CASES


class TestReducedMatrix:
    def test_boson_diagonal(self):
        s = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON)
        image = reduced_matrix(s)
        np.testing.assert_allclose(image.q_spectrum, [0.2, -0.2], atol=1e-12)
        np.testing.assert_allclose(image.probabilities, [0.7, 0.3], atol=1e-12)

    def test_fermion_a4_is_maximally_mixed(self):
        s = validate(fermion_pair_matrix([1.0, 1.0], 4), ParticleCase.FERMION)
        image = reduced_matrix(s)
        np.testing.assert_allclose(image.probabilities, [0.25] * 4, atol=1e-12)
        np.testing.assert_allclose(image.q_spectrum, np.zeros(4), atol=1e-12)

    def test_bell_state(self):
        s = validate(np.eye(2), ParticleCase.DISTINGUISHABLE)
        image = reduced_matrix(s)
        np.testing.assert_allclose(image.rho_left, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(image.rho_right, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(image.q_spectrum, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_rho_is_a_density_matrix(self, case):
        for seed in range(5):
            s = random_state(case, 5, seed)
            image = reduced_matrix(s)
            assert abs(np.trace(image.rho_left).real - 1.0) <= 1e-12
            assert np.linalg.norm(image.rho_left - image.rho_left.conj().T) <= 1e-14
            assert np.min(np.linalg.eigvalsh(image.rho_left)) >= -1e-12
            assert abs(image.q_spectrum.sum()) <= 1e-12

    def test_distinguishable_left_right_spectra_agree(self):
        for seed in range(10):
            s = random_state(ParticleCase.DISTINGUISHABLE, 4, seed)
            image = reduced_matrix(s)
            left = np.sort(np.linalg.eigvalsh(image.rho_left))
            right = np.sort(np.linalg.eigvalsh(image.rho_right))
            np.testing.assert_allclose(left, right, atol=1e-10)

    @pytest.mark.parametrize("case", [ParticleCase.BOSON, ParticleCase.FERMION])
    def test_left_and_right_products_share_spectrum(self, case):
        # C = +-C^t makes eig(C C^dag) = eig(C^dag C) structurally, not just up
        # to the generic singular-value argument
        for seed in range(5):
            c = random_state(case, 5, seed).coeffs
            left = np.sort(np.linalg.eigvalsh(c @ c.conj().T))
            right = np.sort(np.linalg.eigvalsh(c.conj().T @ c))
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestMomentEqual:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 6),
           case=st.sampled_from(ALL_CASES))
    def test_equivariance(self, seed, n, case):
        s = random_state(case, n, seed)
        g = random_local_unitary(case, n, seed + 7)
        a = reduced_matrix(s)
        b = reduced_matrix(apply_group_action(s, g))
        assert np.max(np.abs(a.q_spectrum - b.q_spectrum)) <= 1e-10

    def test_distinct_spectra(self):
        a = reduced_matrix(validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON))
        b = reduced_matrix(validate(np.diag([np.sqrt(0.6), np.sqrt(0.4)]), ParticleCase.BOSON))
        assert np.max(np.abs(a.q_spectrum - b.q_spectrum)) > 1e-9


class TestPolytope:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_origin_always_inside(self, case):
        assert polytope_membership(np.zeros(4), case, 1e-10)

    def test_boson_outside(self):
        assert not polytope_membership([0.6, -0.6], ParticleCase.BOSON, 1e-10)

    def test_fermion_pairing(self):
        assert polytope_membership([0.2, 0.2, -0.2, -0.2], ParticleCase.FERMION, 1e-10)
        assert not polytope_membership([0.3, 0.1, -0.1, -0.3], ParticleCase.FERMION, 1e-10)

    def test_fermion_odd_needs_trailing_zero(self):
        n = 5
        p = np.array([0.3, 0.3, 0.2, 0.2, 0.0])
        assert polytope_membership(p - 1 / n, ParticleCase.FERMION, 1e-10)
        p_bad = np.array([0.3, 0.3, 0.15, 0.15, 0.1])
        assert not polytope_membership(p_bad - 1 / n, ParticleCase.FERMION, 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7),
           case=st.sampled_from(ALL_CASES))
    def test_every_state_maps_into_the_polytope(self, seed, n, case):
        q = reduced_matrix(random_state(case, n, seed)).q_spectrum
        assert polytope_membership(q, case, 1e-10)

    def test_fermion_even_multiplicities(self):
        for seed in range(10):
            for n in (4, 5, 6, 7):
                p = reduced_matrix(random_state(ParticleCase.FERMION, n, seed)).probabilities
                for j in range(n // 2):
                    assert abs(p[2 * j] - p[2 * j + 1]) <= 1e-10
                if n % 2 == 1:
                    assert abs(p[-1]) <= 1e-10
