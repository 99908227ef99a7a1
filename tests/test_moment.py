"""Tests for reduced matrices and moment spectra."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luorbits import (
    MomentImage,
    ParticleCase,
    QuantumState,
    ZeroState,
    apply_group_action,
    fermion_pair_matrix,
    random_local_unitary,
    random_state,
    reduced_matrix,
    validate,
)
from conftest import ALL_CASES, reduced_density


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
        np.testing.assert_allclose(reduced_density(s.coeffs), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(reduced_density(s.coeffs.T), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(image.q_spectrum, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_rho_is_a_density_matrix(self, case):
        for seed in range(5):
            s = random_state(case, 5, seed)
            image = reduced_matrix(s)
            rho = reduced_density(s.coeffs)
            eigs = np.linalg.eigvalsh(rho)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.linalg.norm(rho - rho.conj().T) <= 1e-14
            assert np.min(eigs) >= -1e-12
            assert abs(image.q_spectrum.sum()) <= 1e-12
            np.testing.assert_allclose(eigs[::-1], image.probabilities, atol=1e-12)

    def test_distinguishable_left_right_spectra_agree(self):
        for seed in range(10):
            c = random_state(ParticleCase.DISTINGUISHABLE, 4, seed).coeffs
            left = np.sort(np.linalg.eigvalsh(reduced_density(c)))
            right = np.sort(np.linalg.eigvalsh(reduced_density(c.T)))
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

    def test_the_image_is_case_n_and_p(self):
        assert [f.name for f in dataclasses.fields(MomentImage)] == ["case", "n_levels", "probabilities"]

    def test_p_is_stored_as_a_read_only_float_array(self):
        # a list p used to make q_spectrum raise a raw TypeError
        p = [0.5, 0.5]
        image = MomentImage(ParticleCase.BOSON, 2, p)
        np.testing.assert_array_equal(image.q_spectrum, [0.0, 0.0])
        assert image.probabilities.dtype == float and not image.probabilities.flags.writeable
        assert p == [0.5, 0.5]


    @pytest.mark.parametrize("case", ALL_CASES)
    def test_zero_state_raises_before_any_division(self, case):
        # built directly, a zero matrix used to give p = [nan, nan] and numpy's
        # RuntimeWarning, which the suite's -W error turns into a raw exception;
        # the state now refuses it when built, so no image is ever divided out
        with pytest.raises(ZeroState, match="zero state"):
            QuantumState(case, np.zeros((2, 2), complex))


class TestSmallProbabilities:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_entry_of_1e_10_under_rotation(self, case):
        # eigvalsh of the Gram C C^dag resolves p only to about eps; squared
        # singular values keep p = 1e-10 to its own relative accuracy
        lam = np.array([1.0, 1e-5, 1e-9])
        if case is ParticleCase.FERMION:
            base = validate(fermion_pair_matrix(lam, 6), case)
            s = np.repeat(lam, 2)
        else:
            base = validate(np.diag(lam), case)
            s = lam
        p = s**2 / np.sum(s**2)
        small = s == 1e-5
        for seed in range(20):
            g = random_local_unitary(case, base.n_levels, seed)
            got = reduced_matrix(apply_group_action(base, g)).probabilities
            np.testing.assert_allclose(got[small], p[small], rtol=1e-9, atol=0)


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
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7),
           case=st.sampled_from(ALL_CASES))
    def test_every_state_maps_into_the_polytope(self, seed, n, case):
        p = reduced_matrix(random_state(case, n, seed)).probabilities
        assert np.all(p >= -1e-10)
        assert abs(p.sum() - 1.0) <= 1e-10
        if case is ParticleCase.FERMION:
            pairs = 2 * (n // 2)
            assert np.all(np.abs(p[:pairs:2] - p[1:pairs:2]) <= 1e-10)
            if n % 2:
                assert p[-1] <= 1e-10

    def test_fermion_even_multiplicities(self):
        for seed in range(10):
            for n in (4, 5, 6, 7):
                p = reduced_matrix(random_state(ParticleCase.FERMION, n, seed)).probabilities
                for j in range(n // 2):
                    assert abs(p[2 * j] - p[2 * j + 1]) <= 1e-10
                if n % 2 == 1:
                    assert abs(p[-1]) <= 1e-10
