"""Tests for Takagi, Youla, two-sided SVD, and slice canonicalization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luorbits import (
    ConvergenceFailure,
    LocalUnitary,
    NonSquareInput,
    ParticleCase,
    SymmetryViolation,
    ValidationError,
    apply_group_action,
    canonicalize,
    fermion_pair_matrix,
    lu_equivalent,
    random_local_unitary,
    random_state,
    reconstruct,
    reduced_matrix,
    svd_congruence,
    takagi,
    validate,
    youla_antisymmetric,
)
from luorbits import canonical as canonical_module
from luorbits import equivalence as equivalence_module
from luorbits.cli import main
from luorbits.states import haar_special_unitary, state_to_dict
from conftest import ALL_CASES, assert_special_unitary, assert_unitary


def random_symmetric(n, rng, ranks=None):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (c + c.T) / 2


def random_antisymmetric(n, rng):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (c - c.T) / 2


def planted_generic_fermion(n, seed):
    """Rotated fermion slice point with floor(N/2) well-separated lambdas, unit norm."""
    rng = np.random.default_rng(seed)
    k = n // 2
    gaps = rng.uniform(0.5, 1.5, size=k - 1) * (0.5 / k)
    lam = 1.0 - np.concatenate([[0.0], np.cumsum(gaps)])
    lam /= np.sqrt(2.0 * np.sum(lam**2))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    c = np.exp(2j * np.pi * rng.uniform()) * (u @ fermion_pair_matrix(lam, n) @ u.T)
    return c / np.linalg.norm(c)


class TestTakagi:
    def test_pauli_x(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        u, lam = takagi(c)
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-12)
        assert_unitary(u)
        assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-10

    def test_already_diagonal(self):
        c = np.diag([3.0, 2.0, 1.0]) / np.sqrt(14)
        u, lam = takagi(c)
        np.testing.assert_allclose(lam, np.array([3.0, 2.0, 1.0]) / np.sqrt(14), atol=1e-12)
        assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-12

    def test_rank_deficient_diagonal(self):
        u, lam = takagi(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-14)
        assert np.linalg.norm(np.diag([1.0, 0.0]) - (u * lam) @ u.T) <= 1e-12

    def test_not_symmetric_rejected(self):
        with pytest.raises(SymmetryViolation):
            takagi(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_random_reconstruction(self, seed, n):
        rng = np.random.default_rng(seed)
        c = random_symmetric(n, rng)
        u, lam = takagi(c)
        assert_unitary(u)
        assert np.all(np.diff(lam) <= 0) and lam[-1] >= 0
        assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-10 * max(1.0, np.linalg.norm(c))
        np.testing.assert_allclose(lam, np.linalg.svd(c, compute_uv=False), atol=1e-10)

    def test_clustered_singular_values(self):
        rng = np.random.default_rng(1)
        for n, vals in [(4, [0.7, 0.7, 0.7, 0.1]), (5, [1.0, 1.0, 0.5, 0.5, 0.0]),
                        (3, [0.4, 0.4, 0.4])]:
            w = haar_special_unitary(n, rng)
            c = (w * np.array(vals)) @ w.T
            u, lam = takagi(c)
            assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-10
            np.testing.assert_allclose(lam, sorted(vals, reverse=True), atol=1e-10)

    def test_one_eigh_per_cluster(self, monkeypatch):
        w = haar_special_unitary(10, np.random.default_rng(5))
        c = (w * [0.7, 0.7, 0.7, 0.5, 0.3, 0.3 - 1e-7, 0.1, 0.1, 0.1, 0.1]) @ w.T
        calls = dict.fromkeys(["eigh", "eig", "inv"], 0)
        for name in calls:
            def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        u, lam = takagi(c)
        assert calls == {"eigh": 3, "eig": 0, "inv": 0}  # clusters of 3, 2 and 4
        assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-12

    def test_fully_degenerate_large(self):
        # both read about 2.5e-14 over 20 seeds, on one BLAS thread or two
        w = haar_special_unitary(128, np.random.default_rng(0))
        c = w @ w.T
        u, lam = takagi(c)
        assert np.linalg.norm(u.conj().T @ u - np.eye(128)) <= 5e-14
        assert np.linalg.norm(c - (u * lam) @ u.T) <= 5e-14


class TestYoula:
    def test_single_block(self):
        c = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        u, lam = youla_antisymmetric(c)
        np.testing.assert_allclose(lam, [0.3], atol=1e-14)
        assert np.linalg.norm(c - u @ fermion_pair_matrix(lam, 2) @ u.T) <= 1e-12

    def test_a4_halved(self):
        c = fermion_pair_matrix([0.5, 0.5], 4)
        u, lam = youla_antisymmetric(c)
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)
        assert np.linalg.norm(c - u @ fermion_pair_matrix(lam, 4) @ u.T) <= 1e-10

    def test_odd_dimension_is_singular(self):
        rng = np.random.default_rng(2)
        c = random_antisymmetric(3, rng)
        assert abs(np.linalg.det(c)) <= 1e-12 * np.linalg.norm(c) ** 3
        u, lam = youla_antisymmetric(c)
        assert lam.shape == (1,)
        assert np.linalg.norm(c - u @ fermion_pair_matrix(lam, 3) @ u.T) <= 1e-10

    def test_not_antisymmetric_rejected(self):
        with pytest.raises(SymmetryViolation):
            youla_antisymmetric(np.eye(2))

    @pytest.mark.parametrize("lam, n", [([1, 2, 3], 4), ([1, 2], 3), ([[1, 2]], 4), ([1], 2.0), ([1], 0),
                                        ([1.0, np.nan], 4), ([np.inf], 2), ([-np.inf], 3)])
    def test_pair_matrix_rejects_what_does_not_fit(self, lam, n):
        # three pair values at n = 4 used to raise a raw IndexError; NaN came back as a NaN matrix
        with pytest.raises(ValidationError):
            fermion_pair_matrix(lam, n)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_random_reconstruction(self, seed, n):
        rng = np.random.default_rng(seed)
        c = random_antisymmetric(n, rng)
        u, lam = youla_antisymmetric(c)
        assert_unitary(u)
        assert np.all(np.diff(lam) <= 0) and lam[-1] >= 0
        assert np.linalg.norm(c - u @ fermion_pair_matrix(lam, n) @ u.T) <= 1e-10 * max(
            1.0, np.linalg.norm(c))
        singular = np.linalg.svd(c, compute_uv=False)
        np.testing.assert_allclose(np.repeat(lam, 2), singular[: 2 * (n // 2)], atol=1e-10)

    def test_clustered_blocks(self):
        rng = np.random.default_rng(3)
        for n, vals in [(4, [0.6, 0.6]), (6, [0.8, 0.8, 0.8]), (7, [0.5, 0.5, 0.0])]:
            w = haar_special_unitary(n, rng)
            c = w @ fermion_pair_matrix(vals, n) @ w.T
            u, lam = youla_antisymmetric(c)
            assert np.linalg.norm(c - u @ fermion_pair_matrix(lam, n) @ u.T) <= 1e-10
            np.testing.assert_allclose(lam, sorted(vals, reverse=True), atol=1e-10)


@st.composite
def clustered_spectra(draw):
    """(sign, N, values, Haar seed): blocks of near-equal values, maybe a tiny tail.

    The values are lambdas for sign -1, each a doubled singular value.
    Inside a block, neighbours are a log-uniform relative gap of 1e-14 ..
    1e-3 apart, and the next block starts 0.1 .. 0.9 times lower.  The tail
    is zero or scaled by 1e-11.
    """
    sign = draw(st.sampled_from([1, -1]))
    n = draw(st.integers(2, 12))
    k = n if sign > 0 else n // 2
    tail = draw(st.sampled_from([None, 0.0, 1e-11])) if k > 1 else None
    head = k if tail is None else k - draw(st.integers(1, k - 1))
    starts = draw(st.sets(st.integers(1, head - 1))) if head > 1 else set()
    values = [1.0]
    for j in range(1, head):
        if j in starts:
            values.append(values[-1] * draw(st.floats(0.1, 0.9)))
        else:
            values.append(values[-1] * (1.0 - 10.0 ** draw(st.floats(-14.0, -3.0))))
    values += [tail * draw(st.floats(0.1, 1.0)) for _ in range(k - head)]
    return sign, n, np.sort(values)[::-1], draw(st.integers(0, 2**32 - 1))


class TestClusteredSpectra:
    @settings(max_examples=60, deadline=None)
    @given(spectrum=clustered_spectra())
    @example(spectrum=(1, 4, np.array([1.0, 1e-11, 1e-12, 1e-12]), 0))
    def test_unitary_within_the_residual_bar(self, spectrum):
        sign, n, values, seed = spectrum
        w = haar_special_unitary(n, np.random.default_rng(seed))
        if sign > 0:
            c = (w * values) @ w.T
            u, lam = takagi(c)
            core, bar = np.diag(lam), 1e-10 * max(1.0, lam[0])
        else:
            c = w @ fermion_pair_matrix(values, n) @ w.T
            u, lam = youla_antisymmetric(c)
            core = fermion_pair_matrix(lam, n)
            bar = 1e-10 * max(1.0, np.sqrt(2.0) * np.linalg.norm(lam))
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12
        assert np.linalg.norm(c - u @ core @ u.T) <= bar

    @pytest.mark.parametrize("sign, values, seed", [
        (1, [1, 0.9999999, 0.9999989, 0.9999979, 0.99989424, 0.99989382, 0.99989339, 0.99989329,
             0.49994665, 0.4994467], 170),
        (-1, [1.0, 0.9999999976507368, 0.9998890815449036, 0.9998890793189499, 0.5405360797841204], 58),
    ], ids=["takagi", "youla"])
    def test_two_clusters_just_past_a_1e_4_cut(self, sign, values, seed):
        # clusters 1.04e-4 and 1.11e-4 apart: split at a 1e-4 cut, the residual read 1.011e-10 and
        # 1.217e-10 against the 1e-10 bar, and both raised ConvergenceFailure
        w = haar_special_unitary(10, np.random.default_rng(seed))
        core = np.diag(values) if sign > 0 else fermion_pair_matrix(values, 10)
        c = w @ core @ w.T
        u, lam = takagi(c) if sign > 0 else youla_antisymmetric(c)
        np.testing.assert_allclose(lam, values, rtol=0, atol=1e-13)
        assert_unitary(u)
        core = np.diag(lam) if sign > 0 else fermion_pair_matrix(lam, 10)
        assert np.linalg.norm(c - u @ core @ u.T) <= 1e-12


class TestCongruenceScale:
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6, 1e8])
    @pytest.mark.parametrize("case", [ParticleCase.BOSON, ParticleCase.FERMION])
    def test_relative_symmetry_check_and_residual(self, case, scale):
        w = haar_special_unitary(16, np.random.default_rng(0))
        if case is ParticleCase.BOSON:
            c = scale * ((w * np.linspace(1.0, 0.1, 16)) @ w.T)
            u, lam = takagi(c)
            core = np.diag(lam)
        else:
            c = scale * (w @ fermion_pair_matrix(np.linspace(1.0, 0.1, 8), 16) @ w.T)
            u, lam = youla_antisymmetric(c)
            core = fermion_pair_matrix(lam, 16)
        assert_unitary(u)
        assert np.linalg.norm(c - u @ core @ u.T) <= 1e-12 * np.linalg.norm(c)

    @pytest.mark.parametrize("decompose, matrix", [
        (takagi, np.full((2, 2), 1.5e308)),
        (youla_antisymmetric, 1.5e308 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])),
        (svd_congruence, np.full((2, 2), 1.5e308)),
    ])
    def test_singular_value_beyond_the_float_range_rejected(self, decompose, matrix):
        # finite entries whose largest singular value (3e308, 2.6e308) is not a float;
        # scaling it back used to raise numpy's overflow warning
        with pytest.raises(ValidationError, match=r"singular value .* \* 2\^1024 exceeds the float range"):
            decompose(matrix)


class TestNearRankDeficient:
    """A value just above the snap to zero, next to an exact zero, is still fixed."""

    @pytest.mark.parametrize("small", [1e-7, 1e-9, 1e-11])
    def test_boson(self, small):
        u = haar_special_unitary(4, np.random.default_rng(0))
        c = u @ np.diag([1.0, 0.5, small, 0.0]) @ u.T
        w, lam = takagi(c)
        assert_unitary(w)
        assert np.linalg.norm(c - (w * lam) @ w.T) <= 1e-10
        np.testing.assert_allclose(lam, [1.0, 0.5, small, 0.0], atol=1e-12)

    @pytest.mark.parametrize("small", [1e-7, 1e-9, 1e-11])
    def test_fermion(self, small):
        u = haar_special_unitary(4, np.random.default_rng(0))
        c = u @ fermion_pair_matrix([1.0, small], 4) @ u.T
        w, lam = youla_antisymmetric(c)
        assert_unitary(w)
        assert np.linalg.norm(c - w @ fermion_pair_matrix(lam, 4) @ w.T) <= 1e-10
        np.testing.assert_allclose(lam, [1.0, small], atol=1e-12)


def boson_cluster(size, gap):
    """N = 8 boson spectrum whose largest ``size`` values are ``gap`` apart."""
    return np.concatenate([1.0 - gap * np.arange(size), [0.8, 0.6, 0.45, 0.3, 0.2, 0.1][size - 2:]])


class TestNearDegenerateTwins:
    """The largest lambdas a small relative gap apart: one clustering, an exact fit."""

    @pytest.mark.parametrize("gap", [1e-7, 3e-6, 1e-5, 3e-5])
    @pytest.mark.parametrize("case", [ParticleCase.BOSON, ParticleCase.FERMION])
    def test_one_attempt_and_tight_residual(self, case, gap, monkeypatch):
        if case is ParticleCase.BOSON:
            values = boson_cluster(2, gap)
        else:
            values = [1.0, 1.0 - gap, 0.6, 0.3]
        self.check_one_attempt(case, values, monkeypatch)

    @pytest.mark.parametrize("gap", [1e-7, 3e-6, 1e-5, 3e-5])
    @pytest.mark.parametrize("size", [3, 6])
    def test_larger_boson_cluster(self, size, gap, monkeypatch):
        self.check_one_attempt(ParticleCase.BOSON, boson_cluster(size, gap), monkeypatch)

    def test_wide_range_tail_cluster(self):
        # one cluster spanning 8e-5 .. 1.6e-12: its +-s must not mix in the root
        s = [1.0, 0.5, 8e-5, 6e-5, 1e-6, 2e-10, 8e-12, 2e-12, 1.6e-12]
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = haar_special_unitary(9, rng)
            c = (w * s) @ w.T
            u, lam = takagi(c)
            assert np.linalg.norm(u.conj().T @ u - np.eye(9)) <= 1e-13
            assert np.linalg.norm(c - (u * lam) @ u.T) <= 1e-12

    @staticmethod
    def check_one_attempt(case, values, monkeypatch):
        calls = []
        basis = canonical_module._congruence_basis

        def counted(*args, **kwargs):
            calls.append(1)
            return basis(*args, **kwargs)

        monkeypatch.setattr(canonical_module, "_congruence_basis", counted)
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = haar_special_unitary(8, rng)
            calls.clear()
            if case is ParticleCase.BOSON:
                c = (w * values) @ w.T
                u, lam = takagi(c)
                core = np.diag(lam)
            else:
                c = w @ fermion_pair_matrix(values, 8) @ w.T
                u, lam = youla_antisymmetric(c)
                core = fermion_pair_matrix(lam, 8)
            assert len(calls) == 1
            assert np.linalg.norm(c - u @ core @ u.T) <= 1e-12


class TestLargeFermion:
    @pytest.mark.parametrize("n, seed", [(64, 223), (65, 1), (96, 2), (128, 3)])
    def test_canonicalize(self, n, seed):
        # N = 64, seed 223: greedy Youla deflation hits an SVD that does not converge
        s = validate(planted_generic_fermion(n, seed), ParticleCase.FERMION)
        cf = canonicalize(s)
        assert np.linalg.norm(s.coeffs - reconstruct(cf)) <= 1e-10
        assert_special_unitary(cf.witness_u)
        singular = np.linalg.svd(s.coeffs, compute_uv=False)
        np.testing.assert_allclose(
            cf.lambdas, singular[: 2 * (n // 2) : 2], rtol=0, atol=1e-12 * np.linalg.norm(s.coeffs))


class TestLapackFailure:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_svd_failure_is_a_convergence_failure(self, case, monkeypatch, tmp_path, capsys):
        # every SVD fails: the spectrum is read from an SVD too, so no verdict
        s = random_state(case, 4, 0)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(s)))

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for step in (canonicalize, reduced_matrix, lambda x: lu_equivalent(x, x)):
            with pytest.raises(ConvergenceFailure):
                step(s)
        assert main(["classify", str(path)]) == 4
        assert "convergence failure" in capsys.readouterr().err
        assert main(["compare", str(path), str(path)]) == 4
        assert "convergence failure" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_witness_failure_keeps_the_verdict(self, case, monkeypatch):
        # the spectrum and the form share one SVD, so only the form can fail
        # alone; the spectrum stands
        s = random_state(case, 4, 0)

        def no_form(state):
            raise ConvergenceFailure("form did not converge")

        monkeypatch.setattr(equivalence_module, "canonicalize", no_form)
        verdict = lu_equivalent(s, s)
        assert verdict.equivalent and verdict.witness is None
        assert len(verdict.warnings) == 1 and verdict.warnings[0].startswith("witness failed")


    def test_eigh_failure_is_a_convergence_failure(self, monkeypatch):
        # the root of a boson cluster is one eigh; a failed one is a convergence failure
        w = haar_special_unitary(4, np.random.default_rng(0))
        c = (w * [0.6, 0.6, 0.5, 0.2]) @ w.T
        s = validate(c, ParticleCase.BOSON)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        for step in (lambda: takagi(c), lambda: canonicalize(s)):
            with pytest.raises(ConvergenceFailure):
                step()


class TestSvdCongruence:
    def test_bell(self):
        u, lam, v = svd_congruence(np.eye(2) / np.sqrt(2))
        np.testing.assert_allclose(lam, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14)

    def test_rank_deficient(self):
        _, lam, _ = svd_congruence(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-14)

    def test_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u, lam, v = svd_congruence(c)
            assert_unitary(u)
            assert_unitary(v)
            assert np.linalg.norm(c - (u * lam) @ v.T) <= 1e-10
            # eigenvalue route as an independent check on the singular values
            np.testing.assert_allclose(
                lam**2, np.sort(np.linalg.eigvalsh(c.conj().T @ c))[::-1], atol=1e-10)


class TestCanonicalize:
    def test_boson_recovers_diagonal(self):
        base = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON)
        for seed in range(5):
            moved = apply_group_action(base, random_local_unitary(ParticleCase.BOSON, 2, seed))
            cf = canonicalize(moved)
            np.testing.assert_allclose(cf.lambdas, [np.sqrt(0.7), np.sqrt(0.3)], atol=1e-9)

    def test_fermion_pair_in_four_levels(self):
        s = validate(fermion_pair_matrix([1.0, 0.0], 4), ParticleCase.FERMION)
        cf = canonicalize(s)
        np.testing.assert_allclose(cf.lambdas, [1 / np.sqrt(2), 0.0], atol=1e-12)

    def test_product_state(self):
        c = np.zeros((3, 3))
        c[0, 0] = 1.0
        cf = canonicalize(validate(c, ParticleCase.DISTINGUISHABLE))
        np.testing.assert_allclose(cf.lambdas, [1.0, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_witnesses_in_special_unitary_group(self, case):
        s = random_state(case, 4, 8)
        cf = canonicalize(s)
        assert_special_unitary(cf.witness_u)
        if case is ParticleCase.DISTINGUISHABLE:
            assert_special_unitary(cf.witness_v)
        else:
            assert cf.witness_v is None
        assert abs(abs(cf.global_phase) - 1.0) <= 1e-10
        assert np.linalg.norm(s.coeffs - reconstruct(cf)) <= 1e-9

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_lambda_normalization(self, case):
        cf = canonicalize(random_state(case, 5, 21))
        total = np.sum(cf.lambdas**2)
        expected = 0.5 if case is ParticleCase.FERMION else 1.0
        assert abs(total - expected) <= 1e-10

    def test_snap_to_zero(self):
        c = np.diag([1.0, 3e-14, 0.0])
        cf = canonicalize(validate(c, ParticleCase.DISTINGUISHABLE))
        assert cf.lambdas[1] == 0.0 and cf.lambdas[2] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 6),
           case=st.sampled_from(ALL_CASES))
    def test_slice_uniqueness(self, seed, n, case):
        s = random_state(case, n, seed)
        g1 = random_local_unitary(case, n, seed + 1)
        g2 = random_local_unitary(case, n, seed + 2)
        lam1 = canonicalize(apply_group_action(s, g1)).lambdas
        lam2 = canonicalize(apply_group_action(s, g2)).lambdas
        assert np.max(np.abs(lam1 - lam2)) <= 1e-8

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_consistent_with_moment_spectrum(self, case):
        for seed in range(10):
            n = 4 + seed % 3
            s = random_state(case, n, seed)
            cf = canonicalize(s)
            q = reduced_matrix(s).q_spectrum
            if case is ParticleCase.FERMION:
                p = np.repeat(cf.lambdas**2, 2)
                p = np.pad(p, (0, n - len(p)))
            else:
                p = cf.lambdas**2
            np.testing.assert_allclose(np.sort(p)[::-1] - 1.0 / n, q, atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_residuals_over_a_thousand_states(self, case):
        rng = np.random.default_rng(hash(case.value) % 2**32)
        for trial in range(1000):
            n = int(rng.integers(2, 9))
            s = random_state(case, n, int(rng.integers(2**31)))
            assert canonicalize(s).residual <= 1e-9


class TestOneAcceptanceCheck:
    """Each form is checked once, inside the decomposition, on the factors it returns."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("decompose, matrix", [
        (takagi, lambda x: [[x, 0.0], [0.0, 1.0]]),
        (youla_antisymmetric, lambda x: [[0.0, x], [-x, 0.0]]),
        (svd_congruence, lambda x: [[x, 0.0], [0.0, 1.0]]),
    ])
    def test_non_finite_input_rejected(self, decompose, matrix, bad):
        with pytest.raises(ValidationError, match="finite"):
            decompose(np.array(matrix(bad)))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), (0, 0)])
    @pytest.mark.parametrize("decompose", [takagi, youla_antisymmetric, svd_congruence])
    def test_non_square_input_rejected(self, decompose, shape):
        with pytest.raises(NonSquareInput, match="square"):
            decompose(np.zeros(shape))

    def test_dist_factors_off_by_5e_10_rejected(self, monkeypatch):
        # factors 5e-10 off C pass a 1e-9 bar; the one check applies 1e-10 to every case
        s = random_state(ParticleCase.DISTINGUISHABLE, 4, 0)
        svd = np.linalg.svd

        def off_by(*args, **kwargs):
            if not kwargs.get("compute_uv", True):
                return svd(*args, **kwargs)
            u, sv, vh = svd(*args, **kwargs)
            sv[0] += 5e-10
            return u, sv, vh

        monkeypatch.setattr(np.linalg, "svd", off_by)
        for step in (lambda: canonicalize(s), lambda: svd_congruence(s.coeffs)):
            with pytest.raises(ConvergenceFailure, match="above tolerance 1.000e-10"):
                step()

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_residual_measured_on_access(self, case, monkeypatch):
        calls = []
        rebuild = canonical_module.reconstruct

        def counted(cf):
            calls.append(1)
            return rebuild(cf)

        monkeypatch.setattr(canonical_module, "reconstruct", counted)
        s = random_state(case, 5, 3)
        cf = canonicalize(s)
        assert calls == []
        assert cf.residual == np.linalg.norm(s.coeffs - rebuild(cf))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_residual_is_the_reconstruction_error(self, case):
        for seed in range(5):
            s = random_state(case, 2 + seed, seed)
            cf = canonicalize(s)
            assert cf.residual == np.linalg.norm(s.coeffs - reconstruct(cf))

    def test_values_at_the_snap_are_exact_zeros(self):
        c = np.diag([1.0, 1e-13])
        u, lam = takagi(c)
        assert lam[-1] == 0.0 and np.linalg.norm(c - (u * lam) @ u.T) <= 1e-12
        c = fermion_pair_matrix([1.0, 1e-13], 4)
        u, lam = youla_antisymmetric(c)
        assert lam[-1] == 0.0 and np.linalg.norm(c - u @ fermion_pair_matrix(lam, 4) @ u.T) <= 1e-12
        u, lam, v = svd_congruence(c)
        assert lam[-2:].tolist() == [0.0, 0.0] and np.linalg.norm(c - (u * lam) @ v.T) <= 1e-12


class TestStoredForms:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_repeated_calls_return_the_stored_object(self, case):
        s = random_state(case, 5, 2)
        assert canonicalize(s) is canonicalize(s)
        assert reduced_matrix(s) is reduced_matrix(s)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_returned_arrays_are_read_only(self, case):
        s = random_state(case, 5, 4)
        cf = canonicalize(s)
        image = reduced_matrix(s)
        stored = [cf.lambdas, cf.witness_u, image.probabilities]
        if case is ParticleCase.DISTINGUISHABLE:
            stored.append(cf.witness_v)
        assert all(not arr.flags.writeable for arr in stored)
        # q is built on each access, so writing into one copy is harmless
        first = image.q_spectrum
        before = first.copy()
        first[...] = 7.0
        np.testing.assert_array_equal(image.q_spectrum, before)

    @pytest.mark.parametrize("case, lambdas", [
        (ParticleCase.BOSON, [0.8, 0.5, 0.3]), (ParticleCase.BOSON, [0.8, 0.6]),
        (ParticleCase.FERMION, [0.8, 0.5, 0.3]), (ParticleCase.DISTINGUISHABLE, [[0.8, 0.6, 0.0, 0.0]]),
    ], ids=["boson-long", "boson-pairs", "fermion-long", "dist-2d"])
    def test_lambda_count_checked_when_built(self, case, lambdas):
        # unchecked, 3 boson lambdas at N = 4 classify as N = 6 and reconstruct raises numpy's matmul error
        cf = canonicalize(random_state(case, 4, 0))
        with pytest.raises(ValidationError, match="lambdas"):
            dataclasses.replace(cf, lambdas=np.array(lambdas))
        with pytest.raises(ValidationError, match="case must be a ParticleCase"):
            dataclasses.replace(cf, case="boson")
        # N is read from the witness, so it must be a square matrix
        for witness in (None, cf.witness_u[:, :3], cf.witness_u[0]):
            with pytest.raises(ValidationError, match="witness_u: expected a square matrix"):
                dataclasses.replace(cf, witness_u=witness)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_n_levels_read_from_the_witness(self, case):
        # N used to be a field of its own, and replace(cf, n_levels=4.0) was accepted
        cf = canonicalize(random_state(case, 5, 0))
        assert cf.n_levels == 5
        with pytest.raises(TypeError, match="n_levels"):
            dataclasses.replace(cf, n_levels=4.0)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_one_svd_whichever_asks_first(self, case, monkeypatch):
        # the spectrum and the form come from the state's one SVD, so the order
        # in which they are asked for moves no bit
        rng = np.random.default_rng(12)
        raw = 3.0 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        if case.symmetry_sign is not None:
            raw = raw + case.symmetry_sign * raw.T
        first, second = validate(raw, case), validate(raw, case)
        factored = []
        svd = np.linalg.svd

        def recorded_svd(a, *args, **kwargs):
            factored.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        cf_first, p_first = canonicalize(first), reduced_matrix(first).probabilities
        p_second, cf_second = reduced_matrix(second).probabilities, canonicalize(second)
        monkeypatch.undo()
        assert len(factored) == 2 and factored[0] is first.coeffs and factored[1] is second.coeffs
        assert p_first.tobytes() == p_second.tobytes()
        witnesses = ("witness_u", "witness_v") if case is ParticleCase.DISTINGUISHABLE else ("witness_u",)
        for name in ("lambdas", *witnesses):
            assert getattr(cf_first, name).tobytes() == getattr(cf_second, name).tobytes()
        raw_form = {ParticleCase.BOSON: takagi, ParticleCase.FERMION: youla_antisymmetric,
                    ParticleCase.DISTINGUISHABLE: svd_congruence}[case]
        np.testing.assert_allclose(cf_first.lambdas, raw_form(first.coeffs)[1], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_factors_dropped_once_the_form_is_stored(self, case):
        s = random_state(case, 5, 7)
        reduced_matrix(s)
        assert all(not arr.flags.writeable for arr in s._derived["svd"])
        canonicalize(s)
        assert set(s._derived) == {"moment", "canonical"}

    def test_snap_leaves_the_stored_spectrum(self):
        # the form snaps s3 = 1e-14 to zero in a copy; p keeps the value from the SVD
        w = haar_special_unitary(3, np.random.default_rng(3))
        s = validate((w * [0.8, 0.6, 1e-14]) @ w.T, ParticleCase.BOSON)
        image = reduced_matrix(s)
        before = image.probabilities.copy()
        assert before[2] > 0.0
        assert canonicalize(s).lambdas[2] == 0.0
        assert reduced_matrix(s) is image and image.probabilities.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_distinct_states_do_not_share(self, case):
        raw = random_state(case, 4, 6).coeffs
        a, b = validate(raw, case), validate(raw, case)
        v = np.eye(4) if case is ParticleCase.DISTINGUISHABLE else None
        same = apply_group_action(a, LocalUnitary(case, np.eye(4), v))
        cf, image = canonicalize(a), reduced_matrix(a)
        for other in (b, same):
            assert canonicalize(other) is not cf
            assert reduced_matrix(other) is not image
            np.testing.assert_allclose(canonicalize(other).lambdas, cf.lambdas, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", [ParticleCase.BOSON, ParticleCase.FERMION])
    def test_failure_is_not_stored(self, case, monkeypatch):
        s = random_state(case, 4, 1)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", no_convergence)
            with pytest.raises(ConvergenceFailure):
                canonicalize(s)
        assert canonicalize(s).residual <= 1e-9
