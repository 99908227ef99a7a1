"""Tests for the equivalence decision and witness construction."""

from collections import Counter

import numpy as np
import pytest

from luorbits import (
    CaseMismatch,
    DimensionMismatch,
    ParticleCase,
    apply_group_action,
    canonicalize,
    fermion_pair_matrix,
    lu_equivalent,
    orbit_invariants,
    random_local_unitary,
    random_state,
    reduced_matrix,
    same_stratum,
    validate,
)
from conftest import ALL_CASES


class TestLuEquivalent:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_round_trip_pairs_accepted_with_witness(self, case):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(10**6)))
            g = random_local_unitary(case, n, int(rng.integers(10**6)))
            verdict = lu_equivalent(s, apply_group_action(s, g))
            assert verdict.equivalent
            assert verdict.witness is not None
            assert verdict.witness_residual <= 1e-7
            assert not verdict.warnings

    def test_witness_soundness(self):
        s = random_state(ParticleCase.DISTINGUISHABLE, 4, 5)
        target = apply_group_action(s, random_local_unitary(ParticleCase.DISTINGUISHABLE, 4, 6))
        verdict = lu_equivalent(s, target)
        moved = apply_group_action(s, verdict.witness)
        residual = np.linalg.norm(moved.coeffs - verdict.witness_phase * target.coeffs)
        assert residual <= 1e-7
        assert abs(np.linalg.det(verdict.witness.u) - 1.0) <= 1e-9

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_degenerate_clusters_still_get_witnesses(self, case):
        # repeated lambda blocks exercise the unitary gauge freedom
        if case is ParticleCase.FERMION:
            s = validate(fermion_pair_matrix([1.0, 1.0, 0.5], 6), case)
        else:
            s = validate(np.diag([1.0, 1.0, 1.0, 0.4, 0.4, 0.0]), case)
        g = random_local_unitary(case, 6, 13)
        verdict = lu_equivalent(s, apply_group_action(s, g))
        assert verdict.equivalent and verdict.witness_residual <= 1e-7

    def test_distinct_boson_spectra_rejected(self):
        a = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON)
        b = validate(np.diag([np.sqrt(0.6), np.sqrt(0.4)]), ParticleCase.BOSON)
        verdict = lu_equivalent(a, b, 1e-8)
        assert not verdict.equivalent
        assert verdict.spectral_distance == pytest.approx(0.1, abs=1e-12)
        assert verdict.witness is None

    def test_fermion_a4_differs_from_single_pair(self):
        a4 = validate(fermion_pair_matrix([0.5, 0.5], 4), ParticleCase.FERMION)
        e12 = validate(fermion_pair_matrix([1.0, 0.0], 4), ParticleCase.FERMION)
        verdict = lu_equivalent(a4, e12)
        assert not verdict.equivalent
        assert verdict.spectral_distance == pytest.approx(0.25, abs=1e-12)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            lu_equivalent(random_state(ParticleCase.BOSON, 2, 0),
                          random_state(ParticleCase.FERMION, 2, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lu_equivalent(random_state(ParticleCase.BOSON, 2, 0),
                          random_state(ParticleCase.BOSON, 3, 0))


class TestOneDecompositionPerState:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_classify_and_decide_call_budget(self, case, monkeypatch):
        # one SVD per state canonicalized (a and its rotated copy), one
        # eigvalsh per state whose spectrum is read (a, the copy, the partner)
        raw = random_state(case, 5, 3).coeffs
        g = random_local_unitary(case, 5, 4)
        partner = random_state(case, 5, 5)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        a = validate(raw, case)
        cf = canonicalize(a)
        reduced_matrix(a)
        orbit_invariants(cf)
        eq = lu_equivalent(a, apply_group_action(a, g))
        ne = lu_equivalent(a, partner)
        assert eq.witness is not None and not ne.equivalent
        assert calls == {"svd": 2, "eigvalsh": 3}


class TestSameStratum:
    def test_same_type_different_orbit(self):
        a = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON)
        b = validate(np.diag([np.sqrt(0.6), np.sqrt(0.4)]), ParticleCase.BOSON)
        assert same_stratum(a, b)
        assert not lu_equivalent(a, b).equivalent

    def test_different_type(self):
        a = validate(np.diag([np.sqrt(0.5), np.sqrt(0.5)]), ParticleCase.BOSON)
        b = validate(np.diag([np.sqrt(0.7), np.sqrt(0.3)]), ParticleCase.BOSON)
        assert not same_stratum(a, b)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_invariant_under_group_action(self, case):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(10**6)))
            g = random_local_unitary(case, n, int(rng.integers(10**6)))
            assert same_stratum(s, apply_group_action(s, g))

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_implied_by_equivalence(self, case):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_state(case, n, int(rng.integers(10**6)))
            b = random_state(case, n, int(rng.integers(10**6)))
            if lu_equivalent(a, b).equivalent:
                assert same_stratum(a, b)
