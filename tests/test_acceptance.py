"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py`` to
see the lines as they go by).
"""

import time

import numpy as np

from luorbits import (
    MultiplicityVector,
    ParticleCase,
    apply_algebra_action,
    apply_group_action,
    canonicalize,
    counterexample_demo,
    enumerate_strata,
    fiber_structure,
    lu_equivalent,
    oracle_check,
    random_local_unitary,
    random_state,
    reduced_matrix,
    representative_state,
    validate,
)
from luorbits.canonical import fermion_pair_matrix
from conftest import ALL_CASES, group_action_derivative, random_su_algebra

BOSON = ParticleCase.BOSON
FERMION = ParticleCase.FERMION
DIST = ParticleCase.DISTINGUISHABLE


def report(number, ok, text):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")
    return ok


def test_criterion_1_oracle_formula_agreement():
    start = time.perf_counter()
    failures = []
    seed = 0
    total = 0
    for case in ALL_CASES:
        for n in range(2, 9):
            for inv in enumerate_strata(case, n):
                rep = representative_state(inv.d, case, seed=seed)
                seed += 1
                total += 1
                outcome = oracle_check(rep)
                if not outcome.agree:
                    failures.append((case.value, n, inv.d, outcome))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(
        1, ok,
        f"oracle agrees with formulas on all {total} strata, N<=8, "
        f"all cases ({elapsed:.1f}s)"), failures[:5] or f"elapsed {elapsed:.1f}s"


def test_criterion_2_generic_fiber_dimensions():
    failures = []
    for n in range(2, 7):
        inv = next(s for s in enumerate_strata(BOSON, n) if s.d == MultiplicityVector((1,) * n, False))
        rep = representative_state(inv.d, BOSON, seed=n)
        outcome = oracle_check(rep)
        if inv.fiber_dim != n - 1 or outcome.degeneracy_numeric != n - 1:
            failures.append(("boson", n, inv.fiber_dim, outcome.degeneracy_numeric))
    for pairs in (1, 2, 3):
        n = 2 * pairs
        inv = next(s for s in enumerate_strata(FERMION, n)
                   if s.d == MultiplicityVector((2,) * pairs, False))
        rep = representative_state(inv.d, FERMION, seed=n)
        outcome = oracle_check(rep)
        if inv.fiber_dim != pairs - 1 or outcome.degeneracy_numeric != pairs - 1:
            failures.append(("fermion", n, inv.fiber_dim, outcome.degeneracy_numeric))
    ok = not failures
    assert report(
        2, ok,
        "generic fibers: boson torus dim N-1 (N=2..6), fermion subtorus dim n-1 "
        "(N=2n, n=1..3), oracle-confirmed"), failures


def test_criterion_3_unique_symplectic_orbits():
    failures = []
    for case in ALL_CASES:
        for n in range(2, 7):
            zero_d = {(s.d.d, s.d.degenerate) for s in enumerate_strata(case, n)
                      if s.degeneracy_D == 0}
            if case is FERMION:
                expected = {((2,), False)} if n == 2 else {((2, n - 2), True)}
            else:
                expected = {((1, n - 1), True)}
            if zero_d != expected:
                failures.append((case.value, n, zero_d))
    # odd-N fermion generic stratum: the forced zero row adds the trailing
    # block to d, and the degeneracy is n-1 for N = 2n+1
    for n in (3, 5):
        pairs = n // 2
        generic = enumerate_strata(FERMION, n)[0]
        expected_d = (2,) * pairs + (1,)
        rep = representative_state(generic.d, FERMION, seed=n)
        outcome = oracle_check(rep)
        if (generic.d.d != expected_d or not generic.d.degenerate
                or generic.degeneracy_D != pairs - 1
                or outcome.degeneracy_numeric != pairs - 1):
            failures.append(("fermion generic", n, generic.d, outcome.degeneracy_numeric))
    ok = not failures
    assert report(
        3, ok,
        "D = 0 exactly for the highest-weight strata (N<=6, all cases); odd-N "
        "fermion generic D verified for N=3,5"), failures


def test_criterion_4_slice_uniqueness():
    rng = np.random.default_rng(2024)
    worst_spread = 0.0
    worst_residual = 0.0
    for case in ALL_CASES:
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            s = random_state(case, n, int(rng.integers(2**31)))
            cf1 = canonicalize(apply_group_action(s, random_local_unitary(case, n, int(rng.integers(2**31)))))
            cf2 = canonicalize(apply_group_action(s, random_local_unitary(case, n, int(rng.integers(2**31)))))
            worst_spread = max(worst_spread, float(np.max(np.abs(cf1.lambdas - cf2.lambdas))))
            worst_residual = max(worst_residual, cf1.residual, cf2.residual)
    ok = worst_spread <= 1e-8 and worst_residual <= 1e-9
    assert report(
        4, ok,
        f"slice uniqueness over 1000 trials/case N<=6: lambda spread "
        f"{worst_spread:.2e} <= 1e-8, residual {worst_residual:.2e} <= 1e-9"), (
        worst_spread, worst_residual)


def test_criterion_5_spectral_test_separates_orbits_at_desk_scale():
    rng = np.random.default_rng(77)
    tol = 1e-8
    accepted = rejected = 0
    worst_residual = 0.0
    failures = []
    for case in ALL_CASES:
        count = 0
        while count < 200:
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(2**31)))
            g = random_local_unitary(case, n, int(rng.integers(2**31)))
            verdict = lu_equivalent(s, apply_group_action(s, g), tol)
            if not verdict.equivalent or verdict.witness is None or verdict.witness_residual > 1e-7:
                failures.append((case.value, "equivalent pair", n, verdict.warnings))
            else:
                accepted += 1
                worst_residual = max(worst_residual, verdict.witness_residual)
            count += 1
        count = 0
        while count < 200:
            n = int(rng.integers(2, 6))
            a = random_state(case, n, int(rng.integers(2**31)))
            b = random_state(case, n, int(rng.integers(2**31)))
            qa = reduced_matrix(a).q_spectrum
            qb = reduced_matrix(b).q_spectrum
            if np.max(np.abs(qa - qb)) < 10 * tol:
                continue  # resample: pair not spectrally distinct enough
            verdict = lu_equivalent(a, b, tol)
            if verdict.equivalent:
                failures.append((case.value, "distinct pair accepted", n))
            else:
                rejected += 1
            count += 1
    ok = not failures and accepted == 600 and rejected == 600
    assert report(
        5, ok,
        f"{accepted}/600 equivalent pairs accepted (worst witness residual "
        f"{worst_residual:.2e}), {rejected}/600 distinct pairs rejected, zero errors"), failures[:5]


def test_criterion_6_three_qubit_counterexample():
    demo = counterexample_demo()
    spectra_ok = demo["max_spectral_difference"] <= 1e-12
    gap_ok = abs((demo["tangle_x1"] - demo["tangle_x2"]) - 8 / 9) <= 1e-10
    ok = spectra_ok and gap_ok
    assert report(
        6, ok,
        f"single-site spectra equal within 1e-12 "
        f"(diff {demo['max_spectral_difference']:.1e}) while tangles differ by 8/9"), demo


def test_criterion_7_symmetric_space_dimension_pin():
    boson_fiber = fiber_structure(MultiplicityVector((2,), False), BOSON)
    sym_so_2 = next(f.dim for f in boson_fiber if f.kind == "sym_so")
    fermion_fiber = fiber_structure(MultiplicityVector((2, 2), False), FERMION)
    sym_usp_2 = next(f.dim for f in fermion_fiber if f.kind == "sym_usp")
    s2 = validate(np.eye(2), BOSON)
    s2_oracle = oracle_check(s2)
    f4 = validate(fermion_pair_matrix([0.8, 0.6], 4), FERMION)
    f4_oracle = oracle_check(f4)
    # s_2 fiber is [T0, SU2/SO2]: D = dim S_2; generic N=4 fermion fiber is
    # [T1, A2, A2]: D = 1 + 2 dim A_2
    ok = (
        sym_so_2 == 2
        and sym_usp_2 == 0
        and s2_oracle.agree and s2_oracle.degeneracy_numeric == 2
        and f4_oracle.agree and f4_oracle.degeneracy_numeric == 1
    )
    assert report(
        7, ok,
        "dim SU2/SO2 = 2 and dim SU2/USp2 = 0, confirmed by the oracle on s_2 "
        "and on the generic N=4 fermion"), (sym_so_2, sym_usp_2, s2_oracle, f4_oracle)


def test_criterion_8_algebra_action_matches_derivative():
    rng = np.random.default_rng(31)
    worst = 0.0
    for case in ALL_CASES:
        for _ in range(100):
            n = int(rng.integers(2, 6))
            s = random_state(case, n, int(rng.integers(2**31)))
            if case is DIST:
                xi = (random_su_algebra(n, rng), random_su_algebra(n, rng))
            else:
                xi = random_su_algebra(n, rng)
            diff = group_action_derivative(s, xi) - apply_algebra_action(s, xi)
            worst = max(worst, float(np.linalg.norm(diff)))
    ok = worst <= 1e-6
    assert report(
        8, ok,
        f"algebra action matches the finite-difference group action on 100 "
        f"pairs/case (worst deviation {worst:.2e} <= 1e-6)"), worst
