"""Every checker accepts the program's correct output and catches a wrong one.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import luorbits as lu  # noqa: E402
import luorbits.cli  # noqa: E402
from planted import Stratum, generic_stratum, partner, plant, rotate, strata  # noqa: E402

CASES = ("boson", "fermion", "dist")


def planted_state(case, d=None, degenerate=False, seed=0):
    rng = np.random.default_rng(seed)
    st = generic_stratum(case, 4) if d is None else Stratum(case, d, degenerate)
    pl = plant(st, rng)
    return pl, rotate(pl, rng), rotate(pl, rng), rotate(partner(pl, rng), rng)


def classify(case, c):
    state = lu.validate(c, jobs.CASE_ENUM[case])
    cf = lu.canonicalize(state)
    return state, cf, lu.reduced_matrix(state), lu.orbit_invariants(cf)


@pytest.mark.parametrize("case", CASES)
def test_classify_checker(case):
    pl, a, _, _ = planted_state(case)
    _, cf, image, inv = classify(case, a)
    assert checks.check_classify(pl, a, cf, image, inv) == []
    bad_lambdas = cf.lambdas + np.linspace(0, 1e-8, len(cf.lambdas))
    wrong = [
        (dataclasses.replace(cf, lambdas=bad_lambdas), image, inv),
        (dataclasses.replace(cf, witness_u=cf.witness_u * np.exp(0.3j)), image, inv),
        (dataclasses.replace(cf, witness_u=cf.witness_u * 1.01), image, inv),
        (dataclasses.replace(cf, global_phase=-cf.global_phase), image, inv),
        (cf, SimpleNamespace(probabilities=image.probabilities[::-1]), inv),
        (cf, image, dataclasses.replace(inv, orbit_dim=inv.orbit_dim + 1)),
        (cf, image, dataclasses.replace(inv, degeneracy_D=inv.degeneracy_D + 2)),
        (cf, image, dataclasses.replace(inv, d=lu.MultiplicityVector((2,) + inv.d.d[2:], inv.d.degenerate))),
        (cf, image, dataclasses.replace(inv, d=lu.MultiplicityVector(inv.d.d, not inv.d.degenerate))),
    ]
    if case == "dist":
        wrong.append((dataclasses.replace(cf, witness_v=None), image, inv))
    for form, img, invariants in wrong:
        assert checks.check_classify(pl, a, form, img, invariants), (form, img, invariants)


@pytest.mark.parametrize("case", CASES)
def test_equivalence_checkers(case):
    _, a, b, other = planted_state(case)
    enum = jobs.CASE_ENUM[case]
    sa, sb, so = (lu.validate(m, enum) for m in (a, b, other))
    eq, ne = lu.lu_equivalent(sa, sb), lu.lu_equivalent(sa, so)
    assert checks.check_equivalent(case, a, b, eq) == []
    assert checks.check_inequivalent(ne) == []
    assert checks.check_inequivalent(eq)
    assert checks.check_equivalent(case, a, b, ne)
    assert checks.check_equivalent(case, a, b, dataclasses.replace(eq, witness=None))
    assert checks.check_equivalent(case, a, b, dataclasses.replace(eq, witness_phase=-eq.witness_phase))
    swapped = dataclasses.replace(eq.witness, u=eq.witness.u.T)
    assert checks.check_equivalent(case, a, b, dataclasses.replace(eq, witness=swapped))


@pytest.mark.parametrize("st", [Stratum("boson", (2, 1, 1), False), Stratum("fermion", (2, 3), True),
                                Stratum("dist", (1, 2), True)])
def test_oracle_and_representative_checkers(st):
    state = lu.representative_state(lu.MultiplicityVector(st.d, st.degenerate), jobs.CASE_ENUM[st.case], seed=3)
    report = lu.oracle_check(state)
    assert checks.check_oracle(st, report) == []
    assert checks.check_representative(st, np.asarray(state.coeffs)) == []
    for wrong in (
        dataclasses.replace(report, agree=False),
        dataclasses.replace(report, warnings=("near threshold",)),
        dataclasses.replace(report, symplectic_rank_numeric=report.symplectic_rank_numeric + 1),
        dataclasses.replace(report, orbit_dim_numeric=report.orbit_dim_numeric - 1),
        dataclasses.replace(report, degeneracy_numeric=report.degeneracy_numeric + 2),
    ):
        assert checks.check_oracle(st, wrong), wrong
    other = [s for s in strata(st.case, st.n) if s != st][0]
    assert checks.check_representative(other, np.asarray(state.coeffs))


@pytest.mark.parametrize("case", CASES)
def test_strata_listing_checker(case):
    listing = lu.enumerate_strata(jobs.CASE_ENUM[case], 5)
    assert checks.check_strata_listing(case, 5, listing) == []
    assert checks.check_strata_listing(case, 5, listing[1:])
    assert checks.check_strata_listing(case, 5, listing + listing[:1])
    assert checks.check_strata_listing(case, 5, [dataclasses.replace(listing[0], orbit_dim=0)] + listing[1:])


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = luorbits.cli.main(argv)
    return code, json.loads(buffer.getvalue())


@pytest.mark.parametrize("case", CASES)
def test_cli_checkers(case, tmp_path):
    pl, a, b, other = planted_state(case, seed=5)
    paths = {}
    for label, c in (("a", a), ("b", b), ("other", other)):
        paths[label] = str(tmp_path / f"{label}.json")
        jobs._write_state(paths[label], case, c)

    code, payload = run_cli(["classify", paths["a"], "--json"])
    assert checks.check_cli_classify(pl, a, code, payload) == []
    assert checks.check_cli_classify(pl, a, 3, payload)
    for path, value in ((("canonical_form", "lambdas"), [0.5] * len(pl.lambdas)),
                        (("invariants", "d"), [len(pl.p)]),
                        (("invariants", "orbit_dim"), 0),
                        (("moment", "p"), [1.0] + [0.0] * (len(pl.p) - 1))):
        bad = json.loads(json.dumps(payload))
        bad[path[0]][path[1]] = value
        assert checks.check_cli_classify(pl, a, code, bad), path

    code, payload = run_cli(["compare", paths["a"], paths["b"], "--json"])
    assert checks.check_cli_compare(case, a, b, True, code, payload) == []
    assert checks.check_cli_compare(case, a, b, True, 1, payload)
    assert checks.check_cli_compare(case, a, b, False, code, payload)
    bad = json.loads(json.dumps(payload))
    bad["witness"]["phase"] = [-x for x in bad["witness"]["phase"]]
    assert checks.check_cli_compare(case, a, b, True, code, bad)

    code, payload = run_cli(["compare", paths["a"], paths["other"], "--json"])
    assert code == 1
    assert checks.check_cli_compare(case, a, other, False, code, payload) == []
    assert checks.check_cli_compare(case, a, other, True, code, payload)

    code, payload = run_cli(["oracle", paths["a"], "--json"])
    assert checks.check_cli_oracle(pl.stratum, code, payload) == []
    assert checks.check_cli_oracle(pl.stratum, 2, payload)
    assert checks.check_cli_oracle(pl.stratum, code, dict(payload, agree=False))
    assert checks.check_cli_oracle(pl.stratum, code, dict(payload, orbit_dim_numeric=1))
