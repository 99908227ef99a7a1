"""Independent checks of the program's outputs against the planted truth.

Each checker returns a list of failure messages; an empty list means the
output is correct.  Nothing here calls the program: products, spectra and
dimension counts are recomputed with numpy and the formulas in planted.py.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from planted import Planted, Stratum, dimensions, strata

LAMBDA_TOL = 1e-10
SPECTRUM_TOL = 1e-10
UNITARY_TOL = 1e-9
REBUILD_TOL = 1e-9
WITNESS_TOL = 1e-7


def json_matrix(rows) -> np.ndarray:
    """Decode the CLI's row-major [[re, im], ...] matrix."""
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def core_matrix(case: str, lambdas: np.ndarray, n: int) -> np.ndarray:
    """diag(lambdas), or sum_j lambda_j J_2 on pairs (2j, 2j+1) for fermions."""
    lam = np.asarray(lambdas, dtype=float)
    if case != "fermion":
        return np.diag(lam.astype(complex))
    core = np.zeros((n, n), dtype=complex)
    idx = np.arange(len(lam))
    core[2 * idx, 2 * idx + 1] = lam
    core[2 * idx + 1, 2 * idx] = -lam
    return core


def special_unitary_errors(name: str, u) -> list[str]:
    u = np.asarray(u)
    n = u.shape[0]
    out = []
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if not defect <= UNITARY_TOL:
        out.append(f"{name} is not unitary: |U^dag U - I| = {defect:.3e}")
    det_err = float(abs(np.linalg.det(u) - 1.0))
    if not det_err <= UNITARY_TOL:
        out.append(f"{name} has det != 1: |det - 1| = {det_err:.3e}")
    return out


def act(case: str, u, v, c: np.ndarray) -> np.ndarray:
    """The local group action U C U^t, or U C V^t for distinguishable particles."""
    u = np.asarray(u)
    right = u if v is None else np.asarray(v)
    return u @ c @ right.T


def check_canonical(pl: Planted, c: np.ndarray, lambdas, u, v, phase) -> list[str]:
    """Slice values equal the planted ones and phase * U Lambda U^t rebuilds C."""
    case = pl.stratum.case
    out = []
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != pl.lambdas.shape:
        return [f"lambdas shape {lambdas.shape} != planted {pl.lambdas.shape}"]
    err = float(np.max(np.abs(lambdas - pl.lambdas)))
    if not err <= LAMBDA_TOL:
        out.append(f"lambdas differ from planted by {err:.3e}")
    out += special_unitary_errors("witness_u", u)
    if case == "dist":
        if v is None:
            return out + ["distinguishable form has no witness_v"]
        out += special_unitary_errors("witness_v", v)
    elif v is not None:
        out.append("congruence form has a second witness")
    rebuilt = phase * act(case, u, v if case == "dist" else None, core_matrix(case, lambdas, c.shape[0]))
    residual = float(np.linalg.norm(rebuilt - c))
    if not residual <= REBUILD_TOL:
        out.append(f"phase * U Lambda U^t misses C by {residual:.3e}")
    return out


def check_spectrum(pl: Planted, probabilities) -> list[str]:
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != pl.p.shape:
        return [f"spectrum shape {probabilities.shape} != planted {pl.p.shape}"]
    err = float(np.max(np.abs(probabilities - pl.p)))
    return [] if err <= SPECTRUM_TOL else [f"moment spectrum differs from planted by {err:.3e}"]


def check_stratum(st: Stratum, d, degenerate, orbit_dim, degeneracy) -> list[str]:
    """Orbit type and its dimensions against the planted stratum and the formulas."""
    out = []
    if tuple(d) != st.d or bool(degenerate) != st.degenerate:
        out.append(f"stratum {tuple(d)}/{degenerate} != planted {st.d}/{st.degenerate}")
    dims = dimensions(st)
    if orbit_dim != dims.orbit:
        out.append(f"orbit dimension {orbit_dim} != formula {dims.orbit}")
    if degeneracy != dims.fiber:
        out.append(f"degeneracy {degeneracy} != fiber dimension {dims.fiber}")
    return out


def check_classify(pl: Planted, c: np.ndarray, cf, image, inv) -> list[str]:
    """What `luorbits classify` reports: canonical form, moment spectrum, invariants."""
    return (
        check_canonical(pl, c, cf.lambdas, cf.witness_u, cf.witness_v, cf.global_phase)
        + check_spectrum(pl, image.probabilities)
        + check_stratum(pl.stratum, inv.d.d, inv.d.degenerate, inv.orbit_dim, inv.degeneracy_D)
    )


def check_witness(case: str, a: np.ndarray, b: np.ndarray, u, v, phase) -> list[str]:
    """The witness is special unitary and moves a onto phase * b, recomputed here."""
    out = special_unitary_errors("witness u", u)
    if case == "dist":
        if v is None:
            return out + ["distinguishable witness has no v"]
        out += special_unitary_errors("witness v", v)
    residual = float(np.linalg.norm(act(case, u, v if case == "dist" else None, a) - phase * b))
    if not residual <= WITNESS_TOL:
        out.append(f"witness misses phase * b by {residual:.3e}")
    return out


def check_equivalent(case: str, a: np.ndarray, b: np.ndarray, verdict) -> list[str]:
    if not verdict.equivalent:
        return ["rotated copy judged inequivalent"]
    if verdict.witness is None:
        return ["equivalent pair has no witness: " + "; ".join(verdict.warnings)]
    return check_witness(case, a, b, verdict.witness.u, verdict.witness.v, verdict.witness_phase)


def check_inequivalent(verdict) -> list[str]:
    return ["planted inequivalent partner judged equivalent"] if verdict.equivalent else []


def check_oracle(st: Stratum, report) -> list[str]:
    """Numeric ranks agree with the formulas, with no warning, and the form rank is even."""
    out = []
    if not report.agree or report.warnings:
        out.append(f"oracle agree={report.agree} warnings={list(report.warnings)}")
    if report.symplectic_rank_numeric % 2:
        out.append(f"odd symplectic rank {report.symplectic_rank_numeric}")
    dims = dimensions(st)
    if report.orbit_dim_numeric != dims.orbit:
        out.append(f"numeric orbit dimension {report.orbit_dim_numeric} != formula {dims.orbit}")
    if report.degeneracy_numeric != dims.fiber:
        out.append(f"numeric degeneracy {report.degeneracy_numeric} != formula {dims.fiber}")
    return out


def check_strata_listing(case: str, n: int, listing) -> list[str]:
    """enumerate_strata lists every orbit type once, with formula dimensions."""
    expected = {(st.d, st.degenerate): st for st in strata(case, n)}
    seen = [(tuple(inv.d.d), bool(inv.d.degenerate)) for inv in listing]
    if len(seen) != len(set(seen)) or set(seen) != set(expected):
        return [f"{case} N={n}: listed {len(seen)} strata, expected {len(expected)}"]
    out = []
    for key, inv in zip(seen, listing):
        out += check_stratum(expected[key], *key, inv.orbit_dim, inv.degeneracy_D)
    return out


def check_representative(st: Stratum, c: np.ndarray) -> list[str]:
    """The reduced spectrum of a stratum representative has block sizes d."""
    p = np.sort(np.linalg.eigvalsh(c @ c.conj().T / np.vdot(c, c).real))[::-1]
    cuts = np.flatnonzero(-np.diff(p) > 1e-6 * p[0]) + 1
    sizes = tuple(np.diff(np.concatenate([[0], cuts, [len(p)]])).tolist())
    zero_last = bool(p[-1] <= 1e-6 * p[0])
    if sizes != st.d or zero_last != st.degenerate:
        return [f"representative spectrum blocks {sizes}/{zero_last} != {st.d}/{st.degenerate}"]
    return []


def check_cli_classify(pl: Planted, c: np.ndarray, code: int, payload) -> list[str]:
    if code != 0 or payload is None:
        return [f"classify exit code {code}"]
    if payload.get("case") != pl.stratum.case or payload.get("n") != pl.stratum.n:
        return [f"classify reports case {payload.get('case')} n {payload.get('n')}"]
    form = payload["canonical_form"]
    u = json_matrix(form["witness_u"])
    v = None if form["witness_v"] is None else json_matrix(form["witness_v"])
    phase = complex(*form["global_phase"])
    inv = payload["invariants"]
    return (
        check_canonical(pl, c, form["lambdas"], u, v, phase)
        + check_spectrum(pl, payload["moment"]["p"])
        + check_stratum(pl.stratum, inv["d"], inv["degenerate"], inv["orbit_dim"], inv["degeneracy"])
    )


def check_cli_compare(case: str, a: np.ndarray, b: np.ndarray, equivalent: bool, code: int, payload) -> list[str]:
    if code != (0 if equivalent else 1) or payload is None:
        return [f"compare exit code {code} for equivalent={equivalent}"]
    if payload.get("equivalent") is not equivalent:
        return [f"compare reports equivalent={payload.get('equivalent')}, planted {equivalent}"]
    if not equivalent:
        return []
    w = payload.get("witness")
    if w is None:
        return ["equivalent pair has no witness in JSON"]
    v = None if w["v"] is None else json_matrix(w["v"])
    return check_witness(case, a, b, json_matrix(w["u"]), v, complex(*w["phase"]))


def check_cli_oracle(st: Stratum, code: int, payload) -> list[str]:
    if code != 0 or payload is None:
        return [f"oracle exit code {code}"]
    fields = ("agree", "warnings", "symplectic_rank_numeric", "orbit_dim_numeric", "degeneracy_numeric")
    return check_oracle(st, SimpleNamespace(**{key: payload.get(key) for key in fields}))
