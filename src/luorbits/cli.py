"""Command-line front end: classify, compare, strata, oracle, random, demo."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .canonical import canonicalize
from .equivalence import DEFAULT_SPECTRUM_TOL, lu_equivalent
from .errors import ConvergenceFailure, LuorbitsError, ParseError, ValidationError
from .moment import reduced_matrix
from .oracle import DEFAULT_RANK_TOL, counterexample_demo, oracle_check
from .states import (
    DEFAULT_SYMMETRY_TOL,
    ParticleCase,
    check_tolerance,
    random_state,
    state_from_dict,
    state_to_dict,
)
from .strata import (
    DEFAULT_CLUSTER_TOL,
    enumerate_strata,
    orbit_invariants,
    representative_state,
)

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4


def _jsonable(value):
    """JSON-ready copy of a result: floats at 15 significant digits, complex numbers
    as [re, im] pairs, arrays and tuples as lists, dataclasses field by field."""
    # leaf types first: they are most of what a witness matrix holds
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        wide = {"f": float, "c": complex}.get(value.dtype.kind)
        if wide is None or value.dtype.itemsize > np.dtype(wide).itemsize:
            return _jsonable(value.tolist())
        # one pass: the float64 parts in C order, each rounded, then the shape (+ [re, im]) put back
        parts = np.ascontiguousarray(value, wide).reshape(-1).view(float).tolist()
        pair = (2,) if wide is complex else ()
        return np.array([float(f"{x:.15g}") for x in parts]).reshape(value.shape + pair).tolist()
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise LuorbitsError(f"cannot write {out_path}: {exc}") from None
    else:
        print(text)


def _emit_json(payload, out_path: str | None) -> None:
    _emit(json.dumps(_jsonable(payload)), out_path)


def _stratum(inv) -> dict:
    """The stratum fields that ``classify`` and ``strata`` both emit."""
    return {"d": inv.d.d, "degenerate": inv.d.degenerate, "flag_dim": inv.flag_dim_real,
            "fiber": inv.fiber_factors, "fiber_dim": inv.fiber_dim, "orbit_dim": inv.orbit_dim,
            "degeneracy": inv.degeneracy_D}


def _load_state(path: str, tol: float = DEFAULT_SYMMETRY_TOL):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return state_from_dict(data, tol)


def _fiber_label(inv) -> str:
    names = {"torus": "T", "sym_so": "SU/SO", "sym_usp": "SU/USp", "group_su": "SU"}
    return " x ".join(
        f"T{f.m}" if f.kind == "torus" else f"{names[f.kind]}({f.m})" for f in inv.fiber_factors)


def _cmd_classify(args) -> int:
    state = _load_state(args.path, args.tol)
    cf = canonicalize(state)
    image = reduced_matrix(state)
    inv = orbit_invariants(image, args.cluster_tol)
    if args.json:
        form = {"lambdas": cf.lambdas, "residual": cf.residual, "global_phase": cf.global_phase,
                "witness_u": cf.witness_u, "witness_v": cf.witness_v}
        moment = {"case": image.case.value, "q": image.q_spectrum, "p": image.probabilities}
        payload = {"case": state.case.value, "n": state.n_levels, "canonical_form": form,
                   "moment": moment, "invariants": _stratum(inv), "boundary_gap": inv.boundary_gap}
        _emit_json(payload, args.out)
        return EXIT_OK
    lines = [
        f"case: {state.case.value}  N: {state.n_levels}",
        f"lambdas: {_fmt_vec(cf.lambdas)}",
        f"reconstruction residual: {cf.residual:.3e}",
        f"p: {_fmt_vec(image.probabilities)}",
        f"q: {_fmt_vec(image.q_spectrum)}",
        f"d: {list(inv.d.d)}  degenerate: {inv.d.degenerate}",
        f"flag dim: {inv.flag_dim_real}  fiber: {_fiber_label(inv)} (dim {inv.fiber_dim})",
        f"orbit dim: {inv.orbit_dim}  degeneracy D: {inv.degeneracy_D}",
        f"relative distance to nearest coarser stratum: {inv.boundary_gap:.3e}",
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = _load_state(args.path_a)
    b = _load_state(args.path_b)
    verdict = lu_equivalent(a, b, args.tol)
    if args.json:
        g = verdict.witness
        witness = None if g is None else {"u": g.u, "v": g.v, "phase": verdict.witness_phase}
        payload = {"equivalent": verdict.equivalent, "spectral_distance": verdict.spectral_distance,
                   "witness": witness, "witness_residual": verdict.witness_residual,
                   "warnings": verdict.warnings}
        _emit_json(payload, args.out)
    else:
        lines = [
            f"equivalent: {verdict.equivalent}",
            f"spectral distance: {verdict.spectral_distance:.6e}",
        ]
        if verdict.witness_residual is not None:
            lines.append(f"witness residual: {verdict.witness_residual:.3e}")
        lines.extend(f"warning: {w}" for w in verdict.warnings)
        _emit("\n".join(lines), args.out)
    return EXIT_OK if verdict.equivalent else EXIT_DIFFERENT


def _cmd_strata(args) -> int:
    case = ParticleCase.from_label(args.case)
    check_tolerance("cluster_tol", args.cluster_tol, positive=True)
    check_tolerance("rank_tol", args.rank_tol, positive=True, below=1.0)
    strata = enumerate_strata(case, args.n)
    rows = []
    for index, inv in enumerate(strata):
        row = _stratum(inv)
        if args.verify:
            rep = representative_state(inv.d, case, seed=index)
            row["oracle"] = oracle_check(rep, args.rank_tol, args.cluster_tol)
        rows.append(row)
    if args.json:
        _emit_json({"case": case.value, "n": args.n, "strata": rows}, args.out)
        return EXIT_OK
    header = f"{'d':>16}  {'deg':>5}  {'flag':>4}  {'fiber':>5}  {'orbit':>5}  {'D':>3}"
    if args.verify:
        header += "  oracle"
    lines = [f"strata for case={case.value} N={args.n}", header]
    for inv, row in zip(strata, rows):
        line = (
            f"{str(list(inv.d.d)):>16}  {str(inv.d.degenerate).lower():>5}  "
            f"{inv.flag_dim_real:>4}  {inv.fiber_dim:>5}  {inv.orbit_dim:>5}  {inv.degeneracy_D:>3}"
        )
        if args.verify:
            line += "  " + ("agree" if row["oracle"].agree else "DISAGREE")
        lines.append(line)
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    state = _load_state(args.path, args.tol)
    report = oracle_check(state, args.rank_tol, args.cluster_tol)
    if args.json:
        _emit_json(report, args.out)
    else:
        lines = [
            f"orbit dimension: numeric {report.orbit_dim_numeric}, formula {report.formula_orbit_dim}",
            f"symplectic rank: {report.symplectic_rank_numeric}",
            f"degeneracy D: numeric {report.degeneracy_numeric}, formula {report.formula_degeneracy}",
            f"agree: {report.agree}",
        ]
        lines.extend(f"warning: {w}" for w in report.warnings)
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_random(args) -> int:
    case = ParticleCase.from_label(args.case)
    state = random_state(case, args.n, args.seed)
    _emit(json.dumps(state_to_dict(state)), args.out)
    return EXIT_OK


def _cmd_demo(args) -> int:
    report = counterexample_demo()
    if args.json:
        _emit_json(report, args.out)
        return EXIT_OK
    lines = ["three-qubit counterexample", ""]
    lines.append(f"{'site':>4}  {'x1 spectrum':>24}  {'x2 spectrum':>24}")
    for site in range(3):
        s1 = _fmt_vec(report["spectra_x1"][site])
        s2 = _fmt_vec(report["spectra_x2"][site])
        lines.append(f"{site:>4}  {s1:>24}  {s2:>24}")
    lines.append("")
    lines.append(f"max spectral difference: {report['max_spectral_difference']:.3e}")
    lines.append(f"three-tangle: x1 = {report['tangle_x1']:.12f}, x2 = {report['tangle_x2']:.12f}")
    lines.append(report["conclusion"])
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in values) + "]"


# what --tol means for each command that takes it: (default, help)
_TOL = {
    "symmetry": (DEFAULT_SYMMETRY_TOL, "symmetry-repair tolerance for loading the state file"),
    "spectrum": (DEFAULT_SPECTRUM_TOL, "spectral distance up to which two states are equivalent"),
}


def _add_common(parser, *, tol=None, cluster=False, rank=False):
    if tol:
        default, text = _TOL[tol]
        parser.add_argument("--tol", type=float, default=default,
                            help=f"{text} (default %(default)s)")
    if cluster:
        parser.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                            help="relative gap in s = sqrt(p) for clustering (default %(default)s)")
    if rank:
        parser.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                            help="relative threshold for numerical ranks (default %(default)s)")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luorbits",
        description="Classify two-particle pure states up to local unitary equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="canonical form, moment spectrum and orbit invariants")
    p.add_argument("path", help="state file (JSON)")
    _add_common(p, tol="symmetry", cluster=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="decide local-unitary equivalence of two states")
    p.add_argument("path_a")
    p.add_argument("path_b")
    _add_common(p, tol="spectrum")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("strata", help="table of all orbit types for a case and N")
    p.add_argument("--case", required=True, choices=[c.value for c in ParticleCase])
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="sample a representative per stratum and run the oracle")
    _add_common(p, cluster=True, rank=True)
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("oracle", help="numeric orbit dimension and symplectic rank of a state")
    p.add_argument("path")
    _add_common(p, tol="symmetry", cluster=True, rank=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("random", help="write a random state file")
    p.add_argument("--case", required=True, choices=[c.value for c in ParticleCase])
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("demo", help="three-qubit counterexample to spectral classification")
    _add_common(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceFailure as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except LuorbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
