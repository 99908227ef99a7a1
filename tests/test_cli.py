"""Tests for the command-line interface: exit codes, JSON output, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import luorbits
from luorbits.cli import _jsonable, main
from luorbits.states import haar_special_unitary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, case, n, seed, capsys):
    path = tmp_path / name
    code, out, _ = run_cli(capsys, "random", "--case", case, "--n", str(n),
                           "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


class TestClassify:
    def test_human_output(self, tmp_path, capsys):
        path = write_state(tmp_path, "b.json", "boson", 3, 7, capsys)
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "orbit dim" in out and "degeneracy D" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = write_state(tmp_path, "f.json", "fermion", 4, 1, capsys)
        code, out, _ = run_cli(capsys, "classify", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["case"] == "fermion"
        assert report["invariants"]["orbit_dim"] == (
            report["invariants"]["flag_dim"] + report["invariants"]["fiber_dim"])

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
        assert code == 2

    def test_symmetry_violation_exits_3(self, tmp_path, capsys):
        payload = {"case": "fermion", "n": 2,
                   "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 3
        assert "validation error" in err

    def test_repeated_runs_identical(self, tmp_path, capsys):
        path = write_state(tmp_path, "d.json", "dist", 4, 3, capsys)
        _, out1, _ = run_cli(capsys, "classify", str(path), "--json")
        _, out2, _ = run_cli(capsys, "classify", str(path), "--json")
        assert out1 == out2


class TestCompare:
    def test_equivalent_pair_exit_0(self, tmp_path, capsys):
        base = write_state(tmp_path, "a.json", "boson", 3, 5, capsys)
        from luorbits import apply_group_action, random_local_unitary, state_from_dict, state_to_dict, ParticleCase
        state = state_from_dict(json.loads(base.read_text()))
        moved = apply_group_action(state, random_local_unitary(ParticleCase.BOSON, 3, 9))
        other = tmp_path / "b.json"
        other.write_text(json.dumps(state_to_dict(moved)))
        code, out, _ = run_cli(capsys, "compare", str(base), str(other), "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["equivalent"] and verdict["witness_residual"] <= 1e-7

    def test_distinct_pair_exit_1(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", "boson", 3, 5, capsys)
        b = write_state(tmp_path, "b.json", "boson", 3, 6, capsys)
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 1
        assert "equivalent: False" in out

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", "boson", 2, 5, capsys)
        big = tmp_path / "big.json"
        big.write_text('{"case": "boson", "n": 2, "matrix": [[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]}'
                       % ("0" * 400))
        code, _, err = run_cli(capsys, "compare", str(big), str(a))
        assert code == 2
        assert "parse error" in err

    def test_case_mismatch_exit_3(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", "boson", 3, 5, capsys)
        b = write_state(tmp_path, "b.json", "dist", 3, 5, capsys)
        code, _, err = run_cli(capsys, "compare", str(a), str(b))
        assert code == 3


class TestToleranceFlag:
    def test_every_command_loads_alike(self, tmp_path, capsys):
        # symmetry defect 7e-9: above the library's repair tolerance of 1e-9
        payload = {"case": "boson", "n": 2,
                   "matrix": [[[0.8, 0.0], [0.1, 0.0]], [[0.1 + 5e-9, 0.0], [0.6, 0.0]]]}
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(payload))
        codes = [run_cli(capsys, "classify", str(path))[0],
                 run_cli(capsys, "oracle", str(path))[0],
                 run_cli(capsys, "compare", str(path), str(path))[0]]
        assert codes == [3, 3, 3]
        assert run_cli(capsys, "classify", str(path), "--tol", "1e-8")[0] == 0

    @pytest.mark.parametrize("argv", [
        ["classify", "{asym}", "--tol", "nan"],
        ["classify", "{state}", "--tol=-1e-9"],
        ["classify", "{state}", "--cluster-tol", "0"],
        ["compare", "{state}", "{state}", "--tol", "-1"],
        ["oracle", "{state}", "--rank-tol", "0"],
        ["oracle", "{state}", "--rank-tol", "nan"],
        ["oracle", "{state}", "--cluster-tol", "inf"],
        ["strata", "--case", "dist", "--n", "2", "--verify", "--rank-tol", "1"],
        ["strata", "--case", "boson", "--n", "3", "--cluster-tol", "nan", "--rank-tol", "5"],
    ])
    def test_bad_tolerance_exits_3(self, tmp_path, capsys, argv):
        asym = tmp_path / "asym.json"
        asym.write_text(json.dumps({"case": "boson", "n": 2, "matrix": [
            [[1.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}))
        state = tmp_path / "d.json"
        state.write_text(json.dumps({"case": "dist", "n": 3, "matrix": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}))
        argv = [arg.format(asym=asym, state=state) for arg in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "validation error" in err and "must be a finite number" in err

    def test_defaults(self):
        from luorbits.cli import build_parser
        from luorbits.equivalence import DEFAULT_SPECTRUM_TOL
        from luorbits.states import DEFAULT_SYMMETRY_TOL
        parser = build_parser()
        assert parser.parse_args(["classify", "x"]).tol == DEFAULT_SYMMETRY_TOL
        assert parser.parse_args(["oracle", "x"]).tol == DEFAULT_SYMMETRY_TOL
        assert parser.parse_args(["compare", "x", "y"]).tol == DEFAULT_SPECTRUM_TOL


class TestStrata:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--case", "boson", "--n", "3")
        assert code == 0
        assert "strata for case=boson N=3" in out

    def test_json_matches_library(self, capsys):
        from luorbits import ParticleCase, enumerate_strata
        code, out, _ = run_cli(capsys, "strata", "--case", "fermion", "--n", "6", "--json")
        assert code == 0
        rows = json.loads(out)["strata"]
        assert len(rows) == len(enumerate_strata(ParticleCase.FERMION, 6))

    def test_verify_all_agree(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--case", "dist", "--n", "3",
                               "--verify", "--json")
        assert code == 0
        rows = json.loads(out)["strata"]
        assert all(row["oracle"]["agree"] for row in rows)

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "strata", "--case", "boson", "--n", "3", "--json",
                                 "--out", str(target))
        assert code == 3
        assert str(target) in err and out == ""

    def test_oversized_listing_exits_3(self, capsys):
        # 2^30 - 1 strata: refused before the listing is built
        code, _, err = run_cli(capsys, "strata", "--case", "boson", "--n", "30", "--verify")
        assert code == 3
        assert "listings stop at" in err


class TestOneStratumRoute:
    @pytest.mark.parametrize("case", ["boson", "fermion", "dist"])
    def test_classify_and_oracle_agree_at_a_twilight_gap(self, case, tmp_path, capsys):
        # two values of s = sqrt(p) a relative gap g ~ cluster_tol apart:
        # clustering the canonical lambdas and clustering the moment
        # spectrum round differently here, so both commands must read the
        # same source
        particle = luorbits.ParticleCase.from_label(case)
        disagree = []
        for j in range(-30, 30):
            g = 1e-8 * (1 + j * 2e-9)
            if particle is luorbits.ParticleCase.FERMION:
                c = luorbits.fermion_pair_matrix([1.0, 1.0 - g, 0.5], 6)
            else:
                c = np.diag([1.0, 1.0 - g, 0.5, 0.25])
            rng = np.random.default_rng(j + 200)
            u = haar_special_unitary(len(c), rng)
            v = haar_special_unitary(len(c), rng) if particle is luorbits.ParticleCase.DISTINGUISHABLE else u
            state = luorbits.validate(u @ c @ v.T, particle)
            path = tmp_path / f"{case}{j}.json"
            path.write_text(json.dumps(luorbits.state_to_dict(state)))
            _, out, _ = run_cli(capsys, "classify", str(path), "--json")
            classified = json.loads(out)["invariants"]["orbit_dim"]
            _, out, _ = run_cli(capsys, "oracle", str(path), "--json")
            if classified != json.loads(out)["formula_orbit_dim"]:
                disagree.append(j)
        assert disagree == []


class TestOracleCommand:
    def test_bell_report(self, tmp_path, capsys):
        payload = {"case": "dist", "n": 2,
                   "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "oracle", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["agree"] and report["degeneracy_numeric"] == 3


class TestRandomCommand:
    def test_stdout_state_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "random", "--case", "boson", "--N", "4", "--seed", "7")
        assert code == 0
        from luorbits import state_from_dict
        state = state_from_dict(json.loads(out))
        assert state.n_levels == 4
        assert abs(np.linalg.norm(state.coeffs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", list(luorbits.ParticleCase))
    def test_state_file_round_trips_bit_for_bit(self, case, capsys):
        code, out, _ = run_cli(capsys, "random", "--case", case.value, "--n", "9", "--seed", "4")
        assert code == 0 and out.count("\n") == 1  # one compact line
        data = json.loads(out)
        original = luorbits.random_state(case, 9, 4)
        assert luorbits.states.complex_matrix_from_json(data["matrix"], 9).tobytes() == original.coeffs.tobytes()
        # loading validates, and its renormalization may move a last bit: the same as validating the original
        loaded = luorbits.state_from_dict(data).coeffs
        assert loaded.tobytes() == luorbits.validate(original.coeffs, case).coeffs.tobytes()

    def test_negative_seed_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "random", "--case", "boson", "--n", "3", "--seed", "-1")
        assert code == 3
        assert "seed must be an integer >= 0" in err and out == ""

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "random", "--case", "fermion", "--n", "5", "--seed", "2")
        _, out2, _ = run_cli(capsys, "random", "--case", "fermion", "--n", "5", "--seed", "2")
        assert out1 == out2

    def test_no_files_written_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "random", "--case", "boson", "--n", "3", "--seed", "1")
        run_cli(capsys, "strata", "--case", "boson", "--n", "3")
        run_cli(capsys, "demo")
        assert list(tmp_path.iterdir()) == []


class TestDemo:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "demo")
        assert code == 0
        assert "three-tangle" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["moment_images_equal"]
        assert report["tangle_x1"] == pytest.approx(8 / 9, abs=1e-10)
        assert report["tangle_x2"] == 0.0


STRATUM_KEYS = ["d", "degenerate", "flag_dim", "fiber", "fiber_dim", "orbit_dim", "degeneracy"]
ORACLE_KEYS = ["orbit_dim_numeric", "symplectic_rank_numeric", "degeneracy_numeric", "formula_orbit_dim",
               "formula_degeneracy", "agree", "rank_tolerance_used", "warnings"]


def _is_pair(value):
    return isinstance(value, list) and len(value) == 2 and all(isinstance(x, float) for x in value)


def _is_complex_matrix(value, n):
    return len(value) == n and all(len(row) == n and all(_is_pair(z) for z in row) for row in value)


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)


def test_json_contract(tmp_path, capsys):
    """Key order, [re, im] encoding and 15-digit floats of every --json payload."""
    from luorbits import apply_group_action, random_local_unitary, state_from_dict, state_to_dict
    payloads, n = [], 4
    for case in luorbits.ParticleCase:
        a = write_state(tmp_path, f"{case.value}.json", case.value, n, 3, capsys)
        moved = apply_group_action(state_from_dict(json.loads(a.read_text())),
                                   random_local_unitary(case, n, 8))
        b = tmp_path / f"{case.value}_moved.json"
        b.write_text(json.dumps(state_to_dict(moved)))
        paired = case is luorbits.ParticleCase.DISTINGUISHABLE

        code, out, _ = run_cli(capsys, "classify", str(a), "--json")
        report = json.loads(out)
        assert code == 0
        assert list(report) == ["case", "n", "canonical_form", "moment", "invariants", "boundary_gap"]
        form = report["canonical_form"]
        assert list(form) == ["lambdas", "residual", "global_phase", "witness_u", "witness_v"]
        assert _is_pair(form["global_phase"]) and _is_complex_matrix(form["witness_u"], n)
        assert _is_complex_matrix(form["witness_v"], n) if paired else form["witness_v"] is None
        assert list(report["moment"]) == ["case", "q", "p"]
        assert list(report["invariants"]) == STRATUM_KEYS
        assert all(list(f) == ["kind", "m", "dim"] for f in report["invariants"]["fiber"])
        payloads.append(report)

        code, out, _ = run_cli(capsys, "compare", str(a), str(b), "--json")
        verdict = json.loads(out)
        assert code == 0
        assert list(verdict) == ["equivalent", "spectral_distance", "witness", "witness_residual", "warnings"]
        witness = verdict["witness"]
        assert list(witness) == ["u", "v", "phase"]
        assert _is_pair(witness["phase"]) and _is_complex_matrix(witness["u"], n)
        assert _is_complex_matrix(witness["v"], n) if paired else witness["v"] is None
        payloads.append(verdict)

        code, out, _ = run_cli(capsys, "oracle", str(a), "--json")
        assert code == 0
        payloads.append(json.loads(out))
        assert list(payloads[-1]) == ORACLE_KEYS

    code, out, _ = run_cli(capsys, "strata", "--case", "dist", "--n", "3", "--verify", "--json")
    listing = json.loads(out)
    assert code == 0
    assert list(listing) == ["case", "n", "strata"]
    assert all(list(row) == STRATUM_KEYS + ["oracle"] for row in listing["strata"])
    assert all(list(row["oracle"]) == ORACLE_KEYS for row in listing["strata"])
    payloads.append(listing)

    code, out, _ = run_cli(capsys, "demo", "--json")
    assert code == 0
    payloads.append(json.loads(out))
    assert list(payloads[-1]) == ["spectra_x1", "spectra_x2", "max_spectral_difference",
                                  "moment_images_equal", "tangle_x1", "tangle_x2", "tangle_gap",
                                  "distinct_orbits", "conclusion"]

    floats = list(_floats(payloads))
    assert len(floats) > 100
    assert all(float(f"{x:.15g}") == x for x in floats)


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    src_dir = str(Path(luorbits.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = "import luorbits.cli, sys; assert 'scipy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("case", ["boson", "fermion", "dist"])
def test_json_is_one_compact_line(case, tmp_path, capsys):
    """classify, compare and oracle --json each print one line: no indent, the C encoder."""
    path = write_state(tmp_path, f"{case}.json", case, 4, 2, capsys)
    for argv in (["classify", str(path)], ["compare", str(path), str(path)], ["oracle", str(path)]):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and out.endswith("}\n") and out.count("\n") == 1
        assert json.loads(out)


def _per_entry(value):
    """The per-entry rule that the array branch of ``_jsonable`` replaces: every array via tolist()."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, complex):
        return [_per_entry(value.real), _per_entry(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_per_entry(item) for item in value]
    if isinstance(value, np.ndarray):
        return _per_entry(value.tolist())
    return value


def _bits(value):
    """A nested value with each leaf as (type, float bits or value), so that -0.0 differs from 0.0."""
    if isinstance(value, list):
        return [_bits(item) for item in value]
    if isinstance(value, float):
        return float, np.float64(value).tobytes()
    return type(value), value


_RNG = np.random.default_rng(11)
_EDGES = np.array([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2,
                   2 / 3, 1e-300 / 3, 0.123456789012345678, 9.99999999999999e22, 1234567.89012345678])
_FLOAT_ARRAYS = {
    "0-d": np.array(2 / 3),
    "0-d-complex": np.array(1 / 3 - 2j / 7),
    "1-d": _RNG.standard_normal(7),
    "2-d": _RNG.standard_normal((3, 4)),
    "3-d-complex": _RNG.standard_normal((2, 3, 4)) + 1j * _RNG.standard_normal((2, 3, 4)),
    "empty": np.zeros(0),
    "empty-rows": np.zeros((3, 0)),
    "empty-complex": np.zeros((0, 2), complex),
    "fortran": np.asfortranarray(_RNG.standard_normal((4, 3)) + 1j * _RNG.standard_normal((4, 3))),
    "transposed": (_RNG.standard_normal((3, 5)) + 1j * _RNG.standard_normal((3, 5))).T,
    "strided": _RNG.standard_normal((6, 8))[::2, ::-3],
    "real-part-view": (_RNG.standard_normal((3, 3)) + 1j).real,
    "edges": _EDGES,
    "edges-complex": _EDGES + 1j * _EDGES[::-1],
    "float32": _RNG.standard_normal((3, 3)).astype(np.float32),
    "complex64": (_RNG.standard_normal((2, 3)) + 1j * _RNG.standard_normal((2, 3))).astype(np.complex64),
    "float16": np.array([1 / 3, -0.0, 65504.0], np.float16),
}


class TestJsonableArrays:
    @pytest.mark.parametrize("arr", list(_FLOAT_ARRAYS.values()), ids=list(_FLOAT_ARRAYS))
    def test_float_arrays_equal_the_per_entry_rule(self, arr):
        assert _bits(_jsonable(arr)) == _bits(_per_entry(arr))

    @pytest.mark.parametrize("arr", [np.arange(6).reshape(2, 3), np.array([True, False]), np.array(7),
                                     np.array(["a", "b"]), np.zeros((0, 2), int)])
    def test_other_dtypes_go_through_tolist(self, arr):
        assert _bits(_jsonable(arr)) == _bits(arr.tolist())

    def test_fifteen_digits_are_kept(self):
        out = _jsonable(_EDGES)
        assert out[0] == 0.0 and np.signbit(out[0]) and out[1] == 5e-324
        assert out[5] == 0.3 and out[8] == 0.123456789012346 and out[9] == 9.99999999999999e22
