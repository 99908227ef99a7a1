"""Tests for the command-line interface: exit codes, JSON output, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import luorbits
from luorbits.cli import main


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


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    src_dir = str(Path(luorbits.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = "import luorbits.cli, sys; assert 'scipy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
