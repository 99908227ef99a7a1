"""Tests for the gating rules of tools/corpus_diff.py on hand-made dumps."""

import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from luorbits import ParticleCase, canonicalize, fermion_pair_matrix, random_state

_spec = importlib.util.spec_from_file_location(
    "corpus_diff", Path(__file__).resolve().parents[1] / "tools" / "corpus_diff.py")
corpus_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_diff)


def write(path, records):
    with open(path, "wb") as handle:
        for record in records:
            pickle.dump(record, handle)
    return str(path)


def run_diff(tmp_path, old, new):
    return corpus_diff.diff(write(tmp_path / "old", [("r", old)]), write(tmp_path / "new", [("r", new)]))


BASE = {
    "cf.lambdas": np.array([0.8, 0.6]),
    "cf.residual": np.asarray(1e-16),
    "raw.lambdas": np.array([0.8, 0.6]),
    "inv.d.d": (1, 1),
    "eq.equivalent": True,
    "report.orbit_dim_numeric": 7,
    "report.rank_tolerance_used": np.asarray(1e-8),
    "stdout": "{}",
}


class TestCorpusDiff:
    def test_identical_dumps(self, tmp_path):
        fields, failing, count = run_diff(tmp_path, BASE, dict(BASE))
        assert count == 1 and failing == []
        assert all(row[1] == 0 for row in fields.values())

    @pytest.mark.parametrize("path, value, fail", [
        ("cf.lambdas", np.array([0.8, 0.6 + 1e-13]), False),
        ("cf.lambdas", np.array([0.8, 0.6 + 1e-11]), True),
        ("cf.residual", np.asarray(3e-16), False),
        ("raw.lambdas", np.array([0.8, 0.6 + 1e-13]), False),
        ("raw.lambdas", np.array([0.8, 0.6 + 1e-11]), True),
        ("raw.exception", "SymmetryViolation", True),  # a leaf the old dump lacks
        ("inv.d.d", (2,), True),
        ("eq.equivalent", False, True),
        ("report.orbit_dim_numeric", 8, True),
        ("report.rank_tolerance_used", np.asarray(2e-8), False),
        ("stdout", "{ }", False),
    ])
    def test_one_changed_leaf(self, tmp_path, path, value, fail):
        fields, failing, _ = run_diff(tmp_path, BASE, {**BASE, path: value})
        assert fields[path][1] == 1
        assert sum(row[1] for row in fields.values()) == 1
        assert bool(failing) is fail

    def test_missing_leaf_and_extra_record(self, tmp_path):
        new = {k: v for k, v in BASE.items() if k != "inv.d.d"}
        _, failing, _ = run_diff(tmp_path, BASE, new)
        assert failing == ["r: inv.d.d"]
        old = write(tmp_path / "old", [("r", BASE)])
        new = write(tmp_path / "new", [("r", BASE), ("s", BASE)])
        assert len(corpus_diff.diff(old, new)[1]) == 1

    def test_float_bits_are_compared(self, tmp_path):
        fields, _, _ = run_diff(tmp_path, {"x": np.asarray(0.0)}, {"x": np.asarray(-0.0)})
        assert fields["x"][1] == 1 and fields["x"][2] == 0.0

    def test_flatten_reads_the_residual_property(self):
        leaves = {}
        corpus_diff.flatten(canonicalize(random_state(ParticleCase.BOSON, 3, 0)), "cf", leaves)
        assert sorted(leaves) == ["cf.case", "cf.global_phase", "cf.lambdas", "cf.n_levels",
                                  "cf.residual", "cf.witness_u", "cf.witness_v"]
        assert leaves["cf.residual"].dtype == float and leaves["cf.witness_v"] is None

    @pytest.mark.parametrize("case, raw, keys", [
        ("boson", np.diag([2.0, 1.0]), ["raw.lambdas", "raw.u"]),
        ("fermion", fermion_pair_matrix([2.0], 3), ["raw.lambdas", "raw.u"]),
        ("dist", np.diag([2.0, 1.0]), ["raw.lambdas", "raw.u", "raw.v"]),
        ("boson", np.array([[0.0, 1.0], [-1.0, 0.0]]), ["raw.exception", "raw.exception.message"]),
    ])
    def test_raw_leaves_of_each_case(self, case, raw, keys):
        # decide jobs' raw matrices reach takagi / youla_antisymmetric / svd_congruence by case
        leaves = corpus_diff.raw_leaves(case, raw)
        assert sorted(leaves) == keys
        if "raw.lambdas" in leaves:
            np.testing.assert_allclose(leaves["raw.lambdas"][:1], [2.0], rtol=0, atol=1e-15)
        else:
            assert leaves["raw.exception"] == "SymmetryViolation"


def cli_leaves(stdout):
    return corpus_diff.leaves_of("cli-cold", None, (0, stdout, ""))


class TestCliStdoutByValue:
    PAYLOAD = {"equivalent": True, "spectral_distance": 0.1, "witness": {"u": [[[1.0, -0.0]]], "v": None},
               "warnings": ["near a stratum boundary"]}

    def test_layout_alone_is_no_difference(self, tmp_path):
        old = cli_leaves(json.dumps(self.PAYLOAD, indent=2))
        new = cli_leaves(json.dumps(self.PAYLOAD))
        assert old["stdout"] == ("equivalent", "spectral_distance", "witness", "warnings")
        assert old["stdout.witness"] == ("u", "v") and old["stdout.witness.v"] is None
        fields, failing, _ = run_diff(tmp_path, old, new)
        assert failing == [] and all(row[1] == 0 for row in fields.values())

    @pytest.mark.parametrize("changed, field", [
        ({"spectral_distance": 0.10000000000000002}, "stdout.spectral_distance"),  # the last bit
        ({"witness": {"u": [[[1.0, 0.0]]], "v": None}}, "stdout.witness.u"),  # -0.0 against 0.0
        ({"witness": {"v": None, "u": [[[1.0, -0.0]]]}}, "stdout.witness"),  # key order
    ])
    def test_a_float_bit_or_a_key_order_is_a_difference(self, tmp_path, changed, field):
        fields, failing, _ = run_diff(tmp_path, cli_leaves(json.dumps(self.PAYLOAD)),
                                      cli_leaves(json.dumps({**self.PAYLOAD, **changed})))
        assert fields[field][1] == 1 and sum(row[1] for row in fields.values()) == 1
        assert failing == []  # reported, not gated: only the exit code is

    def test_text_that_is_not_json_stays_text(self):
        leaves = cli_leaves("")
        assert leaves == {"exit_code": 0, "stderr": "", "stdout": ""}
