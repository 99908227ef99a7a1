"""Tests for the gating rules of tools/corpus_diff.py on hand-made dumps."""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from luorbits import ParticleCase, canonicalize, random_state

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
