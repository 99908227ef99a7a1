"""Diff every output of two luorbits source trees on the perfbench corpus.

  python tools/corpus_diff.py OLD_ROOT NEW_ROOT

Each tree is run in a fresh Python process with ``OLD_ROOT/src`` (then
``NEW_ROOT/src``) first on the import path and BLAS limited to one thread.
Both runs build their inputs with the job builders of the ``perfbench/``
directory next to this script, so the two trees see the same matrices: one
round of desk-small, large-n and oracle-sweep, plus cli-cold with the CLI
called in process, for perfbench seeds 1-3, each job with its workload's
repeats.  This is round 0 of ``perfbench/run.py --seed 1..3``.

Every output is dumped with exact float bits: lambdas, witnesses, global phase,
residual, p, q, the orbit invariants, both equivalence verdicts with their
warnings, every oracle report field, the strata listings, the CLI's exit code,
stdout and stderr, the checks' verdict and any exception.  The report counts
the differences per field with the largest float difference.  The exit code
is 1 when a lambda moves by more than 1e-12, or when a d vector, an
equivalence verdict, an integer or flag of an oracle report, an exception, a
CLI exit code or the checks' verdict differs; 0 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import itertools
import os
import pickle
import re
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (1, 2, 3)
WORKLOADS = ("desk-small", "large-n", "oracle-sweep", "cli-cold")
LAMBDA_TOL = 1e-12
# fields whose every difference fails the diff (a suffix of the field name)
EXACT = (".d.d", ".d.degenerate", ".equivalent", "exception", "exit_code", "checks_ok")
PROPERTIES = {"CanonicalForm": ("n_levels", "residual"), "MomentImage": ("q_spectrum",),
              "QuantumState": ("n_levels",)}


# ---------------------------------------------------------------------------
# Dump: run the corpus on one tree, one pickled (key, leaves) record per run.
# ---------------------------------------------------------------------------


def flatten(obj, path: str, out: dict) -> None:
    """Leaves of a result by dotted path: arrays (floats as 0-d arrays), ints, bools, strs, tuples."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, enum.Enum):
        out[path] = obj.value
    elif obj is None or isinstance(obj, (bool, int, str)):
        out[path] = obj
    elif isinstance(obj, (float, complex)):
        out[path] = np.asarray(obj)
    elif isinstance(obj, np.ndarray):
        out[path] = np.array(obj)
    elif isinstance(obj, (list, tuple)):
        if all(item is None or isinstance(item, (bool, int, str)) for item in obj):
            out[path] = tuple(obj)
        else:
            for i, item in enumerate(obj):
                flatten(item, f"{path}[{i}]", out)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                flatten(getattr(obj, f.name), f"{path}.{f.name}", out)
        for name in PROPERTIES.get(type(obj).__name__, ()):
            flatten(getattr(obj, name), f"{path}.{name}", out)
    else:
        raise TypeError(f"{path}: cannot dump a {type(obj).__name__}")


def leaves_of(name: str, job, out) -> dict:
    leaves = {}
    if name == "cli-cold":
        code, stdout, stderr = out
        leaves.update(exit_code=code, stdout=stdout, stderr=stderr)
    elif name != "oracle-sweep":
        for label, part in zip(("cf", "moment", "inv", "eq", "ne"), out):
            flatten(part, label, leaves)
    elif job.stratum is not None:
        flatten(out, "report", leaves)
    else:
        for label, part in zip(("listing", "inv", "state", "report"), out):
            flatten(part, label, leaves)
    return leaves


def dump(root: str, path: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), PERFBENCH]
    import jobs

    with tempfile.TemporaryDirectory() as workdir, open(path, "wb") as handle:
        for name in WORKLOADS:
            wid = list(jobs.WORKLOADS).index(name)
            for seed in SEEDS:
                if name == "cli-cold":
                    wl = jobs.CliCold(os.path.join(workdir, str(seed)), dict(os.environ), in_process=True)
                else:
                    wl = jobs.WORKLOADS[name]()
                for j, job in enumerate(wl.jobs):
                    inputs = wl.prepare(job, np.random.default_rng([seed, wid, 1, 0, j]), wl.repeats)
                    for r, inp in enumerate(inputs):
                        stderr = io.StringIO()
                        try:
                            with contextlib.redirect_stderr(stderr):
                                out = wl.run(job, inp)
                            failures = wl.check(job, inp, out)
                            if name == "cli-cold":
                                out = (*out, stderr.getvalue())
                            leaves = leaves_of(name, job, out)
                            leaves.update(checks_ok=not failures, checks=tuple(failures))
                        except Exception as exc:  # recorded and diffed, like any output
                            leaves = {"exception": type(exc).__name__, "exception.message": str(exc)}
                        pickle.dump((f"{name} seed {seed} job {j} repeat {r}", leaves), handle)


# ---------------------------------------------------------------------------
# Diff: walk both dumps in step and count differences per field.
# ---------------------------------------------------------------------------


def records(path: str):
    with open(path, "rb") as handle:
        while True:
            try:
                yield pickle.load(handle)
            except EOFError:
                return


def difference(a, b):
    """(differs, largest float difference or None) of two leaves."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or a.dtype != b.dtype:
            return True, None
        if a.tobytes() == b.tobytes():
            return False, 0.0
        gap = float(np.max(np.abs(a - b))) if a.size else 0.0
        return True, gap if gap == gap else float("inf")
    return type(a) is not type(b) or a != b, None


def fails(field: str, old, new, gap) -> bool:
    if field == "cf.lambdas":
        return gap is None or gap > LAMBDA_TOL
    if field.startswith("report."):
        return any(isinstance(x, (bool, int)) for x in (old, new))
    return field.endswith(EXACT)


def diff(old_path: str, new_path: str) -> tuple[dict, list, int]:
    """Per-field [leaves, differences, largest float difference], failing examples, record count."""
    fields, failing, count = {}, [], 0
    missing = object()
    for old, new in itertools.zip_longest(records(old_path), records(new_path)):
        count += 1
        if old is None or new is None or old[0] != new[0]:
            failing.append(f"record {count}: {old and old[0]} against {new and new[0]}")
            continue
        key, a, b = old[0], old[1], new[1]
        for path in a.keys() | b.keys():
            field = re.sub(r"\[\d+\]", "", path)
            row = fields.setdefault(field, [0, 0, 0.0])
            row[0] += 1
            x, y = a.get(path, missing), b.get(path, missing)
            if x is missing or y is missing:
                differs, gap = True, None
            else:
                differs, gap = difference(x, y)
            if not differs:
                continue
            row[1] += 1
            if gap is not None:
                row[2] = max(row[2], gap)
            if fails(field, None if x is missing else x, None if y is missing else y, gap):
                failing.append(f"{key}: {path}")
    return fields, failing, count


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--dump":
        dump(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        dumps = []
        for label, root in zip(("old", "new"), argv):
            path = os.path.join(tmp, f"{label}.pickle")
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", os.path.abspath(root), path],
                                  env=env, check=False)
            if proc.returncode != 0:
                print(f"dumping {root} failed with exit code {proc.returncode}", file=sys.stderr)
                return 2
            dumps.append(path)
        fields, failing, count = diff(*dumps)
    print(f"# {count} records, {sum(row[0] for row in fields.values())} leaves: {argv[0]} -> {argv[1]}")
    print(f"{'field':<40} {'leaves':>9} {'differ':>9}  largest float difference")
    for field in sorted(fields):
        leaves, differ, gap = fields[field]
        print(f"{field:<40} {leaves:>9} {differ:>9}  {gap:.3g}")
    print(f"# {sum(row[1] for row in fields.values())} differences, {len(failing)} failing")
    for line in failing[:20]:
        print(f"FAIL {line}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
