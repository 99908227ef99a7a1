"""The four workloads: what one round holds, how a job's inputs are made, run and checked.

A round is a fixed list of jobs that depends on the workload only; the seed
changes the planted values and the rotations, never the make-up.  Each job
makes fresh inputs for every repeat (same spectrum, new rotation), so no
result can be reused across repeats or rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import checks
import luorbits as lu
import luorbits.cli
from planted import CASES, Planted, Stratum, generic_stratum, partner, plant, rotate, strata

CASE_ENUM = {"boson": lu.ParticleCase.BOSON, "fermion": lu.ParticleCase.FERMION,
             "dist": lu.ParticleCase.DISTINGUISHABLE}
NEAR_GAP_RANGE = (2e-8, 1e-6)


class LayoutFault(Exception):
    """validate raised a raw numpy error on a non-C-contiguous input."""


@dataclass(frozen=True)
class Job:
    case: str
    n: int
    stratum: Stratum | None = None
    near: bool = False  # planted relative gap in NEAR_GAP_RANGE between the two largest blocks
    layout: str | None = None  # "F": Fortran-ordered copy, "T": transposed view
    command: str | None = None  # cli-cold: classify | compare | oracle
    versus_partner: bool = False  # cli-cold compare: against the planted partner, not a rotated copy
    index: int = 0  # oracle-sweep: position in the enumerate_strata listing

    @property
    def tag(self) -> str | None:
        """Trace tag of the job: whether boson/fermion inputs are nearly degenerate."""
        if self.case == "dist" or self.stratum is None or self.command:
            return None
        return "near_degenerate" if self.near else "separated"


def _with_layout(c: np.ndarray, layout: str | None) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(c)
    if layout == "T":
        return np.ascontiguousarray(c.T).T
    return c


# ---------------------------------------------------------------------------
# desk-small and large-n: classify one state, decide it against a rotated
# copy (witness path) and against a planted partner (spectral path).
# ---------------------------------------------------------------------------


@dataclass
class DecideInput:
    planted: Planted
    a: np.ndarray
    b: np.ndarray
    other: np.ndarray | None
    raw_a: np.ndarray


def prepare_decide(job: Job, rng: np.random.Generator, repeats: int) -> list[DecideInput]:
    near_gap = None
    if job.near:
        lo, hi = np.log(NEAR_GAP_RANGE[0]), np.log(NEAR_GAP_RANGE[1])
        near_gap = float(np.exp(rng.uniform(lo, hi)))
    pl = plant(job.stratum, rng, near_gap)
    other = partner(pl, rng)
    out = []
    for _ in range(repeats):
        a = rotate(pl, rng)
        out.append(DecideInput(pl, a, rotate(pl, rng), None if other is None else rotate(other, rng),
                               _with_layout(a, job.layout)))
    return out


def run_decide(job: Job, inp: DecideInput):
    case = CASE_ENUM[job.case]
    try:
        a = lu.validate(inp.raw_a, case)
    except ValueError as exc:  # a raw numpy error, not a LuorbitsError
        if job.layout:
            raise LayoutFault(f"{type(exc).__name__}: {exc}") from exc
        raise
    cf = lu.canonicalize(a)
    image = lu.reduced_matrix(a)
    inv = lu.orbit_invariants(cf)
    eq = lu.lu_equivalent(a, lu.validate(inp.b, case))
    ne = None if inp.other is None else lu.lu_equivalent(a, lu.validate(inp.other, case))
    return cf, image, inv, eq, ne


def check_decide(job: Job, inp: DecideInput, out) -> list[str]:
    cf, image, inv, eq, ne = out
    failures = checks.check_classify(inp.planted, inp.a, cf, image, inv)
    failures += checks.check_equivalent(job.case, inp.a, inp.b, eq)
    if (ne is None) != (inp.other is None):
        failures.append("partner verdict missing or unexpected")
    elif ne is not None:
        failures += checks.check_inequivalent(ne)
    return failures


class Workload:
    """A round of jobs plus how to prepare, run and check one job."""

    name = ""
    repeats = 3
    tail_pct: float  # the highest percentile with at least ten timed jobs beyond it

    def __init__(self):
        # A fixed shuffle spreads every job type over the whole run, so a slow
        # spell of the machine cannot fall on one type only.
        jobs = self.round_jobs()
        self.jobs = [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]

    def round_jobs(self) -> list[Job]:
        raise NotImplementedError

    def warmup_jobs(self) -> list[Job]:
        raise NotImplementedError

    def prepare(self, job, rng, repeats):
        return prepare_decide(job, rng, repeats)

    def run(self, job, inp):
        return run_decide(job, inp)

    def check(self, job, inp, out) -> list[str]:
        return check_decide(job, inp, out)


class DeskSmall(Workload):
    """Acceptance-suite scale: every stratum at N = 2..6, where Python overhead dominates."""

    name = "desk-small"
    tail_pct = 99.0

    def round_jobs(self):
        base = [Job(case, n, st) for case in CASES for n in range(2, 7) for st in strata(case, n)]
        # every tenth job reaches validate with a non-C-contiguous layout
        base = [
            Job(j.case, j.n, j.stratum, layout=("F" if (i // 10) % 2 == 0 else "T") if i % 10 == 9 else None)
            for i, j in enumerate(base)
        ]
        eligible = [j for j in base if j.case != "dist" and len(j.stratum.nonzero_blocks) >= 2]
        near = [Job(j.case, j.n, j.stratum, near=True) for i, j in enumerate(eligible)
                if j.case == "fermion" or i % 2 == 0]
        return base + near

    def warmup_jobs(self):
        return [Job(case, 4, generic_stratum(case, 4)) for case in CASES] + [
            Job("boson", 4, generic_stratum("boson", 4), near=True)]


class LargeN(Workload):
    """N = 32..128 generic states, where LAPACK time in the decompositions dominates.

    Fermions stop at N = 32: at N >= 64 the Youla deflation's SVD raises
    numpy's LinAlgError on a few inputs in a thousand, so whether a run
    fails would depend on the seed.
    """

    name = "large-n"
    tail_pct = 94.0
    sizes = {"boson": (32, 64, 96, 128), "fermion": (32,), "dist": (32, 64, 96, 128)}
    # three fermion jobs per round put the median inside the fermion group
    fermion_jobs = 3

    def round_jobs(self):
        return [Job(case, n, generic_stratum(case, n)) for case in CASES for n in self.sizes[case]
                for _ in range(self.fermion_jobs if case == "fermion" else 1)]

    def warmup_jobs(self):
        return [Job(case, 32, generic_stratum(case, 32)) for case in CASES]


# ---------------------------------------------------------------------------
# oracle-sweep: the in-process form of `luorbits strata --verify`.
# ---------------------------------------------------------------------------


@dataclass
class SweepInput:
    seed: int | None = None  # rotation seed handed to representative_state
    raw: np.ndarray | None = None  # generic states: a planted matrix


class OracleSweep(Workload):
    """Every stratum at N = 2..8 verified by the oracle, plus generic states at N = 12, 16."""

    name = "oracle-sweep"
    tail_pct = 99.0
    sweep_sizes = range(2, 9)
    # generic states per case and size; seven at N = 16 put the p99 tail
    # (about the 11th-slowest of ~1060 jobs) inside the N = 16 group
    generic_counts = {12: 1, 16: 7}

    def __init__(self):
        super().__init__()
        # the first job of each (case, N) enumerates the strata the others verify
        self.jobs.sort(key=lambda job: not (job.stratum is None and job.index == 0))
        self.listings = {}

    def round_jobs(self):
        jobs = [Job(case, n, index=i) for case in CASES for n in self.sweep_sizes
                for i in range(len(strata(case, n)))]
        jobs += [Job(case, n, generic_stratum(case, n)) for n, count in self.generic_counts.items()
                 for case in CASES for _ in range(count)]
        return jobs

    def warmup_jobs(self):
        return [Job(case, 4, index=i) for case in CASES for i in range(2)]

    def prepare(self, job, rng, repeats):
        if job.stratum is None:
            return [SweepInput(seed=int(rng.integers(2**31))) for _ in range(repeats)]
        pl = plant(job.stratum, rng)
        return [SweepInput(raw=rotate(pl, rng)) for _ in range(repeats)]

    def run(self, job, inp):
        case = CASE_ENUM[job.case]
        if job.stratum is not None:
            return lu.oracle_check(lu.validate(inp.raw, case))
        listing = None
        if job.index == 0:
            listing = self.listings[job.case, job.n] = lu.enumerate_strata(case, job.n)
        inv = self.listings[job.case, job.n][job.index]
        state = lu.representative_state(inv.d, case, seed=inp.seed)
        return listing, inv, state, lu.oracle_check(state)

    def check(self, job, inp, out):
        if job.stratum is not None:
            return checks.check_oracle(job.stratum, out)
        listing, inv, state, report = out
        failures = [] if listing is None else checks.check_strata_listing(job.case, job.n, listing)
        st = Stratum(job.case, tuple(inv.d.d), bool(inv.d.degenerate))
        if st not in strata(job.case, job.n):
            return failures + [f"listed stratum {st.d}/{st.degenerate} is not an orbit type"]
        failures += checks.check_representative(st, np.asarray(state.coeffs))
        return failures + checks.check_oracle(st, report)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command, on state files.
# ---------------------------------------------------------------------------


@dataclass
class CliInput:
    argv: list[str]
    planted: Planted
    a: np.ndarray
    b: np.ndarray | None = None


def _write_state(path: str, case: str, c: np.ndarray) -> None:
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in c]
    with open(path, "w") as handle:
        json.dump({"case": case, "n": int(c.shape[0]), "matrix": matrix}, handle)


class CliCold(Workload):
    """`python -m luorbits.cli ... --json` in a fresh process per job.

    A fresh interpreter cannot reuse anything from an earlier one, so each
    job is a single invocation (one repeat) on files written just before it.
    """

    name = "cli-cold"
    repeats = 1
    tail_pct = 70.0

    def __init__(self, workdir: str, env: dict, in_process: bool = False):
        super().__init__()
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        self.counter = 0
        os.makedirs(workdir, exist_ok=True)

    def round_jobs(self):
        jobs = []
        for case in CASES:
            big = min(64, max(LargeN.sizes[case]))  # fermions stop at 32, as in large-n
            jobs += [
                Job(case, big, generic_stratum(case, big), command="classify"),
                Job(case, big, generic_stratum(case, big), command="compare"),
                Job(case, 4, generic_stratum(case, 4), command="compare", versus_partner=True),
                Job(case, 4, generic_stratum(case, 4), command="oracle"),
            ]
        return jobs

    def warmup_jobs(self):
        return [Job("boson", 4, generic_stratum("boson", 4), command="classify")]

    def _path(self, label):
        self.counter += 1
        return os.path.join(self.workdir, f"{self.counter}-{label}.json")

    def prepare(self, job, rng, repeats):
        pl = plant(job.stratum, rng)
        other = partner(pl, rng) if job.versus_partner else pl
        out = []
        for _ in range(repeats):
            a = rotate(pl, rng)
            path_a = self._path("a")
            _write_state(path_a, job.case, a)
            argv = [job.command, path_a]
            b = None
            if job.command == "compare":
                b = rotate(other, rng)
                path_b = self._path("b")
                _write_state(path_b, job.case, b)
                argv.append(path_b)
            out.append(CliInput(argv + ["--json"], pl, a, b))
        return out

    def run(self, job, inp):
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = luorbits.cli.main(inp.argv)
            return code, buffer.getvalue()
        proc = subprocess.run([sys.executable, "-m", "luorbits.cli", *inp.argv], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
        return proc.returncode, proc.stdout

    def check(self, job, inp, out):
        code, text = out
        for path in inp.argv[1:-1]:
            os.remove(path)
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if job.command == "classify":
            return checks.check_cli_classify(inp.planted, inp.a, code, payload)
        if job.command == "compare":
            return checks.check_cli_compare(job.case, inp.a, inp.b, not job.versus_partner, code, payload)
        return checks.check_cli_oracle(job.stratum, code, payload)


WORKLOADS = {"desk-small": DeskSmall, "large-n": LargeN, "oracle-sweep": OracleSweep, "cli-cold": CliCold}
