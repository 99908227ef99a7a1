"""Per-layer metrics from one traced round of each workload.

Self times are in ms per completed job of the round, calls are per completed
job unless named per check or per call.  Spans of failed jobs count only
toward ``states.validate.failed``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from jobs import LargeN
from planted import CASES
from tracer import JOB, NAME, OK

ORACLE_SIZES = (4, 8, 16)
CLI_COMMANDS = ("classify", "compare", "oracle")


class PassView:
    """Spans of one traced round, restricted to the jobs that completed."""

    def __init__(self, tracer, outcomes):
        self.tracer = tracer
        self.ok_jobs = {(r, j) for (r, j) in tracer.job_tags if outcomes[j].failure is None}
        self.jobs = len(self.ok_jobs)
        self.own = tracer.self_times()

    def spans(self, name, tag=None, job_tag=None):
        return [i for i in self.tracer.select(name, tag, job_tag) if self.tracer.spans[i][JOB] in self.ok_jobs]

    def self_ms(self, name, tag=None):
        """Self time per completed job."""
        return sum(self.own[i] for i in self.spans(name, tag)) / self.jobs * 1e3

    def calls(self, name):
        """Calls per completed job."""
        return len(self.spans(name)) / self.jobs

    def ms_per_call(self, name, tag=None, job_tag=None):
        spans = self.spans(name, tag, job_tag)
        return sum(self.tracer.duration(i) for i in spans) / len(spans) * 1e3 if spans else 0.0

    def median_ms(self, name, tag):
        spans = self.spans(name, tag)
        return statistics.median(self.tracer.duration(i) for i in spans) * 1e3 if spans else 0.0

    def counted(self, name):
        """Calls into a counted library function per completed job."""
        return sum(c[name] for job, c in self.tracer.job_counts.items() if job in self.ok_jobs) / self.jobs


def per_layer(passes) -> dict:
    """name -> (value, unit) for every span-derived per-layer metric."""
    m = {}
    desk = PassView(*passes["desk-small"])
    desk_tracer = passes["desk-small"][0]
    m["states.validate.self_ms"] = (desk.self_ms("states.validate"), "ms")
    m["states.validate.failed"] = (
        sum(1 for rec in desk_tracer.spans if rec[NAME] == "states.validate" and not rec[OK]), "count")
    m["states.apply_group_action.self_ms"] = (desk.self_ms("states.apply_group_action"), "ms")
    m["moment.reduced_matrix.self_ms"] = (desk.self_ms("moment.reduced_matrix"), "ms")
    m["moment.reduced_matrix.calls"] = (desk.calls("moment.reduced_matrix"), "calls/job")
    m["canonical.canonicalize.self_ms"] = (desk.self_ms("canonical.canonicalize"), "ms")
    m["canonical.canonicalize.calls"] = (desk.calls("canonical.canonicalize"), "calls/job")
    for kind in ("near_degenerate", "separated"):
        m[f"canonical.takagi.{kind}.ms_per_call"] = (desk.ms_per_call("canonical.takagi", job_tag=kind), "ms")
    m["canonical.scipy.calls"] = (desk.counted("canonical.scipy"), "calls/job")
    m["strata.orbit_invariants.self_ms"] = (desk.self_ms("strata.orbit_invariants"), "ms")
    for verdict in ("eq", "ineq"):
        m[f"equivalence.lu_equivalent.{verdict}.self_ms"] = (
            desk.self_ms("equivalence.lu_equivalent", verdict), "ms")

    large = PassView(*passes["large-n"])
    for fn in ("takagi", "youla_antisymmetric", "svd_congruence"):
        m[f"canonical.{fn}.self_ms"] = (large.self_ms(f"canonical.{fn}"), "ms")
    for case in CASES:
        for n in LargeN.sizes[case]:
            m[f"canonical.{case}.n{n}.ms_per_call"] = (
                large.ms_per_call("canonical.canonicalize", f"{case}.n{n}"), "ms")
    m["linalg.svd.calls"] = (large.counted("linalg.svd"), "calls/job")

    sweep = PassView(*passes["oracle-sweep"])
    for name in ("strata.enumerate_strata", "strata.representative_state", "oracle.oracle_check",
                 "oracle.orbit_dimension_numeric", "oracle.symplectic_rank_numeric"):
        m[f"{name}.self_ms"] = (sweep.self_ms(name), "ms")
    n_checks = len(sweep.spans("oracle.oracle_check"))
    m["oracle.apply_algebra_action.calls"] = (
        len(sweep.spans("states.apply_algebra_action")) / n_checks, "calls/check")
    for case in CASES:
        for n in ORACLE_SIZES:
            m[f"oracle.{case}.n{n}.ms_per_call"] = (sweep.ms_per_call("oracle.oracle_check", f"{case}.n{n}"), "ms")

    cli = PassView(*passes["cli-cold"])
    m["states.state_from_dict.self_ms"] = (cli.self_ms("states.state_from_dict"), "ms")
    for command in CLI_COMMANDS:
        m[f"cli.main.{command}.ms"] = (cli.median_ms("cli.main", command), "ms")
    return m


def _wall(argv, env) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def _import_ms(env) -> dict:
    """Cumulative import times of luorbits and scipy.linalg from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import luorbits"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            found[parts[2].strip()] = int(parts[1]) / 1e3
    return {"luorbits": found.get("luorbits", 0.0), "scipy.linalg": found.get("scipy.linalg", 0.0)}


def interpreter_costs(runs: int = 5) -> dict:
    """Bare interpreter start and import costs: medians over fresh processes."""
    env = dict(os.environ)
    start = statistics.median(_wall([sys.executable, "-c", "pass"], env) for _ in range(runs))
    imports = [_import_ms(env) for _ in range(runs)]
    return {
        "cli.python_start.ms": (start * 1e3, "ms"),
        "cli.import_luorbits.ms": (statistics.median(i["luorbits"] for i in imports), "ms"),
        "cli.import_scipy_linalg.ms": (statistics.median(i["scipy.linalg"] for i in imports), "ms"),
    }
