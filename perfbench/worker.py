"""One workload process: set up, then run timed rounds or the traced run.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH and
BLAS limited to one thread.  Prints one JSON object as its last line.

  --mode setup   set up (imports, job list, warm-up) and report setup_s only
  --mode timed   set up, then run whole rounds for about --seconds
  --mode trace   set up every workload, measure tracing overhead on the named
                 one, then trace one round of each workload for the per-layer metrics
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOAD_IDS = {name: i for i, name in enumerate(jobs.WORKLOADS)}
WORKDIR = os.path.join(os.getcwd(), ".perfbench_work")


@dataclass
class Outcome:
    time: float | None  # median over repeats, None if the job failed
    failure: str | None = None  # "layout" for the known validate fault, else the error
    check_failures: list[str] = field(default_factory=list)


def run_job(wl, job, rng, repeats, tracer=None, job_id=None) -> Outcome:
    """Make fresh inputs for each repeat, time each call, check each output."""
    inputs = wl.prepare(job, rng, repeats)
    times, failures = [], []
    for inp in inputs:
        if tracer is not None:
            tracer.start_job(job_id, job.tag)
        start = perf_counter()
        try:
            out = wl.run(job, inp)
        except jobs.LayoutFault:
            return Outcome(None, "layout", failures)
        except Exception as exc:  # counted, reported, and marks the run incorrect
            return Outcome(None, f"{type(exc).__name__}: {exc}", failures)
        times.append(perf_counter() - start)
        failures += [f"{job}: {msg}" for msg in wl.check(job, inp, out)]
    return Outcome(statistics.median(times), None, failures)


def run_round(wl, seed, round_index, repeats, tracer=None) -> list[Outcome]:
    wid = WORKLOAD_IDS[wl.name]
    return [
        run_job(wl, job, np.random.default_rng([seed, wid, 1, round_index, j]), repeats, tracer, (round_index, j))
        for j, job in enumerate(wl.jobs)
    ]


def warm_up(wl, seed) -> list[Outcome]:
    wid = WORKLOAD_IDS[wl.name]
    return [run_job(wl, job, np.random.default_rng([seed, wid, 0, i]), 1) for i, job in enumerate(wl.warmup_jobs())]


def rounds_for(seconds, round_body):
    """Run whole rounds; stop when one more would end nearer past `seconds` than before it."""
    start = time.monotonic()
    count = 0
    while True:
        round_body(count)
        count += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / count > seconds:
            return count


def make_workload(name, in_process=False):
    if name == "cli-cold":
        return jobs.CliCold(os.path.join(WORKDIR, str(os.getpid())), dict(os.environ), in_process)
    return jobs.WORKLOADS[name]()


def tally(outcomes) -> dict:
    unexpected = [o.failure for o in outcomes if o.failure not in (None, "layout")]
    check_failures = [msg for o in outcomes for msg in o.check_failures]
    return {
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "failed_layout": sum(o.failure == "layout" for o in outcomes),
        "unexpected_failures": unexpected[:5],
        "check_failures": check_failures[:5],
        "correct": not unexpected and not check_failures,
    }


def jobs_per_s(outcomes) -> float:
    times = [o.time for o in outcomes if o.time is not None]
    return len(times) / sum(times)


def machine() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed(wl, seed, seconds) -> dict:
    outcomes = []
    rounds = rounds_for(seconds, lambda r: outcomes.extend(run_round(wl, seed, r, wl.repeats)))
    times = np.array([o.time for o in outcomes if o.time is not None])
    tail = float(np.percentile(times, wl.tail_pct))
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    return {
        **tally(outcomes),
        "rounds": rounds,
        "timed_jobs": int(len(times)),
        "tail_pct": wl.tail_pct,
        "jobs_beyond_tail": int(np.sum(times > tail)),
        "metrics": {
            "jobs_per_s": jobs_per_s(outcomes),
            "job_p50_ms": float(np.median(times) * 1e3),
            "job_tail_ms": tail * 1e3,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        },
    }


def traced(homes, name, seed, seconds) -> dict:
    """Overhead on the named workload, then one traced round of every workload."""
    wl = homes[name]
    wid = WORKLOAD_IDS[name]
    plain, traced_out, passes = [], [], {}

    def paired_round(r):
        # each job runs untraced, then traced on fresh inputs, back to back, so
        # drift in machine speed cancels out of the overhead
        tracer, round_out = Tracer(), []
        for j, job in enumerate(wl.jobs):
            plain.append(run_job(wl, job, np.random.default_rng([seed, wid, 1, 2 * r, j]), 1))
            with tracer:
                rng = np.random.default_rng([seed, wid, 1, 2 * r + 1, j])
                round_out.append(run_job(wl, job, rng, 1, tracer, (2 * r + 1, j)))
        traced_out.extend(round_out)
        passes.setdefault(name, (tracer, round_out))

    rounds_for(seconds, paired_round)
    probes = []
    for other, home in homes.items():
        if other not in passes:
            with Tracer() as tracer:
                round_out = run_round(home, seed, 0, 1, tracer)
            passes[other] = (tracer, round_out)
            probes.extend(round_out)
    metrics = layers.per_layer(passes)
    metrics.update(layers.interpreter_costs())
    overhead = jobs_per_s(plain) / jobs_per_s(traced_out) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    probe_tally = tally([o for o in probes if o.failure != "layout"])
    result = tally(plain + traced_out)
    result["correct"] = result["correct"] and probe_tally["correct"]
    result["check_failures"] += probe_tally["check_failures"]
    result["unexpected_failures"] += probe_tally["unexpected_failures"]
    result["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    names = list(jobs.WORKLOADS) if args.mode == "trace" else [args.workload]
    homes = {name: make_workload(name, in_process=args.mode == "trace") for name in names}
    try:
        warm = [o for wl in homes.values() for o in warm_up(wl, args.seed)]
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "timed":
            result = timed(homes[args.workload], args.seed, args.seconds)
            result["setup_s"] = setup_s
        else:
            result = traced(homes, args.workload, args.seed, args.seconds)
        warm_tally = tally(warm)
        if not warm_tally["correct"]:
            result["correct"] = False
            result["warmup_failures"] = warm_tally["unexpected_failures"] + warm_tally["check_failures"]
        result["machine"] = machine()
    finally:
        shutil.rmtree(os.path.join(WORKDIR, str(os.getpid())), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
