"""Benchmark of the luorbits pipeline: four closed-loop workloads, one caller each.

Run from the root of a checkout:

  python3 perfbench/run.py --workload desk-small --seed 1 --seconds 20 --trace 0

With --trace 0 it sets up the workload in several fresh processes (setup_s is
their median), runs whole rounds for about --seconds in the last of them and
prints the end-to-end metrics.  With --trace 1 it runs the traced pass in one
fresh process and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Every process runs with BLAS limited to one thread.  No CPU is pinned and no
machine setting is changed, so other load on the machine shows in the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-small", "large-n", "oracle-sweep", "cli-cold")
SETUPS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode, env, deadline) -> dict:
    """Start one worker in its own session, wait for it, return its JSON line."""
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "luorbits", "__init__.py")):
        print("perfbench: no src/luorbits here; run from the root of a luorbits checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_VARS})

    try:
        if args.trace:
            result = spawn(args, "trace", env, deadline)
        else:
            setups = [spawn(args, "setup", env, deadline)["setup_s"] for _ in range(SETUPS - 1)]
            result = spawn(args, "timed", env, deadline)
            setups.append(result["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["metrics"] = {
                name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END.items()}
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# machine: {json.dumps(result['machine'])}; no CPU pinned, no machine setting changed")
    if not args.trace:
        print(f"# {args.workload}: {result['rounds']} rounds, {result['timed_jobs']} timed jobs, "
              f"tail = p{result['tail_pct']:g} with {result['jobs_beyond_tail']} jobs beyond it")
    print(f"# failed: {result['failed_layout']} layout jobs (validate on non-C-contiguous input), "
          f"unexpected: {result['unexpected_failures']}")
    for key in ("check_failures", "warmup_failures"):
        if result.get(key):
            print(f"# {key}: {result[key]}")
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
