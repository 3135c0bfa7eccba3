#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ultraexp.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``ultraexp`` from ``src``.
Each workload runs in its own child process, capped by RLIMIT_AS, as a
closed loop with one client: every job is one in-process
``cli.run([..., "--json"])`` call, timed, under a per-job ``setitimer``
ceiling, and then checked against a reference that ultraexp did not
compute (see workloads.py).  Every time is paced: divided by the machine's
momentary slowness (see pacing.py).  Jobs come in cycles of a fixed class
mix; the loop starts another cycle while the paced time spent in cli.run so
far plus the mean cycle's stays within --seconds, and a run holds at least
MIN_JOBS jobs.

--trace 0 prints the end-to-end metrics:
  setup_s           median time of a fresh interpreter importing ultraexp
  jobs_per_s        correct jobs per second spent inside cli.run
  latency_ms.p50/90 nearest-rank percentiles of the time inside cli.run; a
                    failed job ranks above every successful one
  failed_ratio      (failed + 0.5 per cycle) / attempted; the half-failure
                    per cycle keeps the ratio above 0 when nothing fails and
                    independent of how many cycles fit in the run
  peak_rss_mb       peak RSS of the workload's child process
--trace 1 runs every job twice, plain and with spans around the calls into
each module's public functions (tracing.py), alternating which goes first,
and prints the per-layer metrics of the traced calls per cycle, in plain
seconds, plus trace.overhead_ratio = traced time / plain time - 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``correct`` is false when any output
disagreed with its reference; crashes, timeouts, budget overruns and exit 2
where a verdict was expected count as failed jobs, by class, in the summary
printed above it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pacing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("symbolic", "pr-search", "pr-bulk")
MIN_JOBS = 100
SLACK_S = 0.5  # allowed past a job's own --budget-secs
JOB_CEILING_S = 30.0  # setitimer ceiling per job
RUN_CEILING_S = 100.0  # no job starts after this
CHILD_TIMEOUT_S = 170.0
MEMORY_LIMIT = 2 << 30  # RLIMIT_AS of the workload's child, bytes
SETUP_REPEATS = 9


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ultraexp", "cli.py")):
        print(f"bench: no ultraexp sources under {SRC}", file=sys.stderr)
        return 1
    return child(args) if args.child else parent(args)


# ---------------------------------------------------------------------------
# parent: set-up time, then one child per workload


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def setup_seconds() -> float:
    cmd = [sys.executable, "-c", "import ultraexp"]
    subprocess.run(cmd, env=_env(), check=True)  # fills __pycache__ first
    times = []
    for _ in range(SETUP_REPEATS):
        before = pacing.cli_pace()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True)
        dt = time.perf_counter() - t0
        times.append(2 * dt / (before + pacing.cli_pace()))
    return statistics.median(times)


def parent(args) -> int:
    setup = None if args.trace else setup_seconds()
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} child ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {args.workload} child exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    for name, m in result["metrics"].items():
        print(f"{name:36} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# child: the closed loop


class JobTimeout(Exception):
    """The job ran past JOB_CEILING_S."""


def _alarm(signum, frame):
    raise JobTimeout


def run_job(run, job, pacer: pacing.Pacer):
    """(paced seconds inside cli.run, failure class or None, reason)."""
    gc.collect()  # every job starts from the same heap, as in a fresh process
    out = io.StringIO()
    failure = reason = None
    signal.setitimer(signal.ITIMER_REAL, JOB_CEILING_S)
    pacer.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(job.argv)
    except JobTimeout:
        failure, reason = "timeout", ""
    except (Exception, SystemExit) as e:  # anything escaping cli.run is a failed job
        failure, reason = f"exception:{type(e).__name__}", str(e)[:120]
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        paced = pacer.stop(end)
    if failure:
        return paced, failure, reason
    wall = end - t0 - pacer.spent
    if job.budget is not None and wall > job.budget + SLACK_S:
        return paced, "overrun", f"{wall:.2f} s with --budget-secs {job.budget}"
    if rc == 2 and job.verdict:
        return paced, "inconclusive", out.getvalue()[:120]
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        return paced, "invalid_json", out.getvalue()[:120]
    try:
        reason = job.check(rc, payload)
    except (LookupError, TypeError, ValueError) as e:  # output of the wrong shape
        reason = f"{type(e).__name__}: {e}"
    return paced, (None if reason is None else "wrong"), reason or ""


def child(args) -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)
    import tracing
    import workloads
    from ultraexp import cli

    cycle_of = {"symbolic": workloads.symbolic_cycle, "pr-search": workloads.pr_search_cycle,
                "pr-bulk": workloads.pr_bulk_cycle}[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = workloads.Workdir(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = tracing.Tracer() if args.trace else None
    # no samples inside traced jobs, so that they stay out of the spans
    pacer = pacing.Pacer(every=0 if tracer else pacing.EVERY_S)
    results = []  # (kind, paced seconds, failure class, reason)
    plain_s = traced_s = 0.0
    cycle_costs = []  # paced seconds inside cli.run per cycle
    start = time.monotonic()
    try:
        while True:
            rng = random.Random(args.seed * 1_000_003 + len(cycle_costs))
            jobs = cycle_of(rng, len(cycle_costs), work)
            rng.shuffle(jobs)
            cost = 0.0
            for i, job in enumerate(jobs):
                if time.monotonic() - start > RUN_CEILING_S:
                    break
                if tracer is None:
                    results.append((job.kind, *run_job(cli.run, job, pacer)))
                    cost += results[-1][1]
                    continue
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                        try:
                            res = run_job(cli.run, job, pacer)
                        finally:
                            tracer.uninstall()
                            tracer.stack.clear()  # a span cut by the ceiling
                            tracer.open.clear()
                        results.append((job.kind, *res))
                        traced_s += res[0]
                    else:
                        res = run_job(cli.run, job, pacer)
                        plain_s += res[0]
                    cost += res[0]
            cycle_costs.append(cost)
            enough = tracer is not None or len(results) >= MIN_JOBS
            if enough and sum(cycle_costs) + statistics.mean(cycle_costs) > args.seconds:
                break
            if time.monotonic() - start > RUN_CEILING_S:
                break
    finally:
        shutil.rmtree(work.root, ignore_errors=True)

    failures = Counter(f for _, _, f, _ in results if f)
    for kind, dt, f, reason in results:
        if f:
            print(f"failed {kind} [{f}] {dt:.3f} s {reason}", file=sys.stderr)
    cycles = len(cycle_costs)
    print(f"# {args.workload} seed {args.seed}: {len(results)} jobs in {cycles} cycles, "
          f"{sum(failures.values())} failed {dict(failures)}; nproc {os.cpu_count()}, "
          f"Python {sys.version.split()[0]}")
    if tracer is None:
        metrics = end_to_end(results, cycles)
    else:
        metrics = tracer.metrics(cycles)
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    out = {
        "correct": not (failures["wrong"] or failures["invalid_json"]),
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


def end_to_end(results, cycles: int) -> dict[str, tuple[float, str]]:
    # a failed job ranks above every success, which all finish within the ceiling
    lat = sorted(dt if f is None else JOB_CEILING_S + dt for _, dt, f, _ in results)
    n = len(lat)
    ok = sum(1 for _, _, f, _ in results if f is None)
    failed = n - ok
    return {
        "jobs_per_s": (ok / sum(dt for _, dt, _, _ in results), "1/s"),
        "latency_ms.p50": (1000 * lat[math.ceil(0.5 * n) - 1], "ms"),
        "latency_ms.p90": (1000 * lat[math.ceil(0.9 * n) - 1], "ms"),
        "failed_ratio": ((failed + 0.5 * cycles) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
