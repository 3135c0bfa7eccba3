"""Timings divided by the machine's momentary speed.

On the 2-CPU machine the job mixes were tuned on, the load of other tenants
moves the same CLI job by -20%..+9% between 10-second windows, and 60-second
averages of a larger job still differ by 13%: no run length averages that
away.  So every timing is divided by a pace, the time of a fixed piece of
reference work measured next to it, over that work's time there.  Small jobs
move with argparse-like work (the 10-second medians of a small job then stay
within 1%), the rewriter with object churn (within 4%).  A
job's pace is therefore the median of a CLI-work sample at its ends and
engine-work samples taken every EVERY_S of CPU time while it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import time
from dataclasses import dataclass

# median times of the two reference works on the machine the mixes were
# tuned on, so paced seconds read close to seconds there
CLI_REFERENCE_S = 0.0008
ENGINE_REFERENCE_S = 0.0006
EVERY_S = 0.05


def _cli_work() -> float:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(prog="reference")
    sub = p.add_subparsers(dest="command")
    for n in range(4):
        sp = sub.add_parser(f"c{n}")
        sp.add_argument("x")
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--json", action="store_true")
    json.dumps(vars(p.parse_args(["c2", "v", "--k", "3", "--json"])))
    return time.perf_counter() - t0


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _build(n: int):
    return n if n < 2 else _Node(_build(n // 2), _build(n - n // 2))


def _mirror(t):
    match t:
        case _Node(left=a, right=b):
            return _Node(_mirror(b), _mirror(a))
    return t


def _engine_work() -> float:
    t0 = time.perf_counter()
    t = _build(100)
    for _ in range(3):
        t = _mirror(t)
    return time.perf_counter() - t0


def _pace(work, repeats: int, reference: float) -> float:
    # with the collector off, so that a sample never pays for a job's garbage
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(work() for _ in range(repeats)) / reference
    finally:
        if enabled:
            gc.enable()


def cli_pace() -> float:
    """Current slowness for CLI plumbing: 1.0 on the tuning machine."""
    return _pace(_cli_work, 3, CLI_REFERENCE_S)


def engine_pace() -> float:
    return _pace(_engine_work, 2, ENGINE_REFERENCE_S)


class Pacer:
    """Paces one job at a time, sampling from a SIGPROF handler while it
    runs; ``spent`` is the time the samples took inside the job."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(engine_pace())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        """Call just before the job starts."""
        self._before = cli_pace()
        self.samples, self.spent = [], 0.0
        self._start = time.perf_counter()
        if self.every:
            signal.setitimer(signal.ITIMER_PROF, self.every, self.every)

    def stop(self, end: float) -> float:
        """Paced seconds of the job that ended at perf_counter() ``end``.

        Disturbances only ever slow a sample down, so the job's two ends
        count once, by the faster, and the pace is the median of that and
        the samples taken while the job ran."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(min(self._before, cli_pace()))
        return (end - self._start - self.spent) / statistics.median(self.samples)
