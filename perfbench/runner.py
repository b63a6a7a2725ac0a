"""Closed-loop request runners: a timed run, a traced run, and set-up timing.

One client sends the next request only after the previous one has returned.
Only ``Workload.execute`` is timed; output checks run between requests.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import calibration
from .workloads import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# Share of each request's time spent timing the calibration kernel after it.
CALIBRATION_SHARE = 0.1

_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import polrot.cli; "
    "from perfbench.inputs import make_stream; make_stream(sys.argv[3], int(sys.argv[4]))"
)
# A cold interpreter that does the bulk of set-up's work without polrot: it
# starts and imports numpy.  Starting processes and reading many small files
# slow down by other factors than the calibration kernels do.
_REFERENCE_CODE = "import numpy"
# The reference interpreter's wall time at the reference speed, in seconds.
REFERENCE_START_S = 0.2


def _cold(*args: str) -> float:
    """Wall time of one cold interpreter running ``python -c *args``."""
    start = time.perf_counter()
    # A blocking wait: waiting with a timeout polls, in steps of up to 50 ms.
    with subprocess.Popen([sys.executable, "-c", *args], cwd=ROOT) as child:
        code = child.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"cold interpreter exited with code {code}")
    return elapsed


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """One cold interpreter that imports polrot and builds the inputs.

    Returns its wall time in seconds, raw and at the reference speed: scaled
    by REFERENCE_START_S over the mean time of reference interpreters started
    just before and just after it.
    """
    before = _cold(_REFERENCE_CODE)
    raw = _cold(_SETUP_CODE, str(SRC), str(ROOT), workload, str(seed))
    after = _cold(_REFERENCE_CODE)
    return raw, raw * 2.0 * REFERENCE_START_S / (before + after)


def _attempt(workload, request):
    """Run one request; return (output or None, seconds, error or None)."""
    start = time.perf_counter()
    try:
        out = workload.execute(request)
    except Exception:  # a refused request is a failed request; keep running
        return None, time.perf_counter() - start, traceback.format_exc(limit=3)
    return out, time.perf_counter() - start, None


def _checked(workload, request, out, error):
    """(points, error) after the output check."""
    if error is not None:
        return 0, error
    try:
        return workload.check(request, out), None
    except CheckFailed as exc:
        return 0, f"check failed: {exc}"
    except Exception:  # malformed output that the check cannot even read
        return 0, traceback.format_exc(limit=3)


class TimedRun:
    """A closed loop over a stream; only ``Workload.execute`` is timed.

    ``run_until`` sends requests until they have taken that much time in
    total, checking each output before the next request is sent.  It times
    a block of runs of the workload's calibration kernel before the first
    request and right after each request, as many runs as take
    CALIBRATION_SHARE of that request's time (at least one).  ``units()``
    gives each request's time divided by the mean kernel time of the blocks
    just before and just after it.
    """

    def __init__(self, workload, stream) -> None:
        self.workload = workload
        self.stream = stream
        self.latencies: list[float] = []
        # Mean kernel time of each block; block i is timed before request i.
        self.blocks: list[float] = []
        self.done: list[int] = []
        self.failures: list[tuple] = []
        self.busy = 0.0

    def _calibrate(self, seconds: float) -> None:
        times = [calibration.timed(self.workload.kernel)]
        while sum(times) < seconds:
            times.append(calibration.timed(self.workload.kernel))
        self.blocks.append(statistics.fmean(times))

    def run_until(self, busy: float) -> None:
        stream = self.stream
        if not self.blocks:
            self._calibrate(0.0)
        while self.busy < busy:
            i = len(self.latencies)
            request = stream.requests[i % len(stream.requests)]
            out, elapsed, error = _attempt(self.workload, request)
            self._calibrate(CALIBRATION_SHARE * elapsed)
            self.busy += elapsed
            self.latencies.append(elapsed)
            done, error = _checked(self.workload, request, out, error)
            self.done.append(done)
            if error is not None:
                self.failures.append((i, request, error))

    @property
    def points(self) -> int:
        return sum(self.done)

    def units(self) -> list[float]:
        """Each request's time in calibration units."""
        blocks = self.blocks
        return [2.0 * latency / (blocks[i] + blocks[i + 1]) for i, latency in enumerate(self.latencies)]

    def throughput(self) -> float:
        """Points completed per calibration unit of request time."""
        return self.points / sum(self.units())


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with exactly TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_traced(workload, requests, tracer) -> dict:
    """The same requests untraced, then traced; outputs must not differ.

    The first request runs once beforehand, so neither pass pays for caches
    the program fills on first use.
    """
    _attempt(workload, requests[0])
    untraced = []
    start = time.perf_counter()
    for request in requests:
        untraced.append(_attempt(workload, request))
    wall_plain = time.perf_counter() - start
    traced = []
    start = time.perf_counter()
    with tracer.installed():
        for index, request in enumerate(requests):
            tracer.request = index
            traced.append(_attempt(workload, request))
    wall_traced = time.perf_counter() - start

    failures = []
    for index, (request, (out, _, error), (plain, _, _)) in enumerate(zip(requests, traced, untraced)):
        _, error = _checked(workload, request, out, error)
        if error is None and out != plain:
            error = "traced output differs from untraced output"
        if error is not None:
            failures.append((index, request, error))
    return {"failures": failures, "overhead": wall_traced / wall_plain}
