"""Benchmark of polrot: three seeded closed-loop workloads, one client each.

Usage, from the root of a source checkout (``src/polrot`` must exist)::

    python3 perfbench/run.py --workload {figures,curves,oracle} --seed N \\
        --seconds S --trace {0,1}

Workloads (the ``why`` of each is in BENCHMARK.json):

* ``figures``: ``sweeps.fig2_grid`` .. ``fig5_grid`` calls of 48 or 96 rows
  in seeded shapes, serialized with ``to_csv``; scalar closed forms, the
  golden-section optimizer and the visibility search.
* ``curves``: ``polrot signal`` and ``polrot sensitivity`` command lines
  through ``cli.main`` in-process; symplectic pipeline per angle, vectorized
  closed forms, argument parsing and CSV output.
* ``oracle``: ``fock.oracle_parity_table`` at n in [0.5, 2] compared with
  ``pipeline_signal``; the dense number-basis tensors.

Each request's output is checked by an independent route outside the timed
region (see ``workloads.py``); a request that raises, exits non-zero or fails
its check counts as failed, and any failure makes the exit code 1.

``--trace 0`` runs requests until they have taken ``--seconds`` of time.
Before the first request and after each request it times a fixed
calibration kernel (``calibration.py``), for a tenth of the request's time,
and divides each request's time by the mean kernel time just before and
just after it.  Request times are thus in calibration units (``cal``), which
a change in the machine's speed moves far less than seconds.  End-to-end
metrics:

* ``setup_s`` (s): median over 5 cold interpreters, started at even
  intervals of the run, of importing polrot and generating the seeded inputs,
  in seconds at the reference speed: each wall time is multiplied by
  ``runner.REFERENCE_START_S`` over the mean time of a cold interpreter that
  only imports numpy, started just before and just after it;
* ``throughput_pts_per_cal`` (points/cal): grid rows, angle rows or
  (case, angle) parities completed per calibration unit of request time;
* ``latency_p50_cal`` (cal): median request time;
* ``latency_tail_cal`` (cal): the request time with exactly 10 requests
  slower than it; the percentile and sample count are printed above the
  result;
* ``peak_rss_mb`` (MB): peak resident set of this process.

The same figures in seconds and milliseconds are printed above the result.

``--trace 1`` runs a fixed prefix of the stream once untraced and once with
spans around each module's public functions, and reports the per-layer
metrics listed in ``tracer.PER_LAYER`` plus ``trace.overhead`` (traced wall
time / untraced wall time).  Spans are written to
``.bench_build/perfbench/spans-<workload>.csv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  OpenBLAS, OpenMP and MKL are
pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "curves", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "polrot" / "__init__.py").is_file():
        print(f"perfbench: no polrot sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.inputs import make_stream
    from perfbench.runner import SETUP_SAMPLES, TimedRun, run_traced, setup_once, tail_latency
    from perfbench.tracer import PER_LAYER, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    stream = make_stream(args.workload, args.seed)

    if args.trace:
        tracer = Tracer()
        requests = stream.requests[: stream.corners + workload.trace_cycles * stream.cycle]
        result = run_traced(workload, requests, tracer)
        failures = result["failures"]
        summary = tracer.summary()
        summary["trace.overhead"] = result["overhead"]
        tracer.write(SPAN_DIR / f"spans-{args.workload}.csv")
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in PER_LAYER}
        attempted = len(requests)
        print(f"workload={args.workload} seed={args.seed} traced requests={len(requests)} "
              f"spans={len(tracer.spans)} overhead={result['overhead']:.3f}")
    else:
        # Set-up samples are spread over the run, so that a spell of load from
        # outside the process does not meet all of them.
        run = TimedRun(workload, stream)
        setup_raw, setup = [], []
        for k in range(1, SETUP_SAMPLES + 1):
            raw, scaled = setup_once(args.workload, args.seed)
            setup_raw.append(raw)
            setup.append(scaled)
            run.run_until(args.seconds * k / SETUP_SAMPLES)
        units = run.units()
        tail, percentile = tail_latency(units)
        attempted = len(run.latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput_pts_per_cal": {"value": run.throughput(), "unit": "points/cal"},
            "latency_p50_cal": {"value": statistics.median(units), "unit": "cal"},
            "latency_tail_cal": {"value": tail, "unit": "cal"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        failures = run.failures
        print(f"workload={args.workload} seed={args.seed} requests={attempted} points={run.points} "
              f"busy_s={run.busy:.3f} error_rate={len(failures) / attempted:g} "
              f"tail=p{percentile:.2f} of {attempted} requests")
        print(f"unscaled: setup {statistics.median(setup_raw):.6g} s, "
              f"throughput {run.points / run.busy:.6g} points/s, "
              f"latency p50 {1e3 * statistics.median(run.latencies):.6g} ms, "
              f"p{percentile:.2f} {1e3 * tail_latency(run.latencies)[0]:.6g} ms")

    failed = len(failures)
    for index, request, error in failures[:5]:
        print(f"perfbench: request {index} failed: {request}\n{error}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
