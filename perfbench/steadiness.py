"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
        [--workloads figures,curves,oracle] [--trace 0|1]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one process at a
time, from the root of the checkout.  Prints one JSON object: the machine,
and per workload and metric the values, their median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound.  A spread above a third of its bound is flagged
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True, timeout=60).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy,
        "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 (set by run.py)",
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    metrics = config["per_layer" if args.trace else "end_to_end"]
    report = {"machine": machine(), "run_seconds": config["run_seconds"],
              "seeds": [args.first_seed, args.first_seed + args.seeds - 1]}
    for workload in names:
        runs = [run_once(config, workload, seed, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        report[workload] = {}
        for metric in metrics:
            stats = summarize([run["metrics"][metric["name"]]["value"] for run in runs])
            stats["bound"] = metric.get("bound")
            report[workload][metric["name"]] = stats
            if stats["bound"] is not None:
                flag = "  above a third of the bound" if stats["spread"] > stats["bound"] / 3 else ""
                print(f"{workload:8s} {metric['name']:22s} median {stats['median']:12.6g} "
                      f"spread {stats['spread']:.4f} bound {stats['bound']}{flag}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
