"""Fixed calibration kernels, timed next to every request of a timed run.

A shared machine can change speed by a factor of two for minutes at a time,
and a 30 s run cannot average that out.  The timed run therefore times one
of these kernels around every request and reports request times in units of
the kernel's time.  The kernels use only the interpreter and numpy, never
polrot, so no change to the program can move them.  Interpreter work and
array work slow down by different factors, so each workload uses the kernel
whose mix of the two resembles its own.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.eye(4)
_LARGE = np.full((256, 256), 1.0 + 1.0j)


def interpreter_kernel() -> float:
    """Many calls on tiny arrays plus Python arithmetic, like the closed
    forms, the optimizer and the symplectic pipeline."""
    total = 0.0
    for i in range(200):
        product = _SMALL @ _SMALL.T
        total += float(np.sum(np.abs(product - product.T))) + i * 0.5
        record = {"index": i, "total": total}
        total += record["index"] * 1e-9
    return total


def array_kernel() -> float:
    """Element-wise work on megabyte complex arrays, like the dense Fock
    tensors of the number-basis oracle; part of ``mixed_kernel``."""
    x = _LARGE
    for _ in range(4):
        x = _LARGE * x.T + _LARGE
    return float(x.real[0, 0])


def mixed_kernel() -> float:
    """The interpreter kernel, then twice the array kernel: the oracle's
    requests range from Python loops over small shell matrices to dense
    tensors of tens of megabytes."""
    return interpreter_kernel() + array_kernel() + array_kernel()


def timed(kernel) -> float:
    """Seconds one run of ``kernel`` takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
