"""Spans around the public functions of each polrot module, recorded from outside.

``Tracer.installed()`` replaces each traced function with a wrapper in every
loaded ``polrot`` module that binds it: ``sweeps`` and ``cli`` import the
detection functions by name, so patching ``polrot.detection`` alone would
miss their calls.  The two validated classes are traced through their
``__post_init__``, which every construction runs.  Everything is restored on
exit.

A span records its name, parent span, request index, start and end.  Spans
stay in memory; ``summary()`` derives the per-layer metrics from them and
``write()`` saves them when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  Element builders share one span name.
TRACED = (
    ("phase_space", "apply_transform", "phase_space.apply_transform"),
    ("phase_space", "reduce_to_modes", "phase_space.reduce_to_modes"),
    ("elements", "build_pipeline", "elements.build_pipeline"),
    ("elements", "tmsv", "elements.element_build"),
    ("elements", "vacuum", "elements.element_build"),
    ("elements", "thermal", "elements.element_build"),
    ("elements", "qwp", "elements.element_build"),
    ("elements", "rotator", "elements.element_build"),
    ("elements", "vbs_pair", "elements.element_build"),
    ("elements", "detector_vbs", "elements.element_build"),
    ("detection", "pipeline_signal", "detection.pipeline_signal"),
    ("detection", "parity_expectation", "detection.parity_expectation"),
    ("detection", "closed_form_signal", "detection.closed_form_signal"),
    ("detection", "closed_form_sensitivity", "detection.closed_form_sensitivity"),
    ("detection", "optimal_sensitivity", "detection.optimal_sensitivity"),
    ("detection", "visibility", "detection.visibility"),
    ("fock", "tmsv_ket", "fock.tmsv_ket"),
    ("fock", "loss_channel", "fock.loss_channel"),
    ("fock", "rotated_parity", "fock.rotated_parity"),
    ("fock", "apply_interferometer", "fock.apply_interferometer"),
    ("fock", "oracle_parity_table", "fock.oracle_parity_table"),
    ("sweeps", "fig2_grid", "sweeps.grid"),
    ("sweeps", "fig3_grid", "sweeps.grid"),
    ("sweeps", "fig4_grid", "sweeps.grid"),
    ("sweeps", "fig5_grid", "sweeps.grid"),
    ("sweeps", "serialize_rows", "sweeps.serialize_rows"),
    ("cli", "main", "cli.main"),
)
TRACED_CLASSES = (
    ("phase_space", "GaussianState", "phase_space.GaussianState"),
    ("phase_space", "SymplecticTransform", "phase_space.SymplecticTransform"),
)

COMPLEX_BYTES = np.dtype(np.complex128).itemsize

# (metric, unit): the per-layer metrics of BENCHMARK.json, in its order.
PER_LAYER = (
    ("phase_space.GaussianState.count", "count"),
    ("phase_space.GaussianState.self_s", "s"),
    ("phase_space.GaussianState.per_signal", "count"),
    ("phase_space.SymplecticTransform.count", "count"),
    ("phase_space.SymplecticTransform.self_s", "s"),
    ("phase_space.SymplecticTransform.per_signal", "count"),
    ("phase_space.apply_transform.self_s", "s"),
    ("phase_space.reduce_to_modes.self_s", "s"),
    ("elements.build_pipeline.self_s", "s"),
    ("elements.element_build.calls", "count"),
    ("elements.element_build.self_s", "s"),
    ("detection.pipeline_signal.calls", "count"),
    ("detection.pipeline_signal.self_s", "s"),
    ("detection.parity_expectation.self_s", "s"),
    ("detection.closed_form_signal.calls", "count"),
    ("detection.closed_form_signal.points", "count"),
    ("detection.closed_form_signal.self_s", "s"),
    ("detection.closed_form_sensitivity.calls", "count"),
    ("detection.closed_form_sensitivity.points", "count"),
    ("detection.closed_form_sensitivity.self_s", "s"),
    ("detection.optimal_sensitivity.calls", "count"),
    ("detection.optimal_sensitivity.self_s", "s"),
    ("detection.optimal_sensitivity.evals_per_call", "count"),
    ("detection.visibility.calls", "count"),
    ("detection.visibility.self_s", "s"),
    ("detection.visibility.evals_per_call", "count"),
    ("fock.tmsv_ket.calls", "count"),
    ("fock.tmsv_ket.self_s", "s"),
    ("fock.loss_channel.calls", "count"),
    ("fock.loss_channel.self_s", "s"),
    ("fock.rotated_parity.calls", "count"),
    ("fock.rotated_parity.self_s", "s"),
    ("fock.apply_interferometer.calls", "count"),
    ("fock.apply_interferometer.self_s", "s"),
    ("fock.oracle_parity_table.self_s", "s"),
    ("fock.cutoff_max", "count"),
    ("fock.dense_bytes", "B_computed"),
    ("sweeps.grid.calls", "count"),
    ("sweeps.grid.self_s", "s"),
    ("sweeps.serialize_rows.self_s", "s"),
    ("sweeps.serialize_rows.bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def _theta_points(args, kwargs) -> int:
    theta = args[1] if len(args) > 1 else kwargs.get("theta")
    return 1 if theta is None else int(np.size(theta))


def _dense_bytes(matrix) -> int:
    # Computed from the shape: one complex d^2 x d^2 operator.
    return int(np.prod(np.shape(matrix))) * COMPLEX_BYTES


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        # Each span is [name, parent index, request index, start, end].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.request, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _count_evals(self, name: str):
        counters = self.counters

        def before(args, kwargs):
            if not args:  # every caller passes the function positionally
                return args, kwargs
            fn = args[0]

            def counted(*a, **k):
                counters[name + ".evals"] += 1
                return fn(*a, **k)

            return (counted,) + tuple(args[1:]), kwargs

        return before

    def _hooks(self, span: str):
        """(before, after) callables that keep the counts of one span name."""
        if span in ("detection.closed_form_signal", "detection.closed_form_sensitivity"):
            return None, lambda args, kwargs, result: self._add(span + ".points", _theta_points(args, kwargs))
        if span in ("detection.optimal_sensitivity", "detection.visibility"):
            return self._count_evals(span), None
        if span == "fock.tmsv_ket":
            return None, lambda args, kwargs, ket: self._high("fock.cutoff_max", ket.cutoff)
        if span == "fock.loss_channel":
            return None, lambda args, kwargs, rho: self._high("fock.dense_bytes", _dense_bytes(rho.matrix))
        if span == "fock.rotated_parity":
            return None, lambda args, kwargs, op: self._high("fock.dense_bytes", _dense_bytes(op))
        if span == "sweeps.serialize_rows":
            return None, lambda args, kwargs, text: self._add(span + ".bytes", len(text.encode()))
        return None, None

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _high(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers in every polrot namespace; restore on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name == "polrot" or name.startswith("polrot.")]
        undo = []
        try:
            for module_name, attr, span in TRACED:
                original = getattr(importlib.import_module(f"polrot.{module_name}"), attr)
                wrapper = self._wrap(span, original, *self._hooks(span))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            for module_name, attr, span in TRACED_CLASSES:
                cls = getattr(importlib.import_module(f"polrot.{module_name}"), attr)
                original = cls.__dict__["__post_init__"]
                undo.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(span, original)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Counts and self times per span name, plus the derived ratios."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        per_signal: Counter = Counter()
        signal_ids = set()
        for index, (name, parent, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            if name == "detection.pipeline_signal":
                signal_ids.add(index)
            elif parent >= 0 and name.startswith("phase_space.") and self._under(parent, signal_ids):
                per_signal[name] += 1

        out: dict[str, float] = {}
        for span in {s for _, _, s in TRACED}:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for _, _, span in TRACED_CLASSES:
            out[f"{span}.count"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        signals = calls["detection.pipeline_signal"]
        for cls in ("phase_space.GaussianState", "phase_space.SymplecticTransform"):
            out[f"{cls}.per_signal"] = per_signal[cls] / signals if signals else 0.0
        for span in ("detection.optimal_sensitivity", "detection.visibility"):
            out[f"{span}.evals_per_call"] = self.counters[span + ".evals"] / calls[span] if calls[span] else 0.0
        for key in ("detection.closed_form_signal.points", "detection.closed_form_sensitivity.points",
                    "sweeps.serialize_rows.bytes"):
            out[key] = self.counters[key]
        out["fock.cutoff_max"] = self.maxima["fock.cutoff_max"]
        out["fock.dense_bytes"] = self.maxima["fock.dense_bytes"]
        return out

    def _under(self, index: int, ancestors: set[int]) -> bool:
        while index >= 0:
            if index in ancestors:
                return True
            index = self.spans[index][1]
        return False

    def write(self, path: Path) -> None:
        """Save every span as one CSV line (times in ns from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(f"{index},{parent},{request},{name},"
                         f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)}\n")
