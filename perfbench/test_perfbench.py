"""Tests of the benchmark itself: inputs, tracing, exact counts and checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import polrot.cli
import polrot.fock
import polrot.sweeps
from polrot import detection, fock
from polrot.elements import PipelineSpec

from perfbench import run
from perfbench.inputs import FIGURE_SHAPES, ORACLE_SLOTS, QUARTER_TURN, CurveRequest, Stream, make_stream
from perfbench.runner import SETUP_SAMPLES, TimedRun, run_traced, tail_latency
from perfbench.tracer import PER_LAYER, TRACED, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Enough of each stream to reach every layer the workload uses, kept short.
PREFIX = {"figures": 6, "curves": 12, "oracle": 3}


def _requests(workload: str, seed: int, count: int | None = None) -> list:
    requests = make_stream(workload, seed, cycles=20).requests
    return requests if count is None else requests[:count]


def _traced_counts(workload: str, seed: int = 1) -> dict:
    tracer = Tracer()
    requests = _requests(workload, seed, PREFIX[workload])
    result = run_traced(WORKLOADS[workload], requests, tracer)
    assert result["failures"] == []
    return tracer.summary()


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _requests(workload, 3) == _requests(workload, 3)
    assert _requests(workload, 3) != _requests(workload, 4)


def test_inputs_stay_in_the_paper_ranges():
    for req in _requests("curves", 5):
        assert 1.0 <= req.n <= 20.0
        if req.variant == "r1":
            assert 0.1 <= req.t1 <= 1.0 and 0.1 <= req.t2 <= 1.0
        if req.variant == "r2":
            assert 0.5 <= req.t <= 1.0 and 1e-10 <= req.nth <= 1e-1
        assert req.theta is not None or 2 <= req.theta_steps <= 181
    for req in _requests("figures", 5):
        kw = req.kwargs()
        assert 1.0 <= kw.get("n", 1.0) <= 20.0 and 1e-10 <= kw.get("n_th", 0.1) <= 1e-1
    for req in _requests("oracle", 5):
        assert 0.5 <= req.n <= 2.0
        assert req.case is None or all(0.1 <= t <= 1.0 for t in req.case)


def test_figure_shapes_fix_the_work_and_keep_t_off_the_ends():
    for figure, shapes in FIGURE_SHAPES.items():
        assert len({a * b for a, b in shapes}) == 1, figure
        if figure == "fig2":
            assert all(min(a, b) >= 4 for a, b in shapes)
        else:
            assert all(a >= 12 for a, _ in shapes), figure
    drawn = {(r.figure, tuple(v for k, v in r.params if k.endswith("_steps"))) for r in _requests("figures", 5)}
    assert len(drawn) > len(FIGURE_SHAPES)


def test_oracle_slots_get_their_cutoffs():
    stream = make_stream("oracle", 6, cycles=3)
    lossy = [c for c in ORACLE_SLOTS if c is not None]
    for start in range(stream.corners, len(stream.requests), stream.cycle):
        cycle = stream.requests[start:start + stream.cycle]
        assert sorted(fock.required_cutoff(r.n) for r in cycle if r.case is not None) == sorted(lossy)
        assert sum(r.case is None for r in cycle) == 1
        assert sum(r.case is not None and r.case[0] == r.case[1] for r in cycle) >= 1


def test_inputs_include_the_paper_corners():
    curves = _requests("curves", 9)
    assert any(r.variant == "r1" and r.t1 == r.t2 and r.theta == QUARTER_TURN for r in curves)
    assert any(r.variant == "r1" and r.t1 == r.t2 == 1.0 for r in curves)
    assert any(r.variant == "r2" and r.t == 1.0 for r in curves)
    assert any(r.command == "sensitivity" and r.theta_steps and r.theta_steps % 2 for r in curves)
    oracle = _requests("oracle", 9)
    assert oracle[0].n == 2.0 and oracle[0].case[0] == oracle[0].case[1]
    assert any(r.case is None for r in oracle) and any(r.case == (1.0, 1.0) for r in oracle)
    figures = _requests("figures", 9)
    assert {r.figure for r in figures} == {"fig2", "fig3", "fig4", "fig5"}
    assert any(r.figure == "fig2" and r.kwargs()["t1_steps"] == r.kwargs()["t2_steps"] for r in figures)


def test_quarter_turn_rows_are_inf_and_pass_the_check():
    curves = WORKLOADS["curves"]
    req = CurveRequest("sensitivity", "r1", 10.0, t1=0.4, t2=0.4, theta=QUARTER_TURN)
    out = curves.execute(req)
    assert out.splitlines()[1].split(",")[1] == "inf"
    assert curves.check(req, out) == 2


# -- tracing -----------------------------------------------------------------


def test_wrappers_replace_every_binding_and_are_removed():
    modules = [m for name, m in sys.modules.items() if name == "polrot" or name.startswith("polrot.")]
    originals = {}
    for module_name, attr, _ in TRACED:
        fn = getattr(sys.modules[f"polrot.{module_name}"], attr)
        originals[fn] = [(m, k) for m in modules for k, v in vars(m).items() if v is fn]
    assert (polrot.cli, "pipeline_signal") in originals[detection.pipeline_signal]
    assert (polrot.sweeps, "optimal_sensitivity") in originals[detection.optimal_sensitivity]
    with Tracer().installed():
        for fn, bindings in originals.items():
            for module, key in bindings:
                assert getattr(module, key) is not fn and getattr(module, key).__wrapped__ is fn
    for fn, bindings in originals.items():
        for module, key in bindings:
            assert getattr(module, key) is fn


def test_figures_touch_no_pipeline_and_no_fock():
    counts = _traced_counts("figures")
    for name in ("detection.optimal_sensitivity.calls", "detection.visibility.calls", "sweeps.grid.calls",
                 "detection.closed_form_signal.calls", "detection.closed_form_sensitivity.calls"):
        assert counts[name] > 0, name
    assert counts["sweeps.serialize_rows.bytes"] > 0
    for name in ("phase_space.GaussianState.count", "phase_space.SymplecticTransform.count",
                 "elements.element_build.calls", "detection.pipeline_signal.calls", "fock.tmsv_ket.calls",
                 "fock.loss_channel.calls", "fock.rotated_parity.calls", "fock.apply_interferometer.calls",
                 "cli.main.calls"):
        assert counts[name] == 0, name


def test_curves_reach_the_pipeline_through_the_cli():
    counts = _traced_counts("curves")
    for name in ("cli.main.calls", "detection.pipeline_signal.calls", "phase_space.GaussianState.count",
                 "phase_space.SymplecticTransform.count", "elements.element_build.calls",
                 "detection.closed_form_sensitivity.calls", "detection.optimal_sensitivity.calls"):
        assert counts[name] > 0, name
    assert counts["detection.closed_form_sensitivity.points"] > counts["detection.closed_form_sensitivity.calls"]
    for name in ("fock.tmsv_ket.calls", "sweeps.grid.calls", "detection.visibility.calls"):
        assert counts[name] == 0, name


def test_oracle_runs_no_optimizer():
    counts = _traced_counts("oracle")
    for name in ("fock.tmsv_ket.calls", "fock.loss_channel.calls", "fock.rotated_parity.calls",
                 "fock.apply_interferometer.calls", "detection.pipeline_signal.calls"):
        assert counts[name] > 0, name
    for name in ("detection.optimal_sensitivity.calls", "detection.visibility.calls", "sweeps.grid.calls",
                 "cli.main.calls", "detection.closed_form_sensitivity.calls"):
        assert counts[name] == 0, name
    assert counts["fock.cutoff_max"] == 33
    assert counts["fock.dense_bytes"] == (34 * 34) ** 2 * 16


# -- exact counts ------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, states, transforms",
    [
        (PipelineSpec.lossless(0.3, 10.0), 3, 5),
        (PipelineSpec.generation_loss(0.3, 10.0, 0.5, 0.7), 5, 7),
        (PipelineSpec.detection_loss(0.3, 10.0, 0.7, 0.01), 5, 7),
    ],
)
def test_constructions_per_pipeline_signal(spec, states, transforms):
    tracer = Tracer()
    with tracer.installed():
        detection.pipeline_signal(spec)
    counts = tracer.summary()
    assert counts["phase_space.GaussianState.per_signal"] == states
    assert counts["phase_space.SymplecticTransform.per_signal"] == transforms


def test_optimizer_visibility_and_cutoff_counts():
    spec = PipelineSpec.generation_loss(0.0, 10.0, 0.5, 0.7)
    tracer = Tracer()
    with tracer.installed():
        detection.optimal_sensitivity(lambda th: detection.closed_form_sensitivity(spec, th))
        detection.visibility(lambda th: detection.closed_form_signal(spec, th))
        cutoffs = [fock.tmsv_ket(n).cutoff for n in (0.5, 1.0, 2.0)]
    counts = tracer.summary()
    # One 64-point vector call, then 28 golden-section evaluations per minimum.
    assert counts["detection.optimal_sensitivity.evals_per_call"] == 57
    assert counts["detection.visibility.evals_per_call"] == 74
    assert cutoffs == [14, 20, 33]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(workload):
    first, second = _traced_counts(workload, seed=2), _traced_counts(workload, seed=2)
    counts = [name for name, unit in PER_LAYER if unit != "s" and name != "trace.overhead"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


# -- checks ------------------------------------------------------------------


def _corrupt_once(monkeypatch, module, name, change):
    original = getattr(module, name)
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        result = original(*args, **kwargs)
        return change(result) if len(calls) == 1 else result

    monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize(
    "workload, module, name, change",
    [
        ("figures", polrot.sweeps, "optimal_sensitivity", lambda r: (r[0], r[1] * (1 + 1e-6))),
        ("curves", polrot.cli, "pipeline_signal", lambda s: s - 1e-8),
        ("oracle", polrot.fock, "oracle_parity_table", lambda t: {k: v + 2e-6 for k, v in t.items()}),
    ],
)
def test_one_corrupted_output_is_one_failure(monkeypatch, workload, module, name, change):
    # The first request that reaches the corrupted function.
    request = next(r for r in _requests(workload, 1) if getattr(r, "command", "signal") == "signal")
    _corrupt_once(monkeypatch, module, name, change)
    run = TimedRun(WORKLOADS[workload], Stream([request], corners=1, cycle=1))
    run.run_until(1e-9)
    assert len(run.latencies) == 1 and len(run.failures) == 1
    run.run_until(run.busy + 1e-9)
    assert len(run.latencies) == 2 and len(run.failures) == 1


def test_a_refused_request_is_a_failure():
    bad = CurveRequest("sensitivity", "r2", 10.0, t=0.7, nth=0.01, theta="not-an-angle")
    run = TimedRun(WORKLOADS["curves"], Stream([bad], corners=1, cycle=1))
    run.run_until(1e-9)
    assert len(run.failures) == 1 and "exit code 1" in run.failures[0][2]


def test_tail_latency_has_ten_samples_beyond():
    value, percentile = tail_latency([float(x) for x in range(1, 101)])
    assert value == 90.0 and percentile == 90.0


# -- the entry point ---------------------------------------------------------


def test_docstring_and_tracer_agree_with_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in config["workloads"] + config["end_to_end"]:
        assert f"``{entry['name']}``" in run.__doc__, entry["name"]
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(PER_LAYER)
    assert f"median over {SETUP_SAMPLES} cold interpreters" in run.__doc__


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric_of_its_mode(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in config[section]}
    assert all(math.isfinite(v["value"]) and v["value"] >= 0 for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_request_times_are_divided_by_the_kernel_blocks_around_them():
    run = TimedRun(WORKLOADS["figures"], Stream([None], corners=1, cycle=1))
    run.latencies = [10.0, 10.0, 10.0]
    run.blocks = [1.0, 3.0, 5.0, 7.0]
    assert run.units() == [5.0, 2.5, 10.0 / 6.0]
