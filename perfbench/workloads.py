"""What one request of each workload runs, and how its output is checked.

``execute`` is the timed part and calls the public API the way a user does.
``check`` runs outside the timed region, compares the output with a route
that does not share the code under test, and returns the number of
parameter points the request completed.  A mismatch raises ``CheckFailed``.

* figures: ``delta_theta_opt`` and ``visibility`` of every row against a
  dense vectorized scan of the closed forms;
* curves: ``signal`` rows against ``closed_form_signal`` (the CLI runs the
  symplectic pipeline), optimum rows against a dense scan and the quantum
  bound;
* oracle: number-basis parities against ``pipeline_signal`` to the
  ``fock-validate`` tolerance, and the pipeline against the closed form.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from polrot import cli, detection, fock, sweeps
from polrot.elements import PipelineSpec

from . import calibration
from .inputs import ORACLE_THETA_COUNT, QUARTER_TURN, CurveRequest, FigureRequest, OracleRequest

# Agreement of the matrix pipeline with the closed forms (the repo's own
# cross-check tolerance) and of the number-basis oracle with the pipeline
# (the fock-validate tolerance).
PIPELINE_TOL = 1e-9
ORACLE_TOL = 1e-6
# An optimum or a visibility may differ from the dense scan by this relative
# amount: the scan's resolution error plus the optimizer's bracket tolerance.
SCAN_RTOL = 1e-8
# Probabilities and derived columns are recomputed from printed %.17g values.
ROUND_TOL = 4e-16

OPT_WINDOW = (1e-4, math.pi / 2 - 1e-4)
SCAN_POINTS = 2049


class CheckFailed(Exception):
    """An output disagrees with the independent route."""


def _require(ok, message: str) -> None:
    if not bool(np.all(ok)):
        raise CheckFailed(message)


def _parse_csv(text: str, columns: tuple[str, ...]) -> np.ndarray:
    lines = text.split("\n")
    _require(lines[-1] == "", "output does not end with a newline")
    _require(lines[0] == ",".join(columns), f"header {lines[0]!r} is not {','.join(columns)!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]], dtype=np.float64).reshape(
        -1, len(columns)
    )


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=False))


def scan_min(fn: Callable, lo: float, hi: float) -> float:
    """Minimum of a vectorized fn on [lo, hi]: a dense grid, then a dense
    grid over the two cells around every local minimum of the first one."""
    grid = np.linspace(lo, hi, SCAN_POINTS)
    vals = np.asarray(fn(grid), dtype=np.float64)
    best = float(np.min(vals))
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    local = (vals <= padded[:-2]) & (vals <= padded[2:]) & np.isfinite(vals)
    for i in np.flatnonzero(local):
        fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, SCAN_POINTS - 1)], SCAN_POINTS)
        best = min(best, float(np.min(fn(fine))))
    return best


def scan_visibility(spec: PipelineSpec) -> float:
    smax = -scan_min(lambda th: -detection.closed_form_signal(spec, th), 0.0, math.pi / 2)
    smin = scan_min(lambda th: detection.closed_form_signal(spec, th), 0.0, math.pi / 2)
    return (smax - smin) / (abs(smax) + abs(smin))


def check_optimum(spec: PipelineSpec, theta_opt: float, d_opt: float) -> None:
    """An optimum lies in the search window, sits on the sensitivity curve,
    respects the quantum bound and matches a dense scan of the curve."""
    sens = lambda th: detection.closed_form_sensitivity(spec, th)  # noqa: E731
    _require(OPT_WINDOW[0] <= theta_opt <= OPT_WINDOW[1], f"optimum angle {theta_opt} outside the window")
    _require(math.isfinite(d_opt), f"optimum {d_opt} is not finite")
    _require(_close(sens(np.array([theta_opt]))[0], d_opt, 1e-12), f"optimum {d_opt} is not on the curve")
    _require(d_opt >= detection.qcrb_sensitivity(spec.n) * (1.0 - 1e-12), f"optimum {d_opt} beats the quantum bound")
    best = scan_min(sens, *OPT_WINDOW)
    _require(_close(d_opt, best, SCAN_RTOL), f"optimum {d_opt!r} differs from the dense scan {best!r}")


# -- figures -----------------------------------------------------------------

_FIGURES = {
    # figure: (columns, first axis (lo, hi, log?), second axis)
    "fig2": (("t1", "t2", "visibility", "theta_opt", "delta_theta_opt"), (0.1, 1.0, False), (0.1, 1.0, False)),
    "fig3": (("t", "n", "theta_opt", "delta_theta_opt", "hl", "inv_n"), (0.1, 1.0, False), (1.0, 20.0, False)),
    "fig4": (("t", "n_th", "visibility", "theta_opt", "delta_theta_opt"), (0.5, 1.0, False), (1e-10, 1e-1, True)),
    "fig5": (("t", "n", "theta_opt", "delta_theta_opt", "hl", "inv_n"), (0.5, 1.0, False), (1.0, 20.0, False)),
}


def execute_figure(req: FigureRequest) -> str:
    return getattr(sweeps, f"{req.figure}_grid")(**req.kwargs()).to_csv()


def _axis(spec, count: int) -> np.ndarray:
    lo, hi, log = spec
    return np.logspace(math.log10(lo), math.log10(hi), count) if log else np.linspace(lo, hi, count)


def check_figure(req: FigureRequest, out: str) -> int:
    columns, first, second = _FIGURES[req.figure]
    rows = _parse_csv(out, columns)
    counts = [v for k, v in req.params if k.endswith("_steps")]
    a, b = np.meshgrid(_axis(first, counts[0]), _axis(second, counts[1]), indexing="ij")
    _require(rows.shape[0] == a.size, f"{rows.shape[0]} rows for a {counts[0]}x{counts[1]} grid")
    _require(_close(rows[:, 0], a.ravel(), 1e-15) and _close(rows[:, 1], b.ravel(), 1e-15), "axis values")
    kw = req.kwargs()
    for row in rows:
        if req.figure == "fig2":
            spec = PipelineSpec.generation_loss(0.0, kw["n"], row[0], row[1])
        elif req.figure == "fig3":
            spec = PipelineSpec.generation_loss(0.0, row[1], row[0], row[0])
        elif req.figure == "fig4":
            spec = PipelineSpec.detection_loss(0.0, kw["n"], row[0], row[1])
        else:
            spec = PipelineSpec.detection_loss(0.0, row[1], row[0], kw["n_th"])
        named = dict(zip(columns, row))
        check_optimum(spec, named["theta_opt"], named["delta_theta_opt"])
        if "visibility" in named:
            vis = named["visibility"]
            _require(0.0 <= vis <= 1.0, f"visibility {vis} outside [0, 1]")
            want = scan_visibility(spec)
            _require(_close(vis, want, SCAN_RTOL, SCAN_RTOL), f"visibility {vis!r} differs from the dense scan {want!r}")
        else:
            _require(named["hl"] == 1.0 / (2.0 * spec.n) and named["inv_n"] == 1.0 / spec.n, "reference lines")
    return rows.shape[0]


# -- curves ------------------------------------------------------------------

SIGNAL_COLUMNS = ("theta_rad", "signal", "p_even", "p_odd")
SENSITIVITY_COLUMNS = ("theta_rad", "delta_theta", "fisher", "hl", "inv_n", "is_optimal")


class RequestFailed(Exception):
    """The program refused a request: an exception or a non-zero exit code."""


def execute_curve(req: CurveRequest) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(req.argv())
    if code != 0:
        raise RequestFailed(f"exit code {code}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


def curve_spec(req: CurveRequest) -> PipelineSpec:
    if req.variant == "r1":
        return PipelineSpec.generation_loss(0.0, req.n, req.t1, req.t2)
    if req.variant == "r2":
        return PipelineSpec.detection_loss(0.0, req.n, req.t, req.nth)
    return PipelineSpec.lossless(0.0, req.n)


def _curve_angles(req: CurveRequest) -> np.ndarray:
    if req.theta is None:
        return np.linspace(0.0, math.pi / 2, req.theta_steps)
    return np.array([math.pi / 4 if req.theta == QUARTER_TURN else float(req.theta)])


def check_curve(req: CurveRequest, out: str) -> int:
    spec = curve_spec(req)
    thetas = _curve_angles(req)
    if req.command == "signal":
        rows = _parse_csv(out, SIGNAL_COLUMNS)
        _require(rows.shape[0] == thetas.size, f"{rows.shape[0]} rows for {thetas.size} angles")
        _require(_close(rows[:, 0], thetas, 1e-15, 1e-15), "angles")
        theta, signal, p_even, p_odd = rows.T
        want = detection.closed_form_signal(spec, theta)
        _require(_close(signal, want, PIPELINE_TOL, PIPELINE_TOL), "signal differs from closed_form_signal")
        _require(np.abs(p_even + p_odd - 1.0) <= ROUND_TOL, "p_even + p_odd != 1")
        # The pipeline may overshoot |signal| = 1 by roundoff; the probabilities
        # are those of the clipped signal.
        _require(np.abs(signal) <= 1.0 + 1e-12, "signal outside [-1, 1]")
        _require(np.abs(p_even - p_odd - np.clip(signal, -1.0, 1.0)) <= ROUND_TOL, "p_even - p_odd != signal")
        _require((p_even >= 0.0) & (p_odd >= 0.0), "negative probability")
        return rows.shape[0]

    rows = _parse_csv(out, SENSITIVITY_COLUMNS)
    _require(rows.shape[0] == thetas.size + 1, f"{rows.shape[0]} rows for {thetas.size} angles and an optimum")
    theta, delta, fisher, hl, inv_n, flag = rows.T
    _require(_close(theta[:-1], thetas, 1e-15, 1e-15), "angles")
    _require((flag[:-1] == 0.0).all() and flag[-1] == 1.0, "is_optimal flags")
    _require((hl == 1.0 / (2.0 * req.n)) & (inv_n == 1.0 / req.n), "reference lines")
    finite = np.isfinite(delta)
    with np.errstate(invalid="ignore"):
        consistent = np.where(finite, np.abs(fisher * delta * delta - 1.0) <= 1e-12, fisher == 0.0)
    _require(consistent, "fisher != 1/delta^2")
    bound = detection.qcrb_sensitivity(req.n) * (1.0 - 1e-12)
    _require(delta >= bound, "delta_theta beats the quantum bound")
    want = detection.closed_form_sensitivity(spec, theta[:-1])
    _require(np.array_equal(np.isinf(want), ~finite[:-1]), "divergent rows differ from the vectorized closed form")
    _require(_close(delta[:-1][finite[:-1]], want[finite[:-1]], 1e-12), "rows differ from the vectorized closed form")
    check_optimum(spec, theta[-1], delta[-1])
    return rows.shape[0]


# -- oracle ------------------------------------------------------------------

ORACLE_THETAS = tuple(float(x) for x in np.linspace(0.0, math.pi / 2, ORACLE_THETA_COUNT))


def _oracle_spec(req: OracleRequest, theta: float) -> PipelineSpec:
    if req.case is None:
        return PipelineSpec.lossless(theta, req.n)
    return PipelineSpec.generation_loss(theta, req.n, *req.case)


def execute_oracle(req: OracleRequest) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Number-basis parities and the pipeline parities they are compared with,
    as ``fock-validate`` computes them."""
    table = fock.oracle_parity_table(req.n, ORACLE_THETAS, [req.case])
    oracle = tuple(float(table[0, j]) for j in range(len(ORACLE_THETAS)))
    pipeline = tuple(detection.pipeline_signal(_oracle_spec(req, th)) for th in ORACLE_THETAS)
    return oracle, pipeline


def check_oracle(req: OracleRequest, out) -> int:
    oracle, pipeline = (np.array(v) for v in out)
    _require((np.abs(oracle) <= 1.0 + 1e-12), "oracle parity outside [-1, 1]")
    worst = float(np.max(np.abs(oracle - pipeline)))
    _require(worst < ORACLE_TOL, f"oracle differs from pipeline_signal by {worst:.3e}")
    want = detection.closed_form_signal(_oracle_spec(req, 0.0), np.array(ORACLE_THETAS))
    _require(_close(pipeline, want, PIPELINE_TOL, PIPELINE_TOL), "pipeline_signal differs from the closed form")
    return len(ORACLE_THETAS)


@dataclass(frozen=True)
class Workload:
    execute: Callable
    check: Callable
    # The calibration kernel whose work resembles this workload's.
    kernel: Callable
    # A traced run sends the corners and this many cycles, so counts repeat.
    trace_cycles: int


WORKLOADS = {
    "figures": Workload(execute_figure, check_figure, calibration.interpreter_kernel, trace_cycles=5),
    "curves": Workload(execute_curve, check_curve, calibration.interpreter_kernel, trace_cycles=10),
    "oracle": Workload(execute_oracle, check_oracle, calibration.mixed_kernel, trace_cycles=2),
}
