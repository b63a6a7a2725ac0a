"""Parameter-sweep grids for the four reference figures, with CSV output.

Each builder names its two axes, its configuration and its columns; one
engine evaluates the closed-form signal and sensitivity over the 2-D grid
and reduces the angle dependence to scalar summaries (visibility, optimal
operating point).  Output is deterministic: fixed row order (first axis
outer), 17-significant-digit floats, LF endings, and lowercase inf/nan
literals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .detection import (
    closed_form_sensitivity,
    closed_form_signal,
    optimal_sensitivity,
    visibility,
)
from .elements import PipelineSpec

__all__ = [
    "Axis",
    "SweepGrid",
    "format_value",
    "serialize_rows",
    "fig2_grid",
    "fig3_grid",
    "fig4_grid",
    "fig5_grid",
]


def format_value(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return f"{x:.17g}"


def serialize_rows(columns: Sequence[str], rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Axis:
    """One sweep axis: count points from start to stop, linear or log."""

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ValueError(f"log axis {self.name!r} must be strictly positive")

    def values(self) -> NDArray[np.float64]:
        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Result table of a sweep: axes, fixed parameters, columns, row data."""

    axes: tuple[Axis, ...]
    columns: tuple[str, ...]
    values: NDArray[np.float64]
    fixed: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        n_rows = math.prod(axis.count for axis in self.axes)
        if vals.shape != (n_rows, len(self.columns)):
            raise ValueError(
                f"result shape {vals.shape} does not match "
                f"{n_rows} grid points x {len(self.columns)} columns"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        return serialize_rows(self.columns, self.values)

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8", newline="")


def _sweep(axes, make_spec, columns, fixed=()) -> SweepGrid:
    """Grid of closed-form summaries; make_spec(a, b) configures one point.

    Rows run first axis outer and hold the two axis values, then the named
    columns: theta_opt, delta_theta_opt, and visibility or hl and inv_n.
    """
    rows = []
    for a in axes[0].values():
        for b in axes[1].values():
            spec = make_spec(a, b)
            theta_opt, d_opt = optimal_sensitivity(lambda th: closed_form_sensitivity(spec, th))
            row = {"theta_opt": theta_opt, "delta_theta_opt": d_opt}
            if "visibility" in columns:
                row["visibility"] = visibility(lambda th: closed_form_signal(spec, th))
            else:
                row.update(hl=1.0 / (2.0 * spec.n), inv_n=1.0 / spec.n)
            rows.append([a, b] + [row[name] for name in columns])
    names = tuple(axis.name for axis in axes) + columns
    return SweepGrid(axes=axes, columns=names, values=np.array(rows), fixed=fixed)


_VISIBILITY = ("visibility", "theta_opt", "delta_theta_opt")
_REFERENCE_LINES = ("theta_opt", "delta_theta_opt", "hl", "inv_n")


def fig2_grid(n: float = 10.0, t1_steps: int = 46, t2_steps: int = 46) -> SweepGrid:
    """Visibility and optimal sensitivity vs generation-loss (t1, t2)."""
    return _sweep(
        (Axis("t1", 0.1, 1.0, t1_steps), Axis("t2", 0.1, 1.0, t2_steps)),
        lambda t1, t2: PipelineSpec.generation_loss(0.0, n, t1, t2),
        _VISIBILITY,
        fixed=(("n", n),),
    )


def fig3_grid(t_steps: int = 46, n_steps: int = 20) -> SweepGrid:
    """Optimal sensitivity vs equal generation loss t and photon number n."""
    return _sweep(
        (Axis("t", 0.1, 1.0, t_steps), Axis("n", 1.0, 20.0, n_steps)),
        lambda t, n: PipelineSpec.generation_loss(0.0, n, t, t),
        _REFERENCE_LINES,
    )


def fig4_grid(n: float = 10.0, t_steps: int = 46, nth_steps: int = 46) -> SweepGrid:
    """Visibility and optimal sensitivity vs detection efficiency and noise."""
    return _sweep(
        (Axis("t", 0.5, 1.0, t_steps), Axis("n_th", 1e-10, 1e-1, nth_steps, spacing="log")),
        lambda t, nth: PipelineSpec.detection_loss(0.0, n, t, nth),
        _VISIBILITY,
        fixed=(("n", n),),
    )


def fig5_grid(n_th: float = 0.1, t_steps: int = 46, n_steps: int = 20) -> SweepGrid:
    """Optimal sensitivity vs detection efficiency t and photon number n."""
    return _sweep(
        (Axis("t", 0.5, 1.0, t_steps), Axis("n", 1.0, 20.0, n_steps)),
        lambda t, n: PipelineSpec.detection_loss(0.0, n, t, n_th),
        _REFERENCE_LINES,
        fixed=(("n_th", n_th),),
    )
