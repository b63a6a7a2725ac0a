"""CSV serialization and the published parameter-sweep grids."""

import math
from pathlib import Path

import numpy as np
import pytest

from polrot.detection import qcrb_sensitivity
from polrot.sweeps import (
    Axis,
    SweepGrid,
    fig2_grid,
    fig3_grid,
    fig4_grid,
    fig5_grid,
    format_value,
    serialize_rows,
)

DATA = Path(__file__).resolve().parent / "data"

# Builder keyword arguments of the committed reference grids; each grid
# includes t = 1 and, for fig4, both ends of the n_th axis.
REFERENCE_GRIDS = {
    "fig2": (fig2_grid, {"n": 8.0, "t1_steps": 7, "t2_steps": 6}),
    "fig3": (fig3_grid, {"t_steps": 7, "n_steps": 5}),
    "fig4": (fig4_grid, {"n": 10.0, "t_steps": 6, "nth_steps": 7}),
    "fig5": (fig5_grid, {"n_th": 0.05, "t_steps": 7, "n_steps": 5}),
}


# -- formatting ---------------------------------------------------------------


def test_format_value_roundtrip():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, -2.5e-8):
        assert float(format_value(x)) == x


def test_format_value_special_cases():
    assert format_value(-0.0) == "0"
    assert format_value(0.0) == "0"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"
    assert format_value(float("nan")) == "nan"
    assert format_value(1.0) == "1"


def test_serialize_rows_layout():
    text = serialize_rows(("a", "b"), [(1.0, 2.5), (float("inf"), -0.0)])
    assert text == "a,b\n1,2.5\ninf,0\n"
    assert "\r" not in text


# -- axes ---------------------------------------------------------------------


def test_axis_linear_endpoints_exact():
    vals = Axis(name="t", start=0.1, stop=1.0, count=46, spacing="linear").values()
    assert vals[0] == 0.1
    assert vals[-1] == 1.0
    assert len(vals) == 46


def test_axis_log_endpoints():
    vals = Axis(name="n_th", start=1e-10, stop=1e-1, count=46, spacing="log").values()
    assert vals[0] == pytest.approx(1e-10, rel=1e-12)
    assert vals[-1] == pytest.approx(1e-1, rel=1e-12)
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(name="x", start=0.0, stop=1.0, count=1, spacing="linear")
    with pytest.raises(ValueError):
        Axis(name="x", start=0.0, stop=1.0, count=5, spacing="log")
    with pytest.raises(ValueError):
        Axis(name="x", start=0.1, stop=1.0, count=5, spacing="cubic")


# -- grid container -----------------------------------------------------------


def test_grid_shape_validation():
    ax = Axis(name="t", start=0.0, stop=1.0, count=3, spacing="linear")
    with pytest.raises(ValueError):
        SweepGrid(axes=(ax,), columns=("t", "y"), values=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        SweepGrid(axes=(ax,), columns=("t", "y"), values=np.zeros((3, 3)))


def test_grid_write_matches_to_csv(tmp_path):
    g = fig3_grid(t_steps=3, n_steps=2)
    path = tmp_path / "out.csv"
    g.write_csv(path)
    assert path.read_bytes().decode("utf-8") == g.to_csv()
    assert b"\r" not in path.read_bytes()


# -- published grids ----------------------------------------------------------


def test_fig2_grid_small():
    g = fig2_grid(t1_steps=4, t2_steps=4)
    assert g.columns == ("t1", "t2", "visibility", "theta_opt", "delta_theta_opt")
    assert g.values.shape == (16, 5)
    t1 = g.values[:, 0]
    assert t1[0] == 0.1 and t1[-1] == 1.0
    # lossless corner recovers the ideal fringe contrast and best angle
    last = g.values[-1]
    assert last[2] == pytest.approx(10.0 / 12.0, abs=1e-9)
    assert last[3] == pytest.approx(np.pi / 4, abs=1e-6)
    assert last[4] == pytest.approx(qcrb_sensitivity(10.0), rel=1e-9)


def test_fig3_grid_small():
    g = fig3_grid(t_steps=3, n_steps=2)
    assert g.columns == ("t", "n", "theta_opt", "delta_theta_opt", "hl", "inv_n")
    rows = {(row[0], row[1]): row for row in g.values}
    best = rows[(1.0, 20.0)]
    assert best[3] == pytest.approx(qcrb_sensitivity(20.0), rel=1e-9)
    assert best[4] == pytest.approx(1.0 / 40.0, rel=1e-15)
    assert best[5] == pytest.approx(1.0 / 20.0, rel=1e-15)
    # attenuation degrades the optimum monotonically at fixed n
    t_vals = sorted({row[0] for row in g.values})
    opts = [rows[(t, 20.0)][3] for t in t_vals]
    assert opts[0] > opts[1] > opts[2]


def test_fig4_grid_small():
    g = fig4_grid(t_steps=3, nth_steps=4)
    assert g.columns == ("t", "n_th", "visibility", "theta_opt", "delta_theta_opt")
    nth = g.values[:, 1]
    assert nth.min() == pytest.approx(1e-10, rel=1e-12)
    assert nth.max() == pytest.approx(1e-1, rel=1e-12)
    t = g.values[:, 0]
    assert t.min() == 0.5 and t.max() == 1.0


def test_fig5_grid_small():
    g = fig5_grid(t_steps=3, n_steps=2)
    assert g.columns == ("t", "n", "theta_opt", "delta_theta_opt", "hl", "inv_n")
    t = g.values[:, 0]
    assert t.min() == 0.5 and t.max() == 1.0
    rows = {(row[0], row[1]): row for row in g.values}
    # at full transmission the thermal ancilla decouples entirely
    assert rows[(1.0, 20.0)][3] == pytest.approx(qcrb_sensitivity(20.0), rel=1e-9)
    # at reduced transmission detector noise strictly degrades the optimum
    from polrot.detection import closed_form_sensitivity, optimal_sensitivity
    from polrot.elements import PipelineSpec

    quiet = PipelineSpec.detection_loss(theta=0.0, n=20.0, t=0.75, n_th=0.0)
    _, best_quiet = optimal_sensitivity(lambda th: closed_form_sensitivity(quiet, th))
    assert rows[(0.75, 20.0)][3] > best_quiet


def test_grids_are_deterministic():
    a = fig2_grid(t1_steps=3, t2_steps=3).to_csv()
    b = fig2_grid(t1_steps=3, t2_steps=3).to_csv()
    assert a == b


def test_equal_loss_grid_matches_detection_loss_grid():
    # placing identical attenuation before or after the rotation gives the
    # same optimum, so the corresponding rows of the two sweeps agree
    g3 = fig3_grid(t_steps=3, n_steps=2)
    from polrot.detection import closed_form_sensitivity, optimal_sensitivity
    from polrot.elements import PipelineSpec

    for row in g3.values:
        t, n = row[0], row[1]
        spec = PipelineSpec.detection_loss(theta=0.0, n=n, t=t, n_th=0.0)
        _, best = optimal_sensitivity(lambda th: closed_form_sensitivity(spec, th))
        assert row[3] == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("figure", sorted(REFERENCE_GRIDS))
def test_grid_matches_reference_csv(figure):
    builder, kwargs = REFERENCE_GRIDS[figure]
    want = (DATA / f"{figure}_ref.csv").read_bytes()
    assert builder(**kwargs).to_csv().encode("utf-8") == want
