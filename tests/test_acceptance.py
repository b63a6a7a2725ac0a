"""End-to-end acceptance gate.

One test per numbered acceptance criterion; each prints a single
"[criterion NN] PASS" line with the measured figure of merit (visible with
pytest -s, and preserved in captured output otherwise).
"""

import math
import time

import numpy as np
import pytest

from polrot.detection import (
    closed_form_sensitivity,
    closed_form_signal,
    optimal_sensitivity,
    pipeline_signal,
    qcrb_sensitivity,
    signal_function,
    visibility,
)
from polrot.elements import PipelineSpec, detector_vbs, qwp, rotator, vbs_pair
from polrot.fock import oracle_parity_table, required_cutoff
from polrot.phase_space import check_symplectic
from polrot.sweeps import fig2_grid, fig3_grid, fig4_grid, fig5_grid

N_SET = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
THETA_GRID_181 = (0.5 * np.arange(181) / 180.0) * np.pi
THETA_GRID_19 = np.linspace(0.0, np.pi / 2, 19)
T_GRID_11 = np.linspace(0.0, 1.0, 11)
NTH_SET = (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0)


def report(k: int, msg: str) -> None:
    print(f"[criterion {k:02d}] PASS - {msg}")


def lossless_signal_analytic(n: float, theta: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + n * (n + 2.0) * np.cos(2.0 * theta) ** 2)


def test_criterion_01_lossless_signal_curves():
    worst = 0.0
    for n in N_SET:
        want = lossless_signal_analytic(n, THETA_GRID_181)
        got = pipeline_signal(PipelineSpec.lossless(theta=0.0, n=n), THETA_GRID_181)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-9
    spot = pipeline_signal(PipelineSpec.lossless(theta=0.0, n=10.0))
    assert spot == pytest.approx(1.0 / 11.0, abs=1e-9)
    assert spot == pytest.approx(0.0909091, abs=5e-8)
    report(1, f"lossless signal vs analytic curve, max|diff|={worst:.3e} over "
              f"{len(N_SET)}x181 points; spot value at zero angle 1/11")


def test_criterion_02_fringe_visibility():
    worst = 0.0
    for n in (1.0, 2.0, 5.0, 10.0, 20.0):
        v = visibility(signal_function(PipelineSpec.lossless(theta=0.0, n=n)))
        worst = max(worst, abs(v - n / (n + 2.0)))
    assert worst < 1e-9
    report(2, f"lossless visibility equals n/(n+2), max|diff|={worst:.3e}")


def test_criterion_03_optimum_beats_shot_noise():
    worst_opt = 0.0
    worst_fisher = 0.0
    for n in range(1, 21):
        spec = PipelineSpec.lossless(theta=0.0, n=float(n))
        theta_opt, best = optimal_sensitivity(lambda th: closed_form_sensitivity(spec, th))
        bound = qcrb_sensitivity(float(n))
        worst_opt = max(worst_opt, abs(best - bound))
        assert best < 1.0 / (2.0 * n)
        # peak Fisher information via the analytic derivative of the signal
        d = closed_form_sensitivity(spec, np.pi / 4)
        fisher = 1.0 / (d * d)
        target = 4.0 * n * (n + 2.0)
        worst_fisher = max(worst_fisher, abs(fisher - target) / target)
        if n == 10:
            assert theta_opt == pytest.approx(np.pi / 4, abs=1e-6)
    assert worst_opt < 1e-6
    assert worst_fisher < 1e-6
    report(3, f"best sensitivity matches the quantum bound (max|diff|={worst_opt:.3e}), "
              f"beats 1/(2n) for n=1..20, peak Fisher rel err {worst_fisher:.3e}")


def test_criterion_04_generation_loss_grid():
    worst = 0.0
    for n in N_SET:
        for t1 in T_GRID_11:
            for t2 in T_GRID_11:
                spec0 = PipelineSpec.generation_loss(
                    theta=0.0, n=n, t1=float(t1), t2=float(t2)
                )
                want = closed_form_signal(spec0, THETA_GRID_19)
                got = pipeline_signal(spec0, THETA_GRID_19)
                worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-9
    # the transparent corner collapses to the lossless curve
    reduce_worst = 0.0
    for n in N_SET:
        spec = PipelineSpec.generation_loss(theta=0.0, n=n, t1=1.0, t2=1.0)
        got = closed_form_signal(spec, THETA_GRID_181)
        reduce_worst = max(
            reduce_worst,
            float(np.max(np.abs(got - lossless_signal_analytic(n, THETA_GRID_181)))),
        )
    assert reduce_worst < 1e-12
    report(4, f"generation-loss pipeline vs closed form, max|diff|={worst:.3e} over "
              f"6x11x11x19 points; transparent corner max|diff|={reduce_worst:.3e}")


def test_criterion_05_detection_loss_grid():
    worst = 0.0
    for n in N_SET:
        for t in T_GRID_11:
            for nth in NTH_SET:
                spec0 = PipelineSpec.detection_loss(theta=0.0, n=n, t=float(t), n_th=nth)
                want = closed_form_signal(spec0, THETA_GRID_19)
                got = pipeline_signal(spec0, THETA_GRID_19)
                worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-9
    reduce_worst = 0.0
    for n in N_SET:
        spec = PipelineSpec.detection_loss(theta=0.0, n=n, t=1.0, n_th=0.0)
        got = closed_form_signal(spec, THETA_GRID_181)
        reduce_worst = max(
            reduce_worst,
            float(np.max(np.abs(got - lossless_signal_analytic(n, THETA_GRID_181)))),
        )
    assert reduce_worst < 1e-12
    report(5, f"detection-loss pipeline vs closed form, max|diff|={worst:.3e} over "
              f"6x11x7x19 points; noiseless corner max|diff|={reduce_worst:.3e}")


def test_criterion_06_loss_placement_equivalence():
    rng = np.random.default_rng(2024)
    worst_sig = 0.0
    worst_sens = 0.0
    for _ in range(1000):
        n = float(rng.uniform(0.1, 20.0))
        t = float(rng.uniform(0.01, 1.0))
        th = float(rng.uniform(0.0, np.pi))
        before = PipelineSpec.generation_loss(theta=th, n=n, t1=t, t2=t)
        after = PipelineSpec.detection_loss(theta=th, n=n, t=t, n_th=0.0)
        worst_sig = max(
            worst_sig, abs(closed_form_signal(before) - closed_form_signal(after))
        )
        worst_sig = max(worst_sig, abs(pipeline_signal(before) - pipeline_signal(after)))
        sa = closed_form_sensitivity(before)
        sb = closed_form_sensitivity(after)
        if math.isinf(sa) or math.isinf(sb):
            assert math.isinf(sa) and math.isinf(sb)
        else:
            worst_sens = max(worst_sens, abs(sa - sb) / max(1.0, abs(sb)))
    assert worst_sig < 1e-12
    assert worst_sens < 1e-6
    report(6, f"equal loss before or after the rotation is equivalent over 1000 random "
              f"draws: signal max|diff|={worst_sig:.3e}, sensitivity {worst_sens:.3e}")


def test_criterion_07_symplectic_residuals():
    worst = 0.0
    worst = max(worst, check_symplectic(qwp()).residual)
    worst = max(worst, check_symplectic(qwp(total_modes=4)).residual)
    for th in np.linspace(-np.pi, np.pi, 11):
        worst = max(worst, check_symplectic(rotator(float(th))).residual)
        worst = max(worst, check_symplectic(rotator(float(th), total_modes=4)).residual)
    for t1 in T_GRID_11:
        for t2 in T_GRID_11:
            worst = max(worst, check_symplectic(vbs_pair(float(t1), float(t2))).residual)
    for t in T_GRID_11:
        worst = max(worst, check_symplectic(detector_vbs(float(t))).residual)
    assert worst < 1e-12
    report(7, f"every element is symplectic on its 11-point parameter grids, "
              f"max residual {worst:.3e}")


def test_criterion_08_number_basis_oracle():
    start = time.monotonic()
    thetas = list(np.linspace(0.0, np.pi / 2, 9))
    cases = [None] + [(t1, t2) for t1 in (0.5, 0.8, 1.0) for t2 in (0.5, 0.8, 1.0)]
    worst = 0.0
    cutoffs = {}
    for n in (0.5, 1.0, 2.0):
        cutoffs[n] = required_cutoff(n)
        table = oracle_parity_table(n, thetas, cases)
        for i, case in enumerate(cases):
            if case is None:
                spec = PipelineSpec.lossless(theta=0.0, n=n)
            else:
                spec = PipelineSpec.generation_loss(theta=0.0, n=n, t1=case[0], t2=case[1])
            got = pipeline_signal(spec, np.array(thetas))
            for j in range(len(thetas)):
                worst = max(worst, abs(table[i, j] - got[j]))
    elapsed = time.monotonic() - start
    assert worst < 1e-6
    assert elapsed < 120.0
    report(8, f"number-basis oracle vs covariance pipeline, max|diff|={worst:.3e} over "
              f"3x10x9 points (cutoffs {cutoffs[0.5]}/{cutoffs[1.0]}/{cutoffs[2.0]}), "
              f"{elapsed:.1f}s")


def test_criterion_09_weak_thermal_noise_threshold():
    quiet = PipelineSpec.detection_loss(theta=0.0, n=10.0, t=0.9, n_th=0.0)
    noisy = PipelineSpec.detection_loss(theta=0.0, n=10.0, t=0.9, n_th=1e-3)
    _, best_quiet = optimal_sensitivity(lambda th: closed_form_sensitivity(quiet, th))
    _, best_noisy = optimal_sensitivity(lambda th: closed_form_sensitivity(noisy, th))
    rel = abs(best_noisy - best_quiet) / best_quiet
    assert rel < 0.01
    report(9, f"thermal occupation 1e-3 shifts the optimum by {rel:.3e} relative "
              f"(below the 1% threshold)")


def _row_lookup(grid, **keys):
    cols = {name: i for i, name in enumerate(grid.columns)}
    mask = np.ones(grid.values.shape[0], dtype=bool)
    for name, val in keys.items():
        mask &= np.isclose(grid.values[:, cols[name]], val, rtol=1e-12, atol=1e-12)
    rows = grid.values[mask]
    assert rows.shape[0] == 1, f"lookup {keys} matched {rows.shape[0]} rows"
    return {name: rows[0, i] for name, i in cols.items()}


def test_criterion_10_published_sweeps():
    timings = {}
    for name, builder in (
        ("fig2", fig2_grid),
        ("fig3", fig3_grid),
        ("fig4", fig4_grid),
        ("fig5", fig5_grid),
    ):
        start = time.monotonic()
        first = builder()
        timings[name] = time.monotonic() - start
        assert timings[name] < 60.0
        assert first.to_csv() == builder().to_csv(), f"{name} output not reproducible"
        if name == "fig2":
            t1 = first.values[:, 0]
            assert t1.min() == 0.1 and t1.max() == 1.0
            assert first.values.shape == (46 * 46, 5)
            row = _row_lookup(first, t1=0.5, t2=0.5)
            assert row["visibility"] == pytest.approx(0.4202041028867288, abs=1e-9)
        elif name == "fig3":
            assert first.values.shape == (46 * 20, 6)
            n_vals = first.values[:, 1]
            assert n_vals.min() == 1.0 and n_vals.max() == 20.0
            row = _row_lookup(first, t=1.0, n=10.0)
            assert row["delta_theta_opt"] == pytest.approx(qcrb_sensitivity(10.0), rel=1e-6)
        elif name == "fig4":
            assert first.values.shape == (46 * 46, 5)
            t = first.values[:, 0]
            nth = first.values[:, 1]
            assert t.min() == 0.5 and t.max() == 1.0
            assert nth.min() == pytest.approx(1e-10, rel=1e-12)
            assert nth.max() == pytest.approx(1e-1, rel=1e-12)
            row = _row_lookup(first, t=0.5, n_th=1e-10)
            quiet = PipelineSpec.detection_loss(theta=0.0, n=10.0, t=0.5, n_th=0.0)
            _, best = optimal_sensitivity(lambda th: closed_form_sensitivity(quiet, th))
            assert row["delta_theta_opt"] == pytest.approx(best, rel=1e-6)
        else:
            assert first.values.shape == (46 * 20, 6)
            t = first.values[:, 0]
            assert t.min() == 0.5 and t.max() == 1.0
    times = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    report(10, f"sweep outputs reproducible byte for byte at full resolution ({times})")


def test_criterion_11_divergent_fringe_has_nearby_optimum():
    spec = PipelineSpec.generation_loss(theta=0.0, n=10.0, t1=0.5, t2=0.5)
    assert math.isinf(closed_form_sensitivity(spec, np.pi / 4))
    theta_opt, best = optimal_sensitivity(lambda th: closed_form_sensitivity(spec, th))
    assert best == pytest.approx(1.403654422, rel=1e-6)
    c2sq = math.cos(2.0 * theta_opt) ** 2
    assert c2sq == pytest.approx(0.082, abs=0.005)
    # independent dense-scan confirmation of the refined optimum
    grid = np.linspace(1e-4, np.pi / 2 - 1e-4, 2_000_001)
    vals = closed_form_sensitivity(spec, grid)
    scan_best = float(np.min(vals))
    assert best == pytest.approx(scan_best, rel=1e-6)
    report(11, f"equal-loss bright fringe diverges yet the nearby optimum stays finite: "
               f"delta_theta={best:.9f} at cos^2(2 theta)={c2sq:.4f}")
