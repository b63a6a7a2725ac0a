"""Parity readout, exact angle slope, sensitivity, and closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polrot.cli import _theta_grid
from polrot.detection import (
    check_quantum_bound,
    closed_form_sensitivity,
    closed_form_signal,
    optimal_sensitivity,
    outcome_probabilities,
    parity_expectation,
    pipeline_signal,
    pipeline_slope,
    qcrb_sensitivity,
    visibility,
    _cospi,
    _sinpi,
)
from polrot.elements import PipelineSpec, thermal, tmsv, vacuum
from polrot.phase_space import GaussianState


def lossless(theta, n=10.0):
    return PipelineSpec.lossless(theta=theta, n=n)


def gen_loss(theta, n=10.0, t1=0.5, t2=0.5):
    return PipelineSpec.generation_loss(theta=theta, n=n, t1=t1, t2=t2)


def det_loss(theta, n=10.0, t=0.9, n_th=0.0):
    return PipelineSpec.detection_loss(theta=theta, n=n, t=t, n_th=n_th)


# -- exact trig helpers -------------------------------------------------------


def test_half_turn_trig_exact_zeros():
    assert _cospi(np.array(0.5)) == 0.0
    assert _cospi(np.array(1.5)) == 0.0
    assert _cospi(np.array(-0.5)) == 0.0
    assert _sinpi(np.array(0.0)) == 0.0
    assert _sinpi(np.array(1.0)) == 0.0
    assert _sinpi(np.array(-2.0)) == 0.0
    assert _sinpi(np.array(0.5)) == 1.0
    assert _sinpi(np.array(1.5)) == -1.0
    assert _cospi(np.array(1.0)) == -1.0


def test_half_turn_trig_matches_library():
    u = np.linspace(-3.7, 3.7, 301)
    assert np.allclose(_sinpi(u), np.sin(np.pi * u), atol=5e-15)
    assert np.allclose(_cospi(u), np.cos(np.pi * u), atol=5e-15)


# -- parity readout -----------------------------------------------------------


def test_parity_vacuum_and_thermal():
    assert parity_expectation(vacuum(2)) == pytest.approx(1.0, abs=1e-15)
    n_th = 0.4
    assert parity_expectation(thermal(n_th, 2)) == pytest.approx(
        1.0 / (2.0 * n_th + 1.0), abs=1e-13
    )


def test_parity_marginal_of_entangled_source():
    n = 3.0
    assert parity_expectation(tmsv(n)) == pytest.approx(1.0 / (n + 1.0), abs=1e-13)


def test_parity_displaced_vacuum():
    # displaced vacuum: parity decays with the squared displacement of the
    # measured mode 2 and ignores that of mode 1
    a, b = 0.7, -0.4
    st = GaussianState(mean=np.array([0.0, 0.0, a, b]), cov=np.eye(4))
    assert parity_expectation(st) == pytest.approx(math.exp(-(a * a + b * b)), abs=1e-13)
    swapped = GaussianState(mean=np.array([a, b, 0.0, 0.0]), cov=np.eye(4))
    assert parity_expectation(swapped) == pytest.approx(1.0, abs=1e-15)


def test_outcome_probabilities():
    assert outcome_probabilities(1.0) == (1.0, 0.0)
    assert outcome_probabilities(0.0) == (0.5, 0.5)
    pe, po = outcome_probabilities(1.0 / 11.0)
    assert pe == pytest.approx(6.0 / 11.0, abs=1e-15)
    assert po == pytest.approx(5.0 / 11.0, abs=1e-15)
    with pytest.raises(ValueError):
        outcome_probabilities(1.001)


# -- pipeline signal spot values ----------------------------------------------


def test_lossless_signal_spot_values():
    n = 10.0
    assert pipeline_signal(lossless(0.0, n)) == pytest.approx(1.0 / 11.0, abs=1e-12)
    assert pipeline_signal(lossless(np.pi / 8, n)) == pytest.approx(
        1.0 / math.sqrt(61.0), abs=1e-12
    )
    assert pipeline_signal(lossless(np.pi / 4, n)) == pytest.approx(1.0, abs=1e-12)


def test_equal_loss_signal_spot_value():
    assert pipeline_signal(gen_loss(np.pi / 4)) == pytest.approx(
        1.0 / math.sqrt(6.0), abs=1e-12
    )


def test_noisy_detection_signal_spot_value():
    spec = PipelineSpec.detection_loss(theta=np.pi / 8, n=10.0, t=0.9, n_th=0.5)
    beta = 2.0 * 0.5 * (1.0 - 0.9) + 10.0 * 0.9
    b = 1.0 + beta * (beta + 2.0) - 0.9**2 * 120.0 * 0.5
    assert pipeline_signal(spec) == pytest.approx(1.0 / math.sqrt(b), abs=1e-12)
    mild = PipelineSpec.detection_loss(theta=np.pi / 8, n=10.0, t=0.9, n_th=0.01)
    assert pipeline_signal(mild) == pytest.approx(0.13942784121230106, abs=1e-12)


# -- exact angle slope --------------------------------------------------------


def slope_sensitivity(spec):
    """Error-propagation sensitivity from the pipeline signal and slope."""
    s = pipeline_signal(spec)
    return math.sqrt(1.0 - s * s) / abs(pipeline_slope(spec))


def test_sensitivity_matches_closed_form():
    # lossless and detection loss; generation loss is checked below
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = float(rng.uniform(1.0, 15.0))
        th = float(rng.uniform(0.1, np.pi / 2 - 0.1))
        for spec in (
            PipelineSpec.lossless(theta=th, n=n),
            PipelineSpec.detection_loss(
                theta=th, n=n, t=float(rng.uniform(0, 1)), n_th=float(rng.uniform(0, 2))
            ),
        ):
            assert slope_sensitivity(spec) == pytest.approx(
                closed_form_sensitivity(spec), rel=1e-9
            ), spec


def test_fisher_spot_value():
    # N = 10 at theta = pi/8: F = s'^2 / (1 - s^2) = 4 A sin^2 / (1 + A cos^2)^2
    # with A = 120
    spec = lossless(np.pi / 8)
    s = pipeline_signal(spec)
    assert pipeline_slope(spec) ** 2 / (1.0 - s * s) == pytest.approx(240.0 / 3721.0, abs=1e-12)


def test_sensitivity_stationary_is_inf():
    # the signal is stationary at 0 and pi/2 for every variant, where the
    # closed form reports inf
    for th in (0.0, np.pi / 2):
        for spec in (lossless(th), gen_loss(th, t1=0.3, t2=0.9), det_loss(th, n_th=0.01)):
            assert math.isinf(closed_form_sensitivity(spec))
            assert abs(pipeline_slope(spec)) < 1e-14


# -- batched pipeline ---------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [lossless(0.0), gen_loss(0.0, t1=0.3, t2=0.9), det_loss(0.0, t=0.7, n_th=0.05)], ids=lambda s: s.variant
)
def test_pipeline_batch_matches_scalar_calls(spec):
    rng = np.random.default_rng(31)
    thetas = np.concatenate([_theta_grid(181), rng.uniform(-np.pi, np.pi, 64)])
    batch = pipeline_signal(spec, thetas)
    scalar = np.array([pipeline_signal(replace(spec, theta=float(th))) for th in thetas])
    assert np.array_equal(batch, scalar)


def test_pipeline_signal_keeps_the_angle_shape():
    spec = gen_loss(0.4, t1=0.3, t2=0.9)
    for theta in (None, 0.4, np.float64(0.4), np.array(0.4)):
        got = pipeline_signal(spec, theta)
        assert type(got) is float and got == pipeline_signal(spec)
    grid = np.linspace(0.0, np.pi, 12)
    flat = pipeline_signal(spec, grid)
    assert flat.shape == (12,)
    square = pipeline_signal(spec, grid.reshape(3, 4))
    assert square.shape == (3, 4)
    assert np.array_equal(square.ravel(), flat)


# -- visibility ---------------------------------------------------------------


def test_visibility_lossless():
    for n in (1.0, 2.0, 10.0):
        fn = lambda th: pipeline_signal(lossless(0.0, n), th)
        assert visibility(fn) == pytest.approx(n / (n + 2.0), abs=1e-9)


def test_visibility_zero_for_vacuum_input():
    fn = lambda th: pipeline_signal(lossless(0.0, 0.0), th)
    assert visibility(fn) == pytest.approx(0.0, abs=1e-12)


def test_visibility_equal_loss():
    fn = lambda th: pipeline_signal(gen_loss(0.0, t1=0.5, t2=0.5), th)
    assert visibility(fn) == pytest.approx(0.4202041028867288, abs=1e-9)


def test_visibility_unequal_loss_uses_global_extrema():
    # the fringe maximum sits away from the bright-fringe angle when the
    # two arms are attenuated differently
    fn = lambda th: pipeline_signal(gen_loss(0.0, t1=0.3, t2=0.7), th)
    v = visibility(fn)
    assert v == pytest.approx(0.5351407196475867, abs=1e-9)
    # cross-check against a dense closed-form scan: the maximum sits in the
    # interior, the minimum at theta = 0 with value 1/(1 + N T2) = 1/8
    spec = PipelineSpec.generation_loss(theta=0.0, n=10.0, t1=0.3, t2=0.7)
    grid = closed_form_signal(spec, np.linspace(0.0, np.pi / 2, 1_000_001))
    smax = float(grid.max())
    smin = 1.0 / 8.0
    assert float(grid.min()) == pytest.approx(smin, abs=1e-10)
    assert v == pytest.approx((smax - smin) / (smax + smin), abs=1e-9)


def test_unequal_loss_beats_equal_loss_visibility():
    equal = visibility(lambda th: pipeline_signal(gen_loss(0.0, t1=0.5, t2=0.5), th))
    unequal = visibility(lambda th: pipeline_signal(gen_loss(0.0, t1=0.3, t2=0.7), th))
    assert unequal > equal


# -- sensitivity optimum ------------------------------------------------------


def test_optimal_sensitivity_lossless():
    spec = PipelineSpec.lossless(theta=0.0, n=10.0)
    theta_opt, best = optimal_sensitivity(lambda th: closed_form_sensitivity(spec, th))
    assert theta_opt == pytest.approx(np.pi / 4, abs=1e-6)
    assert best == pytest.approx(qcrb_sensitivity(10.0), rel=1e-9)


def test_optimal_sensitivity_equal_loss_avoids_divergent_fringe():
    spec = PipelineSpec.generation_loss(theta=0.0, n=10.0, t1=0.5, t2=0.5)
    fn = lambda th: closed_form_sensitivity(spec, th)
    assert math.isinf(closed_form_sensitivity(spec, np.pi / 4))
    theta_opt, best = optimal_sensitivity(fn)
    assert best == pytest.approx(1.403654422, rel=1e-6)
    c2 = math.cos(2.0 * theta_opt) ** 2
    assert 0.07 < c2 < 0.095


def test_optimal_sensitivity_all_divergent_raises():
    with pytest.raises(ValueError):
        optimal_sensitivity(lambda th: np.full_like(th, np.inf))


def test_quantum_bound_check_names_n():
    bound = qcrb_sensitivity(10.0)
    check_quantum_bound(10.0, bound)
    check_quantum_bound(10.0, bound * (1.0 - 1e-13))
    for below in (bound * (1.0 - 1e-11), 0.0, math.nan):
        with pytest.raises(ValueError, match="below the quantum bound .* at n = 10.0"):
            check_quantum_bound(10.0, below)


# -- closed forms -------------------------------------------------------------


def test_closed_form_signal_matches_pipeline():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = float(rng.uniform(0.0, 20.0))
        th = float(rng.uniform(-np.pi, np.pi))
        specs = [
            PipelineSpec.lossless(theta=th, n=n),
            PipelineSpec.generation_loss(
                theta=th, n=n, t1=float(rng.uniform(0, 1)), t2=float(rng.uniform(0, 1))
            ),
            PipelineSpec.detection_loss(
                theta=th, n=n, t=float(rng.uniform(0, 1)), n_th=float(rng.uniform(0, 2))
            ),
        ]
        for spec in specs:
            assert closed_form_signal(spec) == pytest.approx(
                pipeline_signal(spec), abs=1e-12
            )


def test_closed_form_sensitivity_matches_numeric():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = float(rng.uniform(1.0, 15.0))
        th = float(rng.uniform(0.1, np.pi / 2 - 0.1))
        spec = PipelineSpec.generation_loss(
            theta=th, n=n, t1=float(rng.uniform(0, 1)), t2=float(rng.uniform(0, 1))
        )
        assert closed_form_sensitivity(spec) == pytest.approx(slope_sensitivity(spec), rel=1e-9), spec


def test_closed_form_vectorized_matches_scalar():
    spec = PipelineSpec.detection_loss(theta=0.0, n=5.0, t=0.8, n_th=0.3)
    thetas = np.linspace(0.0, np.pi, 37)
    sig = closed_form_signal(spec, thetas)
    sens = closed_form_sensitivity(spec, thetas)
    for i, th in enumerate(thetas):
        assert sig[i] == closed_form_signal(spec, float(th))
        s = closed_form_sensitivity(spec, float(th))
        assert sens[i] == s or (math.isinf(sens[i]) and math.isinf(s))


def test_exact_divergence_at_bright_fringe():
    spec = PipelineSpec.generation_loss(theta=0.0, n=10.0, t1=0.5, t2=0.5)
    assert math.isinf(closed_form_sensitivity(spec, np.pi / 4))
    assert math.isinf(closed_form_sensitivity(spec, 0.0))
    # the lossless bright fringe stays finite: variance and slope vanish
    # together and the ratio has a finite limit
    lossless_spec = PipelineSpec.lossless(theta=0.0, n=10.0)
    assert closed_form_sensitivity(lossless_spec, np.pi / 4) == pytest.approx(
        qcrb_sensitivity(10.0), rel=1e-12
    )


def test_periodicity():
    thetas = np.linspace(0.0, np.pi / 2, 17)
    # lossless and equal-loss signals repeat every quarter turn
    for spec in (
        PipelineSpec.lossless(theta=0.0, n=4.0),
        PipelineSpec.generation_loss(theta=0.0, n=4.0, t1=0.6, t2=0.6),
        PipelineSpec.detection_loss(theta=0.0, n=4.0, t=0.7, n_th=0.2),
    ):
        a = closed_form_signal(spec, thetas)
        b = closed_form_signal(spec, thetas + np.pi / 2)
        assert np.allclose(a, b, atol=1e-12)
    # unequal attenuation breaks that symmetry but keeps the half-turn one
    spec = PipelineSpec.generation_loss(theta=0.0, n=4.0, t1=0.3, t2=0.9)
    a = closed_form_signal(spec, thetas)
    assert not np.allclose(a, closed_form_signal(spec, thetas + np.pi / 2), atol=1e-6)
    assert np.allclose(a, closed_form_signal(spec, thetas + np.pi), atol=1e-12)


def test_dark_counts_degrade_signal():
    th = np.pi / 8
    signals = [
        closed_form_signal(PipelineSpec.detection_loss(theta=th, n=10.0, t=0.9, n_th=v))
        for v in (0.0, 0.01, 0.1, 1.0)
    ]
    assert all(a > b for a, b in zip(signals, signals[1:]))


def test_loss_placement_identity_spots():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = float(rng.uniform(0.5, 15.0))
        t = float(rng.uniform(0.05, 1.0))
        th = float(rng.uniform(0.0, np.pi))
        a = PipelineSpec.generation_loss(theta=th, n=n, t1=t, t2=t)
        b = PipelineSpec.detection_loss(theta=th, n=n, t=t, n_th=0.0)
        assert closed_form_signal(a) == pytest.approx(closed_form_signal(b), abs=1e-13)
        sa = closed_form_sensitivity(a)
        sb = closed_form_sensitivity(b)
        if math.isinf(sa) or math.isinf(sb):
            assert math.isinf(sa) and math.isinf(sb)
        else:
            assert sa == pytest.approx(sb, rel=1e-9)


def test_qcrb_sensitivity():
    assert qcrb_sensitivity(10.0) == pytest.approx(1.0 / (2.0 * math.sqrt(120.0)), rel=1e-15)
    assert qcrb_sensitivity(1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-15)
    with pytest.raises(ValueError):
        qcrb_sensitivity(0.0)
    with pytest.raises(ValueError):
        qcrb_sensitivity(-1.0)

