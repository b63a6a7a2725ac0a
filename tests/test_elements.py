"""Input states, element matrices, and the three pipeline variants."""

import math
import re

import numpy as np
import pytest

from polrot.elements import (
    PIPELINE_MAX_N,
    PIPELINE_MAX_NTH,
    VARIANTS,
    PipelineSpec,
    build_pipeline,
    detector_vbs,
    qwp,
    rotator,
    thermal,
    tmsv,
    vacuum,
    vbs_pair,
)
from polrot.cli import _theta_grid
from polrot.detection import closed_form_signal, pipeline_signal
from polrot.phase_space import apply_transform, check_symplectic, reduce_to_modes

ROOT2 = math.sqrt(2.0)


# -- input states -------------------------------------------------------------


def test_tmsv_zero_photons_is_vacuum():
    assert np.array_equal(tmsv(0.0).cov, np.eye(4))


def test_tmsv_rejects_negative():
    with pytest.raises(ValueError):
        tmsv(-0.1)


def test_tmsv_is_pure_for_any_strength():
    for n in (0.1, 1.0, 7.3, 50.0):
        assert np.linalg.det(tmsv(n).cov) == pytest.approx(1.0, abs=1e-9)


def test_thermal_cov():
    st = thermal(0.25, 2)
    assert np.allclose(st.cov, 1.5 * np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        thermal(-0.5, 1)


def test_vacuum_modes():
    assert vacuum(3).cov.shape == (6, 6)
    with pytest.raises(ValueError):
        vacuum(0)


# -- element matrices ---------------------------------------------------------


def test_qwp_matrix():
    expected = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    ) / ROOT2
    assert np.allclose(qwp().matrix, expected, atol=1e-15)


def test_qwp_self_inverse():
    sq = qwp() @ qwp()
    assert np.allclose(sq.matrix, np.eye(4), atol=1e-15)


def test_qwp_embedded():
    s = qwp(total_modes=4).matrix
    assert np.allclose(s[:4, :4], qwp().matrix, atol=1e-15)
    assert np.array_equal(s[4:, 4:], np.eye(4))
    assert np.array_equal(s[:4, 4:], np.zeros((4, 4)))


def test_rotator_matrix():
    # opposite phase rotations on the two circular components
    th = 0.3
    c, s = math.cos(th), math.sin(th)
    expected = np.array(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, c, s],
            [0.0, 0.0, -s, c],
        ]
    )
    assert np.allclose(rotator(th).matrix, expected, atol=1e-15)


def test_rotator_group_property():
    a, b = 0.37, -1.12
    comp = rotator(a) @ rotator(b)
    assert np.allclose(comp.matrix, rotator(a + b).matrix, atol=1e-14)
    assert np.allclose(rotator(0.0).matrix, np.eye(4), atol=1e-15)


def test_vbs_pair_transmissive_limit():
    s = vbs_pair(1.0, 1.0).matrix
    expected = np.block(
        [
            [np.eye(4), np.zeros((4, 4))],
            [np.zeros((4, 4)), -np.eye(4)],
        ]
    )
    assert np.allclose(s, expected, atol=1e-15)


def test_vbs_pair_swap_limit():
    # full reflection routes the signal modes onto the ancilla pair
    s = vbs_pair(0.0, 0.0).matrix
    assert np.allclose(s[:4, :4], np.zeros((4, 4)), atol=1e-15)
    assert np.allclose(s[:4, 4:], np.eye(4), atol=1e-15)
    assert np.allclose(s[4:, :4], np.eye(4), atol=1e-15)


def test_vbs_pair_structure():
    t1, t2 = 0.3, 0.8
    s = vbs_pair(t1, t2).matrix
    dt = np.diag([math.sqrt(t1), math.sqrt(t1), math.sqrt(t2), math.sqrt(t2)])
    dr = np.diag(
        [math.sqrt(1 - t1), math.sqrt(1 - t1), math.sqrt(1 - t2), math.sqrt(1 - t2)]
    )
    assert np.allclose(s[:4, :4], dt, atol=1e-15)
    assert np.allclose(s[:4, 4:], dr, atol=1e-15)
    assert np.allclose(s[4:, :4], dr, atol=1e-15)
    assert np.allclose(s[4:, 4:], -dt, atol=1e-15)


def test_vbs_pair_range():
    for bad in ((-0.1, 0.5), (0.5, 1.1)):
        with pytest.raises(ValueError):
            vbs_pair(*bad)


def test_detector_vbs_structure():
    t = 0.6
    s = detector_vbs(t).matrix
    rt, rr = math.sqrt(t), math.sqrt(1 - t)
    assert np.array_equal(s[0:2, 0:2], np.eye(2))
    assert np.allclose(s[2:4, 2:4], rt * np.eye(2), atol=1e-15)
    assert np.allclose(s[2:4, 6:8], rr * np.eye(2), atol=1e-15)
    assert np.allclose(s[6:8, 2:4], rr * np.eye(2), atol=1e-15)
    assert np.allclose(s[6:8, 6:8], -rt * np.eye(2), atol=1e-15)
    assert np.array_equal(s[4:6, 4:6], -np.eye(2))


def test_detector_vbs_full_transmission():
    s = detector_vbs(1.0).matrix
    assert np.allclose(s[2:4, 2:4], np.eye(2), atol=1e-15)
    assert np.allclose(s[2:4, 6:8], np.zeros((2, 2)), atol=1e-15)


def test_elements_symplectic_over_parameter_grids():
    for th in np.linspace(-np.pi, np.pi, 11):
        assert check_symplectic(rotator(float(th))).residual < 1e-12
    grid = np.linspace(0.0, 1.0, 11)
    for t1 in grid:
        for t2 in grid:
            assert check_symplectic(vbs_pair(float(t1), float(t2))).residual < 1e-12
    for t in grid:
        assert check_symplectic(detector_vbs(float(t))).residual < 1e-12
    assert check_symplectic(qwp()).residual < 1e-12
    assert check_symplectic(qwp(total_modes=4)).residual < 1e-12


# -- pipeline configuration ---------------------------------------------------


def test_variant_names():
    assert VARIANTS == ("lossless", "r1", "r2")


def test_pipeline_config_factories():
    a = PipelineSpec.lossless(theta=0.1, n=2.0)
    assert a.variant == "lossless" and a.t1 is None and a.n_th is None
    b = PipelineSpec.generation_loss(theta=0.1, n=2.0, t1=0.5, t2=0.9)
    assert b.variant == "r1" and b.t1 == 0.5 and b.t2 == 0.9
    c = PipelineSpec.detection_loss(theta=0.1, n=2.0, t=0.7, n_th=0.05)
    assert c.variant == "r2" and c.t == 0.7 and c.n_th == 0.05


def test_pipeline_config_rejects_wrong_parameters():
    with pytest.raises(ValueError):
        PipelineSpec(variant="lossless", theta=0.1, n=2.0, t1=0.5)
    with pytest.raises(ValueError):
        PipelineSpec(variant="r1", theta=0.1, n=2.0, t1=0.5)  # missing t2
    with pytest.raises(ValueError):
        PipelineSpec(variant="r2", theta=0.1, n=2.0, t=0.5)  # missing n_th
    with pytest.raises(ValueError):
        PipelineSpec(variant="r1", theta=0.1, n=2.0, t1=1.5, t2=0.5)
    with pytest.raises(ValueError):
        PipelineSpec(variant="bogus", theta=0.1, n=2.0)
    with pytest.raises(ValueError):
        PipelineSpec(variant="lossless", theta=0.1, n=-1.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"variant": "lossless", "n": math.nan}, "n must be"),
        ({"variant": "lossless", "n": math.inf}, "n must be"),
        ({"variant": "lossless", "n": 1e200}, "n must be"),
        ({"variant": "r2", "n": 2.0, "t": 0.5, "n_th": math.nan}, "n_th must be"),
        ({"variant": "r2", "n": 2.0, "t": 0.5, "n_th": math.inf}, "n_th must be"),
        ({"variant": "r2", "n": 2.0, "t": 0.5, "n_th": 1e200}, "n_th must be"),
        ({"variant": "r1", "n": 2.0, "t1": math.nan, "t2": 0.5}, "t1 must be"),
    ],
)
def test_pipeline_config_rejects_non_finite_and_overflowing(kwargs, field):
    with pytest.raises(ValueError, match=field):
        PipelineSpec(theta=0.1, **kwargs)


def test_lossless_pipeline_state_and_size():
    state, s = build_pipeline(PipelineSpec.lossless(theta=0.2, n=1.0))
    assert state.cov.shape == (4, 4)
    assert s.matrix.shape == (4, 4)
    out = apply_transform(state, s)
    assert np.linalg.det(out.cov) == pytest.approx(1.0, abs=1e-9)


def test_lossy_pipelines_are_eight_dimensional():
    for spec in (
        PipelineSpec.generation_loss(theta=0.2, n=1.0, t1=0.5, t2=0.8),
        PipelineSpec.detection_loss(theta=0.2, n=1.0, t=0.5, n_th=0.1),
    ):
        state, s = build_pipeline(spec)
        assert state.cov.shape == (8, 8)
        assert s.matrix.shape == (8, 8)


def test_generation_loss_applies_before_rotation():
    # at theta = 0 the readout arm keeps only its own attenuation, so the
    # signal pins down which side of the interferometer the loss sits on
    n, t1, t2 = 6.0, 0.3, 0.9
    state, s = build_pipeline(PipelineSpec.generation_loss(theta=0.0, n=n, t1=t1, t2=t2))
    out = apply_transform(state, s)
    red = reduce_to_modes(out, (2,))
    det = np.linalg.det(red.cov)
    assert 1.0 / math.sqrt(det) == pytest.approx(1.0 / (1.0 + n * t2), abs=1e-12)


def test_detection_loss_noiseless_limit_matches_lossless():
    thetas = np.linspace(0.0, np.pi / 2, 9)
    for th in thetas:
        a_state, a_s = build_pipeline(PipelineSpec.lossless(theta=float(th), n=3.0))
        b_state, b_s = build_pipeline(
            PipelineSpec.detection_loss(theta=float(th), n=3.0, t=1.0, n_th=0.0)
        )
        ra = reduce_to_modes(apply_transform(a_state, a_s), (2,))
        rb = reduce_to_modes(apply_transform(b_state, b_s), (2,))
        assert np.allclose(ra.cov, rb.cov, atol=1e-12)


def test_pipeline_transforms_are_symplectic():
    for spec in (
        PipelineSpec.lossless(theta=0.77, n=2.0),
        PipelineSpec.generation_loss(theta=0.77, n=2.0, t1=0.4, t2=0.6),
        PipelineSpec.detection_loss(theta=0.77, n=2.0, t=0.9, n_th=0.2),
    ):
        _, s = build_pipeline(spec)
        assert check_symplectic(s).residual < 1e-12


def _specs_at(n):
    return (
        PipelineSpec.lossless(theta=0.0, n=n),
        PipelineSpec.generation_loss(theta=0.0, n=n, t1=1.0, t2=0.9),
        PipelineSpec.detection_loss(theta=0.0, n=n, t=1.0, n_th=0.1),
    )


def test_pipeline_accepts_n_at_its_limit():
    thetas = _theta_grid(1801)
    for spec in _specs_at(PIPELINE_MAX_N):
        got = pipeline_signal(spec, thetas)
        assert np.max(np.abs(got - closed_form_signal(spec, thetas))) < 1e-9, spec.variant


@pytest.mark.parametrize("n", [math.nextafter(PIPELINE_MAX_N, math.inf), 3e7, 1e8])
def test_pipeline_rejects_n_above_its_limit(n):
    for spec in _specs_at(n):
        with pytest.raises(ValueError, match=re.escape(f"n = {n!r} exceeds the matrix pipeline limit n <= 1000")):
            build_pipeline(spec)


def test_pipeline_accepts_n_th_at_its_limit():
    thetas = _theta_grid(1801)
    for n, t in ((0.01, 0.3), (10.0, 0.9), (PIPELINE_MAX_N, 0.2)):
        spec = PipelineSpec.detection_loss(theta=0.0, n=n, t=t, n_th=PIPELINE_MAX_NTH)
        want = closed_form_signal(spec, thetas)
        assert np.max(np.abs(pipeline_signal(spec, thetas) - want)) < 1e-9 * np.max(np.abs(want)), (n, t)


@pytest.mark.parametrize("n_th", [math.nextafter(PIPELINE_MAX_NTH, math.inf), 1e7, 1e9])
def test_pipeline_rejects_n_th_above_its_limit(n_th):
    spec = PipelineSpec.detection_loss(theta=0.0, n=10.0, t=0.9, n_th=n_th)
    with pytest.raises(ValueError, match=re.escape(f"n_th = {n_th!r} exceeds the matrix pipeline limit n_th <= 100000")):
        build_pipeline(spec)
