"""Covariance-matrix state container, symplectic checks, and mode algebra."""

import numpy as np
import pytest

from polrot.phase_space import (
    GaussianState,
    SymplecticTransform,
    apply_transform,
    check_symplectic,
    direct_sum,
    reduce_to_modes,
    symplectic_form,
)
from polrot.elements import qwp, rotator, thermal, tmsv, vacuum, vbs_pair


def test_symplectic_form_structure():
    omega = symplectic_form(3)
    assert omega.shape == (6, 6)
    assert np.array_equal(omega, -omega.T)
    assert np.array_equal(omega @ omega, -np.eye(6))
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for k in range(3):
        assert np.array_equal(omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], block)
    # off-diagonal blocks vanish
    assert np.count_nonzero(omega) == 6


def test_check_symplectic_accepts_elements():
    for mat in (qwp(), rotator(0.3), vbs_pair(0.4, 0.9).matrix):
        res = check_symplectic(mat)
        assert res.is_symplectic
        assert res.residual < 1e-12


def test_check_symplectic_rejects_scaling():
    res = check_symplectic(2.0 * np.eye(4))
    assert not res.is_symplectic
    assert res.residual == pytest.approx(3.0)


def test_check_symplectic_odd_dimension():
    with pytest.raises(ValueError):
        check_symplectic(np.eye(3))


def test_transform_constructor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SymplecticTransform(np.diag([1.0, 2.0, 1.0, 0.5]))


def test_vacuum_state_is_identity_covariance():
    v = vacuum(2)
    assert np.array_equal(v.cov, np.eye(4))
    assert np.array_equal(v.mean, np.zeros(4))
    assert np.linalg.eigvalsh(v.cov).min() == pytest.approx(1.0)
    assert np.linalg.det(v.cov) == pytest.approx(1.0)


def test_state_constructor_rejects_asymmetric_cov():
    cov = np.eye(4)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(4), cov=cov)


def test_state_constructor_rejects_unphysical_cov():
    # below vacuum noise in both quadratures: violates the uncertainty bound
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))


def test_state_constructor_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(3), cov=np.eye(4))


def test_two_mode_squeezed_cov_entries():
    n = 10.0
    st = tmsv(n)
    d = n + 1.0
    c = np.sqrt(n * (n + 2.0))
    expected = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    assert np.allclose(st.cov, expected, atol=1e-12)
    # pure: det(cov) = 1
    assert np.linalg.det(st.cov) == pytest.approx(1.0, abs=1e-9)


def test_apply_transform_identity():
    st = tmsv(3.0)
    out = apply_transform(st, SymplecticTransform(np.eye(4)))
    assert np.array_equal(out.cov, st.cov)
    assert np.array_equal(out.mean, st.mean)


def test_apply_transform_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_transform(vacuum(1), qwp())


def test_transforms_preserve_purity_and_physicality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = float(rng.uniform(0.0, 20.0))
        theta = float(rng.uniform(-np.pi, np.pi))
        s = qwp() @ rotator(theta) @ qwp()
        out = apply_transform(tmsv(n), s)
        assert np.linalg.eigvalsh(out.cov + 1j * symplectic_form(2)).min() > -1e-9
        assert np.linalg.det(out.cov) == pytest.approx(1.0, abs=1e-9)


def test_composition_order():
    # (a @ b) applies b first
    a = qwp()
    b = rotator(0.7)
    st = tmsv(2.0)
    via_compose = apply_transform(st, a @ b)
    via_steps = apply_transform(apply_transform(st, b), a)
    assert np.allclose(via_compose.cov, via_steps.cov, atol=1e-13)


def test_direct_sum_block_structure():
    st = direct_sum(tmsv(5.0), vacuum(2))
    assert st.n_modes == 4
    assert np.array_equal(st.cov[4:, 4:], np.eye(4))
    assert np.array_equal(st.cov[:4, 4:], np.zeros((4, 4)))
    assert np.array_equal(st.cov[:4, :4], tmsv(5.0).cov)


def test_reduce_to_modes_marginals():
    n = 4.0
    st = tmsv(n)
    m1 = reduce_to_modes(st, (1,))
    # each arm of a two-mode squeezed state is thermal with mean photons n/2
    assert np.allclose(m1.cov, (n + 1.0) * np.eye(2), atol=1e-12)
    m2 = reduce_to_modes(st, (2,))
    assert np.allclose(m2.cov, (n + 1.0) * np.eye(2), atol=1e-12)


def test_reduce_to_modes_roundtrip():
    st = direct_sum(thermal(0.3, 1), vacuum(1))
    back = reduce_to_modes(st, (1, 2))
    assert np.array_equal(back.cov, st.cov)
    assert np.array_equal(back.mean, st.mean)


def test_reduce_to_modes_relabels_positionally():
    # modes 4 and 3, kept in that order, become modes 1 and 2
    st = direct_sum(tmsv(1.0), direct_sum(thermal(0.3, 1), vacuum(1)))
    sub = reduce_to_modes(st, (4, 3))
    assert sub.n_modes == 2
    assert np.array_equal(reduce_to_modes(sub, (1,)).cov, np.eye(2))
    assert np.array_equal(reduce_to_modes(sub, (2,)).cov, thermal(0.3, 1).cov)


def test_reduce_to_modes_invalid_index():
    with pytest.raises(ValueError, match="not in state modes 1..2"):
        reduce_to_modes(vacuum(2), (3,))
    with pytest.raises(ValueError, match="not in state modes"):
        reduce_to_modes(vacuum(2), (0,))
    with pytest.raises(ValueError, match="duplicate"):
        reduce_to_modes(vacuum(2), (1, 1))
    with pytest.raises(ValueError, match="at least one"):
        reduce_to_modes(vacuum(2), ())


def test_reductions_stay_physical():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = float(rng.uniform(0.0, np.pi))
        s = qwp() @ rotator(theta) @ qwp()
        out = apply_transform(tmsv(float(rng.uniform(0.0, 15.0))), s)
        for keep in ((1,), (2,)):
            red = reduce_to_modes(out, keep)
            assert np.linalg.eigvalsh(red.cov + 1j * symplectic_form(1)).min() > -1e-9


# -- batches ------------------------------------------------------------------


def test_state_stack_with_one_unphysical_cov_raises_the_scalar_error():
    bad = 0.5 * np.eye(2)
    with pytest.raises(ValueError) as scalar:
        GaussianState(mean=np.zeros(2), cov=bad)
    covs = np.stack([np.eye(2), 3.0 * np.eye(2), bad, np.eye(2)])
    with pytest.raises(ValueError) as batch:
        GaussianState(mean=np.zeros((4, 2)), cov=covs)
    assert str(batch.value) == str(scalar.value)


def test_transform_stack_with_one_non_symplectic_slice_raises_the_scalar_error():
    bad = np.diag([1.0, 2.0, 1.0, 0.5])
    with pytest.raises(ValueError) as scalar:
        SymplecticTransform(bad)
    mats = np.stack([rotator(0.1).matrix, bad, qwp().matrix])
    with pytest.raises(ValueError) as batch:
        SymplecticTransform(mats)
    assert str(batch.value) == str(scalar.value)


def test_batch_operations_match_each_member():
    thetas = np.array([[0.1, 0.7, -2.0], [1.3, 0.0, 3.0]])
    batch = qwp() @ rotator(thetas) @ qwp()
    assert batch.matrix.shape == (2, 3, 4, 4) and batch.n_modes == 2
    out = apply_transform(tmsv(3.0), batch)
    red = reduce_to_modes(out, (2,))
    assert out.cov.shape == (2, 3, 4, 4) and out.mean.shape == (2, 3, 4)
    assert red.cov.shape == (2, 3, 2, 2) and red.mean.shape == (2, 3, 2)
    for idx in np.ndindex(thetas.shape):
        one = apply_transform(tmsv(3.0), qwp() @ rotator(float(thetas[idx])) @ qwp())
        assert np.array_equal(out.cov[idx], one.cov)
        assert np.array_equal(red.cov[idx], reduce_to_modes(one, (2,)).cov)
    assert check_symplectic(batch).residual < 1e-12


def test_state_batch_shapes_must_agree():
    with pytest.raises(ValueError, match="batch shape"):
        GaussianState(mean=np.zeros(4), cov=np.stack([np.eye(4), np.eye(4)]))
