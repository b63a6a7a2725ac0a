"""Gaussian phase-space primitives: states, symplectic maps, and their algebra.

Quadratures are ordered (x1, p1, x2, p2, ...) and the vacuum covariance is the
identity, so a thermal mode with mean occupation nbar has covariance
(2*nbar + 1) * I.  Under this ordering the symplectic form is block-diagonal
with [[0, 1], [-1, 0]] per mode.  All states and transforms are immutable;
operations return new objects.
Leading axes of a mean (..., 2m) or matrix (..., 2m, 2m) form a batch:
construction validates the whole stack at once and the operations broadcast
over batch axes, so a single state or transform is the batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SYMMETRY_TOL",
    "SYMPLECTIC_TOL",
    "PHYSICALITY_TOL",
    "GaussianState",
    "SymplecticTransform",
    "SymplecticCheck",
    "symplectic_form",
    "check_symplectic",
    "apply_transform",
    "direct_sum",
    "reduce_to_modes",
]

# Covariance symmetry and symplectic-defect tolerance (absolute, max entry).
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-12
# Minimum eigenvalue allowed for cov + i*Omega (uncertainty-principle check).
PHYSICALITY_TOL = 1e-9


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Return the 2m x 2m symplectic form for the interleaved quadrature order.

    Args:
        n_modes: number of modes m (must be >= 1).

    Returns:
        Block-diagonal matrix with [[0, 1], [-1, 0]] per mode.
    """
    if int(n_modes) != n_modes or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


# symplectic_form(n_modes), built once per size and read-only.
_omega = functools.cache(lambda n_modes: _frozen_array(symplectic_form(n_modes)))


class SymplecticCheck(NamedTuple):
    """Result of a symplectic-condition test."""

    is_symplectic: bool
    residual: float


def _as_matrix(s: Union["SymplecticTransform", NDArray[np.float64]]) -> NDArray[np.float64]:
    if isinstance(s, SymplecticTransform):
        return s.matrix
    mat = np.asarray(s, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def check_symplectic(s: Union["SymplecticTransform", NDArray[np.float64]]) -> SymplecticCheck:
    """Test S^T Omega S = Omega to SYMPLECTIC_TOL and report the max-entry residual.

    Accepts a SymplecticTransform or a raw square matrix of even dimension,
    or a stack of them; the residual is the worst over the stack.
    """
    mat = _as_matrix(s)
    dim = mat.shape[-1]
    if dim % 2 != 0:
        raise ValueError(f"symplectic matrices have even dimension, got {dim}")
    omega = _omega(dim // 2)
    residual = float(np.abs(mat.swapaxes(-1, -2) @ omega @ mat - omega).max())
    return SymplecticCheck(residual <= SYMPLECTIC_TOL, residual)


def _frozen_array(values: NDArray) -> NDArray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state given by its quadrature mean vector and covariance matrix.

    mean has length 2m and cov is 2m x 2m for m modes, quadratures interleaved
    as (x1, p1, x2, p2, ...); leading axes of shape (...) on both form a
    batch of states.  Construction validates symmetry, positive
    definiteness, and the uncertainty relation cov + i*Omega >= 0 on every
    state of the batch; unphysical input raises ValueError.
    """

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim < 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
            raise ValueError(f"cov must be square, got shape {cov.shape}")
        dim = cov.shape[-1]
        if dim % 2 != 0 or dim == 0:
            raise ValueError(f"quadrature dimension must be even and positive, got {dim}")
        if mean.shape[-1] != dim:
            raise ValueError(f"mean length {mean.shape[-1]} does not match cov dimension {dim}")
        if mean.shape[:-1] != cov.shape[:-2]:
            raise ValueError(f"mean batch shape {mean.shape[:-1]} != cov batch shape {cov.shape[:-2]}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        n_modes = dim // 2

        sym_residual = float(np.abs(cov - cov.swapaxes(-1, -2)).max())
        if sym_residual > SYMMETRY_TOL:
            raise ValueError(f"cov is not symmetric (max residual {sym_residual:.3e})")
        min_eig = float(np.linalg.eigvalsh(cov).min())
        if min_eig <= 0.0:
            raise ValueError(f"cov is not positive definite (min eigenvalue {min_eig:.3e})")
        min_phys = float(np.linalg.eigvalsh(cov + 1j * _omega(n_modes)).min())
        if min_phys < -PHYSICALITY_TOL:
            raise ValueError(
                f"cov violates the uncertainty relation (min eigenvalue of cov + i*Omega "
                f"is {min_phys:.3e})"
            )

        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "cov", _frozen_array(cov))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[-1] // 2


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Real symplectic matrix acting on interleaved quadratures.

    Leading axes of the matrix (..., 2m, 2m) form a batch of transforms.
    Construction rejects a batch in which any symplectic defect exceeds 1e-12,
    so a SymplecticTransform instance is symplectic by construction.
    """

    matrix: NDArray[np.float64]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if mat.shape[-1] % 2 != 0:
            raise ValueError(f"matrix dimension must be even, got {mat.shape[-1]}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix must be finite")
        ok, residual = check_symplectic(mat)
        if not ok:
            raise ValueError(f"matrix is not symplectic (defect {residual:.3e} > {SYMPLECTIC_TOL})")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[-1] // 2

    def __matmul__(self, other: "SymplecticTransform") -> "SymplecticTransform":
        """Compose transforms; (a @ b) applies b first, then a.  Batch axes broadcast."""
        if not isinstance(other, SymplecticTransform):
            return NotImplemented
        if self.n_modes != other.n_modes:
            raise ValueError(
                f"cannot compose transforms on {self.n_modes} and {other.n_modes} modes"
            )
        return SymplecticTransform(self.matrix @ other.matrix)


def apply_transform(state: GaussianState, s: SymplecticTransform) -> GaussianState:
    """Propagate a state through a symplectic map: mean -> S m, cov -> S V S^T (batches broadcast)."""
    if not isinstance(s, SymplecticTransform):
        raise TypeError("s must be a SymplecticTransform")
    if s.n_modes != state.n_modes:
        raise ValueError(
            f"transform acts on {s.n_modes} modes but the state has {state.n_modes}"
        )
    mat = s.matrix
    cov = mat @ state.cov @ mat.swapaxes(-1, -2)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))  # remove round-off asymmetry from the sandwich
    mean = (mat @ state.mean[..., None])[..., 0]
    return GaussianState(mean, cov)


def direct_sum(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor two single states into one on the concatenated mode list (a first)."""
    dim_a = 2 * a.n_modes
    dim_b = 2 * b.n_modes
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((dim_a + dim_b, dim_a + dim_b))
    cov[:dim_a, :dim_a] = a.cov
    cov[dim_a:, dim_a:] = b.cov
    return GaussianState(mean, cov)


def reduce_to_modes(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Partial trace down to the listed modes, numbered 1..m.

    The reduced state keeps the quadrature rows/columns of the retained modes
    in the order given and numbers them 1.. in that order, so reducing a
    direct sum back to either factor reproduces that factor exactly.  Batch
    axes are kept.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate modes in {keep}")
    modes = range(1, state.n_modes + 1)
    for mode in keep:
        if mode not in modes:
            raise ValueError(f"mode {mode!r} not in state modes 1..{state.n_modes}")
    rows = np.array([r for mode in keep for r in (2 * mode - 2, 2 * mode - 1)], dtype=np.intp)
    return GaussianState(state.mean[..., rows], state.cov[..., rows[:, None], rows])
