"""Input states, optical elements, and pipeline assembly for the rotation sensor.

The sensor sends one arm of a two-mode squeezed vacuum through a rotation
stage sandwiched between two quarter-wave plates and reads out photon-number
parity on the second mode.  Three variants are supported:

* ``lossless``      two probe modes, no environment;
* ``r1``            photon loss during probe generation, modelled by a pair of
                    variable beam splitters (transmissivities t1, t2) coupling
                    the probe to two vacuum environment modes before the
                    rotation stage;
* ``r2``            inefficient detection, modelled by a single variable beam
                    splitter (transmissivity t) coupling the measured mode to
                    a thermal environment (mean occupation n_th) after the
                    rotation stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .phase_space import GaussianState, SymplecticTransform, direct_sum

__all__ = [
    "VARIANTS",
    "PipelineSpec",
    "tmsv",
    "vacuum",
    "thermal",
    "qwp",
    "rotator",
    "vbs_pair",
    "detector_vbs",
    "build_pipeline",
    "PIPELINE_MAX_N",
    "PIPELINE_MAX_NTH",
]

VARIANTS = ("lossless", "r1", "r2")

# Largest photon number n and thermal occupation n_th a configuration takes.
# The closed-form sensitivities grow as the cube of either, so beyond this
# they would overflow the float range.
_MAX_PHOTONS = float(np.finfo(np.float64).max) ** (1.0 / 3.0) / 8.0
# Largest n the matrix pipeline takes.  Near the dark fringe its reduced
# determinant (about 1) loses about n^2 * eps to roundoff, so beyond n = 2e3
# the signal can miss closed_form_signal by more than 1e-9.
PIPELINE_MAX_N = 1e3
# Largest thermal occupation n_th the matrix pipeline takes.  A large n_th
# costs the signal no precision, but cov + i*Omega has entries near
# 2*n_th, and from n_th = 6e5 their roundoff can exceed the absolute
# PHYSICALITY_TOL, so the state fails validation.
PIPELINE_MAX_NTH = 1e5


def tmsv(n: float) -> GaussianState:
    """Two-mode squeezed vacuum with total mean photon number n.

    The covariance has diagonal n + 1 and cross-mode blocks
    +-sqrt(n*(n+2)) in the x/p quadratures; the mean vanishes.
    """
    if n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    d = n + 1.0
    c = math.sqrt(n * (n + 2.0))
    cov = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    return GaussianState(np.zeros(4), cov)


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum on the given number of modes (identity covariance, zero mean)."""
    if int(n_modes) != n_modes or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal(n_th: float, n_modes: int) -> GaussianState:
    """Product of thermal modes, each with mean occupation n_th.

    Covariance is (2*n_th + 1) * I; n_th = 0 gives vacuum.
    """
    if n_th < 0:
        raise ValueError(f"thermal occupation must be >= 0, got {n_th}")
    if int(n_modes) != n_modes or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    return GaussianState(np.zeros(2 * n_modes), (2.0 * n_th + 1.0) * np.eye(2 * n_modes))


def _embed_upper(block: NDArray[np.float64], total_modes: int) -> NDArray[np.float64]:
    """Place a 4x4 quadrature block on modes 1-2 and identity on the rest."""
    dim = 2 * total_modes
    out = np.eye(dim)
    out[:4, :4] = block
    return out


def qwp(total_modes: int = 2) -> SymplecticTransform:
    """Quarter-wave-plate symplectic mixing the two probe modes symmetrically.

    The 4x4 block is (1/sqrt(2)) * [[I, I], [I, -I]] on interleaved
    quadratures; it is symmetric, orthogonal, and its own inverse.  With
    total_modes = 4 the block acts on modes 1-2 and environment modes pass
    through.
    """
    if total_modes not in (2, 4):
        raise ValueError(f"qwp acts on 2 probe modes within 2 or 4 total, got {total_modes}")
    r = 1.0 / math.sqrt(2.0)
    block = r * np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    )
    return SymplecticTransform(_embed_upper(block, total_modes))


def rotator(theta, total_modes: int = 2) -> SymplecticTransform:
    """Rotation stage: counter-rotates the two probe modes by +-theta.

    Mode 1 is rotated by +theta and mode 2 by -theta in its x-p plane, which
    between the two wave plates produces the measurable signal.  An array of
    angles gives a batch of transforms with the array's shape leading.
    """
    if total_modes not in (2, 4):
        raise ValueError(f"rotator acts on 2 probe modes within 2 or 4 total, got {total_modes}")
    th = np.asarray(theta, dtype=np.float64)
    c = np.cos(th)
    s = np.sin(th)
    mat = np.empty(th.shape + (2 * total_modes, 2 * total_modes))
    mat[...] = np.eye(2 * total_modes)
    mat[..., 0, 0] = mat[..., 1, 1] = mat[..., 2, 2] = mat[..., 3, 3] = c
    mat[..., 0, 1] = mat[..., 3, 2] = -s
    mat[..., 1, 0] = mat[..., 2, 3] = s
    return SymplecticTransform(mat)


def vbs_pair(t1: float, t2: float) -> SymplecticTransform:
    """Beam-splitter pair coupling probe modes 1, 2 to environment modes 3, 4.

    Mode 1 mixes with mode 3 at transmissivity t1 and mode 2 with mode 4 at
    t2.  Each transmitted quadrature is scaled by sqrt(t); the reflected port
    carries sqrt(1 - t) with a sign flip on the environment output, so t = 1
    gives diag(I4, -I4) and t = 0 swaps probe and environment.
    """
    for name, t in (("t1", t1), ("t2", t2)):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {t}")
    k1, k2 = math.sqrt(t1), math.sqrt(t2)
    r1_, r2_ = math.sqrt(1.0 - t1), math.sqrt(1.0 - t2)
    d_t = np.diag([k1, k1, k2, k2])
    d_r = np.diag([r1_, r1_, r2_, r2_])
    mat = np.block([[d_t, d_r], [d_r, -d_t]])
    return SymplecticTransform(mat)


def detector_vbs(t: float) -> SymplecticTransform:
    """Detection-stage beam splitter mixing measured mode 2 with thermal mode 4.

    Mode 1 passes through, mode 2 keeps amplitude sqrt(t) and picks up
    sqrt(1 - t) from environment mode 4; modes 3 and 4 carry the conjugate
    ports (with sign flips), so t = 1 reduces to diag(I2, I2, -I2, -I2).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    k = math.sqrt(t)
    r = math.sqrt(1.0 - t)
    mat = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, k, 0.0, 0.0, 0.0, r, 0.0],
            [0.0, 0.0, 0.0, k, 0.0, 0.0, 0.0, r],
            [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, r, 0.0, 0.0, 0.0, -k, 0.0],
            [0.0, 0.0, 0.0, r, 0.0, 0.0, 0.0, -k],
        ]
    )
    return SymplecticTransform(mat)


@dataclass(frozen=True)
class PipelineSpec:
    """Parameter set for one sensor configuration.

    Exactly the parameters of the chosen variant may be present: t1/t2 for
    ``r1``, t/n_th for ``r2``, and neither for ``lossless``.  Use the
    classmethod constructors to avoid spelling the rules out by hand.
    """

    variant: str
    theta: float
    n: float
    t1: float | None = None
    t2: float | None = None
    t: float | None = None
    n_th: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        required = {"lossless": (), "r1": ("t1", "t2"), "r2": ("t", "n_th")}[self.variant]
        for name in ("t1", "t2", "t", "n_th"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValueError(f"variant {self.variant!r} requires {name}")
            elif value is not None:
                raise ValueError(f"variant {self.variant!r} does not take {name}")
        # The comparisons are False for NaN, so NaN is rejected with inf.
        for name, hi in (("t1", 1.0), ("t2", 1.0), ("t", 1.0), ("n", _MAX_PHOTONS), ("n_th", _MAX_PHOTONS)):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= hi:
                raise ValueError(f"{name} must be in [0, {hi:.3g}], got {value}")

    @classmethod
    def lossless(cls, theta: float, n: float) -> "PipelineSpec":
        return cls(variant="lossless", theta=theta, n=n)

    @classmethod
    def generation_loss(cls, theta: float, n: float, t1: float, t2: float) -> "PipelineSpec":
        return cls(variant="r1", theta=theta, n=n, t1=t1, t2=t2)

    @classmethod
    def detection_loss(cls, theta: float, n: float, t: float, n_th: float) -> "PipelineSpec":
        return cls(variant="r2", theta=theta, n=n, t=t, n_th=n_th)


def build_pipeline(spec: PipelineSpec, theta=None) -> tuple[GaussianState, SymplecticTransform]:
    """Assemble the input state and composite symplectic for a configuration.

    theta overrides the configuration's angle; an array of angles gives a
    batch of composites with the array's shape leading, one per angle.

    Composition is eager matrix multiplication, rightmost element first:

    * lossless: wave plate, rotator, wave plate on the two probe modes;
    * r1: generation-loss beam splitters first, then the embedded
      plate-rotator-plate stage, with two vacuum environment modes;
    * r2: the embedded plate-rotator-plate stage first, then the detection
      beam splitter, with two thermal environment modes.

    Both wave plates share the same self-inverse matrix, so in the lossless
    case the composite is a similarity transform of the rotation stage.
    """
    if spec.n > PIPELINE_MAX_N:
        raise ValueError(f"n = {spec.n!r} exceeds the matrix pipeline limit n <= {PIPELINE_MAX_N:g}")
    if spec.n_th is not None and spec.n_th > PIPELINE_MAX_NTH:
        raise ValueError(f"n_th = {spec.n_th!r} exceeds the matrix pipeline limit n_th <= {PIPELINE_MAX_NTH:g}")
    theta = spec.theta if theta is None else theta
    if spec.variant == "lossless":
        state = tmsv(spec.n)
        s = qwp(2) @ rotator(theta, 2) @ qwp(2)
    elif spec.variant == "r1":
        state = direct_sum(tmsv(spec.n), vacuum(2))
        s = qwp(4) @ rotator(theta, 4) @ qwp(4) @ vbs_pair(spec.t1, spec.t2)
    else:  # r2
        state = direct_sum(tmsv(spec.n), thermal(spec.n_th, 2))
        s = detector_vbs(spec.t) @ qwp(4) @ rotator(theta, 4) @ qwp(4)
    return state, s
