"""Parity readout, estimation metrics, and closed-form benchmarks.

The readout is photon-number parity on one output mode.  For a Gaussian
state the parity expectation depends only on the reduced mean m and 2x2
covariance G of that mode:

    <P> = exp(-m . G^-1 m) / sqrt(det G)

which is 1 for vacuum and 1/(2*n_th + 1) for a thermal mode.  Built on
top: the exact angle slope d<P>/dtheta, which gives the error-propagation
sensitivity sqrt(1 - <P>^2) / |d<P>/dtheta| (for this two-outcome readout
also 1/sqrt of the Fisher information), fringe visibility, and a global
sensitivity optimum over the rotation angle.

Closed-form expressions for the three sensor variants are provided for fast
parameter sweeps; they must agree with the matrix pipeline and the test
suite cross-checks them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .elements import PipelineSpec, build_pipeline
from .phase_space import GaussianState, apply_transform, reduce_to_modes

__all__ = [
    "parity_expectation",
    "outcome_probabilities",
    "pipeline_signal",
    "pipeline_slope",
    "visibility",
    "optimal_sensitivity",
    "closed_form_signal",
    "closed_form_sensitivity",
    "qcrb_sensitivity",
    "check_quantum_bound",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# visibility scans [0, pi/2] on this many angles before refining.
_VISIBILITY_SAMPLES = 1801
# optimal_sensitivity seeds [_WINDOW_EDGE, pi/2 - _WINDOW_EDGE], clear of the
# ends where the signal is always stationary, with _OPTIMUM_SEEDS angles and
# refines each local minimum to an interval of _OPTIMUM_XTOL.
_WINDOW_EDGE = 1e-4
_OPTIMUM_SEEDS = 64
_OPTIMUM_XTOL = 2.5e-7


# -- exact trigonometry on half-turn fractions -------------------------------
#
# Closed forms below need cos(2*theta) to vanish *exactly* when 2*theta is an
# odd multiple of pi/2, otherwise divergent sensitivities come out as huge
# finite numbers instead of inf.  sin/cos are therefore evaluated as
# functions of u = angle/pi with exact range reduction: mod 2, then
# reflections that are exact in floating point (Sterbenz), then the library
# call on [0, 0.5] plus pinned endpoint values.


def _sinpi(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """sin(pi * u), exact at integer and half-integer u."""
    u = np.asarray(u, dtype=np.float64)
    r = np.mod(u, 2.0)
    flip = r >= 1.0
    r = np.where(flip, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    val = np.sin(np.pi * r)
    val = np.where(r == 0.5, 1.0, val)
    val = np.where(r == 0.0, 0.0, val)
    return np.where(flip, -val, val)


def _cospi(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """cos(pi * u), exact at integer and half-integer u."""
    u = np.asarray(u, dtype=np.float64)
    r = np.mod(u, 2.0)
    r = np.where(r >= 1.0, 2.0 - r, r)
    sign = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    val = np.cos(np.pi * r)
    val = np.where(r == 0.5, 0.0, val)
    return sign * val


def _doubled_angle(theta: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(cos 2*theta, sin 2*theta); exact zeros at multiples of pi/4."""
    # Divide by np.pi so that theta values built as fractions of np.pi land
    # on exact half-integers of u.
    u = (2.0 * np.asarray(theta, dtype=np.float64)) / np.pi
    return _cospi(u), _sinpi(u)


# -- parity readout ----------------------------------------------------------


def parity_expectation(state: GaussianState):
    """Photon-number parity expectation on mode 2, the measured mode.

    A float for a single state, an array of the batch shape for a batch.
    """
    red = reduce_to_modes(state, (2,))
    g = red.cov
    m0, m1 = red.mean[..., 0], red.mean[..., 1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if (det <= 0.0).any():
        raise ValueError(f"reduced covariance has non-positive determinant {np.min(det)}")
    quad = (g[..., 1, 1] * m0 * m0 - 2.0 * g[..., 0, 1] * m0 * m1 + g[..., 0, 0] * m1 * m1) / det
    sig = np.exp(-quad) / np.sqrt(det)
    return float(sig) if sig.ndim == 0 else sig


def outcome_probabilities(signal: float) -> tuple[float, float]:
    """(even, odd) photon-count probabilities for a parity expectation."""
    if abs(signal) > 1.0 + 1e-12:
        raise ValueError(f"parity expectation must lie in [-1, 1], got {signal}")
    s = min(1.0, max(-1.0, float(signal)))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def pipeline_signal(spec: PipelineSpec, theta=None):
    """Parity signal of a configuration via the full matrix pipeline.

    theta (default: the configuration's angle) may be an array, evaluated as
    one batch into an array of its shape; a scalar or 0-d angle gives a float.
    """
    state, transform = build_pipeline(spec, theta)
    return parity_expectation(apply_transform(state, transform))


# -- exact angle slope -------------------------------------------------------


def pipeline_slope(spec: PipelineSpec) -> float:
    """Exact d<P>/dtheta of one configuration through the matrix pipeline.

    The rotator is the only element that depends on theta, and its matrix is
    affine in (cos theta, sin theta), so the composite obeys
    dS/dtheta = S(theta + pi/2) - (S(theta) + S(theta + pi)) / 2 exactly,
    and the three composites are built as one batch.
    With S2 the measured-mode rows of S and V the input covariance, the
    reduced covariance is G = S2 V S2^T with tangent S2' V S2^T + S2 V S2'^T.
    The inputs have zero mean, so <P> = det(G)^(-1/2) and
    d<P>/dtheta = -det(G)^(-3/2) * tr(adj(G) G') / 2.
    """
    state, transform = build_pipeline(spec, spec.theta + np.array([0.0, math.pi / 2, math.pi]))
    s, quarter, half = transform.matrix
    s2 = s[2:4]
    ds2 = (quarter - 0.5 * (s + half))[2:4]
    g = s2 @ state.cov @ s2.T
    cross = ds2 @ state.cov @ s2.T
    dg = cross + cross.T
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    tr_adj_dg = g[1, 1] * dg[0, 0] - g[0, 1] * dg[1, 0] - g[1, 0] * dg[0, 1] + g[0, 0] * dg[1, 1]
    return float(-0.5 * tr_adj_dg / det**1.5)


# -- scans over the rotation angle -------------------------------------------


def _golden_min(
    fn: Callable[[float], float], a: float, b: float, xtol: float
) -> tuple[float, float]:
    """Golden-section minimum of fn on [a, b]; tracks the best point seen."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(fn(c))
    fd = float(fn(d))
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(fn(c))
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(fn(d))
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def visibility(signal_fn: Callable[[float], float]) -> float:
    """Fringe visibility (max - min) / (|max| + |min|) over [0, pi/2].

    Global extrema are located on a dense angle grid, from one call of
    signal_fn on the whole grid array, and sharpened by golden-section
    refinement of the bracketing intervals.
    """
    samples = _VISIBILITY_SAMPLES
    grid = np.linspace(0.0, math.pi / 2, samples)
    vals = np.broadcast_to(np.asarray(signal_fn(grid), dtype=np.float64), grid.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("signal must be finite to compute visibility")

    def refined(index: int, sign: float) -> float:
        a = grid[max(index - 1, 0)]
        b = grid[min(index + 1, samples - 1)]
        _, f = _golden_min(lambda x: sign * float(signal_fn(x)), a, b, xtol=1e-10)
        return sign * f

    imax = int(np.argmax(vals))
    imin = int(np.argmin(vals))
    smax = max(float(vals[imax]), refined(imax, -1.0))
    smin = min(float(vals[imin]), refined(imin, 1.0))
    denom = abs(smax) + abs(smin)
    if denom == 0.0:
        raise ValueError("signal vanishes identically; visibility undefined")
    return (smax - smin) / denom


def optimal_sensitivity(sens_fn: Callable[[float], float]) -> tuple[float, float]:
    """Best (theta, delta_theta) of a sensitivity curve on [1e-4, pi/2 - 1e-4].

    The curve may have several local minima separated by divergences, so
    every local minimum of a seed grid (one call of sens_fn on the whole
    grid array) is refined by golden section and the best point
    encountered anywhere is returned.  The window excludes the endpoints
    where the signal is always stationary.  Raises if the curve is
    divergent across the whole window.
    """
    seeds = _OPTIMUM_SEEDS
    grid = np.linspace(_WINDOW_EDGE, math.pi / 2 - _WINDOW_EDGE, seeds)
    vals = np.broadcast_to(np.asarray(sens_fn(grid), dtype=np.float64), grid.shape)
    best_x = float(grid[0])
    best_f = math.inf
    for i in range(seeds):
        if vals[i] < best_f:
            best_x, best_f = float(grid[i]), float(vals[i])
    for i in range(seeds):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i < seeds - 1 else math.inf
        if not (vals[i] <= left and vals[i] <= right):
            continue
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(i + 1, seeds - 1)])
        x, f = _golden_min(lambda t: float(sens_fn(t)), a, b, xtol=_OPTIMUM_XTOL)
        if f < best_f:
            best_x, best_f = x, f
    if not math.isfinite(best_f):
        raise ValueError("sensitivity diverges across the whole search window")
    return best_x, best_f


# -- closed forms ------------------------------------------------------------


def _gen_loss_coeffs(n: float, t1: float, t2: float) -> tuple[float, float, float]:
    """Coefficients (k0, k1, k2) of the generation-loss determinant.

    The reduced determinant of the measured mode is
    1 + (k0 + k1*c + k2*c^2) / 4 with c = cos(2*theta).  k0 is the combined
    excess noise at cos(2*theta) = 0 and is assembled from products that
    vanish cleanly in the lossless and equal-loss limits, avoiding the
    cancellation a naive expansion suffers there.
    """
    k0 = 4.0 * n * (t1 * (1.0 - t2) + t2 * (1.0 - t1)) + n * n * (t1 - t2) ** 2
    k1 = 2.0 * ((1.0 + n * t2) ** 2 - (1.0 + n * t1) ** 2)
    k2 = n * n * (t1 + t2) ** 2 + 8.0 * n * t1 * t2
    return k0, k1, k2


def _det_loss_floor(n: float, t: float, n_th: float) -> float:
    """Excess noise of the detection-loss determinant at cos(2*theta) = 0.

    Equal to beta*(beta+2) - t^2*n*(n+2) with beta the effective thermal
    occupation, but assembled from nonnegative terms so the near-lossless
    regime does not cancel catastrophically; the determinant is then
    1 + floor + t^2*n*(n+2)*cos(2*theta)^2.
    """
    e = 2.0 * n_th * (1.0 - t)
    return e * e + 2.0 * e * (n * t + 1.0) + 2.0 * n * t * (1.0 - t)


def _as_theta_array(spec: PipelineSpec, theta) -> tuple[NDArray[np.float64], bool]:
    th = spec.theta if theta is None else theta
    arr = np.asarray(th, dtype=np.float64)
    return arr, arr.ndim == 0


def closed_form_signal(spec: PipelineSpec, theta=None):
    """Analytic parity signal of a configuration, vectorized over theta.

    With theta omitted, the angle stored in the configuration is used.
    Agrees with the matrix pipeline to roundoff.
    """
    th, scalar = _as_theta_array(spec, theta)
    c2, s2 = _doubled_angle(th)
    a = spec.n * (spec.n + 2.0)
    if spec.variant == "lossless":
        det = 1.0 + a * c2 * c2
    elif spec.variant == "r1":
        k0, k1, k2 = _gen_loss_coeffs(spec.n, spec.t1, spec.t2)
        det = 1.0 + (k0 + k1 * c2 + k2 * c2 * c2) / 4.0
    else:
        d0 = _det_loss_floor(spec.n, spec.t, spec.n_th)
        det = 1.0 + d0 + spec.t * spec.t * a * c2 * c2
    sig = 1.0 / np.sqrt(det)
    return float(sig) if scalar else sig


def closed_form_sensitivity(spec: PipelineSpec, theta=None):
    """Analytic error-propagation sensitivity, vectorized over theta.

    Stationary points of the signal give inf, including 0/0 corners where
    the leading noise term vanishes together with the slope (the value is
    then direction-dependent and inf is the conservative report).  The
    dedicated lossless branch resolves its removable 0/0 at the half-signal
    angle analytically, where the sensitivity stays finite.
    """
    th, scalar = _as_theta_array(spec, theta)
    c2, s2 = _doubled_angle(th)
    a = spec.n * (spec.n + 2.0)
    if spec.variant == "lossless":
        num = 1.0 + a * c2 * c2
        den = 2.0 * math.sqrt(a) * np.abs(s2) if a > 0.0 else np.zeros_like(s2)
    elif spec.variant == "r1":
        k0, k1, k2 = _gen_loss_coeffs(spec.n, spec.t1, spec.t2)
        gm1 = np.maximum((k0 + k1 * c2 + k2 * c2 * c2) / 4.0, 0.0)
        num = 2.0 * np.sqrt(gm1) * (1.0 + gm1)
        den = np.abs(s2 * (k1 + 2.0 * k2 * c2)) / 2.0
    else:
        d0 = _det_loss_floor(spec.n, spec.t, spec.n_th)
        bm1 = d0 + spec.t * spec.t * a * c2 * c2
        num = np.sqrt(bm1) * (1.0 + bm1)
        den = 2.0 * spec.t * spec.t * a * np.abs(s2 * c2)
    den = np.asarray(den, dtype=np.float64)
    safe = np.where(den > 0.0, den, 1.0)
    out = np.where(den > 0.0, np.asarray(num, dtype=np.float64) / safe, np.inf)
    return float(out) if scalar else out


def qcrb_sensitivity(n: float) -> float:
    """Quantum bound 1 / (2 * sqrt(n * (n + 2))) for the lossless probe."""
    if n <= 0.0:
        raise ValueError(f"mean photon number must be > 0, got {n}")
    return 1.0 / (2.0 * math.sqrt(n * (n + 2.0)))


def check_quantum_bound(n: float, delta_theta: float) -> None:
    """Reject an optimum below qcrb_sensitivity(n) by more than roundoff, or NaN.

    No configuration beats the lossless bound, so such an optimum means the
    closed form has lost its precision at this n.
    """
    bound = qcrb_sensitivity(n)
    if not delta_theta >= bound * (1.0 - 1e-12):
        raise ValueError(
            f"optimal delta_theta {delta_theta} is below the quantum bound {bound} at n = {n}: "
            "the closed form loses its precision at this n"
        )
