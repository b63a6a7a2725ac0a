"""Truncated number-basis cross-check of the Gaussian pipeline.

Everything here is independent of the phase-space machinery: two-mode kets
and density matrices over {|n1, n2> : ni <= cutoff}, the interferometer as
a photon-number-conserving unitary, photon loss as a Kraus channel, and
parity as a signed population sum.  Agreement with the covariance-matrix
results validates both implementations.

The interferometer is exp(i*theta*(a1^dag a2 + a2^dag a1)); its action on
mode operators is the 2x2 matrix exp(i*theta*sigma_x), which is exactly the
plate-rotator-plate composite of the quadrature pipeline (the test suite
pins this correspondence).  It conserves total photon number, so it is
applied shell by shell; within a shell of s photons the Hamiltonian is a
real symmetric tridiagonal matrix with off-diagonal sqrt((k+1)(s-k)).

Loss shrinks photon numbers, so lossy states stay inside the input cutoff;
the measurement after the interferometer is evaluated in the Heisenberg
picture via rotated_parity, which is exact on that subspace because both
parity and the interferometer are block-diagonal in total photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "DEFAULT_TAIL",
    "CutoffTooSmallError",
    "FockKet",
    "FockDensity",
    "required_cutoff",
    "tmsv_ket",
    "apply_interferometer",
    "loss_channel",
    "parity_expectation_fock",
    "rotated_parity",
    "oracle_parity",
    "oracle_parity_table",
]

DEFAULT_TAIL = 1e-10

_NORM_SLACK = 1e-9


class CutoffTooSmallError(ValueError):
    """Raised when a requested cutoff cannot honor the tail bound."""

    def __init__(self, cutoff: int, required: int, n: float) -> None:
        super().__init__(
            f"cutoff {cutoff} is too small for mean photon number {n}: "
            f"the tail bound requires cutoff >= {required}"
        )
        self.cutoff = cutoff
        self.required = required


def _frozen(arr: NDArray) -> NDArray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FockKet:
    """Two-mode pure state; amplitudes[n1, n2] on a square photon grid.

    tail_bound bounds both the weight discarded by truncation and the
    weight sitting on the cutoff boundary, so the norm may fall short of 1
    by at most that much.
    """

    amplitudes: NDArray[np.complex128]
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1] or amps.shape[0] < 1:
            raise ValueError(f"amplitudes must be a square 2-D array, got shape {amps.shape}")
        if not (0.0 <= self.tail_bound < 1.0):
            raise ValueError(f"tail_bound must be in [0, 1), got {self.tail_bound}")
        nsq = float(np.sum(np.abs(amps) ** 2))
        if not 1.0 - self.tail_bound - _NORM_SLACK <= nsq <= 1.0 + _NORM_SLACK:
            raise ValueError(
                f"squared norm {nsq} outside [1 - {self.tail_bound}, 1]"
            )
        pops = np.abs(amps) ** 2
        edge = float(np.sum(pops[-1, :]) + np.sum(pops[:, -1]) - pops[-1, -1])
        if edge > self.tail_bound + _NORM_SLACK:
            raise ValueError(
                f"boundary weight {edge} exceeds declared tail bound {self.tail_bound}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> NDArray[np.float64]:
        return np.abs(self.amplitudes) ** 2

    def mean_total_photons(self) -> float:
        pops = self.populations()
        n = np.arange(pops.shape[0])
        return float(np.sum(pops * (n[:, None] + n[None, :])))


@dataclass(frozen=True, eq=False)
class FockDensity:
    """Two-mode mixed state; matrix indexed row-major by (n1, n2)."""

    matrix: NDArray[np.complex128]
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        d = math.isqrt(mat.shape[0])
        if d * d != mat.shape[0]:
            raise ValueError(f"dimension {mat.shape[0]} is not a perfect square")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > 1e-12:
            raise ValueError(f"matrix not Hermitian, residual {herm}")
        tr = float(np.real(np.trace(mat)))
        if not 1.0 - self.tail_bound - _NORM_SLACK <= tr <= 1.0 + _NORM_SLACK:
            raise ValueError(f"trace {tr} outside [1 - {self.tail_bound}, 1]")
        object.__setattr__(self, "matrix", _frozen(mat))

    @classmethod
    def from_ket(cls, ket: FockKet) -> "FockDensity":
        v = ket.amplitudes.reshape(-1)
        return cls(np.outer(v, v.conj()), tail_bound=ket.tail_bound)

    @property
    def cutoff(self) -> int:
        return math.isqrt(self.matrix.shape[0]) - 1

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def populations(self) -> NDArray[np.float64]:
        d = self.cutoff + 1
        return np.real(np.diagonal(self.matrix)).reshape(d, d)

    def validate(self) -> dict[str, float]:
        """Hermiticity residual, trace, and minimum eigenvalue (slow)."""
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        eigs = np.linalg.eigvalsh(self.matrix)
        return {
            "hermiticity_residual": herm,
            "trace": self.trace(),
            "min_eigenvalue": float(eigs[0]),
        }


def required_cutoff(n: float, tail: float = DEFAULT_TAIL) -> int:
    """Smallest per-mode cutoff whose geometric truncation tail is < tail."""
    if not 0.0 <= n < math.inf:
        raise ValueError(f"mean photon number n must be finite and >= 0, got {n}")
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail must be in (0, 1), got {tail}")
    t = n / (n + 2.0)
    if t == 0.0:
        return 0
    if t == 1.0:
        # Past n ~ 1.8e16 t rounds to 1 and t**k cannot reach the tail;
        # the exact log of n/(n+2) still gives the cutoff.
        return math.floor(math.log(tail) / math.log1p(-2.0 / (n + 2.0)))
    # Start from the log estimate, then settle on the smallest c with
    # t**(c+1) < tail, the same test a count up from 0 would stop at.
    c = max(math.floor(math.log(tail) / math.log(t)), 0)
    while c > 0 and t**c < tail:
        c -= 1
    while t ** (c + 1) >= tail:
        c += 1
    return c


def tmsv_ket(n: float, cutoff: int | None = None, tail: float = DEFAULT_TAIL) -> FockKet:
    """Two-mode squeezed vacuum: amplitude sqrt((1-t)*t^k) on |k, k>.

    t = n/(n+2).  With cutoff omitted the smallest cutoff meeting the tail
    bound is chosen; an explicit cutoff below that raises
    CutoffTooSmallError naming the required value.
    """
    required = required_cutoff(n, tail)
    if cutoff is None:
        cutoff = required
    elif cutoff < required:
        raise CutoffTooSmallError(cutoff, required, n)
    t = n / (n + 2.0)
    d = cutoff + 1
    amps = np.zeros((d, d), dtype=np.complex128)
    k = np.arange(d)
    amps[k, k] = np.sqrt((1.0 - t) * t**k)
    bound = t**cutoff if t > 0.0 else 0.0
    return FockKet(amps, tail_bound=bound)


# -- interferometer ----------------------------------------------------------


@lru_cache(maxsize=None)
def _shell_eig(s: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of the s-photon shell Hamiltonian (V, eigenvalues)."""
    if s == 0:
        return np.ones((1, 1)), np.zeros(1)
    off = np.sqrt([(k + 1) * (s - k) for k in range(s)])
    h = np.diag(off, 1) + np.diag(off, -1)
    w, v = np.linalg.eigh(h)
    return v, w


def _shell_unitary(s: int, theta: float) -> NDArray[np.complex128]:
    v, w = _shell_eig(s)
    return (v * np.exp(1j * theta * w)) @ v.T


def apply_interferometer(ket: FockKet, theta: float) -> FockKet:
    """Evolve a ket through the interferometer, shell by shell.

    The output cutoff is doubled: a shell with s photons can put all of
    them into one mode, so the result is exact with no new truncation.
    """
    c = ket.cutoff
    d_out = 2 * c + 1
    out = np.zeros((d_out, d_out), dtype=np.complex128)
    for s in range(2 * c + 1):
        lo = max(0, s - c)
        hi = min(s, c)
        if lo > hi:
            continue
        vec = np.zeros(s + 1, dtype=np.complex128)
        ks = np.arange(lo, hi + 1)
        vec[ks] = ket.amplitudes[ks, s - ks]
        res = _shell_unitary(s, theta) @ vec
        kk = np.arange(s + 1)
        out[kk, s - kk] = res
    return FockKet(out, tail_bound=ket.tail_bound)


# -- loss --------------------------------------------------------------------


def loss_channel(rho: FockDensity, mode: int, t: float) -> FockDensity:
    """Pure photon loss of transmissivity t on one mode (Kraus sum).

    Kraus operator k removes k photons with amplitude
    sqrt(C(n, k) * (1-t)^k * t^(n-k)); the channel is trace preserving by
    the binomial theorem.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {t}")
    d = rho.cutoff + 1
    m4 = rho.matrix.reshape(d, d, d, d)
    out = np.zeros_like(m4)
    for k in range(d):
        src = np.arange(k, d)
        a = np.sqrt(
            np.array([math.comb(int(nn), k) for nn in src], dtype=np.float64)
            * (1.0 - t) ** k
            * t ** (src - k).astype(np.float64)
        )
        if mode == 1:
            out[: d - k, :, : d - k, :] += (
                a[:, None, None, None] * a[None, None, :, None] * m4[k:, :, k:, :]
            )
        else:
            out[:, : d - k, :, : d - k] += (
                a[None, :, None, None] * a[None, None, None, :] * m4[:, k:, :, k:]
            )
    return FockDensity(out.reshape(d * d, d * d), tail_bound=rho.tail_bound)


# -- parity ------------------------------------------------------------------


def parity_expectation_fock(state: FockKet | FockDensity, mode: int = 2) -> float:
    """Signed population sum: sum over (n1, n2) of (-1)^(n_mode) * pop."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    pops = state.populations()
    d = pops.shape[0]
    signs = 1.0 - 2.0 * (np.arange(d) % 2)
    weighted = signs[:, None] * pops if mode == 1 else pops * signs[None, :]
    return float(np.sum(weighted))


def rotated_parity(cutoff: int, theta: float, mode: int = 2) -> NDArray[np.complex128]:
    """Heisenberg-picture parity: U^dag P U restricted to the cutoff space.

    Both U and P are block-diagonal in total photon number, so each shell
    block is computed exactly in the full shell basis and then restricted
    to the indices with both mode occupations <= cutoff.  For any state
    supported on that space, tr(rho * M) equals the parity measured after
    the interferometer, with no truncation error.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    d = cutoff + 1
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for s in range(2 * cutoff + 1):
        w = _shell_unitary(s, theta)
        kk = np.arange(s + 1)
        occ = kk if mode == 1 else s - kk
        signs = 1.0 - 2.0 * (occ % 2)
        block = w.conj().T @ (signs[:, None] * w)
        keep = kk[(kk >= max(0, s - cutoff)) & (kk <= min(s, cutoff))]
        flat = keep * d + (s - keep)
        m[np.ix_(flat, flat)] = block[np.ix_(keep, keep)]
    return m


# -- oracle evaluation -------------------------------------------------------


def oracle_parity(
    n: float,
    theta: float,
    t1: float = 1.0,
    t2: float = 1.0,
    cutoff: int | None = None,
    tail: float = DEFAULT_TAIL,
) -> float:
    """Number-basis parity of mode 2 for the lossless or generation-loss run.

    A one-case, one-angle oracle_parity_table; t1 = t2 = 1 is the lossless
    case, which evolves the ket directly.
    """
    case = None if t1 == 1.0 and t2 == 1.0 else (t1, t2)
    return oracle_parity_table(n, [theta], [case], cutoff, tail)[0, 0]


def oracle_parity_table(
    n: float,
    thetas,
    cases,
    cutoff: int | None = None,
    tail: float = DEFAULT_TAIL,
) -> dict[tuple[int, int], float]:
    """Batch oracle parities: {(case_index, theta_index): value}.

    cases is a sequence of None (lossless) or (t1, t2) pairs.  Densities
    are built once per case and the rotated parity once per angle, which
    keeps the large-cutoff runs fast.
    """
    thetas = [float(x) for x in thetas]
    ket = tmsv_ket(n, cutoff, tail)
    results: dict[tuple[int, int], float] = {}
    rhos: dict[int, FockDensity] = {}
    for i, case in enumerate(cases):
        if case is None:
            for j, th in enumerate(thetas):
                out = apply_interferometer(ket, th)
                results[i, j] = parity_expectation_fock(out, mode=2)
        else:
            t1, t2 = case
            rho = FockDensity.from_ket(ket)
            rho = loss_channel(rho, 1, t1)
            rhos[i] = loss_channel(rho, 2, t2)
    if rhos:
        for j, th in enumerate(thetas):
            m = rotated_parity(ket.cutoff, th, mode=2)
            for i, rho in rhos.items():
                results[i, j] = float(np.real(np.sum(rho.matrix * m.T)))
    return results
