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
    "MAX_DENSE_BYTES",
    "CutoffTooSmallError",
    "FockKet",
    "FockDensity",
    "required_cutoff",
    "tmsv_ket",
    "apply_interferometer",
    "loss_channel",
    "parity_expectation_fock",
    "rotated_parity",
    "oracle_parity_table",
]

DEFAULT_TAIL = 1e-10

# Largest d^2 x d^2 complex matrix (bytes) the lossy oracle builds; the loss
# stage holds three at once.  Cutoff 75 (d = 76) is the last that fits.
MAX_DENSE_BYTES = 2**29

_NORM_SLACK = 1e-9

# Entries per row block when scanning a density matrix for Hermiticity.
_HERM_BLOCK = 1 << 16


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


def _hermiticity_residual(mat: NDArray[np.complex128]) -> float:
    """max |M - M^H|, scanned in row blocks so no full-size temporary is made.

    The residual is symmetric, so each block covers its own rows from its
    first column on; earlier blocks cover the entries left of it.
    """
    dim = mat.shape[0]
    step = max(1, _HERM_BLOCK // max(dim, 1))
    worst = [0.0]
    for i in range(0, dim, step):
        j = min(i + step, dim)
        worst.append(np.max(np.abs(mat[i:j, i:] - mat[i:, i:j].conj().T)))
    return float(np.max(worst))


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

    def populations(self) -> NDArray[np.float64]:
        return np.abs(self.amplitudes) ** 2


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
        herm = _hermiticity_residual(mat)
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


def required_cutoff(n: float) -> int:
    """Smallest per-mode cutoff whose geometric truncation tail is < DEFAULT_TAIL."""
    if not 0.0 <= n < math.inf:
        raise ValueError(f"mean photon number n must be finite and >= 0, got {n}")
    tail = DEFAULT_TAIL
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


def tmsv_ket(n: float, cutoff: int | None = None) -> FockKet:
    """Two-mode squeezed vacuum: amplitude sqrt((1-t)*t^k) on |k, k>.

    t = n/(n+2).  With cutoff omitted the smallest cutoff meeting the tail
    bound is chosen; an explicit cutoff below that raises
    CutoffTooSmallError naming the required value.
    """
    required = required_cutoff(n)
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


def _kraus_mixers(d: int, t: float) -> list[NDArray[np.float64]]:
    """Per diagonal offset e, the upper-triangular (d-e) x (d-e) loss matrix.

    amp[k, a] = sqrt(C(a, k) * (1-t)^k * t^(a-k)) is the amplitude of
    losing k of a photons.  An entry of the lossy mode's ket-bra plane
    whose indices differ by e and whose lower index is l receives the entry
    j >= l of the same diagonal with weight amp[j-l, j] * amp[j-l, j+e].
    """
    k = np.arange(d)[:, None]
    a = np.arange(d)[None, :]
    comb = np.array([[math.comb(i, j) for i in range(d)] for j in range(d)], dtype=np.float64)
    amp = np.sqrt(comb * (1.0 - t) ** k * t ** np.maximum(a - k, 0).astype(np.float64))
    mixers = []
    for e in range(d):
        j = np.arange(d - e)
        lost = j[None, :] - j[:, None]
        above = np.maximum(lost, 0)
        mixers.append(np.where(lost >= 0, amp[above, j] * amp[above, j + e], 0.0))
    return mixers


def loss_channel(rho: FockDensity, mode: int, t: float) -> FockDensity:
    """Pure photon loss of transmissivity t on one mode (Kraus sum).

    Kraus operator k removes k photons with amplitude
    sqrt(C(n, k) * (1-t)^k * t^(n-k)); the channel is trace preserving by
    the binomial theorem.  Loss keeps the ket-bra photon-number difference
    of the lossy mode, so each diagonal of that plane is mixed on its own,
    by one real matrix product over all other indices.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {t}")
    d = rho.cutoff + 1
    out = np.zeros((d, d, d, d), dtype=np.complex128)
    # Views ordered (lossy ket, other ket, lossy bra, other bra).
    src = rho.matrix.reshape(d, d, d, d)
    dst = out
    if mode == 2:
        src, dst = src.transpose(1, 0, 3, 2), out.transpose(1, 0, 3, 2)
    mixers = _kraus_mixers(d, t)
    for delta in range(1 - d, d):
        e = abs(delta)
        low = np.arange(d - e)
        ket, bra = (low + e, low) if delta >= 0 else (low, low + e)
        diag = np.ascontiguousarray(src[ket, :, bra, :])
        mixed = mixers[e] @ diag.view(np.float64).reshape(d - e, -1)
        dst[ket, :, bra, :] = mixed.view(np.complex128).reshape(d - e, d, d)
    return FockDensity(out.reshape(d * d, d * d), tail_bound=rho.tail_bound)


# -- parity ------------------------------------------------------------------


def parity_expectation_fock(ket: FockKet) -> float:
    """Parity of mode 2 as a signed population sum: sum of (-1)^n2 * |a[n1, n2]|^2."""
    pops = ket.populations()
    signs = 1.0 - 2.0 * (np.arange(pops.shape[0]) % 2)
    return float(np.sum(pops * signs[None, :]))


@lru_cache(maxsize=4)
def _shell_pairs(cutoff: int) -> tuple[tuple[tuple[int, int], ...], NDArray[np.intp], NDArray[np.intp]]:
    """Where the shell blocks sit inside the cutoff space.

    Returns, per shell s, the range lo..hi of mode-1 occupations with both
    occupations <= cutoff, and the flat (row, col) index of every entry of
    every restricted block, shell by shell and row-major within a block.
    """
    d = cutoff + 1
    ranges, rows, cols = [], [], []
    for s in range(2 * cutoff + 1):
        lo, hi = max(0, s - cutoff), min(s, cutoff)
        keep = np.arange(lo, hi + 1)
        flat = keep * d + (s - keep)
        ranges.append((lo, hi))
        rows.append(np.repeat(flat, flat.size))
        cols.append(np.tile(flat, flat.size))
    return tuple(ranges), _frozen(np.concatenate(rows)), _frozen(np.concatenate(cols))


def rotated_parity(cutoff: int, theta: float) -> NDArray[np.complex128]:
    """Heisenberg-picture parity of mode 2: U^dag P U on the cutoff space.

    Both U and P are block-diagonal in total photon number, so each shell
    block is computed exactly in the full shell basis and then restricted
    to the indices with both mode occupations <= cutoff.  Returns the
    entries M[rows, cols] of those blocks at the _shell_pairs(cutoff)
    positions, the only places where M is non-zero.  For any state supported
    on that space, tr(rho * M) equals the parity measured after the
    interferometer, with no truncation error.
    """
    blocks = []
    for s, (lo, hi) in enumerate(_shell_pairs(cutoff)[0]):
        signs = 1.0 - 2.0 * ((s - np.arange(s + 1)) % 2)
        w = _shell_unitary(s, theta)[:, lo : hi + 1]
        blocks.append((w.conj().T @ (signs[:, None] * w)).ravel())
    return np.concatenate(blocks)


# -- oracle evaluation -------------------------------------------------------


def oracle_parity_table(n: float, thetas, cases, cutoff: int | None = None) -> dict[tuple[int, int], float]:
    """Batch oracle parities: {(case_index, theta_index): value}.

    cases is a sequence of None (lossless) or (t1, t2) pairs.  Densities
    are built once per case and the rotated parity once per angle, which
    keeps the large-cutoff runs fast.  A lossy case whose dense density
    would exceed MAX_DENSE_BYTES raises ValueError before anything is built.
    """
    thetas = [float(x) for x in thetas]
    lossy = [i for i, case in enumerate(cases) if case is not None]
    if lossy:
        c = required_cutoff(n) if cutoff is None else cutoff
        dense = (c + 1) ** 4 * 16
        if dense > MAX_DENSE_BYTES:
            raise ValueError(
                f"cutoff {c} needs {dense} bytes per dense density matrix, "
                f"above the oracle limit of {MAX_DENSE_BYTES} bytes"
            )
    ket = tmsv_ket(n, cutoff)
    results: dict[tuple[int, int], float] = {}
    for i, case in enumerate(cases):
        if case is None:
            for j, th in enumerate(thetas):
                out = apply_interferometer(ket, th)
                results[i, j] = parity_expectation_fock(out)
    if lossy:
        # tr(rho M) = sum of rho[q, p] * M[p, q]; M vanishes off the shell
        # blocks, so only rho's entries there are kept.
        _, rows, cols = _shell_pairs(ket.cutoff)
        shell_rho = np.empty((len(lossy), rows.size), dtype=np.complex128)
        for row, i in zip(shell_rho, lossy):
            t1, t2 = cases[i]
            row[:] = loss_channel(loss_channel(FockDensity.from_ket(ket), 1, t1), 2, t2).matrix[cols, rows]
        for j, th in enumerate(thetas):
            for i, value in zip(lossy, shell_rho @ rotated_parity(ket.cutoff, th)):
                results[i, j] = float(np.real(value))
    return results
