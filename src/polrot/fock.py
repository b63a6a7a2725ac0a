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
real symmetric tridiagonal matrix with off-diagonal sqrt((k+1)(s-k)) and
the integer spectrum -s, -s+2, ..., s, so every phase is an integer power
of e^{i theta} and any finite angle is exact to rounding.

Loss shrinks photon numbers, so lossy states stay inside the input cutoff;
the measurement after the interferometer is evaluated in the Heisenberg
picture via rotated_parity, which is exact on that subspace because both
parity and the interferometer are block-diagonal in total photon number.
Loss keeps each mode's ket-bra photon-number difference, equal in both
modes of a two-mode squeezed vacuum, so only populations reach the parity.

A density is validated in one pass over its non-zero entries, about 2% of
a matrix derived from a two-mode squeezed vacuum.  The same pass records,
for each mode, the columns that loss on that mode mixes, so the loss stage
reads no zero entry of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# stage holds two at once.  Cutoff 75 (d = 76) is the last that fits.
MAX_DENSE_BYTES = 2**29

_NORM_SLACK = 1e-9

# Entries of the flattened matrix per chunk of a density's validation pass.
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


def _nonzero_scan(mat: NDArray[np.complex128]) -> tuple[float, NDArray[np.bool_]]:
    """One pass over the non-zero entries of a d^2 x d^2 density matrix.

    The flattened matrix is read _HERM_BLOCK entries at a time, and an entry
    counts as non-zero when its real or imaginary part does (NaN included).
    Returns max |M - M^H| and the loss stage's live columns.  The residual
    is taken over the non-zero entries and their mirrors only, which is the
    full maximum: a pair of zeros contributes 0, and otherwise one entry of
    the pair is scanned, with |a - conj(b)| = |b - conj(a)|.  live[mode - 1]
    is a mask over (offset e >= 0, other ket, other bra): the column of
    the lossy mode's ket-bra diagonal with ket index - bra index = e and
    those other-mode indices holds a non-zero entry.  At e = 0 only the
    columns with other ket <= other bra are kept, the ones loss mixes.
    """
    d = math.isqrt(mat.shape[0])
    dim = d * d
    # An entry at (row, col) of diagonal e of a mode's plane lies in column
    # key = e*d^2 + other ket*d + other bra = ket_part[row] + bra_part[col],
    # and e < 0 exactly where key < 0.
    hi, lo = np.divmod(np.arange(dim), d)
    parts = ((hi * dim + lo * d, lo - hi * dim), (lo * dim + hi * d, hi - lo * dim))
    flat = mat.reshape(-1)
    live = np.zeros((2, d * dim), dtype=bool)
    worst = [0.0]
    for start in range(0, flat.size, _HERM_BLOCK):
        chunk = flat[start : start + _HERM_BLOCK]
        # Part by part as float64 (NaN counts, -0.0 does not), then the two
        # flags of an entry as one uint16: faster than a complex compare.
        at = np.flatnonzero((chunk.view(np.float64) != 0).view(np.uint16) != 0)
        if at.size == 0:
            continue
        row, col = np.divmod(at + start, dim)
        diff = chunk[at].conj()
        diff -= flat[col * dim + row]
        if diff.any():
            worst.append(np.max(np.abs(diff)))
        for mask, (ket_part, bra_part) in zip(live, parts):
            key = ket_part[row] + bra_part[col]
            mask[key[key >= 0]] = True
    live[:, :dim] &= np.tri(d, dtype=bool).T.reshape(-1)
    return float(np.max(worst)), _frozen(live.reshape(2, d, d, d))


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
    """Two-mode mixed state; matrix indexed row-major by (n1, n2).

    _live holds, per lossy mode, the columns loss_channel mixes; the
    validation pass finds them (see _nonzero_scan).
    """

    matrix: NDArray[np.complex128]
    tail_bound: float = 0.0
    _live: NDArray[np.bool_] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.array(self.matrix, dtype=np.complex128))
        self._validate()

    @classmethod
    def _adopt(cls, matrix: NDArray[np.complex128], tail_bound: float) -> "FockDensity":
        """Validate and freeze a matrix this module just built, without copying it."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "tail_bound", tail_bound)
        return rho._validate()

    def _validate(self) -> "FockDensity":
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        d = math.isqrt(mat.shape[0])
        if d * d != mat.shape[0]:
            raise ValueError(f"dimension {mat.shape[0]} is not a perfect square")
        if not (0.0 <= self.tail_bound < 1.0):
            raise ValueError(f"tail_bound must be in [0, 1), got {self.tail_bound}")
        herm, live = _nonzero_scan(mat)
        if not herm <= 1e-12:
            raise ValueError(f"matrix not Hermitian, residual {herm}")
        tr = float(np.real(np.trace(mat)))
        if not 1.0 - self.tail_bound - _NORM_SLACK <= tr <= 1.0 + _NORM_SLACK:
            raise ValueError(f"trace {tr} outside [1 - {self.tail_bound}, 1]")
        _frozen(mat)
        object.__setattr__(self, "_live", live)
        return self

    @classmethod
    def from_ket(cls, ket: FockKet) -> "FockDensity":
        v = ket.amplitudes.reshape(-1)
        keep = np.flatnonzero(v)
        mat = np.zeros((v.size, v.size), dtype=np.complex128)
        mat[np.ix_(keep, keep)] = np.outer(v[keep], v[keep].conj())
        return cls._adopt(mat, ket.tail_bound)

    @property
    def cutoff(self) -> int:
        return math.isqrt(self.matrix.shape[0]) - 1


def required_cutoff(n: float) -> int:
    """Smallest per-mode cutoff whose geometric truncation tail is < DEFAULT_TAIL.

    It is at least 1: at cutoff 0 the whole state sits on the boundary.
    """
    if not 0.0 <= n < math.inf:
        raise ValueError(f"mean photon number n must be finite and >= 0, got {n}")
    tail = DEFAULT_TAIL
    t = n / (n + 2.0)
    if t == 0.0:
        return 1
    if t == 1.0:
        # Past n ~ 1.8e16 t rounds to 1 and t**k cannot reach the tail;
        # the exact log of n/(n+2) still gives the cutoff.
        return math.floor(math.log(tail) / math.log1p(-2.0 / (n + 2.0)))
    # Start from the log estimate, then settle on the smallest c >= 1 with
    # t**(c+1) < tail, the same test a count up from 1 would stop at.
    c = max(math.floor(math.log(tail) / math.log(t)), 1)
    while c > 1 and t**c < tail:
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
def _shell_vectors(s: int) -> NDArray[np.float64]:
    """Eigenvectors of the s-photon shell Hamiltonian (2 J_x of spin s/2) by
    column; column j has the exact eigenvalue 2j - s, not eigh's rounded one."""
    off = np.sqrt([(k + 1) * (s - k) for k in range(s)])
    return _frozen(np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1])


def _phase_table(z, top: int) -> NDArray[np.complex128]:
    """z**m for m = -top..top at [..., top + m], z**-m = conj(z**m): products of
    repeated squares of z, never the rounded theta*m, in real arithmetic, which
    rounds alike on every memory layout (numpy's complex product does not)."""
    z = np.asarray(z, dtype=np.complex128)
    table = np.ones(z.shape + (2 * top + 1,), dtype=np.complex128)
    re, im = table.real[..., top:], table.imag[..., top:]
    sq_re, sq_im, size = z.real[..., None], z.imag[..., None], 1
    while size <= top:
        n = min(size, top + 1 - size)
        lo_re, lo_im = re[..., :n], im[..., :n]
        re[..., size : size + n] = lo_re * sq_re - lo_im * sq_im
        im[..., size : size + n] = lo_re * sq_im + lo_im * sq_re
        sq_re, sq_im = sq_re * sq_re - sq_im * sq_im, 2.0 * sq_re * sq_im
        size *= 2
    table[..., :top] = table[..., : top : -1].conj()
    return table


def apply_interferometer(ket: FockKet, theta: float) -> FockKet:
    """Evolve a ket through the interferometer, shell by shell.

    The output cutoff is doubled: a shell with s photons can put all of
    them into one mode, so the result is exact with no new truncation.
    Each shell is evolved in its eigenbasis: V (e^{i theta w} * (V^T psi)).
    """
    c, top = ket.cutoff, 2 * ket.cutoff
    phases = _phase_table(np.exp(1j * theta), top)
    out = np.zeros((top + 1, top + 1), dtype=np.complex128)
    for s in range(top + 1):
        lo, hi = max(0, s - c), min(s, c)
        v = _shell_vectors(s)
        ks = np.arange(lo, hi + 1)
        coeffs = v[lo : hi + 1].T @ ket.amplitudes[ks, s - ks]
        kk = np.arange(s + 1)
        out[kk, s - kk] = v @ (phases[top - s : top + s + 1 : 2] * coeffs)
    return FockKet(out, tail_bound=ket.tail_bound)


# -- loss --------------------------------------------------------------------


@lru_cache(maxsize=4)
def _binomials(d: int) -> NDArray[np.float64]:
    """C(a, k) at [k, a] for k, a < d."""
    return _frozen(np.array([[math.comb(a, k) for a in range(d)] for k in range(d)], dtype=np.float64))


def _kraus_mixers(d: int, t: float) -> list[NDArray[np.float64]]:
    """Per diagonal offset e, the upper-triangular (d-e) x (d-e) loss matrix.

    amp[k, a] = sqrt(C(a, k) * (1-t)^k * t^(a-k)) is the amplitude of
    losing k of a photons.  An entry of the lossy mode's ket-bra plane
    whose indices differ by e and whose lower index is l receives the entry
    j >= l of the same diagonal with weight amp[j-l, j] * amp[j-l, j+e].
    """
    k = np.arange(d)[:, None]
    a = np.arange(d)[None, :]
    amp = np.sqrt(_binomials(d) * (1.0 - t) ** k * t ** np.maximum(a - k, 0).astype(np.float64))
    mixers = []
    for e in range(d):
        j = np.arange(d - e)
        lost = j[None, :] - j[:, None]
        above = np.maximum(lost, 0)
        mixers.append(np.where(lost >= 0, amp[above, j] * amp[above, j + e], 0.0))
    return mixers


def _plane_columns(d: int, mode: int, e: int, ket: NDArray[np.intp], bra: NDArray[np.intp]) -> NDArray[np.intp]:
    """Flat indices, as (lower lossy index, column), of the entries of a
    flattened d^2 x d^2 density whose lossy-mode ket index exceeds its bra
    index by e (e < 0: the bra index exceeds the ket's by -e) and whose
    other-mode ket and bra indices are ket[i] and bra[i] in column i."""
    lossy_ket, lossy_bra, other_ket, other_bra = (d**3, d, d * d, 1) if mode == 1 else (d * d, 1, d**3, d)
    start = e * lossy_ket if e >= 0 else -e * lossy_bra
    lower = np.arange(d - abs(e))[:, None] * (lossy_ket + lossy_bra)
    return lower + (start + ket * other_ket + bra * other_bra)


def loss_channel(rho: FockDensity, mode: int, t: float) -> FockDensity:
    """Pure photon loss of transmissivity t on one mode (Kraus sum).

    Kraus operator k removes k photons with amplitude
    sqrt(C(n, k) * (1-t)^k * t^(n-k)); the channel is trace preserving by
    the binomial theorem.  Loss keeps the ket-bra photon-number difference
    of the lossy mode, so each diagonal of that plane is mixed on its own,
    by one real matrix product over its live columns: the (other ket, other
    bra) pairs with a non-zero entry, since a zero column mixes to zero.
    The density's validation pass found those columns, so a diagonal with
    none is skipped and the others are gathered straight into one
    contiguous array.  The output is Hermitian, so only diagonals with ket
    index >= bra index (and, where they are equal, other ket <= other bra)
    are mixed; their conjugates fill the mirrored entries, and the
    density's diagonal is set real, so the output is exactly Hermitian.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {t}")
    d = rho.cutoff + 1
    src, out = rho.matrix.reshape(-1), np.zeros(d**4, dtype=np.complex128)
    for e, (mixer, live) in enumerate(zip(_kraus_mixers(d, t), rho._live[mode - 1])):
        ket, bra = np.nonzero(live)  # other-mode indices of the live columns
        if ket.size == 0:
            continue
        cols = _plane_columns(d, mode, e, ket, bra)
        mixed = (mixer @ src[cols].view(np.float64)).view(np.complex128)
        if e == 0:
            mixed.imag[:, ket == bra] = 0.0
        out[_plane_columns(d, mode, -e, bra, ket)] = mixed.conj()
        out[cols] = mixed
    return FockDensity._adopt(out.reshape(d * d, d * d), rho.tail_bound)


# -- parity ------------------------------------------------------------------


def parity_expectation_fock(ket: FockKet) -> float:
    """Parity of mode 2 as a signed population sum: sum of (-1)^n2 * |a[n1, n2]|^2."""
    pops = ket.populations()
    signs = 1.0 - 2.0 * (np.arange(pops.shape[0]) % 2)
    return float(np.sum(pops * signs[None, :]))


def rotated_parity(cutoff: int, theta) -> NDArray[np.float64]:
    """Heisenberg-picture parity of mode 2: the diagonal of U^dag P U.

    U and P are block-diagonal in total photon number and P H P = -H, so
    U(theta)^dag P U(theta) = P U(2*theta), whose entry at |k, s-k> is
    (-1)^(s-k) * sum_j V[k, j]^2 * cos(2*theta*(2j - s)), read from one table
    of powers of e^{2i theta}.  Returns a real array of shape theta.shape +
    ((cutoff+1)**2,) indexed n1*(cutoff+1) + n2; a batch row equals the
    scalar call at its angle.  For a state with no coherence inside a shell,
    populations @ rotated_parity is the parity after the interferometer.
    """
    theta = np.asarray(theta, dtype=np.float64)
    d, top = cutoff + 1, 2 * cutoff
    # cos(2*theta*(2j - s)) at [..., s, j] for j <= s, one row per shell.
    rows, cols = np.ogrid[: top + 1, : top + 1]
    cosines = _phase_table(np.exp(2j * theta), top).real[..., np.clip(top + 2 * cols - rows, 0, 2 * top)]
    out = np.empty(theta.shape + (d * d,))
    for s in range(top + 1):
        ks = np.arange(max(0, s - cutoff), min(s, cutoff) + 1)
        # C order keeps each angle's sums the same as in a scalar call.
        terms = np.multiply(_shell_vectors(s)[ks] ** 2, cosines[..., None, s, : s + 1], order="C")
        out[..., ks * d + s - ks] = terms.sum(axis=-1)
    out *= 1.0 - 2.0 * (np.arange(d * d) % d % 2)  # (-1)^n2
    return out


# -- oracle evaluation -------------------------------------------------------


def oracle_parity_table(n: float, thetas, cases, cutoff: int | None = None) -> dict[tuple[int, int], float]:
    """Batch oracle parities: {(case_index, theta_index): value}.

    cases is a sequence of None (lossless) or (t1, t2) pairs.  Densities
    are built once per case and the rotated parity once per table, which
    keeps the large-cutoff runs fast.  Each case builds its input density
    afresh rather than sharing one, so at most two dense matrices exist at
    a time.  A lossy case whose dense density would exceed MAX_DENSE_BYTES
    raises ValueError before anything is built.
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
        # Only populations reach tr(rho M); see the module docstring.
        pops = np.empty((len(lossy), ket.amplitudes.size))
        for row, i in zip(pops, lossy):
            t1, t2 = cases[i]
            row[:] = loss_channel(loss_channel(FockDensity.from_ket(ket), 1, t1), 2, t2).matrix.diagonal().real
        values = pops @ rotated_parity(ket.cutoff, thetas).T
        for i, row in zip(lossy, values):
            for j, value in enumerate(row):
                results[i, j] = float(value)
    return results
