"""Number-basis oracle: kets, interferometer shells, loss, and parity."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from polrot import fock
from polrot.fock import (
    DEFAULT_TAIL,
    MAX_DENSE_BYTES,
    CutoffTooSmallError,
    FockDensity,
    FockKet,
    apply_interferometer,
    loss_channel,
    oracle_parity_table,
    parity_expectation_fock,
    required_cutoff,
    rotated_parity,
    tmsv_ket,
)


def _hermiticity_residual(matrix):
    return fock._nonzero_scan(matrix)[0]


def basis_ket(n1, n2, cutoff=4):
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[n1, n2] = 1.0
    return FockKet(amplitudes=amps, tail_bound=0.0)


# -- cutoff policy ------------------------------------------------------------


def test_required_cutoff_values():
    assert required_cutoff(0.5) == 14
    assert required_cutoff(1.0) == 20
    assert required_cutoff(2.0) == 33


def _count_up_cutoff(n, tail):
    # reference: count up from 1 until the geometric tail t**(c+1) drops
    # below the bound
    t = n / (n + 2.0)
    c = 1
    while t ** (c + 1) >= tail:
        c += 1
    return c


@pytest.mark.parametrize("tail", [1e-3, DEFAULT_TAIL, 1e-15, 0.5])
def test_required_cutoff_matches_counting_up(monkeypatch, tail):
    # the log start and its corrections must land on the count-up value
    # for tail bounds far from the default too (tail 0.5 gives the floor 1)
    monkeypatch.setattr(fock, "DEFAULT_TAIL", tail)
    for n in [0.0, 0.5, 1.0, 2.0, *np.logspace(-8, 2, 120)]:
        assert required_cutoff(float(n)) == _count_up_cutoff(float(n), tail), n
    # counting up takes ~n steps, so for larger n check where it would stop
    for n in np.logspace(2, 16.2, 400):
        t = n / (n + 2.0)
        c = required_cutoff(float(n))
        assert t ** (c + 1) < tail <= t**c, n


def test_required_cutoff_returns_where_t_rounds_to_one():
    # n / (n + 2) is 1.0 in floating point here, so no power of it falls
    # below the tail; the cutoff follows (n + 2) / 2 * log(1 / tail)
    n = 1e17
    assert n / (n + 2.0) == 1.0
    want = (n + 2.0) / 2.0 * math.log(1.0 / DEFAULT_TAIL)
    assert required_cutoff(n) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", [0.0, 1e-300, 2e-10])
def test_automatic_cutoff_is_at_least_one(n):
    # at cutoff 0 the whole state would sit on the truncation boundary
    assert required_cutoff(n) == 1
    k = tmsv_ket(n)
    assert k.cutoff == 1
    assert k.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert k.tail_bound < DEFAULT_TAIL


@pytest.mark.parametrize("n", [-1.0, math.nan, math.inf])
def test_required_cutoff_rejects_invalid_n(n):
    with pytest.raises(ValueError, match="mean photon number n"):
        required_cutoff(n)


def test_small_cutoff_raises_with_requirement():
    with pytest.raises(CutoffTooSmallError) as err:
        tmsv_ket(2.0, cutoff=2)
    assert err.value.cutoff == 2
    assert err.value.required == 33
    assert "33" in str(err.value)


# -- source ket ---------------------------------------------------------------


def test_tmsv_ket_vacuum():
    k = tmsv_ket(0.0, cutoff=3)
    assert k.amplitudes[0, 0] == pytest.approx(1.0)
    assert np.count_nonzero(k.amplitudes) == 1


def test_tmsv_ket_amplitudes():
    n = 1.0
    t = n / (n + 2.0)
    k = tmsv_ket(n)
    for m in range(5):
        want = math.sqrt((1.0 - t) * t**m)
        assert abs(k.amplitudes[m, m]) == pytest.approx(want, rel=1e-12)
    # perfectly photon-number correlated: off-diagonal entries vanish
    off = k.amplitudes.copy()
    np.fill_diagonal(off, 0.0)
    assert np.count_nonzero(off) == 0


def test_tmsv_ket_mean_photons():
    for n in (0.5, 1.0, 2.0):
        k = tmsv_ket(n)
        pops = np.abs(k.amplitudes) ** 2
        occ = np.arange(k.cutoff + 1)
        assert np.sum(pops * (occ[:, None] + occ[None, :])) == pytest.approx(n, abs=1e-6)
        assert np.linalg.norm(k.amplitudes) == pytest.approx(1.0, abs=1e-9)


def test_ket_validation_rejects_bad_norm():
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = 0.5
    with pytest.raises(ValueError):
        FockKet(amplitudes=amps, tail_bound=0.0)


def test_ket_validation_rejects_undeclared_edge_weight():
    # all weight on the truncation boundary but the tail bound claims none
    amps = np.zeros((3, 3), dtype=complex)
    amps[2, 2] = 1.0
    with pytest.raises(ValueError):
        FockKet(amplitudes=amps, tail_bound=0.0)


# -- interferometer -----------------------------------------------------------


def test_interferometer_identity_at_zero():
    k = tmsv_ket(1.0)
    out = apply_interferometer(k, 0.0)
    c = k.cutoff
    assert np.allclose(out.amplitudes[: c + 1, : c + 1], k.amplitudes, atol=1e-14)


def test_interferometer_single_photon():
    th = 0.3
    out = apply_interferometer(basis_ket(1, 0), th)
    assert out.amplitudes[1, 0] == pytest.approx(math.cos(th), abs=1e-14)
    assert out.amplitudes[0, 1] == pytest.approx(1j * math.sin(th), abs=1e-14)


def test_interferometer_two_photons():
    th = 0.3
    out = apply_interferometer(basis_ket(1, 1), th)
    amp = 1j * math.sin(2.0 * th) / math.sqrt(2.0)
    assert out.amplitudes[1, 1] == pytest.approx(math.cos(2.0 * th), abs=1e-13)
    assert out.amplitudes[2, 0] == pytest.approx(amp, abs=1e-13)
    assert out.amplitudes[0, 2] == pytest.approx(amp, abs=1e-13)


def test_interferometer_against_direct_exponential():
    # independent check inside one shell: exponentiate the tridiagonal
    # generator with an eigendecomposition and compare amplitude by amplitude
    s, th = 3, 0.7
    h = np.zeros((s + 1, s + 1))
    for k in range(s):
        h[k, k + 1] = h[k + 1, k] = math.sqrt((k + 1) * (s - k))
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * th * w)) @ v.T
    start = 1  # |s-1, 1>
    vec = np.zeros(s + 1)
    vec[start] = 1.0
    evolved = u @ vec
    out = apply_interferometer(basis_ket(s - 1, 1, cutoff=5), th)
    for k in range(s + 1):
        assert out.amplitudes[s - k, k] == pytest.approx(evolved[k], abs=1e-13)


def test_interferometer_preserves_norm_and_shells():
    k = tmsv_ket(1.0)
    out = apply_interferometer(k, 1.234)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(np.linalg.norm(k.amplitudes), abs=1e-12)
    pin = k.populations()
    pout = out.populations()
    shells_in = np.zeros(2 * k.cutoff + 1)
    for (i, j), p in np.ndenumerate(pin):
        shells_in[i + j] += p
    shells_out = np.zeros(2 * out.cutoff + 1)
    for (i, j), p in np.ndenumerate(pout):
        shells_out[i + j] += p
    assert np.allclose(shells_in, shells_out[: len(shells_in)], atol=1e-12)
    # no leakage into shells beyond the input support
    assert shells_out[len(shells_in) :].sum() == pytest.approx(0.0, abs=1e-12)


def test_interferometer_group_property():
    a, b = 0.4, 0.9
    k = basis_ket(2, 1, cutoff=4)
    once = apply_interferometer(k, a + b)
    twice = apply_interferometer(apply_interferometer(k, a), b)
    c = once.cutoff
    assert np.allclose(
        twice.amplitudes[: c + 1, : c + 1], once.amplitudes, atol=1e-12
    )


# -- loss channel -------------------------------------------------------------


def test_loss_identity_at_full_transmission():
    rho = FockDensity.from_ket(tmsv_ket(0.5))
    out = loss_channel(rho, 2, 1.0)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_loss_preserves_trace_and_positivity():
    rho = FockDensity.from_ket(tmsv_ket(0.5))
    for t in (0.0, 0.3, 0.7):
        out = loss_channel(rho, 1, t)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10


def test_complete_loss_empties_one_arm():
    n = 1.0
    rho = loss_channel(FockDensity.from_ket(tmsv_ket(n)), 2, 0.0)
    d = rho.cutoff + 1
    pops = np.real(np.diagonal(rho.matrix)).reshape(d, d)
    # mode 2 holds vacuum only, so its parity is 1
    parity = np.sum(pops * (1.0 - 2.0 * (np.arange(d) % 2))[None, :])
    assert parity == pytest.approx(1.0, abs=1e-9)
    # the surviving arm keeps its geometric photon distribution, mean n/2
    arm = pops.sum(axis=1)
    nbar = n / 2.0
    for m in range(6):
        want = (nbar / (nbar + 1.0)) ** m / (nbar + 1.0)
        assert arm[m] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("block", [16, 48, 1 << 16])
def test_density_hermiticity_residual_is_the_full_maximum(monkeypatch, block):
    # the check reads chunks of one, three or all 16 rows here; each skew
    # entry, above or below the diagonal, must give the residual the whole
    # matrix gives
    monkeypatch.setattr(fock, "_HERM_BLOCK", block)
    base = _random_density(4, np.random.default_rng(7))
    assert _hermiticity_residual(base) == np.max(np.abs(base - base.conj().T))
    for p, q in ((0, 15), (15, 0), (5, 9), (9, 5), (3, 3)):
        skew = base.copy()
        skew[p, q] += 2e-9 + 1e-9j
        want = float(np.max(np.abs(skew - skew.conj().T)))
        with pytest.raises(ValueError, match=re.escape(f"matrix not Hermitian, residual {want}")):
            FockDensity(skew)


@pytest.mark.parametrize("block", [1, 7, 48, 1 << 16])
def test_hermiticity_scan_equals_the_brute_force_maximum(monkeypatch, block):
    # on an exactly Hermitian base every non-zero entry equals the conjugate
    # of its mirror; a perturbed chunk must still give the full maximum,
    # wherever the perturbation sits (three rows per chunk at 48; chunks of
    # 1 and 7 entries do not align with the 16-entry rows)
    monkeypatch.setattr(fock, "_HERM_BLOCK", block)
    g = _random_density(4, np.random.default_rng(3))
    base = (g + g.conj().T) / 2
    assert _hermiticity_residual(base) == 0.0
    for m in (g, _sparse_density(4, 1, np.random.default_rng(21))):
        assert _hermiticity_residual(m) == np.max(np.abs(m - m.conj().T))
    # first and last row of the second chunk, the diagonal, the last chunk
    for p, q, dz in ((3, 10, 2e-9), (5, 1, 1e-9j), (7, 7, 3e-9j), (15, 4, -1e-9), (15, 15, 1e-9j)):
        skew = base.copy()
        skew[p, q] += dz
        want = np.max(np.abs(skew - skew.conj().T))
        assert want > 0.0
        assert _hermiticity_residual(skew) == want
    # a non-zero entry whose mirror is exactly zero, above and below the
    # diagonal, and ones that are non-zero only in their imaginary part
    for p, q, z in ((1, 14, 3e-9), (14, 1, -2e-9), (6, 11, 4e-9j), (11, 6, -1e-9j)):
        lone = base.copy()
        lone[p, q], lone[q, p] = z, 0.0
        want = np.max(np.abs(lone - lone.conj().T))
        assert want == abs(z)
        assert _hermiticity_residual(lone) == want
    # entries that differ from the conjugate only in the sign of a zero
    signed = base.copy()
    signed[2, 9], signed[9, 2] = complex(0.0, 0.0), complex(-0.0, 0.0)
    signed[4, 11] = signed[11, 4] = complex(0.25, 0.0)
    signed[6, 6] = complex(signed[6, 6].real, -0.0)
    assert _hermiticity_residual(signed) == 0.0
    FockDensity(signed)
    # a NaN counts as non-zero, so it is measured and rejected, also where
    # its mirror is zero
    for mirror in (complex(np.nan, 0.0), 0.0):
        bad = base.copy()
        bad[8, 13], bad[13, 8] = complex(np.nan, 0.0), mirror
        assert math.isnan(_hermiticity_residual(bad))
        with pytest.raises(ValueError, match="matrix not Hermitian, residual nan"):
            FockDensity(bad)


def _live_reference(matrix, mode):
    # the loss stage's former liveness rule: per plane diagonal e >= 0, a
    # column (other ket, other bra) is live when it holds a non-zero entry,
    # have.any(axis=0), and at e = 0 only the upper triangle is kept
    d = math.isqrt(matrix.shape[0])
    m4 = _lossy_first(matrix.reshape(d, d, d, d), mode)
    live = np.zeros((d, d, d), dtype=bool)
    for e in range(d):
        l = np.arange(d - e)
        have = m4[l + e, :, l, :]
        live[e] = have.any(axis=0) & (np.tri(d, dtype=bool).T if e == 0 else True)
    return live


@pytest.mark.parametrize("d", [2, 5, 9])
@pytest.mark.parametrize("block", [7, 1 << 16])
def test_validation_pass_finds_the_live_columns_of_both_modes(monkeypatch, d, block):
    monkeypatch.setattr(fock, "_HERM_BLOCK", block)
    rng = np.random.default_rng(30 + d)
    for built in (1, 2):
        rho = FockDensity(_sparse_density(d, built, rng))
        assert rho._live.shape == (2, d, d, d)
        assert not rho._live.flags.writeable
        for mode in (1, 2):
            want = _live_reference(rho.matrix, mode)
            assert np.array_equal(rho._live[mode - 1], want)
            if d > 2:
                assert want.any() and not want.all()
    assert np.array_equal(FockDensity(np.eye(1))._live, np.ones((2, 1, 1, 1), dtype=bool))
    # the TMSV and its lossy descendants, as the oracle builds them
    rho = FockDensity.from_ket(tmsv_ket(0.5))
    for out in (rho, loss_channel(rho, 1, 0.7), loss_channel(loss_channel(rho, 1, 0.7), 2, 0.4)):
        for mode in (1, 2):
            assert np.array_equal(out._live[mode - 1], _live_reference(out.matrix, mode))


def _kraus_sum(matrix, mode, t):
    # reference: the Kraus operators applied one photon count k at a time
    d = math.isqrt(matrix.shape[0])
    m4 = matrix.reshape(d, d, d, d)
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
    return out.reshape(d * d, d * d)


def _random_density(d, rng):
    # full-rank and dense: coherence at every photon-number offset of both
    # modes, unlike a TMSV, which fills only some offsets
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("d", [1, 2, 5, 9])
@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_loss_matches_kraus_sum_on_generic_densities(d, mode, t):
    rng = np.random.default_rng(100 * d + 10 * mode + int(100 * t))
    rho = FockDensity(_random_density(d, rng))
    got = loss_channel(rho, mode, t).matrix
    assert np.max(np.abs(got - _kraus_sum(rho.matrix, mode, t))) <= 1e-14
    # half the diagonals are filled as conjugate transposes of the others
    assert _hermiticity_residual(got) == 0.0


def _lossy_first(m4, mode):
    # axes (lossy ket, other ket, lossy bra, other bra); its own inverse
    return m4 if mode == 1 else m4.transpose(1, 0, 3, 2)


def _sparse_density(d, mode, rng):
    # a generic density kept on a random symmetric tenth of its entries,
    # the dropped ones set to -0.0; one plane-diagonal column is non-zero
    # only in its imaginary part
    m = _random_density(d, rng)
    keep = rng.random(m.shape) < 0.1
    keep |= keep.T
    np.fill_diagonal(keep, True)
    m[~keep] = complex(-0.0, -0.0)
    lossy = _lossy_first(m.reshape(d, d, d, d), mode)
    l = np.arange(d - 1)
    lossy[l + 1, 0, l, d - 1] = lossy[l, d - 1, l + 1, 0] = 0.0
    lossy[d - 1, 0, d - 2, d - 1], lossy[d - 2, d - 1, d - 1, 0] = 0.03j, -0.03j
    return m / np.trace(m).real


def _dead_entries(matrix, mode):
    # entries whose plane-diagonal column (same lossy ket-bra offset, same
    # other ket and bra) holds no non-zero input entry
    d = math.isqrt(matrix.shape[0])
    nz = _lossy_first(matrix.reshape(d, d, d, d), mode) != 0
    dead = np.ones_like(nz)
    for e in range(1 - d, d):
        l = np.arange(max(0, -e), d - max(0, e))
        dead[l + e, :, l, :] = ~nz[l + e, :, l, :].any(axis=0)
    return _lossy_first(dead, mode).reshape(d * d, d * d)


@pytest.mark.parametrize("d", [2, 5, 9])
@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_loss_matches_kraus_sum_on_sparse_densities(d, mode, t):
    rng = np.random.default_rng(100 * d + 10 * mode + int(100 * t))
    rho = FockDensity(_sparse_density(d, mode, rng))
    assert np.any(rho.matrix.imag != 0) and np.any(np.signbit(rho.matrix.real) & (rho.matrix == 0))
    got = loss_channel(rho, mode, t).matrix
    assert np.max(np.abs(got - _kraus_sum(rho.matrix, mode, t))) <= 1e-14
    dead = _dead_entries(rho.matrix, mode)
    assert dead.any() and not dead.all()
    assert np.all(got[dead] == 0.0)
    assert _hermiticity_residual(got) == 0.0


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("t", [0.37, 1.0])
def test_loss_matches_kraus_sum_at_the_benchmark_cutoff(mode, t):
    # the oracle's largest default cutoff: every plane diagonal of a d = 34
    # density is mixed, on the few live columns a TMSV leaves
    rho = FockDensity.from_ket(tmsv_ket(2.0))
    assert rho.cutoff == 33
    got = loss_channel(rho, mode, t).matrix
    assert np.max(np.abs(got - _kraus_sum(rho.matrix, mode, t))) <= 1e-14
    assert _hermiticity_residual(got) == 0.0


def test_density_constructor_copies_its_input():
    m = _random_density(3, np.random.default_rng(5))
    rho = FockDensity(m)
    want = rho.matrix.copy()
    m[0, 1] += 0.5
    assert m.flags.writeable
    assert np.array_equal(rho.matrix, want)


def test_density_from_ket_is_the_outer_product():
    rng = np.random.default_rng(9)
    amps = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * (rng.random((4, 4)) < 0.5)
    amps[0, 0] = 1.0
    amps[-1, :] = amps[:, -1] = 0.0
    for ket in (FockKet(amps / np.linalg.norm(amps)), tmsv_ket(1.0)):
        v = ket.amplitudes.reshape(-1)
        assert np.array_equal(FockDensity.from_ket(ket).matrix, np.outer(v, v.conj()))


def test_binomial_table_is_shared_and_read_only():
    table = fock._binomials(6)
    assert fock._binomials(6) is table
    assert not table.flags.writeable
    assert all(table[k, a] == math.comb(a, k) for k in range(6) for a in range(6))


def test_built_densities_are_read_only():
    rho = FockDensity.from_ket(tmsv_ket(0.5))
    for out in (rho, loss_channel(rho, 1, 0.6), loss_channel(rho, 2, 0.6)):
        assert not out.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out.matrix[0, 0] = 0.0


@pytest.mark.parametrize("bound", [1.5, -0.1, math.nan])
def test_density_rejects_a_tail_bound_outside_the_unit_interval(bound):
    # with bound 1.5 the trace check alone would admit a trace of -0.4
    msg = re.escape(f"tail_bound must be in [0, 1), got {bound}")
    for m in (np.array([[-0.4]]), np.eye(4) / 4):
        with pytest.raises(ValueError, match=msg):
            FockDensity(m, tail_bound=bound)
    with pytest.raises(ValueError, match=msg):
        FockKet(np.eye(2)[:1].T @ np.eye(2)[:1], tail_bound=bound)


def test_density_rejects_nan_off_the_diagonal():
    # a NaN residual compares False with any bound, so the test must not
    # read "residual > bound"
    m = _random_density(7, np.random.default_rng(11))
    m[3, 40] = np.nan
    with pytest.raises(ValueError, match="matrix not Hermitian, residual nan"):
        FockDensity(m)


def test_loss_parameter_validation():
    rho = FockDensity.from_ket(tmsv_ket(0.5))
    with pytest.raises(ValueError):
        loss_channel(rho, 2, 1.5)
    with pytest.raises(ValueError):
        loss_channel(rho, 3, 0.5)


# -- parity -------------------------------------------------------------------


def test_parity_basis_states():
    # the sign follows the photon number of mode 2 only
    assert parity_expectation_fock(basis_ket(0, 0)) == pytest.approx(1.0)
    assert parity_expectation_fock(basis_ket(1, 1)) == pytest.approx(-1.0)
    assert parity_expectation_fock(basis_ket(2, 1)) == pytest.approx(-1.0)
    assert parity_expectation_fock(basis_ket(1, 2)) == pytest.approx(1.0)


def test_parity_marginal_of_source():
    for n in (0.5, 1.0):
        k = tmsv_ket(n)
        assert parity_expectation_fock(k) == pytest.approx(
            1.0 / (n + 1.0), abs=1e-9
        )


def test_rotated_parity_matches_schroedinger_picture():
    # evolving the operator must agree with evolving the state
    n, th = 1.0, 0.55
    ket_path = oracle_parity_table(n, [th], [None])[0, 0]
    heisenberg = oracle_parity_table(n, [th], [(1.0, 1.0)])[(0, 0)]
    assert heisenberg == pytest.approx(ket_path, abs=1e-12)


def test_rotated_parity_at_zero_is_diagonal():
    # at theta = 0 the operator is parity itself: diagonal, with entries
    # alternating in the photon number of the measured mode
    m = _per_shell_parity(3, 0.0, 2)
    assert np.allclose(m, np.diag(np.diagonal(m)), atol=1e-14)
    diag = rotated_parity(3, 0.0)
    assert diag.dtype == np.float64 and diag.shape == (16,)
    dim = 4
    for n1 in range(dim):
        for n2 in range(dim):
            assert diag[n1 * dim + n2] == pytest.approx((-1.0) ** n2, abs=1e-14)


def _per_shell_parity(cutoff, theta, mode):
    # reference: each shell block restricted and placed with np.ix_
    d = cutoff + 1
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for s in range(2 * cutoff + 1):
        kk = np.arange(s + 1)
        off = np.sqrt((kk[:-1] + 1.0) * (s - kk[:-1]))
        energies, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        u = (vecs * np.exp(1j * theta * energies)) @ vecs.T
        occ = kk if mode == 1 else s - kk
        block = u.conj().T @ ((1.0 - 2.0 * (occ % 2))[:, None] * u)
        keep = kk[(kk >= max(0, s - cutoff)) & (kk <= min(s, cutoff))]
        flat = keep * d + (s - keep)
        m[np.ix_(flat, flat)] = block[np.ix_(keep, keep)]
    return m


@pytest.mark.parametrize("cutoff", range(7))
@pytest.mark.parametrize("mode", [1, 2])
def test_rotated_parity_matches_per_shell_construction(cutoff, mode):
    # rotated_parity measures mode 2.  The interferometer is symmetric under
    # swapping the modes, so the mode-1 diagonal is the mode-2 one with the
    # two occupations swapped.
    d = cutoff + 1
    for theta in (0.0, 0.31, np.pi / 4, 2.2):
        got = rotated_parity(cutoff, theta)
        if mode == 1:
            got = got.reshape(d, d).T.reshape(-1)
        want = np.diagonal(_per_shell_parity(cutoff, theta, mode))
        assert np.max(np.abs(want.imag)) <= 1e-14
        assert np.max(np.abs(got - want.real)) <= 1e-14


@pytest.mark.parametrize("cutoff", range(1, 7))
def test_lossy_parity_is_read_from_populations(cutoff):
    # loss keeps each mode's ket-bra photon-number difference, so densities
    # derived from the squeezed vacuum hold no coherence inside a shell and
    # tr(rho M) over the full operator needs only rho's diagonal
    for n in (0.5, 2.0):
        t = n / (n + 2.0)
        amps = np.diag(np.sqrt(t ** np.arange(cutoff + 1)))
        amps /= np.linalg.norm(amps)  # the squeezed vacuum, cut and renormalized
        ket = FockKet(amps, tail_bound=amps[-1, -1] ** 2)
        for t1, t2 in ((1.0, 1.0), (0.5, 0.8), (0.93, 0.27), (0.0, 0.6)):
            rho = loss_channel(loss_channel(FockDensity.from_ket(ket), 1, t1), 2, t2).matrix
            pops = np.diagonal(rho).real
            for theta in (0.0, 0.31, np.pi / 4, 2.2):
                full = np.trace(rho @ _per_shell_parity(cutoff, theta, 2))
                assert abs(full.imag) <= 1e-14
                assert abs(full.real - pops @ rotated_parity(cutoff, theta)) <= 1e-14


# -- angles far outside one period ---------------------------------------------


def _reduced(theta, period_factor):
    # the angle in (-pi, pi] / period_factor with the same e^{i*factor*theta};
    # libm reduces the large argument exactly
    return float(np.angle(np.exp(1j * period_factor * theta))) / period_factor


@pytest.mark.parametrize("theta", [1e10, -3e12, 1e16, 1e300])
def test_rotated_parity_at_large_angles(theta):
    # the operator depends on theta only through e^{2i theta}
    for cutoff in (6, 33):
        got = rotated_parity(cutoff, theta)
        want = rotated_parity(cutoff, _reduced(theta, 2.0))
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("theta", [1e10, -3e12, 1e16, 1e300])
def test_interferometer_at_large_angles(theta):
    # the shell spectrum is integer, so U depends on theta only through e^{i theta}
    ket = tmsv_ket(2.0)
    got = apply_interferometer(ket, theta).amplitudes
    want = apply_interferometer(ket, _reduced(theta, 1.0)).amplitudes
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("theta", [1e10, 1e300])
def test_oracle_matches_pipeline_at_large_angles(theta):
    from polrot.detection import pipeline_signal
    from polrot.elements import PipelineSpec

    n = 0.5
    cases = [None] + [(t1, t2) for t1 in (0.5, 0.8, 1.0) for t2 in (0.5, 0.8, 1.0)]
    table = oracle_parity_table(n, [theta], cases)
    for i, case in enumerate(cases):
        if case is None:
            spec = PipelineSpec.lossless(theta, n)
        else:
            spec = PipelineSpec.generation_loss(theta, n, *case)
        assert table[i, 0] == pytest.approx(pipeline_signal(spec), abs=1e-9)


# -- oracle vs covariance pipeline --------------------------------------------


def test_oracle_matches_gaussian_lossless():
    from polrot.detection import closed_form_signal
    from polrot.elements import PipelineSpec

    n = 1.0
    for th in (0.0, np.pi / 8, np.pi / 4, 0.9):
        want = closed_form_signal(PipelineSpec.lossless(theta=float(th), n=n))
        assert oracle_parity_table(n, [th], [None])[0, 0] == pytest.approx(want, abs=1e-6)
    assert oracle_parity_table(n, [np.pi / 8], [None])[0, 0] == pytest.approx(
        1.0 / math.sqrt(2.5), abs=1e-9
    )


def test_oracle_matches_gaussian_with_loss():
    from polrot.detection import closed_form_signal
    from polrot.elements import PipelineSpec

    n = 0.5
    thetas = [0.0, np.pi / 8, np.pi / 4, 1.1]
    cases = [None, (0.5, 0.8), (1.0, 0.5), (0.8, 0.8)]
    table = oracle_parity_table(n, thetas, cases)
    for i, case in enumerate(cases):
        t1, t2 = case if case is not None else (1.0, 1.0)
        for j, th in enumerate(thetas):
            spec = PipelineSpec.generation_loss(theta=th, n=n, t1=t1, t2=t2)
            assert table[i, j] == pytest.approx(
                closed_form_signal(spec), abs=1e-6
            ), f"case {case} theta {th}"


def test_oracle_memory_stays_within_two_dense_matrices():
    thetas = list(np.linspace(0.0, np.pi / 2, 9))
    oracle_parity_table(2.0, thetas, [(0.8, 0.5)])  # warm the shell caches
    tracemalloc.start()
    try:
        oracle_parity_table(2.0, thetas, [(0.8, 0.5)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (34 * 34) ** 2 * 16


@pytest.mark.parametrize("mode", [1, 2])
def test_loss_memory_on_a_fully_dense_input(mode):
    # every column is live and the validation pass sees every entry; the
    # output is one dense matrix, the rest must stay small
    dense = (34 * 34) ** 2 * 16
    rho = FockDensity(_random_density(34, np.random.default_rng(13)))
    loss_channel(rho, mode, 0.6)  # warm the binomial table
    tracemalloc.start()
    try:
        loss_channel(rho, mode, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * dense


def test_oracle_memory_with_several_lossy_cases_stays_within_two_dense_matrices():
    # no density outlives its case, so three cases peak as one does
    thetas = list(np.linspace(0.0, np.pi / 2, 9))
    cases = [(0.8, 0.5), None, (0.5, 0.9), (1.0, 0.3)]
    oracle_parity_table(2.0, thetas, cases)  # warm the shell caches
    tracemalloc.start()
    try:
        oracle_parity_table(2.0, thetas, cases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (34 * 34) ** 2 * 16


def test_oracle_rejects_a_cutoff_whose_density_would_not_fit(monkeypatch):
    def no_ket(*args, **kwargs):
        raise AssertionError("the ket was built before the size check")

    monkeypatch.setattr(fock, "tmsv_ket", no_ket)
    cutoff = 10**6
    want = f"cutoff {cutoff} needs {(cutoff + 1) ** 4 * 16} bytes per dense density matrix"
    with pytest.raises(ValueError, match=want):
        oracle_parity_table(1.0, [0.0], [(0.9, 0.9)], cutoff=cutoff)


def test_oracle_size_limit_boundary(monkeypatch):
    # the limit admits exactly the cutoffs whose matrix fits, and it also
    # applies to the cutoff chosen from the tail bound
    want = oracle_parity_table(0.5, [0.3], [(0.9, 0.8)])[0, 0]
    assert required_cutoff(0.5) == 14
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 15**4 * 16)
    assert oracle_parity_table(0.5, [0.3], [(0.9, 0.8)])[0, 0] == want
    with pytest.raises(ValueError, match=f"cutoff 15 needs {16**4 * 16} bytes"):
        oracle_parity_table(0.5, [0.3], [(0.9, 0.8)], cutoff=15)
    with pytest.raises(ValueError, match="cutoff 20 needs"):
        oracle_parity_table(1.0, [0.3], [(0.9, 0.8)])
    # the lossless path builds no density matrix, so no limit applies
    assert oracle_parity_table(1.0, [0.0], [None])[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_size_limit_admits_the_documented_large_probe():
    assert (required_cutoff(5.0) + 1) ** 4 * 16 <= MAX_DENSE_BYTES


def test_mode_matrix_correspondence():
    # the quadrature image of exp(i*theta*sigma_x) equals the
    # plate-rotator-plate composite
    from polrot.elements import qwp, rotator

    th = 0.47
    m = np.array(
        [
            [math.cos(th), 1j * math.sin(th)],
            [1j * math.sin(th), math.cos(th)],
        ]
    )
    s = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            s[2 * j, 2 * k] = m[j, k].real
            s[2 * j, 2 * k + 1] = -m[j, k].imag
            s[2 * j + 1, 2 * k] = m[j, k].imag
            s[2 * j + 1, 2 * k + 1] = m[j, k].real
    composite = (qwp() @ rotator(th) @ qwp()).matrix
    assert np.allclose(s, composite, atol=1e-12)


def test_default_tail_constant():
    assert DEFAULT_TAIL == 1e-10


@pytest.mark.parametrize("cutoff", [0, 3, 12])
def test_rotated_parity_batch_rows_equal_scalar_calls(cutoff):
    thetas = np.array([0.0, 0.31, np.pi / 4, 2.2, -1.0])
    batch = rotated_parity(cutoff, thetas)
    assert batch.shape == (thetas.size, rotated_parity(cutoff, 0.0).size)
    for row, theta in zip(batch, thetas):
        assert np.array_equal(row, rotated_parity(cutoff, theta))
