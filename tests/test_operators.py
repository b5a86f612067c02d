"""Block operators: pseudospin algebra, generators, splitter identities."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from nlmzi import operators as ops
from nlmzi.errors import ConfigurationError, DomainError
from oracles import (beam_splitter_unitary, cross_phase_generator,
                     dense_generator, exchange_generator, expm_splitter,
                     risbo_step, splitter_input_column, stokes,
                     two_mode_monomial, wigner_d)

TOL = 1e-12


def comm(A, B):
    return A @ B - B @ A


def test_stokes_algebra():
    for N in range(11):
        Jx, Jy, Jz = (stokes(N, ax) for ax in "xyz")
        assert np.abs(comm(Jx, Jy) - 1j * Jz).max() < TOL
        assert np.abs(comm(Jy, Jz) - 1j * Jx).max() < TOL
        assert np.abs(comm(Jz, Jx) - 1j * Jy).max() < TOL
        J2 = Jx @ Jx + Jy @ Jy + Jz @ Jz
        cas = (N / 2) * (N / 2 + 1)
        assert np.abs(J2 - cas * np.eye(N + 1)).max() < TOL


def test_stokes_hermitian():
    for N in range(8):
        for ax in "xyz":
            J = stokes(N, ax)
            assert np.abs(J - J.conj().T).max() < TOL


def test_cross_phase_generator_values():
    for N in range(7):
        g = cross_phase_generator(N, 1)
        j = np.arange(N + 1)
        assert np.allclose(np.diag(g), (N - j) * j)
        assert np.abs(g - np.diag(np.diag(g))).max() == 0
        g3 = cross_phase_generator(N, 3)
        assert np.allclose(np.diag(g3), ((N - j) * j) ** 3)


def test_number_product_vs_pseudospin():
    # n_a n_b = (N^2/4) I - Jz^2 on each block
    for N in range(1, 8):
        g = cross_phase_generator(N, 1)
        Jz = stokes(N, "z")
        ref = (N ** 2 / 4.0) * np.eye(N + 1) - Jz @ Jz
        assert np.abs(g - ref).max() < TOL


def test_exchange_generator_elements():
    # <j-k| g |j> = sqrt((N-j+k)!/(N-j)!) sqrt(j!/(j-k)!)
    for N in range(1, 9):
        for k in (1, 2, 3, 4):
            g = exchange_generator(N, k)
            assert np.abs(g - g.conj().T).max() < TOL
            for j in range(N + 1):
                if j - k >= 0 and N - j + k <= N:
                    ref = math.sqrt(
                        math.factorial(N - j + k) / math.factorial(N - j)
                        * math.factorial(j) / math.factorial(j - k))
                    assert abs(g[j - k, j] - ref) < TOL * max(1.0, ref)
            # nothing outside the k-th diagonals
            mask = np.ones((N + 1, N + 1), dtype=bool)
            idx = np.arange(N + 1)
            mask[np.abs(idx[:, None] - idx[None, :]) == k] = False
            assert np.abs(g[mask]).max() == 0


def test_exchange_self_energy_free_below_k():
    for k in (2, 3, 4):
        g = exchange_generator(k - 1, k)
        assert np.abs(g).max() == 0


def test_exchange_pseudospin_form():
    # k=2 exchange generator equals 2(Jx^2 - Jy^2)
    for N in range(2, 9):
        g = exchange_generator(N, 2)
        Jx, Jy = stokes(N, "x"), stokes(N, "y")
        assert np.abs(g - 2.0 * (Jx @ Jx - Jy @ Jy)).max() < TOL


def test_high_order_guard():
    with pytest.raises(ConfigurationError):
        ops.Exchange(k=5)
    g = dense_generator(ops.Exchange(k=5, allow_high_order=True), 8)
    assert np.abs(g - g.conj().T).max() < TOL


def test_process_spec_validation():
    with pytest.raises(DomainError):
        ops.CrossPhase(s=0)
    with pytest.raises(DomainError):
        ops.Hybrid(terms=())
    # a Hybrid only holds block processes, checked when it is built
    with pytest.raises(DomainError):
        ops.Hybrid(terms=((1.0, ops.DegeneratePDC()),))
    nested = ops.Hybrid(terms=((1.0, ops.CrossPhase()),))
    with pytest.raises(DomainError):
        ops.Hybrid(terms=((0.5, ops.Exchange(k=2)), (0.5, nested)))
    # and its weights must be finite
    for bad in ((np.nan, ops.CrossPhase()), (np.inf, ops.Exchange(k=2))):
        with pytest.raises(DomainError):
            ops.Hybrid(terms=((1.0, ops.CrossPhase()), bad))
    with pytest.raises(ConfigurationError):
        ops.process_generator(ops.DegeneratePDC(), 3)
    # one exchange order keeps every chain tridiagonal: any number of
    # cross-phase terms and of exchange terms of one order, but not two
    # orders
    one = ops.Hybrid(terms=((0.7, ops.CrossPhase()), (0.2, ops.CrossPhase(s=2)),
                            (1.0, ops.Exchange(k=3)),
                            (0.4, ops.Exchange(k=3, g=2.0))))
    assert ops.process_generator(one, 9).shape == (4, 10)
    for mixed in (((1.0, ops.Exchange(k=2)), (0.3, ops.Exchange(k=3))),
                  ((0.7, ops.CrossPhase()), (1.0, ops.Exchange(k=2)),
                   (0.3, ops.Exchange(k=4, allow_high_order=True)))):
        with pytest.raises(ConfigurationError, match="one order"):
            ops.Hybrid(terms=mixed)
    # ((N-j) j)^1000 is finite up to block 3 and overflows from block 4 on,
    # which is refused without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        band = ops.process_generator(ops.CrossPhase(s=1000), 3)
        assert np.isfinite(band).all()
        with pytest.raises(DomainError, match="block 4"):
            ops.process_generator(ops.CrossPhase(s=1000), 4)


def test_beam_splitter_basics():
    B1 = beam_splitter_unitary(1)
    assert np.abs(B1 - np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)).max() < TOL
    for N in range(7):
        B = beam_splitter_unitary(N)
        assert np.abs(B @ B.conj().T - np.eye(N + 1)).max() < 1e-12
        # equals the exponential of the pseudospin rotation
        Jx = stokes(N, "x")
        w, V = np.linalg.eigh(Jx)
        ref = (V * np.exp(-0.5j * np.pi * w)) @ V.conj().T
        assert np.abs(B - ref).max() < 1e-12


def test_wigner_ladder_matches_dense_exponential():
    # B_N = diag((-i)^j) d_N diag(i^m), with d_N walked up the ladder
    for N in range(41):
        d = wigner_d(N)
        assert d.dtype == float
        B = beam_splitter_unitary(N)
        assert np.abs(B - expm_splitter(N)).max() < 1e-13


def test_wigner_d_stays_orthogonal_at_large_blocks():
    d = wigner_d(694)
    assert np.abs(d @ d.T - np.eye(695)).max() < 1e-12


def test_ladder_walk_resumes_from_any_rung():
    for n, N in ((10, 25), (9, 24), (0, 7)):
        q = ops.ladder_walk(n)
        assert np.array_equal(ops.ladder_walk(N, (n, q)), ops.ladder_walk(N))
    # the walk keeps the quarter r_N[:h, :h], h = N//2 + 1; odd rungs
    # carry sqrt(2)
    assert np.array_equal(ops.ladder_walk(1), [[1.0]])
    d25 = wigner_d(25)
    q25 = ops.ladder_walk(25)
    assert np.abs(q25 - np.sqrt(2) * d25[:13, :13]).max() < 1e-15
    with pytest.raises(DomainError):
        ops.ladder_walk(-1)


def test_quarter_ladder_is_the_full_rungs_quarter():
    # bit for bit, step by step, against the reference full-rung step; the
    # full rung keeps both pi/2 mirrors bit for bit, so rung_entries
    # rebuilds it exactly from the quarter
    rng = np.random.default_rng(5)
    q, r = np.ones((1, 1)), np.ones((1, 1))
    scratch = ops.BufferPool()
    for N in range(1, 401):
        q = ops._jx_factorization(N, q, scratch)
        r = risbo_step(N, r)
        h = N // 2 + 1
        assert np.array_equal(q, r[:h, :h]), N
        i = np.arange(N + 1)
        alt = 1.0 - 2.0 * (i % 2)
        # r[N-i, k] = (-1)^k r[i, k] and r[i, N-k] = (-1)^(N+i) r[i, k]
        assert np.array_equal(r[::-1], alt * r), N
        assert np.array_equal(r[:, ::-1], (-1) ** N * alt[:, None] * r), N
        if N % 40 in (0, 1):
            assert np.array_equal(ops.rung_entries(q, N, slice(None), i), r)
            rows, cols = rng.integers(0, N + 1, size=(2, 2 * N))
            assert np.array_equal(ops.rung_entries(q, N, rows, cols),
                                  r[np.ix_(rows, cols)])
            parity = slice(N % 2, N + 1, 2)
            assert np.array_equal(ops.rung_entries(q, N, parity, cols[::-1]),
                                  r[parity][:, cols[::-1]])


def _exact_couplings(N, k):
    """exchange_couplings(N, k) rounded once from the exact square roots."""
    out = []
    for j in range(k, N + 1):
        square = math.prod((N - j + i) * (j - k + i) for i in range(1, k + 1))
        out.append(float(Decimal(square).sqrt()))
    return np.array(out)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exchange_couplings_are_within_four_ulp(k):
    # products of roots of exact integers: no log-gamma cancellation, which
    # left hundreds of ulp at N = 141 (k = 2) and thousands at N = 700 (k = 4)
    with localcontext() as ctx:
        ctx.prec = 40
        for N in [*range(k, 160), *range(160, 700, 9), 700]:
            got = ops.exchange_couplings(N, k)
            ref = _exact_couplings(N, k)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref)), N


def test_splitter_input_column():
    for N in range(9):
        B = beam_splitter_unitary(N)
        col = splitter_input_column(N)
        assert np.abs(col - B[:, 0]).max() < 1e-12
        # binomial magnitudes
        j = np.arange(N + 1)
        mag = np.sqrt([math.comb(N, int(m)) / 2.0 ** N for m in j])
        assert np.allclose(np.abs(col), mag, atol=1e-13)
    # at large blocks the ladder's column keeps the binomial envelope to
    # round-off (gammaln's own error reaches 6e-14 at N = 694)
    for N in (200, 693):
        exact = [math.sqrt(Fraction(math.comb(N, j), 2 ** N))
                 for j in range(N + 1)]
        assert np.abs(wigner_d(N)[:, 0] - exact).max() < 1e-15


def test_two_mode_monomial():
    # n_a on block N in the j-basis is diag(N - j)
    for N in range(1, 6):
        na = two_mode_monomial(N, 1, 1, 0, 0)
        nb = two_mode_monomial(N, 0, 0, 1, 1)
        j = np.arange(N + 1)
        assert np.allclose(np.diag(na), N - j)
        assert np.allclose(np.diag(nb), j)
        # a+^2 b^2 + a^2 b+^2 equals the k=2 exchange generator
        x = two_mode_monomial(N, 2, 0, 0, 2) + two_mode_monomial(N, 0, 2, 2, 0)
        assert np.abs(x - exchange_generator(N, 2)).max() < TOL


def conj_by_splitter(N, op):
    B = beam_splitter_unitary(N)
    return B @ op @ B.conj().T


def test_splitter_conjugation_cross_coupling():
    # B (n_a n_b) B+ = (a+2 a2 + b+2 b2 + a+2 b2 + a2 b+2) / 4
    for N in range(1, 7):
        lhs = conj_by_splitter(N, cross_phase_generator(N, 1))
        rhs = 0.25 * (two_mode_monomial(N, 2, 2, 0, 0)
                      + two_mode_monomial(N, 0, 0, 2, 2)
                      + two_mode_monomial(N, 2, 0, 0, 2)
                      + two_mode_monomial(N, 0, 2, 2, 0))
        assert np.abs(lhs - rhs).max() < TOL


def test_splitter_conjugation_two_photon_exchange():
    # B (a+2 b2 + a2 b+2) B+ =
    #   (-a+2 a2 - b+2 b2 + a+2 b2 + a2 b+2 + 4 n_a n_b) / 2
    for N in range(2, 7):
        lhs = conj_by_splitter(N, exchange_generator(N, 2))
        rhs = 0.5 * (-two_mode_monomial(N, 2, 2, 0, 0)
                     - two_mode_monomial(N, 0, 0, 2, 2)
                     + two_mode_monomial(N, 2, 0, 0, 2)
                     + two_mode_monomial(N, 0, 2, 2, 0)
                     + 4.0 * cross_phase_generator(N, 1))
        assert np.abs(lhs - rhs).max() < TOL


def test_splitter_conjugation_three_photon_exchange():
    # the k=3 generator is J+^3 + J-^3 up to ladder normalization; under the
    # splitter it rotates to (Jx + iJz)^3 + (Jx - iJz)^3
    for N in range(3, 7):
        Jx, Jy, Jz = (stokes(N, ax) for ax in "xyz")
        Jp, Jm = Jx + 1j * Jy, Jx - 1j * Jy
        lhs = conj_by_splitter(
            N, Jp @ Jp @ Jp + Jm @ Jm @ Jm)
        A, Bm = Jx + 1j * Jz, Jx - 1j * Jz
        rhs = A @ A @ A + Bm @ Bm @ Bm
        assert np.abs(lhs - rhs).max() < 1e-11


def test_exchange_equals_ladder_cubes():
    # a+^3 b^3 + a^3 b+^3 equals J+^3 + J-^3 written in two-mode ladders
    for N in range(3, 7):
        g = exchange_generator(N, 3)
        ref = (two_mode_monomial(N, 3, 0, 0, 3)
               + two_mode_monomial(N, 0, 3, 3, 0))
        assert np.abs(g - ref).max() < TOL


def test_buffer_pool_views_share_one_buffer_that_doubles():
    # a take is a C-contiguous prefix of its key's one buffer; a take that
    # outgrows it gets one at least twice as large, so a loop of growing
    # takes reallocates O(log) times
    pool = ops.BufferPool()
    a = pool.take("x", (3, 4))
    b = pool.take("x", (2, 5))
    assert np.shares_memory(a, b) and a.shape == (3, 4) and b.shape == (2, 5)
    assert a.flags.c_contiguous and b.flags.c_contiguous
    assert not np.shares_memory(a, pool.take("y", (3, 4)))
    z = pool.take("z", (2, 3), complex)
    assert z.dtype == complex and z.flags.c_contiguous
    bases = []
    for n in range(1, 1001):
        v = pool.take("grow", (n, 3))
        assert v.shape == (n, 3) and v.flags.c_contiguous
        if not bases or bases[-1] is not v.base:
            bases.append(v.base)
    assert [x.size for x in bases] == [3 * 2 ** i for i in range(len(bases))]
    assert len(bases) == 11  # 3 * 2^10 >= 3000 > 3 * 2^9


def test_exchange_order_is_stored_as_an_int():
    # an integer-valued float passes the order check and is kept as its
    # int, so every sweep runs; equality and hash are a k=2's
    spec = ops.Exchange(k=2.0)
    assert type(spec.k) is int and spec.k == 2
    assert spec == ops.Exchange(k=2)
    assert hash(spec) == hash(ops.Exchange(k=2))
    band = ops.process_generator(spec, 6)
    assert np.array_equal(band, ops.process_generator(ops.Exchange(k=2), 6))
    for bad in (2.5, 0, -1.0):
        with pytest.raises(DomainError):
            ops.Exchange(k=bad)
