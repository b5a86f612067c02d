"""Block operators: pseudospin algebra, generators, splitter identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nlmzi import operators as ops
from nlmzi.errors import ConfigurationError, DomainError
from oracles import expm_splitter, splitter_input_column, two_mode_monomial

TOL = 1e-12


def comm(A, B):
    return A @ B - B @ A


def test_stokes_algebra():
    for N in range(11):
        Jx, Jy, Jz = (ops.stokes(N, ax) for ax in "xyz")
        assert np.abs(comm(Jx, Jy) - 1j * Jz).max() < TOL
        assert np.abs(comm(Jy, Jz) - 1j * Jx).max() < TOL
        assert np.abs(comm(Jz, Jx) - 1j * Jy).max() < TOL
        J2 = Jx @ Jx + Jy @ Jy + Jz @ Jz
        cas = (N / 2) * (N / 2 + 1)
        assert np.abs(J2 - cas * np.eye(N + 1)).max() < TOL


def test_stokes_hermitian():
    for N in range(8):
        for ax in "xyz":
            J = ops.stokes(N, ax)
            assert np.abs(J - J.conj().T).max() < TOL


def test_cross_phase_generator_values():
    for N in range(7):
        g = ops.cross_phase_generator(N, 1)
        j = np.arange(N + 1)
        assert np.allclose(np.diag(g), (N - j) * j)
        assert np.abs(g - np.diag(np.diag(g))).max() == 0
        g3 = ops.cross_phase_generator(N, 3)
        assert np.allclose(np.diag(g3), ((N - j) * j) ** 3)


def test_number_product_vs_pseudospin():
    # n_a n_b = (N^2/4) I - Jz^2 on each block
    for N in range(1, 8):
        g = ops.cross_phase_generator(N, 1)
        Jz = ops.stokes(N, "z")
        ref = (N ** 2 / 4.0) * np.eye(N + 1) - Jz @ Jz
        assert np.abs(g - ref).max() < TOL


def test_exchange_generator_elements():
    # <j-k| g |j> = sqrt((N-j+k)!/(N-j)!) sqrt(j!/(j-k)!)
    for N in range(1, 9):
        for k in (1, 2, 3, 4):
            g = ops.exchange_generator(N, k)
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
        g = ops.exchange_generator(k - 1, k)
        assert np.abs(g).max() == 0


def test_exchange_pseudospin_form():
    # k=2 exchange generator equals 2(Jx^2 - Jy^2)
    for N in range(2, 9):
        g = ops.exchange_generator(N, 2)
        Jx, Jy = ops.stokes(N, "x"), ops.stokes(N, "y")
        assert np.abs(g - 2.0 * (Jx @ Jx - Jy @ Jy)).max() < TOL


def test_high_order_guard():
    with pytest.raises(ConfigurationError):
        ops.Exchange(k=5)
    g = ops.process_generator(ops.Exchange(k=5, allow_high_order=True), 8)
    assert np.abs(g - g.conj().T).max() < TOL


def test_process_spec_validation():
    with pytest.raises(DomainError):
        ops.CrossPhase(s=0)
    with pytest.raises(DomainError):
        ops.Hybrid(terms=())
    with pytest.raises(ConfigurationError):
        ops.process_generator(ops.DegeneratePDC(), 3)


def test_beam_splitter_basics():
    B1 = ops.beam_splitter_unitary(1)
    assert np.abs(B1 - np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2)).max() < TOL
    for N in range(7):
        B = ops.beam_splitter_unitary(N)
        assert np.abs(B @ B.conj().T - np.eye(N + 1)).max() < 1e-12
        # equals the exponential of the pseudospin rotation
        Jx = ops.stokes(N, "x")
        w, V = np.linalg.eigh(Jx)
        ref = (V * np.exp(-0.5j * np.pi * w)) @ V.conj().T
        assert np.abs(B - ref).max() < 1e-12


def test_wigner_ladder_matches_dense_exponential():
    # B_N = diag((-i)^j) d_N diag(i^m), with d_N walked up the ladder
    for N in range(41):
        d = ops.wigner_d(N)
        assert d.dtype == float
        B = ops.beam_splitter_unitary(N)
        assert np.abs(B - expm_splitter(N)).max() < 1e-13


def test_wigner_d_stays_orthogonal_at_large_blocks():
    d = ops.wigner_d(694)
    assert np.abs(d @ d.T - np.eye(695)).max() < 1e-12


def test_ladder_walk_resumes_from_any_rung():
    for n, N in ((10, 25), (9, 24), (0, 7)):
        r = ops.ladder_walk(n)
        assert np.array_equal(ops.ladder_walk(N, (n, r)), ops.ladder_walk(N))
    # odd rungs carry sqrt(2)
    assert np.abs(ops.ladder_walk(1) - [[1, -1], [1, 1]]).max() == 0
    d25 = ops.wigner_d(25)
    assert np.abs(ops.ladder_walk(25) - np.sqrt(2) * d25).max() < 1e-15
    with pytest.raises(DomainError):
        ops.ladder_walk(-1)


def test_splitter_input_column():
    for N in range(9):
        B = ops.beam_splitter_unitary(N)
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
        assert np.abs(ops.wigner_d(N)[:, 0] - exact).max() < 1e-15


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
        assert np.abs(x - ops.exchange_generator(N, 2)).max() < TOL


def conj_by_splitter(N, op):
    B = ops.beam_splitter_unitary(N)
    return B @ op @ B.conj().T


def test_splitter_conjugation_cross_coupling():
    # B (n_a n_b) B+ = (a+2 a2 + b+2 b2 + a+2 b2 + a2 b+2) / 4
    for N in range(1, 7):
        lhs = conj_by_splitter(N, ops.cross_phase_generator(N, 1))
        rhs = 0.25 * (two_mode_monomial(N, 2, 2, 0, 0)
                      + two_mode_monomial(N, 0, 0, 2, 2)
                      + two_mode_monomial(N, 2, 0, 0, 2)
                      + two_mode_monomial(N, 0, 2, 2, 0))
        assert np.abs(lhs - rhs).max() < TOL


def test_splitter_conjugation_two_photon_exchange():
    # B (a+2 b2 + a2 b+2) B+ =
    #   (-a+2 a2 - b+2 b2 + a+2 b2 + a2 b+2 + 4 n_a n_b) / 2
    for N in range(2, 7):
        lhs = conj_by_splitter(N, ops.exchange_generator(N, 2))
        rhs = 0.5 * (-two_mode_monomial(N, 2, 2, 0, 0)
                     - two_mode_monomial(N, 0, 0, 2, 2)
                     + two_mode_monomial(N, 2, 0, 0, 2)
                     + two_mode_monomial(N, 0, 2, 2, 0)
                     + 4.0 * ops.cross_phase_generator(N, 1))
        assert np.abs(lhs - rhs).max() < TOL


def test_splitter_conjugation_three_photon_exchange():
    # the k=3 generator is J+^3 + J-^3 up to ladder normalization; under the
    # splitter it rotates to (Jx + iJz)^3 + (Jx - iJz)^3
    for N in range(3, 7):
        Jx, Jy, Jz = (ops.stokes(N, ax) for ax in "xyz")
        Jp, Jm = Jx + 1j * Jy, Jx - 1j * Jy
        lhs = conj_by_splitter(
            N, Jp @ Jp @ Jp + Jm @ Jm @ Jm)
        A, Bm = Jx + 1j * Jz, Jx - 1j * Jz
        rhs = A @ A @ A + Bm @ Bm @ Bm
        assert np.abs(lhs - rhs).max() < 1e-11


def test_exchange_equals_ladder_cubes():
    # a+^3 b^3 + a^3 b+^3 equals J+^3 + J-^3 written in two-mode ladders
    for N in range(3, 7):
        g = ops.exchange_generator(N, 3)
        ref = (two_mode_monomial(N, 3, 0, 0, 3)
               + two_mode_monomial(N, 0, 3, 3, 0))
        assert np.abs(g - ref).max() < TOL
