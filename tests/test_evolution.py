"""Block evolution against a dense two-mode oracle, plus the PDC chains."""

import ast
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import eig_banded

from nlmzi import evolution as ev
from nlmzi import fock
from nlmzi import operators as ops
from nlmzi.errors import ConfigurationError, DomainError
from nlmzi.operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                             NonDegeneratePDC)
from oracles import (dense_generator, eig_block_amplitudes, hermitian_eig,
                     mzi_unitary, pdc_tensor_marginals, tensor_mzi_state)

HYBRID = Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))
# chain cases the single-order processes do not reach: a stride-2 band of
# width 2 (not bipartite) and of a gcd-1 mix of orders, three terms, an
# odd-stride bipartite chain, and a diagonal-only Hybrid
HYBRID_CHAINS = [
    Hybrid(terms=((1.0, Exchange(k=2)), (0.3, Exchange(k=4, allow_high_order=True)))),
    Hybrid(terms=((1.0, Exchange(k=2)), (0.3, Exchange(k=3)))),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (1.0, Exchange(k=2)),
                  (0.3, Exchange(k=4, allow_high_order=True)))),
    Hybrid(terms=((0.5, Exchange(k=3)),)),
    Hybrid(terms=((1.0, CrossPhase()),)),
]

@pytest.mark.parametrize("process", [
    CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2), Exchange(k=3),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2)))),
] + HYBRID_CHAINS)
def test_block_engine_matches_dense_tensor(process):
    rng = np.random.default_rng(7)
    eng = ev.BlockEngine(process)
    nmax = 6
    for t in rng.uniform(0.1, 3.0, size=2):
        for N in range(nmax + 1):
            ref = tensor_mzi_state(process, t, N, nmax)
            got = eng.amplitudes(N, [t * process.strength])[:, 0]
            assert np.abs(got - ref).max() < 1e-10


def test_mzi_unitary_properties():
    for proc in (CrossPhase(s=1), Exchange(k=2)):
        for N in range(6):
            U = mzi_unitary(proc, 0.9, N)
            assert np.abs(U @ U.conj().T - np.eye(N + 1)).max() < 1e-12
    with pytest.raises(ConfigurationError):
        mzi_unitary(DegeneratePDC(), 1.0, 3)


def test_engine_consistent_with_unitary():
    proc = Exchange(k=2, g=0.75)
    eng = ev.BlockEngine(proc)
    for N in range(7):
        for t in (0.3, 1.7):
            U = mzi_unitary(proc, t, N)
            got = eng.amplitudes(N, [t * proc.strength])[:, 0]
            assert np.abs(got - U[:, 0]).max() < 1e-12


@pytest.mark.parametrize("N", [200, 694])
def test_engine_matches_eigensolver_splitter(N):
    # the J_x eigensystem path the Wigner-d ladder replaced; cross-phase
    # eigenvalues are exact integers, so only the splitters differ
    thetas = [0.3, 2.0, np.pi, 5.9]
    proc = CrossPhase(s=1)
    got = ev.BlockEngine(proc).amplitudes(N, thetas)
    assert np.abs(got - eig_block_amplitudes(proc, N, thetas)).max() < 1e-13


@pytest.mark.parametrize("process", [
    Exchange(k=2), Exchange(k=3), Exchange(k=4, allow_high_order=True), HYBRID,
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=3)))),
    Exchange(k=1),
] + HYBRID_CHAINS)
def test_engine_matches_eigensolver_splitter_exchange(process):
    # the two generator eigensolvers differ by round-off relative to the
    # largest eigenvalue, which the phase theta * lambda carries along;
    # even N folds the self-mirror chains, odd N merges mirror pairs
    thetas = [0.3, 2.0, np.pi]
    eng = ev.BlockEngine(process)
    for N in (200, 201):
        ref = eig_block_amplitudes(process, N, thetas)
        got = eng.amplitudes(N, thetas)
        scale = max(thetas) * np.abs(np.linalg.eigvalsh(np.real(
            dense_generator(process, N)))).max()
        assert np.abs(got - ref).max() < 2e-15 * scale


@pytest.mark.parametrize("process", [Exchange(k=2),
                                     Exchange(k=4, allow_high_order=True),
                                     HYBRID])
def test_even_order_exchange_keeps_half_the_columns(process):
    # mirror pairs merge and self-mirror chains fold onto the input's sector;
    # the rows of the other parity than N are exact zeros and are not kept,
    # also on the diagonal blocks below the exchange order
    eng = ev.BlockEngine(process)
    for N in range(300):
        eng.amplitudes(N, [0.0])
        C, D, mu, rows = eng._blocks[N]
        assert C.dtype == D.dtype == float
        assert C.shape == D.shape == (N // 2 + 1, mu.size)
        assert rows == slice(N % 2, N + 1, 2)
        assert mu.size <= N // 2 + 1


@pytest.mark.parametrize("process", [CrossPhase(s=1), CrossPhase(s=2)])
def test_cross_phase_keeps_parity_rows_and_half_the_columns(process):
    # columns m and N-m merge, and only the rows j of N's parity are kept:
    # a real C is D of N//2 + 1 rows and columns; the others are exact zeros
    eng = ev.BlockEngine(process)
    for N in range(300):
        amps = eng.amplitudes(N, [0.0, 0.9, 4.1])
        C, D, mu, rows = eng._blocks[N]
        assert C is D and C.dtype == float
        assert C.shape == (N // 2 + 1, N // 2 + 1) == mu.shape * 2
        assert rows == slice(N % 2, N + 1, 2)
        assert np.all(amps[1 - N % 2::2] == 0.0)


def test_cross_phase_odd_photon_numbers_are_exact_zeros():
    # the parity filter: from |N, 0> only rows j of N's parity are reached,
    # so mode a's n_a = N - j is even on every retained block
    thetas = np.linspace(0.0, 2.0 * np.pi, 13)
    da, db, P = ev.sweep_distributions(CrossPhase(), 40.0, thetas, 1e-3)
    assert P.size == 280
    assert np.all(da[1::2] == 0.0)
    assert np.all(da[0::2].sum(axis=0) > 0.99)


def test_hybrid_terms_carry_their_strengths():
    # a term weighs its generator by coefficient times chi or g: one
    # exchange term of g = 5 sweeps as the bare order at 5 theta, up to the
    # eigensolver's rounding of the scaled band, and weights that multiply
    # exactly to the same products give the same bytes
    thetas = np.array([0.1, 0.7, 2.0])
    hyb = Hybrid(terms=((1.0, Exchange(k=2, g=5.0)),))
    got = ev.sweep_distributions(hyb, 1.0, thetas, 1e-8)
    ref = ev.sweep_distributions(Exchange(k=2), 1.0, 5.0 * thetas, 1e-8)
    assert np.abs(got[0] - ref[0]).max() < 1e-12
    assert np.abs(got[1] - ref[1]).max() < 1e-12
    same = ev.sweep_distributions(Exchange(k=2), 1.0, thetas, 1e-8)
    assert np.abs(got[0] - same[0]).max() > 1e-2
    scaled = Hybrid(terms=((0.7, CrossPhase(chi=2.0)),
                           (0.4, Exchange(k=2, g=0.5))))
    unit = Hybrid(terms=((1.4, CrossPhase()), (0.2, Exchange(k=2))))
    for a, b in zip(ev.sweep_distributions(scaled, 1.0, thetas, 1e-8),
                    ev.sweep_distributions(unit, 1.0, thetas, 1e-8)):
        assert np.array_equal(a, b)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            Hybrid(terms=((1.0, Exchange(k=2, g=bad)),))


@pytest.mark.parametrize("process", [CrossPhase(s=1), Exchange(k=2),
                                     Exchange(k=3), HYBRID] + HYBRID_CHAINS)
def test_probs_are_squared_amplitudes(process):
    eng = ev.BlockEngine(process)
    thetas = np.linspace(0.0, 2.0 * np.pi, 7)
    for N in range(41):
        p = eng.probs(N, thetas)
        amps = eng.amplitudes(N, thetas)
        rows = eng.rows(N)
        assert np.abs(p - np.abs(amps[rows]) ** 2).max() < 1e-14
        dropped = np.ones(N + 1, dtype=bool)
        dropped[rows] = False
        assert np.all(amps[dropped] == 0.0)


@pytest.mark.parametrize("process", [Exchange(k=2), Exchange(k=3),
                                     Exchange(k=4, allow_high_order=True)])
def test_exchange_pairs_are_built_exactly(process):
    # the negative half of each zero-diagonal chain's spectrum is built as
    # (-mu, S v): pairs keep mu >= 0, a zero mode is exactly 0.0, and the
    # engine still matches the eigensolver oracle over long_scan's range.
    # Both solvers round the phase theta * lambda, so the gap is bounded
    # relative to theta times the largest eigenvalue, as above
    eng = ev.BlockEngine(process)
    thetas = np.array([0.0, 0.7, 13.0, 57.3, 100.0])
    zero_modes = 0
    for N in range(61):
        got = eng.amplitudes(N, thetas)
        ref = eig_block_amplitudes(process, N, thetas)
        lmax = np.abs(np.linalg.eigvalsh(np.real(
            dense_generator(process, N)))).max()
        scale = np.maximum(thetas * max(lmax, 1.0), 1.0)
        assert np.all(np.abs(got - ref).max(axis=0) < 4e-15 * scale), N
        C, D, mu, rows = eng._blocks[N]
        assert np.all(mu[np.any(C != D, axis=0)] >= 0.0)
        near_zero = np.abs(mu) < 1e-8 * max(lmax, 1.0)
        assert np.all(mu[near_zero] == 0.0)
        zero_modes += np.count_nonzero(mu == 0.0) if N >= process.k else 0
        dropped = np.ones(N + 1, dtype=bool)
        dropped[rows] = False
        assert np.all(got[dropped] == 0.0)
        # below the order a block is diagonal and keeps N's parity too
        assert dropped.sum() == (N + 1) // 2 * (process.k % 2 == 0
                                                or N < process.k)
    assert zero_modes > 0


@pytest.mark.parametrize("process", [
    Exchange(k=1), Exchange(k=3),
    Hybrid(terms=((1.0, Exchange(k=2)), (0.3, Exchange(k=3)))),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=3)))),
])
def test_odd_stride_blocks_are_real(process):
    # an odd-stride column is real on the rows of N's parity and imaginary
    # on the others, which the block keeps divided by i: C and D are real,
    # and a pair's C is exactly zero off N's parity and its D on it
    eng = ev.BlockEngine(process)
    for N in range(60):
        rows = eng.rows(N)
        C, D, mu, _ = eng._blocks[N]
        assert C.dtype == D.dtype == np.float64
        if C is D or rows.step == 2:
            continue
        paired = np.any(C != D, axis=0)
        assert np.all(C[1 - N % 2::2, paired] == 0.0)
        assert np.all(D[N % 2::2, paired] == 0.0)


@pytest.fixture
def ladder_steps(monkeypatch):
    """Block labels N of every ladder step taken while the test runs."""
    steps = []
    step = ops._jx_factorization

    def counted(N, *args):
        steps.append(N)
        return step(N, *args)

    monkeypatch.setattr(ops, "_jx_factorization", counted)
    return steps


@pytest.mark.parametrize("process", [CrossPhase(s=1), Exchange(k=2),
                                     Exchange(k=3)])
def test_cold_out_of_order_builds_match_in_order(process, ladder_steps):
    thetas = [0.4, 2.2, 5.0]
    ref = ev.BlockEngine(process)
    for N in range(81):
        ref.amplitudes(N, thetas)
    ladder_steps.clear()
    eng = ev.BlockEngine(process)
    for N in (60, 10, 80, 70):
        assert np.array_equal(eng.amplitudes(N, thetas),
                              ref.amplitudes(N, thetas))
    # 80 walks up from the highest rung, r_60; 60, 10 and 70 from r_0
    assert len(ladder_steps) == 60 + 10 + 20 + 70


def test_in_order_builds_take_one_ladder_step_each(ladder_steps):
    n = fock.thermal_distribution(2.0, 1e-6).size
    for proc in (CrossPhase(s=1), Exchange(k=2), HYBRID):
        ev.block_engine.cache_clear()  # a kept engine takes no steps
        ladder_steps.clear()
        ev.sweep_distributions(proc, 2.0, [0.5, 1.0], 1e-6)
        assert ladder_steps == list(range(1, n))


@pytest.mark.parametrize("process", [
    CrossPhase(), Exchange(k=1), Exchange(k=2), Exchange(k=3),
    Hybrid(terms=((0.7, CrossPhase()), (0.4, Exchange(k=3)))),
])
def test_kept_engine_sweeps_give_a_fresh_engines_bits(process):
    # a block depends only on N: the kept engine, built up to block 50 and
    # then below it out of order, sweeps to a cold engine's bytes
    thetas = np.linspace(0.0, 2.0 * np.pi, 25)
    ev.block_engine.cache_clear()
    fresh = ev.sweep_distributions(process, 2.0, thetas)
    ev.block_engine.cache_clear()
    eng = ev.block_engine(process)
    for N in (50, 7, 31):
        eng.amplitudes(N, [0.3])
    warm = ev.sweep_distributions(process, 2.0, thetas)
    assert ev.block_engine(process) is eng
    for a, b in zip(fresh, warm):
        assert np.array_equal(a, b)


def test_hybrid_from_lists_is_the_tuple_hybrid():
    listed = Hybrid(terms=[[0.7, CrossPhase()], [0.4, Exchange(k=3)]])
    tupled = Hybrid(terms=((0.7, CrossPhase()), (0.4, Exchange(k=3))))
    assert listed == tupled and hash(listed) == hash(tupled)
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    ev.block_engine.cache_clear()
    ref = ev.sweep_distributions(tupled, 1.0, thetas)
    ev.block_engine.cache_clear()
    for a, b in zip(ev.sweep_distributions(listed, 1.0, thetas), ref):
        assert np.array_equal(a, b)


def test_hermitian_eig_guards():
    with pytest.raises(DomainError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        hermitian_eig(np.zeros((2, 3)))


def test_mzi_output_frozen_heads():
    # pinned pipeline outputs at theta = pi, nbar = 1 (regression anchors)
    da, db = ev.mzi_output(CrossPhase(s=1), np.pi, 1.0)
    assert np.abs(da[:6] - [5 / 6, 0.0, 1 / 8, 0.0, 1 / 32, 0.0]).max() < 5e-12
    assert np.abs(db[:6] - [2 / 3, 1 / 4, 0.0, 1 / 16, 0.0, 1 / 64]).max() < 5e-12
    da2, _ = ev.mzi_output(Exchange(k=2), np.pi, 1.0)
    ref2 = [9.492554745520e-01, 0.0, 1.779651789388e-02,
            0.0, 3.115997373159e-02, 0.0]
    assert np.abs(da2[:6] - ref2).max() < 1e-11
    da3, _ = ev.mzi_output(Exchange(k=3), np.pi, 1.0)
    ref3 = [9.819015766054e-01, 1.991252267806e-03, 3.006872608320e-03,
            6.720542191909e-04, 1.105804513041e-02, 2.141193625517e-04]
    assert np.abs(da3[:6] - ref3).max() < 1e-11


def test_mzi_output_is_a_one_point_sweep():
    for proc in (CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2, g=0.75),
                 Exchange(k=3),
                 Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))):
        for t in (0.0, 0.7, np.pi, 4.1):
            da, db = ev.mzi_output(proc, t, 1.3)
            sa, sb, _ = ev.sweep_distributions(proc, 1.3, [t * proc.strength],
                                               1e-12)
            assert np.array_equal(da, sa[:, 0])
            assert np.array_equal(db, sb[:, 0])
        for bad in ([0.1, np.nan], [np.inf], [0.0, -np.inf, 1.0]):
            with pytest.raises(DomainError):
                ev.sweep_distributions(proc, 1.3, bad, 1e-12)
        with pytest.raises(DomainError):
            ev.mzi_output(proc, np.nan, 1.3)


def test_mzi_output_marginals_match_dense_mixture():
    # thermal mixture of dense-oracle block states, reduced through the
    # joint (n_a, n_b) table rather than the block engine's index order
    nbar, tol, t = 0.3, 1e-4, 1.1
    P = fock.thermal_distribution(nbar, tol)
    nmax = P.size - 1
    assert nmax <= 6
    for proc in (CrossPhase(s=1), Exchange(k=2), Exchange(k=3),
                 Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))):
        joint = np.zeros((nmax + 1, nmax + 1))
        for N in range(nmax + 1):
            amps = tensor_mzi_state(proc, t, N, nmax)
            for j in range(N + 1):
                joint[N - j, j] += P[N] * abs(amps[j]) ** 2
        da, db = ev.mzi_output(proc, t, nbar, tail_tol=tol)
        assert np.abs(da - joint.sum(axis=1)).max() < 1e-12
        assert np.abs(db - joint.sum(axis=0)).max() < 1e-12


def test_energy_conservation():
    # the interferometer conserves total photon number, so the output means
    # add up to the retained input energy
    for proc in (CrossPhase(s=1), Exchange(k=2), Exchange(k=3)):
        for nbar in (0.3, 1.0, 2.0):
            da, db = ev.mzi_output(proc, 1.3, nbar, tail_tol=1e-12)
            kept = nbar - fock.thermal_tail_energy(
                nbar, fock.thermal_cutoff(nbar, 1e-12))
            assert abs(fock.mean_photon(da) + fock.mean_photon(db) - kept) < 1e-9


def test_sweep_matches_single_points():
    proc = Exchange(k=3)
    thetas = np.array([0.4, np.pi / 2, 2.8])
    da, db, P = ev.sweep_distributions(proc, 0.8, thetas)
    for i, th in enumerate(thetas):
        a1, b1 = ev.mzi_output(proc, th, 0.8)
        assert np.abs(da[:, i] - a1).max() < 1e-13
        assert np.abs(db[:, i] - b1).max() < 1e-13
    assert abs(P.sum() + fock.thermal_tail_mass(0.8, P.size - 1) - 1.0) < 1e-14


def test_identity_at_zero_angle():
    da, db = ev.mzi_output(CrossPhase(s=1), 0.0, 1.0)
    # theta = 0 collapses the interferometer to a swap-like linear network;
    # mode b carries the thermal input, mode a the vacuum
    P = fock.thermal_distribution(1.0, 1e-12)
    assert np.abs(db[: P.size] - P).max() < 1e-12
    assert da[0] > 1.0 - 1e-12


def test_phase_product_is_the_complex_exponential_product():
    rng = np.random.default_rng(7)
    lam, ts = rng.normal(size=6), np.array([0.0, 0.4, -1.7, 3.0])
    ref_phases = np.exp(-1j * np.outer(lam, ts))

    def draw(dtype):
        M = rng.normal(size=(5, 6))
        return M + 1j * rng.normal(size=(5, 6)) if dtype is complex else M

    for dtype in (float, complex):
        A = draw(dtype)
        got = ev.phase_product(A, A, lam, ts)
        assert got.shape == (2, 5, ts.size) and got.dtype == float
        assert np.abs(got[0] + 1j * got[1] - A @ ref_phases).max() < 1e-14
        assert np.array_equal(ev.interleaved(got).view(complex),
                              got[0] + 1j * got[1])
    # the pair form: columns a, b of eigenvalues lam, -lam
    a, b = draw(float), draw(float)
    got = ev.phase_product(a + b, a - b, lam, ts)
    ref = a @ ref_phases + b @ ref_phases.conj()
    assert got.shape == (2, 5, ts.size) and got.dtype == float
    assert np.abs(got[0] + 1j * got[1] - ref).max() < 1e-14
    assert np.array_equal(ev.interleaved(got).view(complex),
                          got[0] + 1j * got[1])


@pytest.mark.parametrize("ts, tabled", [
    (np.linspace(0.0, 100.0, 2000), True),
    (np.linspace(0.3, -5.7, 1001), True),
    (np.linspace(-2.5, 3.1, 37), True),
    (np.linspace(0.0, 3.1416, 50) / 0.9, True),
    (np.geomspace(0.01, 40.0, 300), False),
    (np.array([0.7]), False),
    (np.array([0.0, 1.3]), False),
], ids=["long", "descending", "ragged", "pdc", "non-uniform", "T1", "T2"])
def test_phases_match_long_double_reference(ts, tabled):
    # the tables of a uniform grid against cos/sin in extended precision of
    # the same float mu and ts, bounded relative to the phase's size as in
    # test_exchange_pairs_are_built_exactly; columns q B are the direct
    # evaluation bit for bit, a zero phase is exactly 1, and any other
    # grid is evaluated directly
    mu = np.concatenate([[0.0, -0.0, 1.0, -3.7, 988.2, -1.23e4],
                         np.random.default_rng(3).normal(scale=50.0, size=40)])
    Z = ev._phases(mu, ts)
    ph = np.outer(mu.astype(np.longdouble), ts.astype(np.longdouble))
    err = np.maximum(np.abs(Z.real - np.cos(ph)),
                     np.abs(Z.imag + np.sin(ph))).astype(float)
    bound = 4e-15 * np.maximum(1.0, np.abs(mu)[:, None] * np.abs(ts).max())
    assert Z.shape == (mu.size, ts.size) and np.all(err < bound)
    assert np.all(Z[:2] == 1.0)
    assert np.all(Z[:, ts == 0.0] == 1.0)
    direct = ev._cis(mu, ts)
    B = math.isqrt(ts.size)
    assert np.array_equal(Z[:, ::B], direct[:, ::B])
    assert np.array_equal(Z, direct) == (not tabled)


# ---------------------------------------------------------------------------
# the one chain solver
# ---------------------------------------------------------------------------

def _tridiagonal_chains(rng, L):
    """Bands (2, L) of a bipartite chain, of two with a diagonal, and of
    folds of a self-mirror chain of length 2L, whose central coupling
    lands on the diagonal; the last coupling entry lies outside each."""
    off = rng.uniform(0.5, 3.0, L)
    yield np.vstack([np.zeros(L), off])
    yield np.vstack([rng.integers(-4, 5, L).astype(float), off])
    yield np.vstack([rng.normal(size=L), off])
    half = rng.uniform(0.5, 3.0, L)
    mirror = np.vstack([np.zeros(2 * L),
                        np.concatenate([half, half[-2::-1], [0.0]])])
    for sigma in (1.0, -1.0):
        yield ev._fold(mirror, sigma)


def test_chain_eig_is_eig_banded_on_tridiagonal_chains():
    # eigh_tridiagonal and eig_banded give the same bits on a tridiagonal
    # chain; a bipartite chain keeps the mu >= 0 half, zero mode first
    rng = np.random.default_rng(11)
    for L in range(1, 201):
        for band in _tridiagonal_chains(rng, L):
            mu, V, paired = ev.chain_eig(band)
            ref_mu, ref_V = eig_banded(band, lower=True)
            assert paired == (not band[0].any())
            if paired:
                h = L // 2
                ref_mu, ref_V = ref_mu[h:], ref_V[:, h:]
                if L % 2:
                    assert mu[0] == 0.0 and not V[1::2, 0].any()
                    assert np.array_equal(V[::2, 0], ref_V[::2, 0])
                    mu, V = mu[1:], V[:, 1:]
                    ref_mu, ref_V = ref_mu[1:], ref_V[:, 1:]
            assert np.array_equal(mu, ref_mu), L
            assert np.array_equal(V, ref_V), L


SOLVERS = {"eig_banded", "eigh_tridiagonal", "eigh"}
SRC_TREES = {path.stem: ast.parse(path.read_text()) for path in
             sorted(pathlib.Path(ev.__file__).parent.glob("*.py"))}


def _callers(names):
    """(module, enclosing function or None, callee) of every call in src/
    to one of names."""
    found = set()

    def visit(node, module, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name in names:
                found.add((module, fn, name))
        for child in ast.iter_child_nodes(node):
            visit(child, module, fn)

    for module, tree in SRC_TREES.items():
        visit(tree, module, None)
    return found


def test_chain_eig_is_the_only_eigensolver_call_in_src():
    for module, tree in SRC_TREES.items():
        imports = [n for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.module
                   and n.module.startswith("scipy.linalg")]
        assert module == "evolution" or not imports, module
    assert _callers(SOLVERS) == {
        ("evolution", "chain_eig", "eigh_tridiagonal"),
        ("evolution", "chain_eig", "eig_banded")}


def test_block_engine_is_the_only_engine_maker_in_src():
    # the engine comes from the process alone, so no caller passes one
    assert _callers({"BlockEngine"}) == {
        ("evolution", "block_engine", "BlockEngine")}
    for module, tree in SRC_TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not fn.name.startswith("_"):
                a = fn.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                assert "engine" not in names, (module, fn.name)


# ---------------------------------------------------------------------------
# down-conversion pump-level chains
# ---------------------------------------------------------------------------

PDC_VARIANTS = [DegeneratePDC(g=0.9), NonDegeneratePDC(g=0.9)]
PDC_TIMES = np.array([0.0, 0.5, 1.3, 1.9, 4.2])


def test_generic_engine_matches_dense_tensor():
    # every mode's marginal, padded by the oracle's wider truncation
    for process in PDC_VARIANTS:
        eng = ev.GenericEngine(process)
        for n0 in (1, 2, 3):
            grid = eng.mode_distributions(n0, PDC_TIMES)
            for i, t in enumerate(PDC_TIMES):
                ref = pdc_tensor_marginals(process, n0, t)
                assert len(grid) == len(ref)
                for d, r in zip(grid, ref):
                    rows = d.shape[0]
                    assert np.abs(d[:, i] - r[:rows]).max() < 1e-11
                    assert r[rows:].max(initial=0.0) < 1e-11


def test_generic_engine_time_grid_matches_oracle_and_scalar_calls():
    for process in PDC_VARIANTS:
        eng = ev.GenericEngine(process)
        for n0 in (1, 2, 3):
            grid = eng.mode_distributions(n0, PDC_TIMES)
            rows = [n0 + 1, eng.step * n0 + 1, n0 + 1][: len(grid)]
            assert [d.shape for d in grid] == [(r, PDC_TIMES.size)
                                                for r in rows]
            for i, t in enumerate(PDC_TIMES):
                # a one-column product rounds differently from a wide one
                for d_scalar, d_grid in zip(eng.mode_distributions(n0, t),
                                            grid):
                    assert d_scalar.shape == d_grid[:, i].shape
                    assert np.abs(d_scalar - d_grid[:, i]).max() < 1e-14


def test_degenerate_pdc_high_pump_component_is_hermitian_to_scale():
    # pump n = 362 of a nbar = 20 thermal pump: its chain couplings reach
    # ~5e3 and must still give a unit-mass, paired signal
    eng = ev.GenericEngine(DegeneratePDC())
    assert len(eng._component(362)[0]) == 363
    sig = eng.mode_distributions(362, np.linspace(0.0, np.pi, 5))[1]
    assert np.abs(sig.sum(axis=0) - 1.0).max() < 1e-12
    assert not sig[1::2].any()


def test_pdc_identity_at_zero_time():
    for proc in (DegeneratePDC(), NonDegeneratePDC()):
        sig = ev.pdc_signal_sweep(proc, 1.0, [0.0], tail_tol=1e-10)
        assert sig[0, 0] > 1.0 - 1e-9
        assert sig[1:, 0].max() < 1e-20


def test_pdc_signal_sweep_axis_is_g_t():
    for variant in (DegeneratePDC, NonDegeneratePDC):
        ref = ev.pdc_signal_sweep(variant(g=1.0), 1.0, [0.6])
        got = ev.pdc_signal_sweep(variant(g=2.0), 1.0, [0.6])
        assert np.abs(got - ref).max() < 1e-13
    for g in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            ev.pdc_signal_sweep(DegeneratePDC(g=g), 1.0, [0.6])
    for variant in (DegeneratePDC, NonDegeneratePDC):
        for bad in ([np.nan, 1.0], [0.0, np.inf], [-np.inf]):
            with pytest.raises(DomainError):
                ev.pdc_signal_sweep(variant(), 1.0, bad)


def test_degenerate_pdc_signal_is_paired():
    # pair creation can only populate even signal levels
    sig = ev.pdc_signal_sweep(DegeneratePDC(), 1.0, [0.7, 1.3], tail_tol=1e-10)
    assert sig[1::2].max() < 1e-20


def test_nondegenerate_pdc_quarter_period():
    # signal and idler marginals stay identical by symmetry
    eng = ev.GenericEngine(NonDegeneratePDC())
    for n in range(4):
        dists = eng.mode_distributions(n, 0.9)
        assert np.abs(dists[1] - dists[2]).max() < 1e-12


@pytest.mark.parametrize("process", PDC_VARIANTS)
def test_pump_levels_are_built_as_exact_pairs(process):
    # a pump level is the pair record (C, D, mu): C on the even sites, D on
    # the odd ones, an even n's zero mode first with mu exactly 0.0
    eng = ev.GenericEngine(process)
    for n in range(40):
        C, D, mu = eng._component(n)
        assert C.shape == D.shape == (n + 1, n // 2 + 1)
        assert np.all(mu >= 0.0)
        assert (mu[0] == 0.0) == (n % 2 == 0)
        assert not C[1::2].any() and not D[::2].any()
        if n % 2 == 0:
            assert not D[:, 0].any()


def test_pdc_sweep_keeps_one_pump_level(monkeypatch):
    # each level is evolved once, so the engine keeps only the last one
    held = []
    reduce = ev.GenericEngine.mode_distributions

    def counted(self, n, t):
        out = reduce(self, n, t)
        held.append(len(self._components))
        return out

    monkeypatch.setattr(ev.GenericEngine, "mode_distributions", counted)
    ev.pdc_signal_sweep(DegeneratePDC(), 2.0, [0.3, 1.1], tail_tol=1e-8)
    assert len(held) > 10 and max(held) == 1
