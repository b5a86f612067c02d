"""Block evolution against a dense two-mode oracle, plus the PDC chains."""

import ast
import ctypes
import ctypes.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eig_banded

from nlmzi import coherence
from nlmzi import evolution as ev
from nlmzi import fock
from nlmzi import operators as ops
from nlmzi import optomech as om
from nlmzi.errors import ConfigurationError, DomainError
from nlmzi.operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                             NonDegeneratePDC)
from oracles import (dense_generator, eig_block_amplitudes,
                     fresh_phase_product, fresh_twists, full_factor,
                     hermitian_eig, mode_b_distributions, mzi_unitary,
                     pdc_tensor_marginals, phased_amplitudes,
                     pump_level_marginals, sturm_eigenvalues,
                     tensor_mzi_state)

HYBRID = Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))
# chain cases the bare processes do not reach: two exchange terms of one
# order, a stride-4 chain with a diagonal (folds that are not bipartite),
# three terms on an odd stride (unpaired chains), an odd-stride bipartite
# chain, and a diagonal-only Hybrid
HYBRID_CHAINS = [
    Hybrid(terms=((1.0, Exchange(k=2)), (0.3, Exchange(k=2, g=2.0)))),
    Hybrid(terms=((0.3, CrossPhase(s=2)),
                  (1.0, Exchange(k=4, allow_high_order=True)))),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.2, CrossPhase(s=2)),
                  (1.0, Exchange(k=3)))),
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
            got = phased_amplitudes(eng, N, [t * process.strength])[:, 0]
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
            got = phased_amplitudes(eng, N, [t * proc.strength])[:, 0]
            assert np.abs(got - U[:, 0]).max() < 1e-12


@pytest.mark.parametrize("N", [200, 694])
def test_engine_matches_eigensolver_splitter(N):
    # the J_x eigensystem path the Wigner-d ladder replaced; cross-phase
    # eigenvalues are exact integers, so only the splitters differ
    thetas = [0.3, 2.0, np.pi, 5.9]
    proc = CrossPhase(s=1)
    got = phased_amplitudes(ev.BlockEngine(proc), N, thetas)
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
        got = phased_amplitudes(eng, N, thetas)
        scale = max(thetas) * np.abs(np.linalg.eigvalsh(np.real(
            dense_generator(process, N)))).max()
        assert np.abs(got - ref).max() < 2e-15 * scale


@pytest.mark.parametrize("process", [Exchange(k=2),
                                     Exchange(k=4, allow_high_order=True),
                                     HYBRID])
def test_even_order_exchange_keeps_half_the_columns(process):
    # mirror pairs merge and self-mirror chains fold onto the input's sector;
    # the rows of the other parity than N are exact zeros and are not kept,
    # also on the diagonal blocks below the exchange order; an even N keeps
    # only its rows j <= N/2, whose mirrors N-j the others are
    eng = ev.BlockEngine(process)
    for N in range(300):
        eng.amplitudes(N, ev.PhaseGrid([0.0]))
        C, D, mu, rows, sign = eng._blocks[N]
        h = N // 2 + 1
        assert C.dtype == D.dtype == float
        assert C.shape == D.shape == ((h + 1) // 2 if N % 2 == 0 else h,
                                      mu.size)
        assert rows == slice(N % 2, N + 1, 2)
        assert mu.size <= N // 2 + 1
        assert (sign is None) == (N % 2 == 1)


@pytest.mark.parametrize("process", [CrossPhase(s=1), CrossPhase(s=2)])
def test_cross_phase_keeps_parity_rows_and_half_the_columns(process):
    # columns m and N-m merge, and only the rows j of N's parity are kept:
    # a real C is D of N//2 + 1 columns; the others are exact zeros. An even
    # N keeps only its rows j <= N/2, ceil((N//2 + 1)/2) of them
    eng = ev.BlockEngine(process)
    for N in range(300):
        amps = phased_amplitudes(eng, N, [0.0, 0.9, 4.1])
        C, D, mu, rows, sign = eng._blocks[N]
        h = N // 2 + 1
        assert C is D and C.dtype == float
        assert C.shape == ((h + 1) // 2 if N % 2 == 0 else h, h)
        assert mu.shape == (h,)
        assert rows == slice(N % 2, N + 1, 2)
        assert np.all(amps[1 - N % 2::2] == 0.0)


@pytest.mark.parametrize("process", [CrossPhase(s=1), CrossPhase(s=2),
                                     Exchange(k=2),
                                     Exchange(k=4, allow_high_order=True),
                                     HYBRID], ids=str)
def test_half_records_rebuild_the_full_factor(process, monkeypatch):
    # an even block keeps its rows j <= N/2 and one mirror sign per column;
    # rebuilt, the factor is the one a build on all the rows of N's parity
    # makes, value for value (a zero-mode column of D may come back -0.0
    # where the full build has 0.0), and every product is bit for bit
    # the full factor's. For N = 0 mod 4 the middle row j = N/2 is its own
    # mirror: its entries on the columns of sign -1 are exact zeros
    eng = ev.BlockEngine(process)
    for N in range(200):
        eng.rows(N)
    monkeypatch.setattr(ev, "_kept_rows", lambda N, rows: rows)
    ref = ev.BlockEngine(process)
    grid = ev.PhaseGrid(np.linspace(0.0, 7.0, 37))
    for N in range(200):
        C, D, mu, rows = full_factor(eng, N)
        rC, rD, rmu, rrows, rsign = ref._factor(N)
        assert rsign is None and rows == rrows
        assert (C is D) == (rC is rD)
        assert np.array_equal(C, rC) and np.array_equal(D, rD), N
        assert np.array_equal(mu, rmu)
        assert np.array_equal(eng.amplitudes(N, grid).view(np.int64),
                              ref.amplitudes(N, grid).view(np.int64)), N
        hC, hD, _, _, sign = eng._blocks[N]
        if N % 2:
            assert sign is None
            continue
        assert np.array_equal(np.abs(sign), np.ones(mu.size))
        if N % 4 == 0:
            assert np.all(hC[-1, sign < 0] == 0.0)
            assert np.all(hD[-1, sign < 0] == 0.0)


@pytest.mark.parametrize("process, nbar, blocks, nbytes", [
    (CrossPhase(), 40.0, 280, 11_113_480),   # bright_scan's bench inputs
    (Exchange(k=2), 20.0, 142, 1_726_352),   # long_scan's
], ids=["cross-kerr", "exchange-2"])
def test_kept_engine_factor_bytes_are_exact(process, nbar, blocks, nbytes):
    # the kept engine's factors, C and D once each: a cross-phase block keeps
    # h = N//2 + 1 columns on t rows, t = ceil(h/2) for an even N > 0 and
    # t = h otherwise, 8 bytes an entry
    ev.block_engine.cache_clear()
    ev.sweep_distributions(process, nbar, [0.3], 1e-3)
    eng = ev.block_engine(process)
    assert len(eng._blocks) == blocks
    assert sum(C.nbytes + (D is not C) * D.nbytes
               for C, D, *_ in eng._blocks.values()) == nbytes
    if isinstance(process, CrossPhase):
        h = np.arange(blocks) // 2 + 1
        t = np.where((np.arange(blocks) % 2 == 0) & (h > 1), (h + 1) // 2, h)
        assert int((t * h * 8).sum()) == nbytes


def test_cross_phase_odd_photon_numbers_are_exact_zeros():
    # the parity filter: from |N, 0> only rows j of N's parity are reached,
    # so mode a's n_a = N - j is even on every retained block
    thetas = np.linspace(0.0, 2.0 * np.pi, 13)
    da = ev.sweep_distributions(CrossPhase(), 40.0, thetas, 1e-3)
    assert da.shape[0] == 280
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
    assert np.abs(got - ref).max() < 1e-12
    same = ev.sweep_distributions(Exchange(k=2), 1.0, thetas, 1e-8)
    assert np.abs(got - same).max() > 1e-2
    scaled = Hybrid(terms=((0.7, CrossPhase(chi=2.0)),
                           (0.4, Exchange(k=2, g=0.5))))
    unit = Hybrid(terms=((1.4, CrossPhase()), (0.2, Exchange(k=2))))
    assert np.array_equal(ev.sweep_distributions(scaled, 1.0, thetas, 1e-8),
                          ev.sweep_distributions(unit, 1.0, thetas, 1e-8))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            Hybrid(terms=((1.0, Exchange(k=2, g=bad)),))


@pytest.mark.parametrize("process", [CrossPhase(s=1), Exchange(k=2),
                                     Exchange(k=3), HYBRID] + HYBRID_CHAINS)
def test_probs_are_squared_amplitudes(process):
    eng = ev.BlockEngine(process)
    thetas = np.linspace(0.0, 2.0 * np.pi, 7)
    for N in range(41):
        p = eng.probs(N, ev.PhaseGrid(thetas))
        amps = phased_amplitudes(eng, N, thetas)
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
        got = phased_amplitudes(eng, N, thetas)
        ref = eig_block_amplitudes(process, N, thetas)
        lmax = np.abs(np.linalg.eigvalsh(np.real(
            dense_generator(process, N)))).max()
        scale = np.maximum(thetas * max(lmax, 1.0), 1.0)
        assert np.all(np.abs(got - ref).max(axis=0) < 4e-15 * scale), N
        C, D, mu, rows = full_factor(eng, N)
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
    Hybrid(terms=((1.0, Exchange(k=1)), (0.3, CrossPhase(s=2)))),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=3)))),
])
def test_odd_stride_blocks_are_real(process):
    # an odd-stride column is real on the rows of N's parity and imaginary
    # on the others, which the block keeps divided by i: C and D are real,
    # and a pair's C is exactly zero off N's parity and its D on it
    eng = ev.BlockEngine(process)
    for N in range(60):
        C, D, mu, rows = full_factor(eng, N)
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
        ref.amplitudes(N, ev.PhaseGrid(thetas))
    ladder_steps.clear()
    eng = ev.BlockEngine(process)
    for N in (60, 10, 80, 70):
        assert np.array_equal(phased_amplitudes(eng, N, thetas),
                              phased_amplitudes(ref, N, thetas))
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
        eng.amplitudes(N, ev.PhaseGrid([0.3]))
    warm = ev.sweep_distributions(process, 2.0, thetas)
    assert ev.block_engine(process) is eng
    assert np.array_equal(fresh, warm)


def test_hybrid_from_lists_is_the_tuple_hybrid():
    listed = Hybrid(terms=[[0.7, CrossPhase()], [0.4, Exchange(k=3)]])
    tupled = Hybrid(terms=((0.7, CrossPhase()), (0.4, Exchange(k=3))))
    assert listed == tupled and hash(listed) == hash(tupled)
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    ev.block_engine.cache_clear()
    ref = ev.sweep_distributions(tupled, 1.0, thetas)
    ev.block_engine.cache_clear()
    assert np.array_equal(ev.sweep_distributions(listed, 1.0, thetas), ref)


def test_integer_valued_float_order_sweeps_as_the_int():
    # Exchange(k=2.0) is stored as k=2, so a cold engine builds its blocks
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    ev.block_engine.cache_clear()
    ref = ev.sweep_distributions(Exchange(k=2), 1.0, thetas)
    ev.block_engine.cache_clear()
    got = ev.sweep_distributions(Exchange(k=2.0), 1.0, thetas)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("grid", [np.ones((2, 3)), np.ones((1, 4)),
                                  np.ones((3, 1)), [[0.0, 1.0]]],
                         ids=["2x3", "1x4", "3x1", "nested-list"])
def test_a_grid_on_more_than_one_axis_is_refused(grid):
    # one check, evolution.checked_grid, names the grid of each entry point
    with pytest.raises(DomainError, match="thetas must lie on one axis"):
        ev.sweep_distributions(CrossPhase(), 1.0, grid)
    with pytest.raises(DomainError, match="g t must lie on one axis"):
        ev.pdc_signal_sweep(DegeneratePDC(), 1.0, grid)
    with pytest.raises(DomainError, match="taus must lie on one axis"):
        om.phonon_trace_moments(1.0, 2.0, om.OscillatorConfig(
            G=0.1, Omega=1.0, init=om.CoherentInit(1.0)), grid)


def test_checked_grid_takes_a_scalar_or_one_axis():
    assert ev.checked_grid(0.5, "ts").tolist() == [0.5]
    assert ev.checked_grid([], "ts").shape == (0,)
    assert ev.checked_grid(range(3), "ts").tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(DomainError, match="^ts must be finite$"):
        ev.checked_grid([0.0, np.nan], "ts")


def test_hermitian_eig_guards():
    with pytest.raises(DomainError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        hermitian_eig(np.zeros((2, 3)))


def test_mzi_output_frozen_heads():
    # pinned pipeline outputs at theta = pi, nbar = 1 (regression anchors)
    da = ev.mzi_output(CrossPhase(s=1), np.pi, 1.0)
    db = mode_b_distributions(CrossPhase(s=1), 1.0, [np.pi])[:, 0]
    assert np.abs(da[:6] - [5 / 6, 0.0, 1 / 8, 0.0, 1 / 32, 0.0]).max() < 5e-12
    assert np.abs(db[:6] - [2 / 3, 1 / 4, 0.0, 1 / 16, 0.0, 1 / 64]).max() < 5e-12
    da2 = ev.mzi_output(Exchange(k=2), np.pi, 1.0)
    ref2 = [9.492554745520e-01, 0.0, 1.779651789388e-02,
            0.0, 3.115997373159e-02, 0.0]
    assert np.abs(da2[:6] - ref2).max() < 1e-11
    da3 = ev.mzi_output(Exchange(k=3), np.pi, 1.0)
    ref3 = [9.819015766054e-01, 1.991252267806e-03, 3.006872608320e-03,
            6.720542191909e-04, 1.105804513041e-02, 2.141193625517e-04]
    assert np.abs(da3[:6] - ref3).max() < 1e-11


def test_mzi_output_is_a_one_point_sweep():
    for proc in (CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2, g=0.75),
                 Exchange(k=3),
                 Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))):
        for t in (0.0, 0.7, np.pi, 4.1):
            da = ev.mzi_output(proc, t, 1.3)
            sa = ev.sweep_distributions(proc, 1.3, [t * proc.strength], 1e-12)
            assert np.array_equal(da, sa[:, 0])
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
        da = ev.mzi_output(proc, t, nbar, tail_tol=tol)
        db = mode_b_distributions(proc, nbar, [t * proc.strength], tol)[:, 0]
        assert np.abs(da - joint.sum(axis=1)).max() < 1e-12
        assert np.abs(db - joint.sum(axis=0)).max() < 1e-12


def test_energy_conservation():
    # the interferometer conserves total photon number, so the output means
    # add up to the retained input energy
    for proc in (CrossPhase(s=1), Exchange(k=2), Exchange(k=3)):
        for nbar in (0.3, 1.0, 2.0):
            da = ev.mzi_output(proc, 1.3, nbar, tail_tol=1e-12)
            db = mode_b_distributions(proc, nbar, [1.3], 1e-12)[:, 0]
            kept = nbar - fock.thermal_tail_energy(
                nbar, fock.thermal_cutoff(nbar, 1e-12))
            assert abs(fock.mean_photon(da) + fock.mean_photon(db) - kept) < 1e-9


def test_sweep_matches_single_points():
    proc = Exchange(k=3)
    thetas = np.array([0.4, np.pi / 2, 2.8])
    da = ev.sweep_distributions(proc, 0.8, thetas)
    db = mode_b_distributions(proc, 0.8, thetas)
    for i, th in enumerate(thetas):
        a1 = ev.mzi_output(proc, th, 0.8)
        b1 = mode_b_distributions(proc, 0.8, [th])[:, 0]
        assert np.abs(da[:, i] - a1).max() < 1e-13
        assert np.abs(db[:, i] - b1).max() < 1e-13
    P = fock.thermal_distribution(0.8)
    assert da.shape[0] == P.size
    assert abs(P.sum() + fock.thermal_tail_mass(0.8, P.size - 1) - 1.0) < 1e-14


@pytest.mark.parametrize("process", [
    CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2), Exchange(k=3),
    Exchange(k=4, allow_high_order=True), HYBRID,
    Hybrid(terms=((1.0, Exchange(k=2)), (0.3, CrossPhase(s=2)))),
], ids=str)
def test_sweep_columns_keep_the_input_mass(process):
    # every block is unitary, so each column of mode a carries the kept
    # input's mass to round-off that grows with the M blocks summed: the
    # conservation wc_sweep's mean_b rests on
    thetas = np.linspace(0.0, 100.0, 200)
    for nbar in (1.0, 20.0):
        da = ev.sweep_distributions(process, nbar, thetas, 1e-6)
        P = fock.thermal_distribution(nbar, 1e-6)
        err = np.abs(da.sum(axis=0) - P.sum()).max()
        assert err <= P.size * np.finfo(float).eps


def test_identity_at_zero_angle():
    da = ev.mzi_output(CrossPhase(s=1), 0.0, 1.0)
    db = mode_b_distributions(CrossPhase(s=1), 1.0, [0.0])[:, 0]
    # theta = 0 collapses the interferometer to a swap-like linear network;
    # mode b carries the thermal input, mode a the vacuum
    P = fock.thermal_distribution(1.0, 1e-12)
    assert np.abs(db[: P.size] - P).max() < 1e-12
    assert da[0] > 1.0 - 1e-12


def test_phase_product_is_the_complex_exponential_product():
    rng = np.random.default_rng(7)
    lam, ts = rng.normal(size=6), np.array([0.0, 0.4, -1.7, 3.0])
    ref_phases = np.exp(-1j * np.outer(lam, ts))
    grid = ev.PhaseGrid(ts)

    def draw(dtype):
        M = rng.normal(size=(5, 6))
        return M + 1j * rng.normal(size=(5, 6)) if dtype is complex else M

    for dtype in (float, complex):
        A = draw(dtype)
        got = ev.phase_product(A, A, lam, grid)
        assert got.shape == (2, 5, ts.size) and got.dtype == float
        assert np.abs(got[0] + 1j * got[1] - A @ ref_phases).max() < 1e-14
    # the pair form: columns a, b of eigenvalues lam, -lam
    a, b = draw(float), draw(float)
    got = ev.phase_product(a + b, a - b, lam, grid)
    ref = a @ ref_phases + b @ ref_phases.conj()
    assert got.shape == (2, 5, ts.size) and got.dtype == float
    assert np.abs(got[0] + 1j * got[1] - ref).max() < 1e-14


# grids of each of _phases' paths: uniform (tabled, with a zero off the
# table columns), too short for tables, and non-uniform with a zero
FRESH_GRIDS = {
    "uniform": np.linspace(-4.0, 4.0, 41),
    "short": np.linspace(0.1, 4.0, 13),
    "non-uniform": np.concatenate([[0.0], np.geomspace(0.01, 9.0, 29)]),
}
FRESH_PROCESSES = [CrossPhase(s=1), CrossPhase(s=2), Exchange(k=1),
                   Exchange(k=2), Exchange(k=3),
                   Exchange(k=4, allow_high_order=True),
                   Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=3))))]


@pytest.mark.parametrize("process", FRESH_PROCESSES, ids=str)
def test_sweep_writes_the_bits_of_fresh_allocation(process):
    # every block of one sweep reuses the grid's buffers and, for
    # CrossPhase(s=1), reads its phases from the grid's one table; block by
    # block with fresh arrays, as each product was allocated before, and a
    # fresh copy of the block's table rows, the sums must come out bit for
    # bit the same
    twisted = isinstance(process, CrossPhase) and process.s == 1
    for ts in FRESH_GRIDS.values():
        da = ev.sweep_distributions(process, 1.5, ts, tail_tol=1e-8)
        P = fock.thermal_distribution(1.5, 1e-8)
        eng = ev.block_engine(process)
        ref_a = np.zeros_like(da)
        for N in range(P.size):
            C, D, mu, rows = full_factor(eng, N)
            Q = fresh_phase_product(C, D, mu, ts,
                                    fresh_twists(N, ts) if twisted else None)
            Q = Q * Q
            pb = (Q[0] + Q[1]) * P[N]
            ref_a[N - rows.start::-rows.step] += pb
        assert np.array_equal(da, ref_a)


def test_phase_grid_products_share_the_grid_buffers():
    # a grid's products are views of its pool: each one overwrites the
    # last, and each block's prefix is C-contiguous
    grid = ev.PhaseGrid(FRESH_GRIDS["uniform"])
    eng = ev.BlockEngine(Exchange(k=2))
    first = eng.amplitudes(30, grid)
    second = eng.amplitudes(31, grid)
    assert np.shares_memory(first, second)
    assert first.flags.c_contiguous and second.flags.c_contiguous
    assert np.array_equal(second, eng.amplitudes(31, ev.PhaseGrid(grid.ts)))


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
    Z = ev._phases(mu, ev.PhaseGrid(ts))
    ph = np.outer(mu.astype(np.longdouble), ts.astype(np.longdouble))
    err = np.maximum(np.abs(Z.real - np.cos(ph)),
                     np.abs(Z.imag + np.sin(ph))).astype(float)
    bound = 4e-15 * np.maximum(1.0, np.abs(mu)[:, None] * np.abs(ts).max())
    assert Z.shape == (mu.size, ts.size) and np.all(err < bound)
    assert np.all(Z[:2] == 1.0)
    assert np.all(Z[:, ts == 0.0] == 1.0)
    direct = ev._cis(mu, -ts)
    B = math.isqrt(ts.size)
    assert np.array_equal(Z[:, ::B], direct[:, ::B])
    assert np.array_equal(Z, direct) == (not tabled)


@pytest.mark.parametrize("ts", [
    np.linspace(0.0, 2.0 * np.pi, 100),
    np.concatenate([[0.0], np.geomspace(0.01, 2.0 * np.pi, 99)]),
], ids=["uniform", "non-uniform"])
def test_cross_phase_blocks_read_one_shared_table(ts):
    # on block N, n_a n_b = N^2/4 - u^2/4 with u = N - 2m: a CrossPhase(s=1)
    # block's phases are rows of the grid's one table exp(i t u^2/4), and
    # its probabilities are those of its own phases exp(-i t m(N-m)) up to
    # the round-off of the largest phase argument, both parities alike
    eng = ev.BlockEngine(CrossPhase(s=1))
    grid = ev.PhaseGrid(ts, top=199)
    eps = np.finfo(float).eps
    for N in range(200):
        got = eng.probs(N, grid)
        C, D, mu, rows = full_factor(eng, N)
        assert C is D and np.array_equal(mu, [m * (N - m) for m in
                                              range(N // 2, -1, -1)])
        Q = ev.phase_product(C, D, mu, ev.PhaseGrid(ts))
        scale = max(1.0, np.abs(mu).max() * np.abs(ts).max())
        assert np.abs(got - (Q[0] ** 2 + Q[1] ** 2)).max() <= 4 * eps * scale
    assert grid.twists(199).base.shape == (200, ts.size)


def test_cross_phase_sweep_evaluates_its_phases_once(monkeypatch):
    # one table for every block of the sweep: one _cis call, where the
    # per-block phases of a uniform grid took two a block
    calls = []
    cis = ev._cis
    monkeypatch.setattr(ev, "_cis", lambda *a: calls.append(a) or cis(*a))
    da = ev.sweep_distributions(CrossPhase(s=1), 20.0,
                                np.linspace(0.0, 2.0 * np.pi, 100), 1e-3)
    assert len(calls) == 1 and calls[0][0].size == da.shape[0]
    ev.sweep_distributions(Exchange(k=2), 1.0, np.linspace(0.0, 1.0, 100))
    assert len(calls) > 2


def test_cross_kerr_coherence_matches_50_digit_reference():
    """g2 and g3 of `coherence --process cross-kerr --nbar 0.5` (tail_tol
    1e-12) at theta = linspace(0, 6.283, 8000)[-1], against a reference
    computed with mpmath at 50 digits: on each of the 26 kept blocks N the
    splitter is mp.expm(-i (pi/2) J_x) of the exact J_x, the phases are
    exp(-i theta m(N-m)) of the double theta (6.283 as the float holds it)
    taken exactly, and mode a's distribution adds |amplitude|^2 on
    n = N - j weighted by the kept double weights
    fock.thermal_distribution(0.5, 1e-12); g_m = <n!/(n-m)!> / <n>^m. Near
    theta = 2 pi mode a is almost empty, so g2 ~ 2.3e8 and g3 ~ 1.3e10
    rest on tiny probabilities. Per-block phases from the angle-addition
    tables were off by 6.7e-12 (g2) and 1.25e-9 (g3); one directly
    evaluated table exp(i theta u^2/4) gives 7.8e-13 and 6.1e-10.
    """
    da = ev.sweep_distributions(CrossPhase(s=1), 0.5,
                                np.linspace(0.0, 6.283, 8000), 1e-12)
    rep = coherence.coherence_report(da[:, -1])
    assert abs(rep.g2 / 232972969.6174394067 - 1.0) < 2e-12
    assert abs(rep.g3 / 12580538641.2033107 - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# column tiles
# ---------------------------------------------------------------------------

# T = 2500: B = 50, so tiles of 1000, 1000 and a shorter last one of 500
TILED = np.linspace(0.0, 40.0, 2500)
ONE_TILE = np.linspace(0.0, 40.0, ev.TILE)


def _agrees(got, ref, T):
    """got is ref bit for bit on a grid of one tile, and otherwise within
    4 ulp of each column's scale."""
    if T <= ev.TILE:
        return np.array_equal(got, ref)
    scale = np.abs(ref).max(axis=0)
    return np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("ts", [TILED, np.geomspace(0.01, 40.0, 2500),
                                ONE_TILE], ids=["uniform", "non-uniform",
                                                "one-tile"])
def test_tiles_are_the_grid_columns_bit_for_bit(ts):
    # every tile starts on a multiple of B and shares the grid's tables, so
    # its phases and its cross-phase table are the grid's columns exactly
    grid = ev.PhaseGrid(ts, top=30)
    tiles = list(grid.tiles())
    B = math.isqrt(ts.size)
    if ts.size > ev.TILE:
        assert [c.start for c, _ in tiles] == [0, 1000, 2000]
    else:
        assert [c for c, _ in tiles] == [slice(0, ts.size)]
    mu = np.array([0.0, 1.0, -3.7, 988.2, 17.5])
    whole, table = ev._phases(mu, grid).copy(), grid.twists(30).copy()
    for cols, tile in tiles:
        assert cols.start % B == 0 and tile.size == cols.stop - cols.start
        assert tile.pool is grid.pool
        assert np.array_equal(ev._phases(mu, tile), whole[:, cols])
        assert np.array_equal(tile.twists(30), table[:, cols])


@pytest.mark.parametrize("process", [Exchange(k=2), CrossPhase(s=1)],
                         ids=["exchange-k2", "cross-phase"])
@pytest.mark.parametrize("ts", [TILED, ONE_TILE], ids=["tiled", "one-tile"])
def test_tiled_sweep_is_the_whole_grid_reduction(process, ts):
    # mode a reduced from whole-grid products, as oracles.
    # mode_b_distributions reduces mode b
    da = ev.sweep_distributions(process, 2.0, ts, 1e-6)
    P = fock.thermal_distribution(2.0, 1e-6)
    eng, grid = ev.block_engine(process), ev.PhaseGrid(ts)
    ref = np.zeros_like(da)
    for N in range(P.size):
        rows = eng.rows(N)
        ref[N - rows.start::-rows.step] += eng.probs(N, grid) * P[N]
    assert _agrees(da, ref, ts.size)


@pytest.mark.parametrize("process", [DegeneratePDC(g=0.7),
                                     NonDegeneratePDC(g=1.0)],
                         ids=["degenerate", "non-degenerate"])
@pytest.mark.parametrize("ts", [TILED / 10.0, ONE_TILE / 10.0],
                         ids=["tiled", "one-tile"])
def test_tiled_pdc_sweep_is_the_whole_grid_sum(process, ts):
    sig = ev.pdc_signal_sweep(process, 1.0, ts, 1e-8)
    P = fock.thermal_distribution(1.0, 1e-8)
    eng, grid = ev.GenericEngine(process), ev.PhaseGrid(ts / process.g)
    ref = np.zeros_like(sig)
    for n in range(P.size):
        eng.mode_distributions(n, grid, ref, P[n])
    assert _agrees(sig, ref, ts.size)


@pytest.mark.parametrize("init", [om.CoherentInit(2.0),
                                  om.CoherentInit(1.0 + 1.5j),
                                  om.ThermalInit(0.3)],
                         ids=["coherent", "complex", "thermal"])
@pytest.mark.parametrize("ts", [TILED, ONE_TILE], ids=["tiled", "one-tile"])
def test_tiled_oracle_is_the_whole_grid_oracle(init, ts, monkeypatch):
    # the whole grid as one tile is the oracle without tiles
    cfg = om.OscillatorConfig(G=0.05, Omega=1.0, init=init)
    dist = [0.5, 0.3, 0.2]
    got = om.full_quantum_oracle(dist, cfg, 40, ts)
    monkeypatch.setattr(ev, "TILE", ts.size)
    ref = om.full_quantum_oracle(dist, cfg, 40, ts)
    for a, b in ((got.phonon, ref.phonon), (got.xvar, ref.xvar)):
        assert _agrees(a[None], b[None], ts.size)


def test_an_empty_grid_has_no_tiles_and_empty_results():
    # no column, no product: every loop returns its rows with no columns
    assert list(ev.PhaseGrid([]).tiles()) == []
    assert ev.sweep_distributions(Exchange(k=2), 1.0, [], 1e-6).shape == (20, 0)
    assert ev.pdc_signal_sweep(DegeneratePDC(g=0.7), 1.0, [], 1e-6).size == 0
    cfg = om.OscillatorConfig(G=0.05, Omega=1.0, init=om.CoherentInit(1.0))
    trace = om.full_quantum_oracle([0.5, 0.3, 0.2], cfg, 40, [])
    assert trace.phonon.shape == trace.xvar.shape == (0,)


@pytest.mark.parametrize("process", [Exchange(k=2), CrossPhase(s=1)],
                         ids=["exchange-k2", "cross-phase"])
def test_sweep_memory_does_not_grow_with_the_grid(process):
    # what a sweep holds past its result is one tile's phases, cross-phase
    # table, part copies and products, the same on 4 tiles as on 16;
    # whole-grid ones grow fourfold
    ev.sweep_distributions(process, 2.0, [0.5], 1e-8)  # builds the blocks
    held = []
    for T in (4 * ev.TILE, 16 * ev.TILE):  # B = 64 and 128: tiles of TILE
        thetas = np.linspace(0.0, 10.0, T)
        tracemalloc.start()
        try:
            da = ev.sweep_distributions(process, 2.0, thetas, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(peak - da.nbytes)
    assert held[1] < 1.25 * held[0]


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


def _wide_bands(rng, L):
    """Bands (3, L) and (4, L) of random chains, one of them bipartite
    (zero diagonal and second band): not tridiagonal."""
    yield rng.normal(size=(3, L))
    yield rng.normal(size=(4, L))
    yield rng.normal(size=(4, L)) * np.array([[0.0], [1.0], [0.0], [1.0]])


def _pair_floors(band, mu, X, Y):
    """(residual, orthonormality) of a paired tridiagonal chain_eig result:
    max|T V - V diag(mu)| in eps max|mu| for the unit eigenvectors
    V = (X, Y)/sqrt2 (the zero mode's V = X) interleaved on the chain, and
    max|A^T A - 1| in eps over X and Y's columns (the zero mode's Y,
    0.0, left out)."""
    L = band.shape[1]
    T = np.diag(band[1, : L - 1], 1)
    T += T.T
    V = np.empty((L, mu.size))
    V[::2], V[1::2] = X * np.sqrt(0.5), Y * np.sqrt(0.5)
    if L % 2:
        V[::2, 0] = X[:, 0]
    eps = np.finfo(float).eps
    scale = eps * max(np.abs(mu).max(), np.finfo(float).tiny)  # L = 1: 0.0
    res = np.abs(T @ V - V * mu).max() / scale
    orth = max(np.abs(A.T @ A - np.eye(A.shape[1])).max(initial=0.0) / eps
               for A in (X, Y[:, L % 2:]))
    return res, orth


def test_chain_eig_is_eig_banded_on_tridiagonal_chains():
    # dstevd gives eig_banded's bits on an unpaired tridiagonal chain.
    # A bipartite chain is a bidiagonal SVD (dbdsdc), whose vectors differ
    # from eig_banded's by up to 1.8e7 ulp of a column's scale where mu
    # cluster (at L = 196), so no vector-by-vector comparison holds; it
    # meets these floors instead, over all the chains here (the largest
    # value measured on them in brackets):
    # - residual max|T V - V diag(mu)| <= 32 eps max|mu| (30.9);
    # - orthonormality max|X^T X - 1|, max|Y^T Y - 1| <= 20 eps (18.0, 19.5);
    # - mu within 25 ulp of max|mu| of eig_banded's mu >= 0 half (21);
    # - an odd length's zero mode has mu and Y's column exactly 0.0.
    # A band of other than two rows is refused before any solve.
    rng = np.random.default_rng(11)
    for L in range(1, 201):
        chains = list(_tridiagonal_chains(rng, L))
        if L % 7 == 1 or L in (2, 3, 4):
            for band in [np.ones((1, L))] + list(_wide_bands(rng, L)):
                with pytest.raises(ConfigurationError, match="tridiagonal"):
                    ev.chain_eig(band)
        for band in chains:
            mu, X, Y = ev.chain_eig(band)
            ref_mu, ref_V = eig_banded(band, lower=True)
            paired = not band[0].any()
            assert (Y is not None) == paired, L
            if not paired:
                assert np.array_equal(mu, ref_mu), L
                assert np.array_equal(X, ref_V), L
                continue
            ref_mu = ref_mu[L // 2:]
            assert X.shape == ((L + 1) // 2, mu.size)
            assert Y.shape == (L // 2, mu.size)
            if L % 2:
                assert mu[0] == 0.0 and not Y[:, 0].any(), L
            res, orth = _pair_floors(band, mu, X, Y)
            assert res <= 32.0 and orth <= 20.0, (L, res, orth)
            assert np.abs(mu - ref_mu).max() <= \
                25.0 * np.spacing(np.abs(mu).max()), L


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [2, 4])
def test_chain_eig_rejects_a_non_finite_band(bad, rows):
    band = np.ones((rows, 6))
    band[1, 2] = bad
    with pytest.raises(DomainError):
        ev.chain_eig(band)


def test_chain_eig_reuses_a_pools_dbdsdc_workspace():
    # one grow-only workspace serves a loop of solves: a solve on the stale
    # workspace of a larger one gives the bits of a fresh workspace, and a
    # chain no larger than the last takes no new buffer
    pool = ops.BufferPool()
    rng = np.random.default_rng(3)
    for L, keeps in ((81, False), (20, True), (81, True), (101, False)):
        band = np.vstack([np.zeros(L), rng.uniform(0.5, 2.0, L)])
        held = dict(pool._bufs)
        got, ref = ev.chain_eig(band, pool), ev.chain_eig(band)
        for a, b in zip(got, ref):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), L
        kept = bool(held) and all(pool._bufs[k] is v
                                  for k, v in held.items())
        assert kept == keeps, L
        assert set(pool._bufs) == {"dbdsdc"}


@pytest.mark.parametrize("routine,rows", [("dstevd", 2), ("dbdsdc", 2)])
def test_chain_eig_raises_on_a_failed_solve(monkeypatch, routine, rows):
    def failed(*args):
        return 3

    band = np.ones((rows, 6))
    if routine == "dbdsdc":
        band[0] = 0.0  # bipartite
    monkeypatch.setitem(ev._LAPACKE, routine, failed)
    with pytest.raises(ConfigurationError, match="LAPACK"):
        ev.chain_eig(band)


MISSING_LAPACKE = [ctypes.util.find_library("m"), "/nonexistent/libx.so"]


@pytest.mark.parametrize("lib", MISSING_LAPACKE,
                         ids=["no-symbols", "no-library"])
def test_find_lapacke_names_every_missing_symbol(lib):
    # a library that exports none of the routines, or none at all: the
    # binding is the message naming both
    msg = ev._find_lapacke(lib)
    assert isinstance(msg, str) and lib in msg
    for routine in ("dstevd", "dbdsdc_work"):
        assert "scipy_LAPACKE_%s64_" % routine in msg


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the Linux process map")
def test_bound_routines_live_in_the_one_mapped_openblas():
    # in a process that imports no scipy (whose own OpenBLAS this one
    # maps), every bound routine lies in the one OpenBLAS file mapped,
    # the one that runs numpy's products
    script = (
        "import ctypes, json\n"
        "from nlmzi import evolution as ev\n"
        "spans = {}\n"
        "with open('/proc/self/maps') as fh:\n"
        "    for ln in fh:\n"
        "        f = ln.split(maxsplit=5)\n"
        "        if len(f) == 6 and 'openblas' in f[5].lower():\n"
        "            lo, hi = (int(x, 16) for x in f[0].split('-'))\n"
        "            spans.setdefault(f[5].strip(), []).append((lo, hi))\n"
        "fns = {r: ctypes.cast(fn, ctypes.c_void_p).value\n"
        "       for r, fn in ev._LAPACKE.items()}\n"
        "print(json.dumps([spans, fns]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(ev.__file__).parents[1]),
        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    spans, fns = json.loads(proc.stdout.splitlines()[-1])
    assert len(spans) == 1, sorted(spans)
    assert set(fns) == {"dstevd", "dbdsdc"}
    (ranges,) = spans.values()
    for routine, addr in fns.items():
        assert any(lo <= addr < hi for lo, hi in ranges), routine


def test_chain_eig_without_numpys_openblas_raises(monkeypatch):
    # a numpy that links no OpenBLAS exporting LAPACKE (one built on MKL
    # or Accelerate) gets a ConfigurationError that names what is
    # missing, both routines, on its first chain solve, one site included
    monkeypatch.setattr(ev, "_LAPACKE", ev._find_lapacke(MISSING_LAPACKE[0]))
    for band in (np.ones((2, 1)), np.ones((2, 6)),
                 np.vstack([np.zeros(6), np.ones(6)])):
        with pytest.raises(ConfigurationError) as err:
            ev.chain_eig(band)
        for routine in ("dstevd", "dbdsdc_work"):
            assert "scipy_LAPACKE_%s64_" % routine in str(err.value)


SOLVERS = {"_lapacke", "dstevd", "dbdsdc", "eig_banded",
           "eigh_tridiagonal", "eigh"}
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
    # the routines come from numpy's OpenBLAS through evolution._lapacke;
    # no module imports scipy
    for module, tree in SRC_TREES.items():
        imports = [a.name for n in ast.walk(tree)
                   if isinstance(n, ast.Import) for a in n.names]
        imports += [n.module for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in imports
                    if m.split(".")[0] == "scipy"], module
    assert _callers(SOLVERS) == {
        ("evolution", "chain_eig", "_lapacke"),
        ("evolution", "chain_eig", "eig_banded"),
        ("evolution", "eig_banded", "_lapacke")}


def test_each_loop_over_the_phase_kernel_builds_one_grid():
    # every product of a loop reuses its one grid's buffers, so only the
    # three loops make a PhaseGrid; every layer below them takes one
    assert _callers({"PhaseGrid"}) == {
        ("evolution", "sweep_distributions", "PhaseGrid"),
        ("evolution", "pdc_signal_sweep", "PhaseGrid"),
        ("optomech", "full_quantum_oracle", "PhaseGrid")}


def test_phase_product_has_one_caller_per_evolution():
    # the block engine, the pump chains and the oscillator oracle each
    # take the kernel's parts from one call site
    assert _callers({"phase_product"}) == {
        ("evolution", "amplitudes", "phase_product"),
        ("evolution", "evolve", "phase_product"),
        ("optomech", "full_quantum_oracle", "phase_product")}


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
            grid = pump_level_marginals(eng, n0, ev.PhaseGrid(PDC_TIMES))
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
        for n0 in (0, 1, 2, 3):
            grid = pump_level_marginals(eng, n0, ev.PhaseGrid(PDC_TIMES))
            rows = [n0 + 1, eng.step * n0 + 1, n0 + 1][: len(grid)]
            assert [d.shape for d in grid] == [(r, PDC_TIMES.size)
                                                for r in rows]
            # the engine adds the signal alone, with the same bits
            sig = np.zeros_like(grid[1])
            eng.mode_distributions(n0, ev.PhaseGrid(PDC_TIMES), sig, 1.0)
            assert np.array_equal(sig, grid[1])
            for i, t in enumerate(PDC_TIMES):
                # a one-column product rounds differently from a wide one
                point = pump_level_marginals(eng, n0, ev.PhaseGrid([t]))
                for d_point, d_grid in zip(point, grid):
                    assert d_point.shape == (d_grid.shape[0], 1)
                    assert np.abs(d_point[:, 0] - d_grid[:, i]).max() < 1e-14


def test_degenerate_pdc_high_pump_component_is_hermitian_to_scale():
    # pump n = 362 of a nbar = 20 thermal pump: its chain couplings reach
    # ~5e3 and must still give a unit-mass, paired signal
    eng = ev.GenericEngine(DegeneratePDC())
    assert len(eng._component(362)[0]) == 182  # the even sites
    grid = ev.PhaseGrid(np.linspace(0.0, np.pi, 5))
    sig = np.zeros((2 * 362 + 1, grid.size))
    eng.mode_distributions(362, grid, sig, 1.0)
    assert np.abs(sig.sum(axis=0) - 1.0).max() < 1e-12
    assert not sig[1::2].any()


def test_degenerate_pump_chain_keeps_its_smallest_mu_to_a_few_ulp():
    # the bidiagonal SVD keeps small singular values to high relative
    # accuracy: on pump level n = 200 the three smallest positive mu lie
    # within 8 ulp of a long-double Sturm bisection. Measured 4.5, 2.0 and
    # 0.7 ulp; the whole-chain dstevd solve gave 15.5, 11.0 and 15.7 here
    # (38.6, 27.3 and 37.9 at n = 566)
    n = 200
    C, D, mu = ev.GenericEngine(DegeneratePDC())._component(n)
    m = np.arange(n, dtype=float)
    band = np.zeros((2, n + 1))
    band[1, :n] = np.sqrt(n - m) * np.sqrt(2.0 * m + 1.0)  # the engine's order
    band[1, :n] *= np.sqrt(2.0 * m + 2.0)
    assert np.array_equal(ev.chain_eig(band)[0], mu)
    assert mu[0] == 0.0  # the zero mode; the chain's spectrum has it at n/2
    ref = sturm_eigenvalues(band[0], band[1], n // 2 + np.arange(1, 4))
    err = (mu[1:4].astype(np.longdouble) - ref) / np.spacing(mu[1:4])
    assert np.all(np.abs(err) <= 8.0), err


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
        dists = pump_level_marginals(eng, n, ev.PhaseGrid([0.9]))
        assert np.abs(dists[1] - dists[2]).max() < 1e-12


@pytest.mark.parametrize("process", PDC_VARIANTS)
def test_pump_levels_are_built_as_exact_pairs(process):
    # a pump level is the pair record (C, D, mu): C on the even sites, D on
    # the odd ones, n//2 + 1 rows each and column-major, an even n's zero
    # mode first with mu exactly 0.0 and D's row past the chain's end 0.0
    eng = ev.GenericEngine(process)
    for n in range(40):
        C, D, mu = eng._component(n)
        assert C.shape == D.shape == (n // 2 + 1, n // 2 + 1)
        assert C.flags.f_contiguous and D.flags.f_contiguous
        assert np.all(mu >= 0.0)
        assert (mu[0] == 0.0) == (n % 2 == 0)
        if n % 2 == 0:
            assert not D[:, 0].any() and not D[-1].any()


@pytest.mark.parametrize("process", PDC_VARIANTS, ids=str)
def test_pdc_sweep_writes_the_bits_of_fresh_allocation(process):
    # the levels reuse one grid's buffers and square the one nonzero part
    # of each site; level by level with fresh arrays and the modulus of the
    # full complex amplitude the sums are the same bits
    P = fock.thermal_distribution(2.0, 1e-8)
    for gts in FRESH_GRIDS.values():
        got = ev.pdc_signal_sweep(process, 2.0, gts, tail_tol=1e-8)
        eng = ev.GenericEngine(process)
        ref = np.zeros_like(got)
        for n in range(P.size):
            C, D, mu = eng._component(n)
            Q = fresh_phase_product(C, D, mu, gts / process.g)
            amp = np.zeros((n + 1, gts.size), dtype=complex)
            amp[::2] = Q[0]
            amp[1::2] = 1j * Q[1][: (n + 1) // 2]
            d = np.zeros((eng.step * n + 1, gts.size))
            d[:: eng.step] = np.abs(amp) ** 2
            ref[: d.shape[0]] += P[n] * d
        assert np.array_equal(got, ref)


def test_pdc_sweep_keeps_one_pump_level(monkeypatch):
    # each level is evolved once, so the engine keeps only the last one
    held = []
    reduce = ev.GenericEngine.mode_distributions

    def counted(self, n, grid, out, w):
        reduce(self, n, grid, out, w)
        held.append(len(self._components))

    monkeypatch.setattr(ev.GenericEngine, "mode_distributions", counted)
    ev.pdc_signal_sweep(DegeneratePDC(), 2.0, [0.3, 1.1], tail_tol=1e-8)
    assert len(held) > 10 and max(held) == 1
