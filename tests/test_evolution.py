"""Block evolution against a dense two-mode oracle, plus the PDC chains."""

import numpy as np
import pytest

from nlmzi import evolution as ev
from nlmzi import fock
from nlmzi import operators as ops
from nlmzi.errors import ConfigurationError, DomainError
from nlmzi.operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                             NonDegeneratePDC)
from oracles import (eig_block_amplitudes, hermitian_eig, mzi_unitary,
                     pdc_tensor_marginals, tensor_mzi_state)

HYBRID = Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))

@pytest.mark.parametrize("process", [
    CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2), Exchange(k=3),
    Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2)))),
])
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
])
def test_engine_matches_eigensolver_splitter_exchange(process):
    # the two generator eigensolvers differ by round-off relative to the
    # largest eigenvalue, which the phase theta * lambda carries along
    N, thetas = 200, [0.3, 2.0, np.pi]
    ref = eig_block_amplitudes(process, N, thetas)
    got = ev.BlockEngine(process).amplitudes(N, thetas)
    scale = max(thetas) * np.abs(np.linalg.eigvalsh(np.real(
        ops.process_generator(process, N)))).max()
    assert np.abs(got - ref).max() < 2e-15 * scale


@pytest.mark.parametrize("process", [CrossPhase(s=1), Exchange(k=2),
                                     Exchange(k=3), HYBRID])
def test_probs_are_squared_amplitudes(process):
    eng = ev.BlockEngine(process)
    thetas = np.linspace(0.0, 2.0 * np.pi, 7)
    for N in range(41):
        p = eng.probs(N, thetas)
        assert np.abs(p - np.abs(eng.amplitudes(N, thetas)) ** 2).max() < 1e-14


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
        ladder_steps.clear()
        ev.sweep_distributions(proc, 2.0, [0.5, 1.0], 1e-6)
        assert ladder_steps == list(range(1, n))


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
        eng = ev.BlockEngine(proc)
        for t in (0.0, 0.7, np.pi, 4.1):
            da, db = ev.mzi_output(proc, t, 1.3, engine=eng)
            sa, sb, _ = ev.sweep_distributions(proc, 1.3, [t * proc.strength],
                                               1e-12, eng)
            assert np.array_equal(da, sa[:, 0])
            assert np.array_equal(db, sb[:, 0])


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
