"""Oscillator readout: closed forms, exact oracle, work-capacity inference."""

import tracemalloc

import numpy as np
import pytest

from nlmzi import evolution, fock, optomech as om, thermo
from nlmzi.operators import CrossPhase
from nlmzi.errors import ConfigurationError, DomainError, FitError
from oracles import (dense_oscillator_oracle, fresh_phase_product,
                     position_variance_general)

EVEN3 = [0.5, 0.0, 0.5]          # W = 1/2, |dW^2| = 3/4
EVEN5 = [0.5, 0.0, 0.3, 0.0, 0.2]  # W = 0.7, |dW^2| = 1.83


def cfg_coherent(alpha, G=0.05, Omega=1.0):
    return om.OscillatorConfig(G=G, Omega=Omega, init=om.CoherentInit(alpha))


def cfg_thermal(nbar_osc, G=0.05, Omega=1.0):
    return om.OscillatorConfig(G=G, Omega=Omega,
                               init=om.ThermalInit(nbar_osc))


def test_field_summary_values():
    rep = thermo.ergotropy(EVEN3)
    assert abs(rep.wc - 0.5) < 1e-15
    assert abs(rep.wc_dispersion - 0.75) < 1e-15
    assert abs(rep.mean_energy - 1.0) < 1e-15
    assert abs(fock.second_moment(np.array(EVEN3)) - 2.0) < 1e-15
    assert fock.odd_mass(np.array(EVEN3)) == 0.0


def test_uncoupled_oscillator_is_flat():
    taus = np.linspace(0, 10, 30)
    tr = om.phonon_trace_coherent(EVEN3, cfg_coherent(2.0, G=0.0), taus)
    assert np.allclose(tr.phonon, 4.0, atol=1e-14)
    assert np.allclose(tr.xvar, 0.5, atol=1e-14)


def test_initial_value_and_periodicity():
    cfg = cfg_coherent(1.5 + 0.5j, G=0.07, Omega=2.0)
    taus = np.array([0.0, np.pi, 2 * np.pi / 2.0, 0.3 + 2 * np.pi / 2.0, 0.3])
    tr = om.phonon_trace_coherent(EVEN3, cfg, taus)
    assert abs(tr.phonon[0] - cfg.init.nbar_osc) < 1e-14
    assert abs(tr.phonon[2] - tr.phonon[0]) < 1e-13  # one full period
    assert abs(tr.phonon[3] - tr.phonon[4]) < 1e-13


def test_zero_alpha_equals_zero_temperature_thermal():
    taus = np.linspace(0, 12, 40)
    a = om.phonon_trace_coherent(EVEN3, cfg_coherent(0.0), taus)
    b = om.phonon_trace_thermal(EVEN3, cfg_thermal(0.0), taus)
    assert np.allclose(a.phonon, b.phonon, atol=1e-14)


def test_thermal_trace_peak_and_small_field_variant():
    taus = np.array([0.0, np.pi, 2 * np.pi])
    tr = om.phonon_trace_thermal(EVEN3, cfg_thermal(0.2, G=0.1), taus)
    # coefficient |dW^2|/3 + W^2 = 1/2; peak excess 1/2 * 16 u^2 = 0.08
    assert abs(tr.phonon[1] - 0.28) < 1e-14
    assert abs(tr.phonon[2] - 0.2) < 1e-14
    # on EVEN5 the exact bundle (1.1) and its small-field stand-in (0.7)
    # separate, unlike on any three-level even distribution
    cfg = cfg_thermal(0.0, G=0.1)
    exact = om.phonon_trace_thermal(EVEN5, cfg, taus)
    w = thermo.ergotropy(EVEN5).wc
    soft = om.phonon_trace_moments(2.0 * w, 4.0 * w, cfg, taus)
    assert abs(exact.phonon[1] - 1.1 * 0.16) < 1e-14
    assert abs(soft[1] - 0.7 * 0.16) < 1e-14


def test_position_variance_anchors():
    taus = np.array([0.0, np.pi])
    xv = om.position_variance(EVEN3, cfg_coherent(1.0, G=0.1), taus)
    assert abs(xv[0] - 0.5) < 1e-15
    assert abs(xv[1] - 0.58) < 1e-15
    xvt = om.position_variance(EVEN3, cfg_thermal(0.5, G=0.1), taus)
    assert abs(xvt[0] - 1.0) < 1e-15
    # Var(n) route agrees wherever |dW^2| = (3/4) Var(n)
    gen = position_variance_general(1.0, cfg_coherent(1.0, G=0.1), taus)
    assert np.allclose(gen, xv, atol=1e-15)


def test_parity_guard_refuses_thermal_light():
    th = fock.thermal_distribution(1.0, 1e-12)
    cfg = cfg_coherent(1.0)
    taus = np.linspace(0, 7, 10)
    for fn in (om.phonon_trace_coherent, om.position_variance):
        with pytest.raises(DomainError, match="full_quantum_oracle"):
            fn(th, cfg, taus)
    with pytest.raises(DomainError):
        om.phonon_trace_thermal(th, cfg_thermal(0.1), taus)


def test_oracle_matches_closed_forms_coherent():
    cfg = cfg_coherent(1.0, G=0.05)
    taus = np.linspace(0, 4 * np.pi, 33)
    closed = om.phonon_trace_coherent(EVEN3, cfg, taus)
    oracle = om.full_quantum_oracle(EVEN3, cfg, 40, taus)
    assert np.abs(closed.phonon - oracle.phonon).max() < 1e-9
    assert np.abs(closed.xvar - oracle.xvar).max() < 1e-9


def test_oracle_matches_closed_forms_thermal():
    cfg = cfg_thermal(0.3, G=0.05)
    taus = np.linspace(0, 4 * np.pi, 17)
    closed = om.phonon_trace_thermal(EVEN3, cfg, taus)
    oracle = om.full_quantum_oracle(EVEN3, cfg, 60, taus)
    assert np.abs(closed.phonon - oracle.phonon).max() < 1e-8
    assert np.abs(closed.xvar - oracle.xvar).max() < 1e-8


def test_oracle_handles_any_parity_via_moment_forms():
    dist = [0.6, 0.4]
    cfg = cfg_coherent(1.0, G=0.03)
    taus = np.linspace(0, 4 * np.pi, 21)
    oracle = om.full_quantum_oracle(dist, cfg, 30, taus)
    mom = om.phonon_trace_moments(mean=0.4, second_moment=0.4,
                                  cfg=cfg, taus=taus)
    assert np.abs(oracle.phonon - mom).max() < 1e-9
    gen = position_variance_general(0.24, cfg, taus)
    assert np.abs(oracle.xvar - gen).max() < 1e-9
    # a thermal init: no beat, baseline nbar_O
    cfg = cfg_thermal(0.3, G=0.05)
    oracle = om.full_quantum_oracle(dist, cfg, 60, taus)
    mom = om.phonon_trace_moments(mean=0.4, second_moment=0.4,
                                  cfg=cfg, taus=taus)
    assert np.abs(oracle.phonon - mom).max() < 1e-8


def test_parity_traces_are_views_of_the_moment_form():
    taus = np.linspace(0, 4 * np.pi, 33)
    rep = thermo.ergotropy(EVEN5)
    w, disp = rep.wc, rep.wc_dispersion
    bundle = disp / 3.0 + w ** 2
    for alpha in (0.0, 2.0 + 1.0j, -1.5j):
        cfg = cfg_coherent(alpha, G=0.07, Omega=1.3)
        tr = om.phonon_trace_coherent(EVEN5, cfg, taus)
        ref = om.phonon_trace_moments(2.0 * w, 4.0 * bundle, cfg, taus)
        assert tr.phonon.tobytes() == ref.tobytes()
    for nbar_osc in (0.0, 0.3):
        cfg = cfg_thermal(nbar_osc, G=0.07, Omega=1.3)
        tr = om.phonon_trace_thermal(EVEN5, cfg, taus)
        ref = om.phonon_trace_moments(2.0 * w, 4.0 * bundle, cfg, taus)
        assert tr.phonon.tobytes() == ref.tobytes()


@pytest.mark.parametrize("init", [
    om.CoherentInit(10.0), om.CoherentInit(3 + 7j), om.CoherentInit(-2.5),
    om.CoherentInit(0.0), om.ThermalInit(0.3)], ids=str)
def test_oracle_matches_dense_position_matrix(init):
    # the banded moments against a dense X @ Z, both with odd field levels
    dist = evolution.mzi_output(CrossPhase(s=1), 1.3, 1.0)
    cfg = om.OscillatorConfig(G=0.02, Omega=1.0, init=init)
    cutoff = om.suggested_osc_cutoff(cfg, dist.size - 1)
    taus = np.linspace(0, 4 * np.pi, 24)
    tr = om.full_quantum_oracle(dist, cfg, cutoff, taus)
    phon, xvar, x2 = dense_oscillator_oracle(dist, cfg, cutoff, taus)
    assert np.abs(tr.phonon - phon).max() <= 1e-14 * np.abs(phon).max()
    eps = np.finfo(float).eps
    assert np.abs(tr.xvar - xvar).max() <= 64 * eps * max(1.0, x2.max())


TAUS9 = np.linspace(0, 4 * np.pi, 9)


@pytest.mark.parametrize("dist,cutoff,taus", [
    (EVEN3, 30, np.append(TAUS9, np.nan)),
    (EVEN3, 30, np.append(TAUS9, np.inf)),
    ([0.5, np.nan, 0.5], 30, TAUS9),
    ([0.5, np.inf, 0.5], 30, TAUS9),
    ([1.5, 0.0, -0.5], 30, TAUS9),
    (EVEN3, -3, TAUS9),
    (EVEN3, 0, TAUS9),
], ids=["nan-tau", "inf-tau", "nan-dist", "inf-dist", "negative-dist",
        "cutoff-3", "cutoff0"])
def test_oracle_rejects_bad_input(dist, cutoff, taus):
    with pytest.raises(DomainError):
        om.full_quantum_oracle(dist, cfg_coherent(1.0), cutoff, taus)


def test_oracle_cutoff_guard_suggests_larger():
    cfg = cfg_coherent(2.0, G=0.05)
    taus = np.linspace(0, 10, 5)
    suggest = om.suggested_osc_cutoff(cfg, len(EVEN3) - 1)
    with pytest.raises(ConfigurationError,
                       match="osc_cutoff >= %d$" % suggest):
        om.full_quantum_oracle(EVEN3, cfg, 6, taus)
    om.full_quantum_oracle(EVEN3, cfg, suggest, taus)  # the suggestion holds


def test_oracle_refuses_a_cutoff_that_drops_the_coherent_init():
    # |alpha|^2 = 400 sits far above level 100: the cut keeps about 4e-72
    # of the init's norm, too little to reach the top-level population
    # check, and the oracle would evolve a state that is not the init
    cfg = cfg_coherent(20.0, G=0.05)
    suggest = om.suggested_osc_cutoff(cfg, len(EVEN3) - 1)
    with pytest.raises(ConfigurationError,
                       match="keeps .* of the init's norm.*>= %d$" % suggest):
        om.full_quantum_oracle(EVEN3, cfg, 100, TAUS9)


def test_thermal_init_oracle_runs_at_its_suggested_cutoff():
    # the suggestion clears every init level the oracle weighs, so no init
    # starts at the top level; the trace then meets the closed form
    cfg = cfg_thermal(10.0, G=0.01)
    taus = np.linspace(0, 2 * np.pi, 6)
    suggest = om.suggested_osc_cutoff(cfg, len(EVEN3) - 1)
    assert suggest > fock.thermal_cutoff(10.0, om.THERMAL_INIT_TAIL)
    tr = om.full_quantum_oracle(EVEN3, cfg, suggest, taus)
    ref = om.phonon_trace_thermal(EVEN3, cfg, taus).phonon
    # the init tail beyond THERMAL_INIT_TAIL carries 3.0e-10 phonons
    assert np.abs(tr.phonon - ref).max() < 1e-9


def test_beating_dominates_at_large_alpha():
    rep = thermo.ergotropy(EVEN3)
    u = 0.01
    lin_amp = 4.0 * u * rep.wc * 100.0
    quad_amp = (rep.wc_dispersion / 3.0 + rep.wc ** 2) * 16.0 * u ** 2
    assert quad_amp / lin_amp < 1e-3


def test_infer_roundtrip_from_closed_trace():
    cfg = cfg_coherent(2.0 + 1.0j, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN5, cfg, taus)
    res = om.infer_wc(tr)
    assert abs(res.wc - 0.7) < 1e-9
    assert abs(res.wc_dispersion - 1.83) < 1e-9
    assert abs(res.quad - (0.49 + 1.83 / 3.0)) < 1e-9
    assert res.from_xvar
    assert res.residual < 1e-12


def test_infer_ignores_constant_background():
    cfg = cfg_coherent(2.0, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN3, cfg, taus)
    shifted = om.OscillatorTrace(taus=taus, phonon=tr.phonon + 0.7,
                                 xvar=tr.xvar, config=cfg)
    assert abs(om.infer_wc(shifted).wc - om.infer_wc(tr).wc) < 1e-12


def test_infer_pure_imaginary_alpha_uses_sine_channel():
    cfg = cfg_coherent(1.0j, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    res = om.infer_wc(om.phonon_trace_coherent(EVEN3, cfg, taus))
    assert abs(res.wc - 0.5) < 1e-9


def _noisy_c09_errors(alpha):
    """Relative W errors of c09's trace (nbar 1 cross-phase at pi, G 0.01)
    read with alpha, under 100 seeded draws of 1e-3 phonon noise."""
    da = evolution.mzi_output(CrossPhase(s=1), np.pi, 1.0, tail_tol=1e-13)
    cfg = cfg_coherent(alpha, G=0.01)
    taus = np.linspace(0.0, 6.0 * np.pi, 128)
    trace = om.phonon_trace_coherent(da, cfg, taus)
    target = 2.0 / 9.0
    rng = np.random.default_rng(42)
    errs = []
    for _ in range(100):
        noisy = om.OscillatorTrace(
            taus=taus, phonon=trace.phonon + rng.normal(0.0, 1e-3, taus.size),
            xvar=trace.xvar, config=cfg)
        errs.append(abs(om.infer_wc(noisy).wc - target) / target)
    return errs


def test_infer_pure_imaginary_alpha_survives_phonon_noise():
    # alpha = 10i: the sine channel alone carries W, so noise that makes
    # the (unused) quadratic's discriminant negative must not reject it
    assert max(_noisy_c09_errors(10.0j)) < 0.01


@pytest.mark.parametrize("alpha", [1e-3 + 10.0j, 0.1 + 10.0j, 1.0 + 10.0j])
def test_infer_reads_the_sine_where_it_is_the_larger_beat(alpha):
    # |Im(alpha)| > |Re(alpha)|: the cosine coefficient D carries W with
    # weight 4u Re(alpha) only, so the quadratic in D would amplify the
    # noise; W must come from the sine coefficient
    assert max(_noisy_c09_errors(alpha)) < 0.01


def test_infer_thermal_trace_with_declared_alpha():
    # no beating at all: the sin^2 bundle plus the variance channel still
    # pin W through the quadratic
    cfg = cfg_thermal(0.2, G=0.02)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_thermal(EVEN3, cfg, taus)
    res = om.infer_wc(tr, alpha=0.0)
    assert abs(res.wc - 0.5) < 1e-9


@pytest.mark.parametrize("alpha", [1e-3j, 1e-15j, 0.03j])
def test_infer_small_imaginary_alpha_keeps_the_beating_channel(alpha):
    # B weighs W by 4 u |Im(alpha)|, D by 4 u |Re(alpha)| + 8 u^2: below
    # |Im(alpha)| = |Re(alpha)| + 2u the sine coefficient carries too
    # little of W, and the quadratic in D reads it instead
    cfg = cfg_thermal(0.2, G=0.02)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_thermal(EVEN3, cfg, taus)
    assert abs(om.infer_wc(tr, alpha=alpha).wc - 0.5) < 1e-9


def test_infer_without_variance_channel():
    cfg = cfg_coherent(2.0, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN5, cfg, taus)
    blind = om.OscillatorTrace(taus=taus, phonon=tr.phonon, xvar=None,
                               config=cfg)
    res = om.infer_wc(blind)
    assert not res.from_xvar
    # the small-field dispersion stand-in leaves a visible but small bias
    assert 1e-4 < abs(res.wc - 0.7) < 1e-2
    exact3 = om.OscillatorTrace(
        taus=taus,
        phonon=om.phonon_trace_coherent(EVEN3, cfg, taus).phonon,
        xvar=None, config=cfg)
    # on EVEN3 the stand-in relation is exact, so no bias at all
    assert abs(om.infer_wc(exact3).wc - 0.5) < 1e-12


@pytest.mark.parametrize("alpha", [2.0j, 0.5 + 2.0j])
def test_infer_without_variance_channel_reads_the_sine(alpha):
    # B = -4 u W Im(alpha) needs no dispersion stand-in, so W is exact;
    # only the reported dispersion comes from 3W - 3W^2
    cfg = cfg_coherent(alpha, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN5, cfg, taus)
    res = om.infer_wc(om.OscillatorTrace(taus=taus, phonon=tr.phonon,
                                         xvar=None, config=cfg))
    assert not res.from_xvar
    assert abs(res.wc - 0.7) < 1e-12
    assert res.wc_dispersion == 3.0 * res.wc - 3.0 * res.wc ** 2


def test_infer_error_cases():
    cfg = cfg_coherent(1.0, G=0.01)
    good = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN3, cfg, good)
    short = om.OscillatorTrace(taus=good[:3], phonon=tr.phonon[:3],
                               xvar=tr.xvar[:3], config=cfg)
    with pytest.raises(FitError):
        om.infer_wc(short)
    uncoupled = om.OscillatorTrace(taus=good, phonon=tr.phonon,
                                   xvar=tr.xvar, config=cfg_coherent(1.0, G=0.0))
    with pytest.raises(FitError, match="G = 0"):
        om.infer_wc(uncoupled)
    th = om.phonon_trace_thermal(EVEN3, cfg_thermal(0.1, G=0.01), good)
    with pytest.raises(FitError):
        om.infer_wc(th)  # alpha unknown
    blind = om.OscillatorTrace(taus=good, phonon=tr.phonon, xvar=None,
                               config=cfg)
    with pytest.raises(FitError):
        om.infer_wc(blind, alpha=0.0)  # no beat, no closure
    for bad in (np.nan, np.inf):
        for field in ("taus", "phonon", "xvar"):
            arrays = dict(taus=good.copy(), phonon=tr.phonon.copy(),
                          xvar=tr.xvar.copy())
            arrays[field][7] = bad
            with pytest.raises(FitError, match="non-finite"):
                om.infer_wc(om.OscillatorTrace(config=cfg, **arrays))
        nan_blind = om.OscillatorTrace(taus=good, phonon=tr.phonon.copy(),
                                       xvar=None, config=cfg)
        nan_blind.phonon[0] = bad
        with pytest.raises(FitError, match="non-finite"):
            om.infer_wc(nan_blind)


def test_config_validation():
    for Omega in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            om.OscillatorConfig(G=0.1, Omega=Omega, init=om.CoherentInit(1.0))
    with pytest.raises(DomainError):
        om.OscillatorConfig(G=np.inf, Omega=1.0, init=om.CoherentInit(1.0))
    for nbar_osc in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            om.ThermalInit(nbar_osc)
    for alpha in (np.nan, complex(1.0, np.inf)):
        with pytest.raises(DomainError):
            om.CoherentInit(alpha)
    with pytest.raises(DomainError):
        om.phonon_trace_coherent(EVEN3, cfg_thermal(0.1), [0.0, 1.0])
    # the closed forms refuse a non-finite tau, as the oracle does
    for bad in (np.nan, np.inf, -np.inf):
        taus = [0.0, bad, 1.0]
        for fn, cfg in ((om.phonon_trace_coherent, cfg_coherent(1.0)),
                        (om.phonon_trace_thermal, cfg_thermal(0.1)),
                        (om.position_variance, cfg_coherent(1.0)),
                        (om.position_variance, cfg_thermal(0.1))):
            with pytest.raises(DomainError, match="taus"):
                fn(EVEN3, cfg, taus)
        with pytest.raises(DomainError, match="taus"):
            om.phonon_trace_moments(1.0, 2.0, cfg_coherent(1.0), taus)


@pytest.mark.parametrize("taus", [np.linspace(0.0, 12.0, 41),
                                  np.linspace(0.5, 6.0, 13),
                                  np.geomspace(0.01, 12.0, 30)],
                         ids=["uniform", "short", "non-uniform"])
def test_oracle_writes_the_bits_of_fresh_allocation(monkeypatch, taus):
    # the oracle's products reuse one grid's phase buffer; with a fresh
    # kernel per call the traces are the same bits, for a real, a complex
    # and a thermal init
    dist = [0.3, 0.0, 0.5, 0.2]
    cfgs = [cfg_coherent(1.5), cfg_coherent(1.0 + 0.7j), cfg_thermal(0.5)]
    got = [om.full_quantum_oracle(dist, cfg, 40, taus) for cfg in cfgs]
    monkeypatch.setattr(om, "phase_product", lambda C, D, mu, grid:
                        fresh_phase_product(C, D, mu, grid.ts))
    for cfg, tr in zip(cfgs, got):
        ref = om.full_quantum_oracle(dist, cfg, 40, taus)
        assert np.array_equal(tr.phonon, ref.phonon)
        assert np.array_equal(tr.xvar, ref.xvar)


def test_oracle_holds_one_levels_arrays_at_a_time():
    # a level's eigenvectors (L^2) and its product (2 L T) go before the
    # next level's solve, so the peak is one level's L^2 + 4 L T doubles
    # (with the grid's phase buffer), not two levels' eigenvectors; with
    # the previous level's still bound it read 1.41 times that
    L, T = 283, 256
    taus = np.linspace(0.0, 4.0 * np.pi, T)
    tracemalloc.start()
    try:
        om.full_quantum_oracle(EVEN5, cfg_coherent(10.0, G=0.01), L - 1, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * (L * L + 4 * L * T) * 8


@pytest.mark.parametrize("dist", [
    np.array([EVEN3, EVEN3]).T, np.array(1.0), [], np.zeros((0, 3)),
], ids=["stack", "0-d", "empty", "empty-stack"])
def test_readout_takes_one_fields_distribution(dist):
    # a stack, a scalar or an empty array is not one field's distribution:
    # every readout refuses it with one DomainError, where the closed forms
    # and the oracle used to fail inside numpy or disagree on []
    taus = np.linspace(0.0, 4.0 * np.pi, 9)
    calls = [
        lambda: om.full_quantum_oracle(dist, cfg_coherent(1.0), 20, taus),
        lambda: om.full_quantum_oracle(dist, cfg_thermal(0.3), 20, taus),
        lambda: om.phonon_trace_coherent(dist, cfg_coherent(1.0), taus),
        lambda: om.phonon_trace_thermal(dist, cfg_thermal(0.3), taus),
        lambda: om.position_variance(dist, cfg_coherent(1.0), taus),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="dist must be one field's"):
            call()


def test_thermal_init_traces_at_tiny_and_zero_oscillator_nbar():
    # every thermal init weight is positive, the vacuum's exactly 1.0:
    # nbar_osc 0 and 1e-300 are the vacuum init, bit for bit
    taus = np.linspace(0.0, 4.0 * np.pi, 17)
    vac = om.full_quantum_oracle(EVEN3, cfg_thermal(0.0), 40, taus)
    tiny = om.full_quantum_oracle(EVEN3, cfg_thermal(1e-300), 40, taus)
    assert np.array_equal(vac.phonon, tiny.phonon)
    assert np.array_equal(vac.xvar, tiny.xvar)
    assert (fock.thermal_distribution(10.0, om.THERMAL_INIT_TAIL) > 0).all()
