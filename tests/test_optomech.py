"""Oscillator readout: closed forms, dense oracle, work-capacity inference."""

import numpy as np
import pytest

from nlmzi import fock, optomech as om, thermo
from nlmzi.errors import ConfigurationError, DomainError, FitError
from oracles import position_variance_general

EVEN3 = [0.5, 0.0, 0.5]          # W = 1/2, |dW^2| = 3/4
EVEN5 = [0.5, 0.0, 0.3, 0.0, 0.2]  # W = 0.7, |dW^2| = 1.83


def cfg_coherent(alpha, G=0.05, Omega=1.0):
    return om.OscillatorConfig(G=G, Omega=Omega, init=om.CoherentInit(alpha))


def cfg_thermal(nbar_osc, G=0.05, Omega=1.0):
    return om.OscillatorConfig(G=G, Omega=Omega,
                               init=om.ThermalInit(nbar_osc))


def test_field_summary_values():
    s = om.field_summary(EVEN3)
    assert abs(s.wc - 0.5) < 1e-15
    assert abs(s.wc_dispersion - 0.75) < 1e-15
    assert abs(s.mean - 1.0) < 1e-15
    assert abs(s.second_moment - 2.0) < 1e-15
    assert s.odd_mass == 0.0


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
    exact = om.phonon_trace_thermal(EVEN5, cfg_thermal(0.0, G=0.1), taus)
    soft = om.phonon_trace_thermal(EVEN5, cfg_thermal(0.0, G=0.1), taus,
                                   small_nbar=True)
    assert abs(exact.phonon[1] - 1.1 * 0.16) < 1e-14
    assert abs(soft.phonon[1] - 0.7 * 0.16) < 1e-14


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
                                  alpha=1.0, cfg=cfg, taus=taus)
    assert np.abs(oracle.phonon - mom).max() < 1e-9
    gen = position_variance_general(0.24, cfg, taus)
    assert np.abs(oracle.xvar - gen).max() < 1e-9


def test_oracle_cutoff_guard_suggests_larger():
    cfg = cfg_coherent(2.0, G=0.05)
    taus = np.linspace(0, 10, 5)
    suggest = om.suggested_osc_cutoff(cfg, len(EVEN3) - 1)
    with pytest.raises(ConfigurationError,
                       match="osc_cutoff >= %d$" % suggest):
        om.full_quantum_oracle(EVEN3, cfg, 6, taus)
    om.full_quantum_oracle(EVEN3, cfg, suggest, taus)  # the suggestion holds


def test_beating_dominates_at_large_alpha():
    s = om.field_summary(EVEN3)
    u = 0.01
    lin_amp = 4.0 * u * s.wc * 100.0
    quad_amp = (s.wc_dispersion / 3.0 + s.wc ** 2) * 16.0 * u ** 2
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
                                 xvar=tr.xvar, config=cfg,
                                 field_summary=tr.field_summary)
    assert abs(om.infer_wc(shifted).wc - om.infer_wc(tr).wc) < 1e-12


def test_infer_pure_imaginary_alpha_uses_sine_channel():
    cfg = cfg_coherent(1.0j, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    res = om.infer_wc(om.phonon_trace_coherent(EVEN3, cfg, taus))
    assert abs(res.wc - 0.5) < 1e-9


def test_infer_thermal_trace_with_declared_alpha():
    # no beating at all: the sin^2 bundle plus the variance channel still
    # pin W through the quadratic
    cfg = cfg_thermal(0.2, G=0.02)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_thermal(EVEN3, cfg, taus)
    res = om.infer_wc(tr, alpha=0.0)
    assert abs(res.wc - 0.5) < 1e-9


def test_infer_without_variance_channel():
    cfg = cfg_coherent(2.0, G=0.01)
    taus = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN5, cfg, taus)
    blind = om.OscillatorTrace(taus=taus, phonon=tr.phonon, xvar=None,
                               config=cfg, field_summary=tr.field_summary)
    res = om.infer_wc(blind)
    assert not res.from_xvar
    # the small-field dispersion stand-in leaves a visible but small bias
    assert 1e-4 < abs(res.wc - 0.7) < 1e-2
    exact3 = om.OscillatorTrace(
        taus=taus,
        phonon=om.phonon_trace_coherent(EVEN3, cfg, taus).phonon,
        xvar=None, config=cfg,
        field_summary=om.field_summary(EVEN3))
    # on EVEN3 the stand-in relation is exact, so no bias at all
    assert abs(om.infer_wc(exact3).wc - 0.5) < 1e-12


def test_infer_error_cases():
    cfg = cfg_coherent(1.0, G=0.01)
    good = np.linspace(0, 6 * np.pi, 40)
    tr = om.phonon_trace_coherent(EVEN3, cfg, good)
    short = om.OscillatorTrace(taus=good[:3], phonon=tr.phonon[:3],
                               xvar=tr.xvar[:3], config=cfg,
                               field_summary=tr.field_summary)
    with pytest.raises(FitError):
        om.infer_wc(short)
    with pytest.raises(FitError):
        om.infer_wc(tr, G=0.0)
    th = om.phonon_trace_thermal(EVEN3, cfg_thermal(0.1, G=0.01), good)
    with pytest.raises(FitError):
        om.infer_wc(th)  # alpha unknown


def test_config_validation():
    with pytest.raises(DomainError):
        om.OscillatorConfig(G=0.1, Omega=0.0, init=om.CoherentInit(1.0))
    with pytest.raises(DomainError):
        om.ThermalInit(-0.5)
    with pytest.raises(DomainError):
        om.phonon_trace_coherent(EVEN3, cfg_thermal(0.1), [0.0, 1.0])
