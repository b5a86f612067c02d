"""Coherence functions, the work-capacity route to g2, scaling laws."""

from math import factorial

import numpy as np
import pytest

from nlmzi import coherence as coh
from nlmzi import evolution as ev
from nlmzi import fock, thermo
from nlmzi.errors import DomainError
from nlmzi.operators import CrossPhase, Exchange


def test_thermal_coherences_are_factorials():
    for nbar in (0.5, 1.0, 2.0):
        p = fock.thermal_distribution(nbar, 1e-18)
        for m in (2, 3, 4):
            assert abs(coh.g_m(p, m) - factorial(m)) < 1e-9


def test_reference_points_and_guards():
    fock2 = [0.0, 0.0, 1.0]
    assert abs(coh.g_m(fock2, 2) - 0.5) < 1e-15
    assert np.isnan(coh.g_m([1.0], 2))
    with pytest.raises(DomainError):
        coh.g_m([0.5, 0.5], 5)
    rep = coh.coherence_report([0.5, 0.0, 0.5])
    assert abs(rep.g2 - 1.0) < 1e-15
    assert abs(rep.g2_norm - 0.5) < 1e-15
    assert abs(rep.g3_norm - rep.g3 / 6.0) < 1e-15
    assert abs(rep.g4_norm - rep.g4 / 24.0) < 1e-15


@pytest.mark.parametrize("p", [
    [0.5, np.nan, 0.5],
    [0.5, np.inf, 0.5],
    [0.6, 0.5, -0.1],
    [[0.5, 0.5], [0.5, -np.inf]],
], ids=["nan", "inf", "negative", "stack"])
def test_coherence_rejects_a_non_distribution(p):
    # as ergotropy does: a non-finite entry, or one below -1e-12, is not a
    # probability
    with pytest.raises(DomainError):
        coh.g_m(p, 2)
    with pytest.raises(DomainError):
        coh.coherence_report(p)


def test_coherence_takes_a_round_off_negative():
    assert np.isfinite(coh.g_m([0.5, -1e-13, 0.5], 3))


def test_g2_routes_agree_on_even_distribution():
    p = [0.5, 0.0, 0.5]
    direct = coh.g_m(p, 2)
    via_wc = coh.g2_from_wc(thermo.ergotropy(p))
    assert abs(direct - via_wc) < 1e-14
    assert np.isnan(coh.g2_from_wc(thermo.ergotropy([1.0, 0.0])))


def test_g2_routes_agree_cross_phase_pi():
    # the bright output at theta = pi holds only even photon numbers, so
    # the work-capacity expression must reproduce the direct moment ratio
    da = ev.mzi_output(CrossPhase(s=1), np.pi, 1.0, tail_tol=1e-14)
    direct = coh.g_m(da, 2)
    via_wc = coh.g2_from_wc(thermo.ergotropy(da))
    assert abs(direct - 5.25) < 1e-9
    assert abs(direct - via_wc) < 1e-10


@pytest.mark.xfail(strict=True, reason="two-photon exchange output at "
                   "theta = pi is even-only, but its even weights rise "
                   "(p(4) > p(2)), so W exceeds <n>/2 and the "
                   "work-capacity route misses the direct moment ratio")
def test_g2_routes_agree_exchange2_pi():
    da = ev.mzi_output(Exchange(k=2), np.pi, 1.0, tail_tol=1e-14)
    assert abs(coh.g_m(da, 2) - coh.g2_from_wc(thermo.ergotropy(da))) < 1e-6


@pytest.mark.xfail(strict=True, reason="at nbar = 1 the direct g2 dips near "
                   "theta = 2.45 and climbs back to 5.25 at pi, so maximum "
                   "work does not pin minimum g2")
def test_g2_minimum_sits_at_peak_work_cross_phase():
    thetas = np.linspace(0.5, np.pi, 60)
    res = thermo.wc_sweep(CrossPhase(s=1), 1.0, thetas)
    da = ev.sweep_distributions(CrossPhase(s=1), 1.0, thetas, 1e-12)
    g2 = np.array([coh.g_m(da[:, i], 2) for i in range(thetas.size)])
    assert int(np.argmin(g2)) == int(np.argmax(res.wc))


def test_oscillatory_factor_values():
    assert abs(coh.f_cross_phase(np.pi) - 2.0) < 1e-15
    assert abs(coh.f_cross_phase(0.0) - 18.0) < 1e-15
    vals = coh.f_cross_phase(np.linspace(0, 2 * np.pi, 50))
    assert vals.min() > 0.0  # stays positive, so g3/g4 never vanish


def test_cross_phase_g3_scaling_small_nbar():
    # g3 -> (3/2) f(theta) / W as nbar -> 0
    nbar = 0.002
    for theta in (0.9, 2.2, np.pi):
        da = ev.mzi_output(CrossPhase(s=1), theta, nbar)
        w = thermo.wc_from_dist(da)
        pred = 1.5 * float(coh.f_cross_phase(theta)) / w
        meas = coh.g_m(da, 3)
        assert abs(meas / pred - 1.0) < 1e-2


def test_exchange2_g3_scaling_small_nbar():
    nbar = 0.002
    for theta in (0.9, 1.7, 2.6):
        da = ev.mzi_output(Exchange(k=2), theta, nbar)
        w = thermo.wc_from_dist(da)
        pred = 1.5 * float(coh.f_exchange2(theta)) / w
        meas = coh.g_m(da, 3)
        assert abs(meas / pred - 1.0) < 1e-2


def test_q_exchange3_windows_and_anchors():
    # theta = pi/2 sits mid-window: sin(3 theta) = -1, sin(6 theta) = 0
    assert abs(coh.q_exchange3(np.pi / 2, 1) - 0.5) < 1e-15
    assert abs(coh.q_exchange3(np.pi / 2, 2)) < 1e-15
    assert abs(coh.q_exchange3(np.pi / 2, 3)) < 1e-15
    assert coh.q_exchange3(0.6 * np.pi, 1) is None
    assert coh.q_exchange3(0.7 * np.pi, 1) is not None  # second family
    with pytest.raises(DomainError):
        coh.q_exchange3(np.pi / 2, 4)


def test_scaling_prediction_calibrates_at_reference():
    nbar = 0.01
    pred = coh.small_nbar_scalings(CrossPhase(s=1), nbar, np.pi)
    da = ev.mzi_output(CrossPhase(s=1), np.pi, nbar)
    rep = coh.coherence_report(da)
    assert abs(pred.g2 - rep.g2_norm) < 1e-12
    assert abs(pred.g3 - rep.g3_norm) < 1e-12
    assert abs(pred.g4 - rep.g4_norm) < 1e-12
    assert pred.theta_ref == np.pi
    assert not pred.regime_warning
    assert coh.small_nbar_scalings(CrossPhase(s=1), 0.5, 1.0).regime_warning


def test_scaling_prediction_is_exact_at_reference():
    # the reference must be measured exactly as mzi_output measures it: a
    # column taken from a two-angle sweep rounds differently and misses
    # g4 by about 1e-11 for cross-phase at nbar = 0.05
    nbar = 0.05
    for process, ref in ((CrossPhase(s=1), np.pi), (Exchange(k=2), np.pi / 2)):
        pred = coh.small_nbar_scalings(process, nbar, ref)
        da = ev.mzi_output(process, ref, nbar)
        rep = coh.coherence_report(da)
        assert (pred.g2, pred.g3, pred.g4) == (rep.g2_norm, rep.g3_norm,
                                               rep.g4_norm)


def test_scaling_prediction_tracks_measurement():
    nbar = 0.002
    pred = coh.small_nbar_scalings(CrossPhase(s=1), nbar, 2.0)
    da = ev.mzi_output(CrossPhase(s=1), 2.0, nbar)
    rep = coh.coherence_report(da)
    assert abs(pred.g2 / rep.g2_norm - 1.0) < 1e-2
    assert abs(pred.g3 / rep.g3_norm - 1.0) < 1e-2
    assert abs(pred.g4 / rep.g4_norm - 1.0) < 2e-2


def test_scaling_prediction_exchange3():
    nbar = 0.01
    pred = coh.small_nbar_scalings(Exchange(k=3), nbar, 0.7 * np.pi)
    da = ev.mzi_output(Exchange(k=3), 0.7 * np.pi, nbar)
    rep = coh.coherence_report(da)
    assert abs(pred.g2 / rep.g2_norm - 1.0) < 5e-2
    # outside both window families the windowed forms say nothing
    blank = coh.small_nbar_scalings(Exchange(k=3), nbar, 0.6 * np.pi)
    assert np.isnan(blank.g2)


def test_coherence_order_is_an_integer_two_to_four():
    p = fock.thermal_distribution(1.0)
    for m in (2.5, 1, 5, 3.000001):
        with pytest.raises(DomainError, match="2, 3 or 4"):
            coh.g_m(p, m)
    # an integer-valued order is that integer
    for m in (2, 3, 4):
        assert coh.g_m(p, float(m)) == coh.g_m(p, m)
        assert coh.g_m(p, np.int64(m)) == coh.g_m(p, m)
