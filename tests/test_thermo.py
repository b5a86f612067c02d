"""Ergotropy, closed-form work capacity, sweeps, peak efficiency."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from nlmzi import evolution as ev
from nlmzi import fock, thermo
from nlmzi.errors import DomainError
from nlmzi.operators import CrossPhase, Exchange
from oracles import (mode_b_distributions, wc_exchange3_windows,
                     wc_table_oracle)


def test_passive_distribution_is_descending():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(rng.integers(2, 9)))
        q = thermo.passive_distribution(p)
        assert (np.diff(q) <= 1e-15).all()
        assert abs(q.sum() - p.sum()) < 1e-12


def test_passive_state_optimality_brute_force():
    # no permutation of the probabilities has lower mean energy than the
    # descending sort
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n))
        levels = np.arange(n)
        best = min(float(levels @ np.array(perm))
                   for perm in itertools.permutations(p))
        passive = float(levels @ thermo.passive_distribution(p))
        assert passive <= best + 1e-12


def test_wc_reference_values():
    # thermal input is passive; Fock states give all their energy
    assert thermo.wc_from_dist(fock.thermal_distribution(1.0, 1e-12)) < 1e-15
    assert abs(thermo.wc_from_dist([0.0, 0.0, 0.0, 1.0]) - 3.0) < 1e-15
    assert abs(thermo.wc_from_dist([0.5, 0.0, 0.5]) - 0.5) < 1e-15
    with pytest.raises(DomainError):
        thermo.wc_from_dist([0.6, -0.2, 0.6])


def test_ergotropy_rejects_a_negative_column_of_a_stack():
    good = fock.thermal_distribution(1.0, 1e-12)
    bad = np.zeros_like(good)
    bad[:3] = [0.6, -0.2, 0.6]
    stack = np.column_stack([good, good, bad, good])
    with pytest.raises(DomainError):
        thermo.ergotropy(stack)
    assert thermo.ergotropy(stack[:, [0, 1, 3]]).wc.shape == (3,)


def test_ergotropy_rejects_non_finite_entries():
    for p in ([np.nan, 1.0], [0.5, np.inf], [1.0, -np.inf]):
        with pytest.raises(DomainError):
            thermo.ergotropy(p)
    good = fock.thermal_distribution(1.0, 1e-12)
    bad = good.copy()
    bad[2] = np.nan
    stack = np.column_stack([good, bad, good])
    with pytest.raises(DomainError):
        thermo.ergotropy(stack)
    assert np.isfinite(thermo.ergotropy(stack[:, [0, 2]]).wc).all()


def test_ergotropy_report_fields():
    rep = thermo.ergotropy([0.5, 0.0, 0.5], nbar=1.0)
    assert abs(rep.mean_energy - 1.0) < 1e-15
    assert abs(rep.passive_energy - 0.5) < 1e-15
    assert abs(rep.wc - 0.5) < 1e-15
    assert abs(rep.wc_dispersion - 0.75) < 1e-15
    assert abs(rep.efficiency - 0.5) < 1e-15
    assert np.isnan(thermo.ergotropy([1.0]).efficiency)


def test_wc_dispersion_is_variance_shift():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        q = thermo.passive_distribution(p)
        n = np.arange(6)
        var = lambda d: float(n ** 2 @ d - (n @ d) ** 2)
        disp = thermo.ergotropy(p).wc_dispersion
        assert abs(disp - abs(var(p) - var(q))) < 1e-12


def test_cross_kerr_closed_form_against_pipeline():
    for nbar in (0.2, 1.0, 2.5):
        for theta in (0.7, np.pi / 2, np.pi, 4.5):
            da = ev.mzi_output(CrossPhase(s=1), theta, nbar, tail_tol=1e-13)
            w = thermo.wc_from_dist(da)
            ref = thermo.wc_cross_kerr_closed_form(nbar, theta)
            assert abs(w - ref) < 1e-10
    assert abs(thermo.wc_cross_kerr_closed_form(1.0, np.pi) - 2.0 / 9.0) < 1e-15


def test_small_nbar_table():
    # leading-order rows: cross phase and two-photon exchange only
    nbar = 0.01
    for theta in (0.6, 1.9):
        ck = wc_table_oracle(CrossPhase(s=1), nbar, theta)
        da = ev.mzi_output(CrossPhase(s=1), theta, nbar)
        assert abs(thermo.wc_from_dist(da) - ck) < 5 * nbar ** 3
        x2 = wc_table_oracle(Exchange(k=2), nbar, theta)
        da2 = ev.mzi_output(Exchange(k=2), theta, nbar)
        assert abs(thermo.wc_from_dist(da2) - x2) < 5 * nbar ** 3
    assert wc_table_oracle(Exchange(k=3), nbar, 1.0) is None


def test_exchange3_window_formula():
    nbar = 0.05
    proc = Exchange(k=3)
    hits = 0
    for theta in np.linspace(0.05, 2 * np.pi, 61):
        ref = wc_exchange3_windows(nbar, theta)
        if ref is None:
            continue
        hits += 1
        da = ev.mzi_output(proc, theta, nbar)
        assert abs(thermo.wc_from_dist(da) - ref) < 5 * nbar ** 4
    assert hits > 10  # both window families must actually fire


def test_exchange3_second_window_wraps():
    # family (6j+5)pi/18 < theta < (6j+7)pi/18 crosses multiples of pi
    assert wc_exchange3_windows(0.01, 6.0 * np.pi / 18.0) is not None
    assert wc_exchange3_windows(0.01, 5.5 * np.pi / 18.0) is not None
    assert wc_exchange3_windows(0.01, 6.4 * np.pi / 18.0) is not None


def test_wc_sweep_mean_b_of_the_linear_exchange():
    # exchange k=1 is linear optics: a photon leaves through b with
    # probability cos^2 theta on every block, so mean_b = kept cos^2 theta.
    # Near theta = pi/2 mean_b falls to 1e-5 of the kept energy; taken by
    # conservation, its error stays round-off of the kept energy
    thetas = np.linspace(0.0, 6.283, 400)
    P = fock.thermal_distribution(5.0)
    kept = fock.mean_photon(P)
    res = thermo.wc_sweep(Exchange(k=1), 5.0, thetas)
    err = np.abs(res.mean_b - kept * np.cos(thetas) ** 2).max()
    assert err <= P.size * np.finfo(float).eps * kept


def test_wc_sweep_matches_pointwise():
    proc = Exchange(k=2)
    thetas = np.linspace(0.1, 3.0, 7)
    res = thermo.wc_sweep(proc, 1.0, thetas)
    for i, th in enumerate(thetas):
        da = ev.mzi_output(proc, th, 1.0)
        db = mode_b_distributions(proc, 1.0, [th])[:, 0]
        rep = thermo.ergotropy(da, nbar=1.0)
        assert abs(res.wc[i] - rep.wc) < 1e-12
        assert abs(res.eta[i] - rep.efficiency) < 1e-12
        assert abs(res.wc_dispersion[i] - rep.wc_dispersion) < 1e-12
        assert abs(res.mean_a[i] - fock.mean_photon(da)) < 1e-12
        assert abs(res.mean_b[i] - fock.mean_photon(db)) < 1e-12
        assert abs(res.odd_mass[i] - fock.odd_mass(da)) < 1e-12


def test_max_efficiency_cross_kerr():
    eta, theta_star = thermo.max_efficiency(CrossPhase(s=1), 1.0, 2 * np.pi,
                                            grid=200)
    assert abs(eta - 2.0 / 9.0) < 1e-9
    assert abs(theta_star - np.pi) < 1e-3
    with pytest.raises(DomainError):
        thermo.max_efficiency(CrossPhase(s=1), 1.0, 2 * np.pi, grid=50)
    assert thermo.max_efficiency(CrossPhase(s=1), 0.0, 2 * np.pi) == (0.0, 0.0)
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            thermo.max_efficiency(CrossPhase(s=1), 1.0, bad)


def test_max_efficiency_reports_the_first_mirror_peak():
    # cross-phase W(theta) = W(2 pi - theta): the peaks at theta* and
    # 2 pi - theta* tie within round-off, and the smaller angle is reported
    proc = CrossPhase(s=1)
    eta, theta_star = thermo.max_efficiency(proc, 40.0, 2 * np.pi, grid=100,
                                            tail_tol=1e-3)
    assert 2.9 < theta_star < np.pi
    w = thermo.wc_sweep(proc, 40.0, [theta_star, 2 * np.pi - theta_star],
                        1e-3).wc
    assert abs(w[1] - w[0]) < 1e-12 * w[0]
    assert abs(eta - w[0] / 40.0) < 1e-15


def test_max_efficiency_ignores_the_processes_swept_before():
    # the kept engine is always the swept process's own, so a sweep of
    # another process in between changes no bit of the answer
    ev.block_engine.cache_clear()
    cold = thermo.max_efficiency(Exchange(k=2), 1.0, 6.283)
    assert abs(cold[0] - 0.18386) < 1e-5 and abs(cold[1] - 4.69527) < 1e-5
    for other in (CrossPhase(), Exchange(k=3), Exchange(k=2)):
        thermo.wc_sweep(other, 1.0, [0.5, 2.0])
        assert thermo.max_efficiency(Exchange(k=2), 1.0, 6.283) == cold


def test_max_efficiency_breaks_round_off_ties_to_the_smaller_angle(
        monkeypatch):
    # mirror peaks at pi -/+ 1, the later one 4 ulp higher
    def mirrored(process, nbar, thetas, tail_tol):
        th = np.asarray(thetas)
        w = 1.0 - (np.abs(th - np.pi) - 1.0) ** 2
        return SimpleNamespace(wc=w + 4 * np.spacing(1.0) * (th > np.pi))

    monkeypatch.setattr(thermo, "wc_sweep", mirrored)
    _, theta_star = thermo.max_efficiency(CrossPhase(s=1), 1.0, 2 * np.pi,
                                          grid=101)
    assert abs(theta_star - (np.pi - 1.0)) < 1e-4


@pytest.mark.parametrize("theta_max", [1e11, 1e12])
def test_max_efficiency_stops_where_theta_has_no_finer_ulp(monkeypatch,
                                                           theta_max):
    # past 2^36 the ulp of theta exceeds the bracket tolerance, so the
    # rounds end when the bracket stops shrinking; a regression fails on
    # the round count instead of hanging
    sweep, rounds = thermo.wc_sweep, []

    def counted(*args):
        rounds.append(None)
        assert len(rounds) < 100, "max_efficiency kept refining"
        return sweep(*args)

    monkeypatch.setattr(thermo, "wc_sweep", counted)
    eta, theta_star = thermo.max_efficiency(CrossPhase(), 1.0, theta_max)
    assert 0.0 <= theta_star <= theta_max and np.isfinite(eta)


def test_first_peak_rule():
    top = 9.918929908551235
    ulp = np.spacing(top)
    assert thermo._first_peak(np.array([0.0, top - 60 * ulp, 1.0, top])) == 1
    assert thermo._first_peak(np.array([0.0, top - 70 * ulp, 1.0, top])) == 3
    assert thermo._first_peak(np.array([top, top, 0.0])) == 0


def test_one_photon_exchange_stays_passive():
    # a linear arm cannot create work from thermal light: the whole
    # interferometer is then a passive linear-optics network
    res = thermo.wc_sweep(Exchange(k=1), 1.0, np.linspace(0, 2 * np.pi, 40))
    assert res.wc.max() < 1e-12


def test_dispersion_anchor_cross_kerr_pi():
    da = ev.mzi_output(CrossPhase(s=1), np.pi, 1.0, tail_tol=1e-14)
    assert abs(thermo.ergotropy(da).wc_dispersion - 26.0 / 27.0) < 1e-10
