"""Acceptance gate: twelve numbered end-to-end checks, one verdict line each.

Each check prints `CRITERION nn PASS/FAIL - detail` and then asserts, so a
red run still reports every measured number on the way down.
"""

import itertools
import json
import time

import numpy as np

from nlmzi import coherence as coh
from nlmzi import evolution as ev
from nlmzi import fock, optomech as om, thermo
from nlmzi.cli import main as cli_main
from nlmzi.operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                             NonDegeneratePDC)
from oracles import (beam_splitter_unitary, stokes, tensor_mzi_state,
                     two_mode_monomial)

NBAR_REF = 1.0


def _verdict(num, ok, detail):
    print("CRITERION %02d %s - %s" % (num, "PASS" if ok else "FAIL", detail),
          flush=True)
    return ok


_parity_cache = {}


def _parity_outputs():
    """Bright-port outputs of the three even-order processes at phase pi."""
    if not _parity_cache:
        for label, proc in (("cross-phase", CrossPhase(s=1)),
                            ("exchange k=2", Exchange(k=2)),
                            ("exchange k=4", Exchange(k=4, allow_high_order=True))):
            da, _ = ev.mzi_output(proc, np.pi, NBAR_REF)
            _parity_cache[label] = da
    return _parity_cache


def test_c01_closed_form_work_capacity():
    t0 = time.perf_counter()
    worst = 0.0
    for nbar in (0.1, 1.0, 5.0):
        thetas = np.linspace(0.0, 2.0 * np.pi, 100)
        res = thermo.wc_sweep(CrossPhase(s=1), nbar, thetas)
        ref = thermo.wc_cross_kerr_closed_form(nbar, thetas)
        tol = 1e-9 + res.tail_mass
        worst = max(worst, np.abs(res.wc - ref).max() / tol)
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0 and elapsed < 5.0
    assert _verdict(1, ok, "max err %.2e of tolerance, %.1f s"
                    % (worst, elapsed))


def test_c02_parity_filtering():
    even = {lbl: fock.odd_mass(d) for lbl, d in _parity_outputs().items()}
    odd = {}
    gts = np.linspace(0.0, 2.0 * np.pi, 41)
    for k in (3, 5):
        proc = Exchange(k=k, allow_high_order=True)
        da, _, _ = ev.sweep_distributions(proc, NBAR_REF, gts, 1e-12)
        odd["k=%d" % k] = max(fock.odd_mass(da[:, j]) for j in range(gts.size))
    ok = all(v < 1e-12 for v in even.values()) \
        and all(v > 1e-3 for v in odd.values())
    assert _verdict(2, ok, "even-order odd mass %s; odd-order peak %s"
                    % ({k: "%.1e" % v for k, v in even.items()},
                       {k: "%.2e" % v for k, v in odd.items()}))


def test_c03_work_is_half_the_mean():
    parts = []
    for lbl, d in _parity_outputs().items():
        w = thermo.wc_from_dist(d)
        half = fock.mean_photon(d) / 2.0
        parts.append((lbl, abs(w - half)))
    ok = all(diff <= 1e-12 for _, diff in parts)
    assert _verdict(3, ok, "; ".join("%s |W - mean/2| = %.6e" % p
                                     for p in parts))


def test_c04_peak_efficiency_saturation():
    t0 = time.perf_counter()
    eta_ck, th_ck = thermo.max_efficiency(CrossPhase(s=1), 100.0,
                                          2.0 * np.pi, grid=100,
                                          tail_tol=1e-3)
    rel_ck = abs(eta_ck - 0.25) / 0.25
    gam = {}
    for k, target in ((2, 0.4), (3, 0.2)):
        eta, _ = thermo.max_efficiency(Exchange(k=k), 20.0, 100.0,
                                       grid=2000, tail_tol=1e-5)
        gam[k] = (eta * 20.0, abs(eta * 20.0 - target) / target)
    elapsed = time.perf_counter() - t0
    ok = rel_ck < 0.03 and all(r < 0.15 for _, r in gam.values()) \
        and elapsed < 60.0
    assert _verdict(4, ok,
                    "cross-phase eta %.5f (%.1f%% off 1/4 at theta %.4f); "
                    "eta*nbar k=2 %.4f (%.1f%%), k=3 %.4f (%.1f%%); %.1f s"
                    % (eta_ck, 100 * rel_ck, th_ck,
                       gam[2][0], 100 * gam[2][1],
                       gam[3][0], 100 * gam[3][1], elapsed))


def test_c05_g2_from_work_capacity():
    details = []
    ok = True
    for lbl, proc in (("cross-phase", CrossPhase(s=1)),
                      ("exchange k=2", Exchange(k=2))):
        for nbar in (0.1, 1.0, 5.0):
            thetas = np.linspace(0.0, 2.0 * np.pi, 100)
            da, _, _ = ev.sweep_distributions(proc, nbar, thetas, 1e-12)
            errs = []
            for j in range(thetas.size):
                rep = thermo.ergotropy(da[:, j])
                if rep.wc < 1e-10:
                    continue  # estimator undefined at zero work
                errs.append(abs(coh.g2_from_wc(rep) - coh.g_m(da[:, j], 2)))
            errs = np.asarray(errs)
            bad = int((~(errs < 1e-9)).sum())  # a nan counts as a miss
            ok = ok and bad == 0
            details.append("%s nbar=%g max %.2e (%d/%d over)"
                           % (lbl, nbar, errs.max(), bad, errs.size))
    assert _verdict(5, ok, "; ".join(details))


def test_c06_small_nbar_scaling_accuracy():
    nbar = 0.01
    rows = []
    worst = 0.0
    for theta in (np.pi / 2.0, np.pi, 1.5 * np.pi):
        da, _ = ev.mzi_output(CrossPhase(s=1), theta, nbar)
        if thermo.wc_from_dist(da) < 1e-12:
            continue
        pred = coh.small_nbar_scalings(CrossPhase(s=1), nbar, theta)
        meas = coh.coherence_report(da)
        errs = (abs(pred.g2 / meas.g2_norm - 1.0),
                abs(pred.g3 / meas.g3_norm - 1.0),
                abs(pred.g4 / meas.g4_norm - 1.0))
        worst = max(worst, *errs)
        rows.append("theta=%.4f rel err g2 %.1e g3 %.1e g4 %.1e"
                    % (theta, *errs))
    ok = worst <= 0.02
    assert _verdict(6, ok, "worst %.4e; " % worst + "; ".join(rows))


def test_c07_leading_probability_oracles():
    nbar = 0.05
    P = fock.thermal_distribution(nbar, 1e-15)
    gts = np.linspace(0.0, 2.0 * np.pi, 61)
    r3 = np.sqrt(3.0)

    da2, _, _ = ev.sweep_distributions(Exchange(k=2), nbar, gts, 1e-15)
    pair = (P[2] * np.sin(gts) ** 2
            + P[3] * 0.25 * np.sin(2.0 * r3 * gts) ** 2
            + P[4] * 0.125 * np.sin(4.0 * r3 * gts) ** 2)
    err2 = np.abs(da2[2, :] - pair).max()

    da3, _, _ = ev.sweep_distributions(Exchange(k=3), nbar, gts, 1e-15)
    s3, s6, s12 = np.sin(3 * gts), np.sin(6 * gts), np.sin(12 * gts)
    triplet = {
        1: (3 / 16) * P[3] * s6 ** 2 + (9 / 16) * P[4] * s12 ** 2,
        2: (3 / 4) * P[3] * s3 ** 4 + (3 / 8) * P[4] * s6 ** 4,
        3: (1 / 16) * P[3] * s6 ** 2 + (1 / 16) * P[4] * s12 ** 2,
        4: (9 / 16) * P[4] * s6 ** 4,
    }
    err3 = max(np.abs(da3[n, :] - pred).max() for n, pred in triplet.items())

    ok = err2 < 5 * nbar ** 3 and err3 < 5 * nbar ** 4
    assert _verdict(7, ok, "pair-transfer err %.2e (tol %.2e); "
                    "triple-transfer err %.2e (tol %.2e)"
                    % (err2, 5 * nbar ** 3, err3, 5 * nbar ** 4))


def test_c08_oscillator_oracle_equivalence():
    t0 = time.perf_counter()
    dist = [0.5, 0.0, 0.5]
    cfg = om.OscillatorConfig(G=0.05, Omega=1.0, init=om.CoherentInit(1.0))
    taus = np.linspace(0.0, 4.0 * np.pi, 200)
    closed = om.phonon_trace_coherent(dist, cfg, taus)
    oracle = om.full_quantum_oracle(dist, cfg, 40, taus)
    err = np.abs(closed.phonon - oracle.phonon).max()
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and elapsed < 10.0
    assert _verdict(8, ok, "phonon err %.2e, %.2f s" % (err, elapsed))


def test_c09_inference_round_trip():
    da, _ = ev.mzi_output(CrossPhase(s=1), np.pi, NBAR_REF, tail_tol=1e-13)
    cfg = om.OscillatorConfig(G=0.01, Omega=1.0,
                              init=om.CoherentInit(10.0 + 0.0j))
    taus = np.linspace(0.0, 6.0 * np.pi, 128)
    trace = om.phonon_trace_coherent(da, cfg, taus)
    target = 2.0 / 9.0
    clean = abs(om.infer_wc(trace).wc - target)

    rng = np.random.default_rng(42)
    rels = []
    for _ in range(100):
        noisy = om.OscillatorTrace(
            taus=taus, phonon=trace.phonon + rng.normal(0.0, 1e-3, taus.size),
            xvar=trace.xvar, config=cfg)
        rels.append(abs(om.infer_wc(noisy).wc - target) / target)
    ok = clean < 1e-8 and max(rels) < 0.01
    assert _verdict(9, ok, "noiseless err %.2e; noisy rel err max %.2e "
                    "mean %.2e over 100 seeds"
                    % (clean, max(rels), float(np.mean(rels))))


def test_c10_down_conversion_discrimination():
    deg = ev.pdc_signal_sweep(DegeneratePDC(g=1.0), NBAR_REF,
                              np.array([np.pi / 2.0]))[:, 0]
    w_deg = thermo.wc_from_dist(deg)
    inverted = bool(np.any(deg[1:] > deg[:-1] + 1e-6))

    gts = np.array([np.pi / 4.0, np.pi])
    non = ev.pdc_signal_sweep(NonDegeneratePDC(g=1.0), NBAR_REF, gts)
    w_non = [thermo.wc_from_dist(non[:, j]) for j in range(2)]

    ok = w_deg > 1e-10 and inverted and all(w < 1e-10 for w in w_non)
    assert _verdict(10, ok, "degenerate W %.4e inversion %s; "
                    "non-degenerate W %.3e at pi/4, %.3e at pi"
                    % (w_deg, inverted, w_non[0], w_non[1]))


def test_c11_property_suites():
    ok = True
    notes = []

    # pseudospin algebra and Casimir on every block
    worst = 0.0
    for N in range(1, 7):
        jx, jy, jz = (stokes(N, ax) for ax in "xyz")
        eye = np.eye(N + 1)
        worst = max(worst,
                    np.abs(jx @ jy - jy @ jx - 1j * jz).max(),
                    np.abs(jy @ jz - jz @ jy - 1j * jx).max(),
                    np.abs(jz @ jx - jx @ jz - 1j * jy).max(),
                    np.abs(jx @ jx + jy @ jy + jz @ jz
                           - (N / 2.0) * (N / 2.0 + 1.0) * eye).max())
    ok = ok and worst < 1e-12
    notes.append("algebra %.1e" % worst)

    # splitter-conjugation and pseudospin identities
    worst = 0.0
    for N in range(1, 7):
        B = beam_splitter_unitary(N)
        Bd = B.conj().T
        mono = lambda ap, am, bp, bm: two_mode_monomial(N, ap, am, bp, bm)
        jx, jy, jz = (stokes(N, ax) for ax in "xyz")
        nanb = mono(1, 1, 1, 1)
        quart = 0.25 * (mono(2, 2, 0, 0) + mono(0, 0, 2, 2)
                        + mono(2, 0, 0, 2) + mono(0, 2, 2, 0))
        worst = max(worst, np.abs(B @ nanb @ Bd - quart).max())
        exch2 = mono(2, 0, 0, 2) + mono(0, 2, 2, 0)
        rot2 = 0.5 * (-mono(2, 2, 0, 0) - mono(0, 0, 2, 2)
                      + mono(2, 0, 0, 2) + mono(0, 2, 2, 0) + 4.0 * nanb)
        worst = max(worst, np.abs(B @ exch2 @ Bd - rot2).max())
        worst = max(worst, np.abs(nanb - (N ** 2 / 4.0) * np.eye(N + 1)
                                  + jz @ jz).max())
        worst = max(worst, np.abs(exch2 - 2.0 * (jx @ jx - jy @ jy)).max())
        jp = jx + 1j * jy
        jm = jx - 1j * jy
        cube = np.linalg.matrix_power(jp, 3) + np.linalg.matrix_power(jm, 3)
        exch3 = mono(3, 0, 0, 3) + mono(0, 3, 3, 0)
        worst = max(worst, np.abs(exch3 - cube).max())
        rot3 = (np.linalg.matrix_power(jx + 1j * jz, 3)
                + np.linalg.matrix_power(jx - 1j * jz, 3))
        worst = max(worst, np.abs(B @ cube @ Bd - rot3).max())
    ok = ok and worst < 1e-12
    notes.append("identities %.1e" % worst)

    # block engine against the dense tensor oracle
    worst = 0.0
    for proc in (CrossPhase(s=1), CrossPhase(s=2), Exchange(k=2),
                 Exchange(k=3),
                 Hybrid(terms=((0.7, CrossPhase(s=1)), (0.4, Exchange(k=2))))):
        eng = ev.BlockEngine(proc)
        for t in (0.8, 2.3):
            for N in range(7):
                ref = tensor_mzi_state(proc, t, N, 6)
                got = eng.amplitudes(N, [t * proc.strength])[:, 0]
                worst = max(worst, np.abs(got - ref).max())
    ok = ok and worst < 1e-10
    notes.append("dense evolution %.1e" % worst)

    # passive rearrangement beats every permutation, exhaustively
    rng = np.random.default_rng(2024)
    worst = 0.0
    for size in range(4, 9):
        for _ in range(2):
            p = rng.dirichlet(np.ones(size))
            levels = np.arange(size)
            best = min(sum(i * q for i, q in zip(levels, perm))
                       for perm in itertools.permutations(p))
            passive = float(levels @ thermo.passive_distribution(p))
            worst = max(worst, passive - best)
    ok = ok and worst <= 1e-12
    notes.append("passivity slack %.1e" % worst)

    assert _verdict(11, ok, "; ".join(notes))


def test_c12_manifest_replay_determinism(tmp_path, capsys):
    specs = [
        ("wc.csv", ["wc-sweep", "--process", "cross-kerr", "--nbar", "1.0",
                    "--theta", "0:6.283:11"]),
        ("coh.csv", ["coherence", "--process", "exchange", "--k", "2",
                     "--nbar", "0.5", "--theta", "0.1:3.1:7"]),
    ]
    ok = True
    for name, argv in specs:
        out = tmp_path / name
        ok = ok and cli_main(argv + ["--out", str(out)]) == 0
        manifest = out.with_suffix(out.suffix + ".manifest.json")
        ok = ok and cli_main(["rerun", str(manifest)]) == 0
        digest = json.loads(manifest.read_text())["outputs"][name]
        ok = ok and "MATCH" in capsys.readouterr().out and len(digest) == 64
    assert _verdict(12, ok, "%d manifests replayed byte-identically"
                    % len(specs))
