"""
Reading the work capacity off a mechanical oscillator
=====================================================

Coupling the bright output to a mechanical mode imprints the field's work
capacity on the oscillator's phonon number as a slow beat, and the work
dispersion on its position variance. The closed-form traces are checked
against the exact truncated-oscillator oracle (tridiagonal eigensolve,
banded moments), and the inference routine then runs the readout
backwards: trace in, work capacity out, with and without noise.
"""

import numpy as np

from nlmzi import evolution, optomech, thermo
from nlmzi.operators import CrossPhase


def main():
    da = evolution.mzi_output(CrossPhase(s=1), np.pi, 1.0, tail_tol=1e-13)
    w_true = thermo.ergotropy(da).wc
    print("field: bright output at phase pi, nbar = 1; W = %.10f" % w_true)

    cfg = optomech.OscillatorConfig(G=0.01, Omega=1.0,
                                    init=optomech.CoherentInit(10.0 + 0.0j))
    taus = np.linspace(0.0, 6.0 * np.pi, 128)
    trace = optomech.phonon_trace_coherent(da, cfg, taus)

    # exact truncated-oscillator oracle (tridiagonal eigensolve, banded
    # moments) on a coarser grid: it evolves the full field-oscillator
    # state, so keep its grid small
    coarse = taus[::16]
    oracle = optomech.full_quantum_oracle(da, cfg, 180, coarse)
    closed = optomech.phonon_trace_coherent(da, cfg, coarse)
    print("closed form vs exact oracle: max phonon gap %.2e"
          % np.abs(closed.phonon - oracle.phonon).max())
    print()

    res = optomech.infer_wc(trace)
    print("inference from the noiseless trace:")
    print("  W    = %.12f  (err %.2e)" % (res.wc, abs(res.wc - w_true)))
    print("  |dW^2| = %.8f, dispersion channel used: %s"
          % (res.wc_dispersion, res.from_xvar))

    rng = np.random.default_rng(7)
    noisy = optomech.OscillatorTrace(
        taus=taus, phonon=trace.phonon + rng.normal(0.0, 1e-3, taus.size),
        xvar=trace.xvar, config=cfg)
    res_n = optomech.infer_wc(noisy)
    print("with 1e-3 Gaussian noise on the phonon record:")
    print("  W    = %.8f  (rel err %.2e)"
          % (res_n.wc, abs(res_n.wc - w_true) / w_true))


if __name__ == "__main__":
    main()
