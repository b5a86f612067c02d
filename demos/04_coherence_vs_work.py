"""
Photon coherence functions read off the work capacity
=====================================================

Zero-delay coherence functions g^(m)(0) are m! for thermal light, and the
interferometer pushes them far above that. On parity-filtered outputs the
second-order function is an exact function of W and its dispersion, and in
the dim-input regime all three measured orders collapse onto scaling laws
in W. Both connections are demonstrated here.
"""

import numpy as np

from nlmzi import coherence, evolution, thermo
from nlmzi.operators import CrossPhase


def main():
    # exact route: at phase pi the bright output is even-only, so g2 is
    # fixed by the work capacity report alone
    da = evolution.mzi_output(CrossPhase(s=1), np.pi, 1.0)
    rep = thermo.ergotropy(da, nbar=1.0)
    direct = coherence.g_m(da, 2)
    via_wc = coherence.g2_from_wc(rep)
    print("bright output at phase pi, nbar = 1:")
    print("  g2 from photon moments   %.12f" % direct)
    print("  g2 from W and dispersion %.12f" % via_wc)
    print("  (thermal light would give 2; the output is super-bunched)")
    print()

    # dim-input route: calibrated scaling laws track the measured
    # normalized coherences across the phase axis
    nbar = 0.01
    print("dim input nbar = %g: scaling predictions vs measurement" % nbar)
    print("%8s %23s %23s" % ("theta", "g2~ pred / meas", "g3~ pred / meas"))
    for theta in (0.8, 1.6, 2.4, np.pi):
        pred = coherence.small_nbar_scalings(CrossPhase(s=1), nbar, theta)
        d = evolution.mzi_output(CrossPhase(s=1), theta, nbar)
        meas = coherence.coherence_report(d)
        print("%8.4f %11.4f / %9.4f %11.2f / %9.2f"
              % (theta, pred.g2, meas.g2_norm, pred.g3, meas.g3_norm))
    print("(the reference angle pi is the calibration point, so it agrees "
          "identically)")


if __name__ == "__main__":
    main()
