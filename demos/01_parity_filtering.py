"""
Parity filtering of thermal light
=================================

A thermal state carries every photon number with geometric weights. Sent
through the interferometer with a nonlinear arm held at phase pi, the
bright output keeps only even photon numbers when the arm's order is even,
while odd-order arms leak a small odd-weight residue. This script prints
the head of each output distribution and the residual odd mass.
"""

import numpy as np

from nlmzi import evolution, fock
from nlmzi.operators import CrossPhase, Exchange

NBAR = 1.0


def main():
    thermal = fock.thermal_distribution(NBAR, 1e-12)
    print("thermal input, nbar = %g: odd mass %.6f (exactly 1/3 here)"
          % (NBAR, fock.odd_mass(thermal)))
    print()

    processes = [
        ("cross-phase s=1", CrossPhase(s=1), np.pi),
        ("exchange  k=2", Exchange(k=2), np.pi),
        ("exchange  k=3", Exchange(k=3), np.pi),
        ("exchange  k=4", Exchange(k=4, allow_high_order=True), np.pi),
    ]
    print("%-18s %10s %10s %10s %10s %12s" %
          ("arm at phase pi", "P(0)", "P(1)", "P(2)", "P(3)", "odd mass"))
    for label, proc, phase in processes:
        da = evolution.mzi_output(proc, phase, NBAR)
        print("%-18s %10.6f %10.6f %10.6f %10.6f %12.3e"
              % (label, da[0], da[1], da[2], da[3], fock.odd_mass(da)))

    # the even-order rows sit at machine zero; the k=3 row keeps a few
    # permille of odd weight no matter the phase, which is what makes the
    # even/odd contrast a usable diagnostic of the arm's order
    print()
    gts = np.linspace(0, 2 * np.pi, 41)
    proc = Exchange(k=3)
    da = evolution.sweep_distributions(proc, NBAR, gts, 1e-12)
    om = [fock.odd_mass(da[:, j]) for j in range(gts.size)]
    j = int(np.argmax(om))
    print("k=3 odd mass over a full phase sweep: peak %.4e at gt = %.3f"
          % (om[j], gts[j]))


if __name__ == "__main__":
    main()
