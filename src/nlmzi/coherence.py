"""Zero-delay coherence functions and their link to work capacity.

g^(m)(0) = <n(n-1)...(n-m+1)> / <n>^m is m! for thermal light; the
normalized functions g~^(m) = g^(m)/m! measure how far the interferometer
output has moved from thermal statistics. For parity-filtered outputs whose
even weights do not rise with n, the second-order function is an exact
function of the work capacity and its dispersion, and in the small-nbar
regime all three orders collapse onto closed scaling laws in W.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional

import numpy as np

from . import fock
from .errors import DomainError
from .evolution import sweep_distributions
from .operators import CrossPhase, Exchange, ProcessSpec
from .thermo import (ErgotropyReport, checked_probabilities, ergotropy,
                     exchange3_envelope)

MEAN_FLOOR = 1e-10
REGIME_NBAR = 0.1


def g_m(p, m: int):
    """m-th order zero-delay coherence of a distribution (n,), or per column
    of a stack (n, T).

    Returns nan (an explicit not-a-value, never a silent zero) where the
    mean photon number sits below MEAN_FLOOR. A non-finite entry, or one
    below -1e-12, raises DomainError (thermo.checked_probabilities).
    """
    if not 2 <= m <= 4:
        raise DomainError("coherence order m must be 2, 3 or 4")
    p = checked_probabilities(p)
    mean = fock.mean_photon(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = fock.factorial_moment(p, m) / mean ** m
    return np.where(mean < MEAN_FLOOR, np.nan, g)[()]


@dataclass(frozen=True)
class CoherenceReport:
    """One value per field and distribution: floats for (n,), (T,) for (n, T)."""
    g2: float
    g3: float
    g4: float
    g2_norm: float
    g3_norm: float
    g4_norm: float


def coherence_report(p) -> CoherenceReport:
    g2 = g_m(p, 2)
    g3 = g_m(p, 3)
    g4 = g_m(p, 4)
    return CoherenceReport(g2=g2, g3=g3, g4=g4,
                           g2_norm=g2 / 2.0, g3_norm=g3 / 6.0, g4_norm=g4 / 24.0)


def g2_from_wc(report: ErgotropyReport):
    """Second-order coherence from the work-capacity report alone, one value
    per distribution of the report:

        g2 = 1 - 1/(2W) + |dW^2| / (3 W^2).

    Exact only when the odd photon weights are zero and the even weights
    q_m = p(2m) are non-increasing in m = n/2. The passive sort then gives
    W = <n>/2, from which the formula follows. An even-only output whose
    weights rise has W = <n>/2 + W(q) instead, and the formula misses the
    direct moment ratio (exchange k=2 at theta = pi, nbar = 1: 12.7 against
    15.9). The formula is returned all the same; nan comes back only where
    W sits below MEAN_FLOOR.
    """
    w = report.wc
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = 1.0 - 1.0 / (2.0 * w) + report.wc_dispersion / (3.0 * w ** 2)
    return np.where(np.isfinite(w) & (w >= MEAN_FLOOR), g2, np.nan)[()]


# ---------------------------------------------------------------------------
# small-nbar scaling shapes
# ---------------------------------------------------------------------------

def f_cross_phase(theta) -> np.ndarray:
    """Oscillatory factor in the s=1 cross-phase g3/g4 scalings:
    f = 7 + 8 cos(theta) + 3 cos(2 theta)."""
    theta = np.asarray(theta, dtype=float)
    return 7.0 + 8.0 * np.cos(theta) + 3.0 * np.cos(2.0 * theta)


def f_exchange2(theta) -> np.ndarray:
    """Oscillatory factor for 2-photon exchange, with the incommensurate
    sqrt(3) sidebands:

        f = (15 + cos(8 sqrt3 t) - 16 cos(6t) cos(4 sqrt3 t)
               - 8 sqrt3 sin(6t) sin(4 sqrt3 t)) / (16 sin^4 t).
    """
    t = np.asarray(theta, dtype=float)
    r3 = np.sqrt(3.0)
    num = (15.0 + np.cos(8.0 * r3 * t)
           - 16.0 * np.cos(6.0 * t) * np.cos(4.0 * r3 * t)
           - 8.0 * r3 * np.sin(6.0 * t) * np.sin(4.0 * r3 * t))
    return num / (16.0 * np.sin(t) ** 4)


def q_exchange3(theta: float, m: int, nbar: float = 0.0):
    """Piecewise scaling numerators q_1, q_2, q_3 for 3-photon exchange.

    m = 1, 2, 3 pair with g2 ~ q_1/W, g3 ~ q_2/W^2, g4 ~ q_3/W^3 (one
    exponent lower than the order, matching the windowed derivation).
    Defined only inside the windows of thermo.exchange3_envelope; returns
    None elsewhere.
    """
    if m not in (1, 2, 3):
        raise DomainError("q index must be 1, 2 or 3")
    envelope = exchange3_envelope(theta)
    if envelope is None:
        return None
    p0 = 1.0 / (1.0 + nbar)
    s3 = np.sin(3.0 * theta)
    s6 = np.sin(6.0 * theta)
    den2 = 1.5 * s3 ** 4 + (3.0 / 8.0) * s6 ** 2
    den34 = p0 * 2.25 * s6 ** 4 + den2
    if m == 1:
        num = 1.5 * s3 ** 4 + (3.0 / 8.0) * s6 ** 2
        return num * envelope / den2 ** 2
    if m == 2:
        num = p0 * 13.5 * s6 ** 4 + (3.0 / 8.0) * s6 ** 2
        return num * envelope ** 2 / den34 ** 3
    num = p0 * 13.5 * s6 ** 4
    return num * envelope ** 3 / den34 ** 4


@dataclass(frozen=True)
class ScalingPrediction:
    g2: float
    g3: float
    g4: float
    theta_ref: float
    regime_warning: bool


def small_nbar_scalings(process: ProcessSpec, nbar: float, theta: float,
                        theta_ref: Optional[float] = None,
                        tail_tol: float = 1e-12) -> ScalingPrediction:
    """Calibrated small-nbar predictions for the normalized g~^(2,3,4).

    The scaling laws fix only shapes (g~2 ~ 1/(2W), g~3 ~ 3f/(2W),
    g~4 ~ 3f/(4W^2) for cross-phase s=1 and 2-photon exchange; windowed
    q_m/W^m forms for 3-photon exchange), so each order is pinned to the
    measured value at a reference angle (default pi for cross-phase, pi/2
    for exchange) and propagated along the measured W(theta). Orders whose
    oscillatory factor has no closed form for the given process come back
    as nan; a regime warning is raised above nbar = 0.1.
    """
    if theta_ref is None:
        theta_ref = np.pi if isinstance(process, CrossPhase) else np.pi / 2.0
    warn = nbar > REGIME_NBAR

    def measure(th: float) -> np.ndarray:
        # one-point sweeps: a column of a wider product is rounded
        # differently by BLAS, and the reference must be bit-identical to
        # what mzi_output gives at theta_ref
        return sweep_distributions(process, nbar, [th], tail_tol)[0][:, 0]

    da_ref = measure(theta_ref)
    w = ergotropy(measure(theta)).wc
    w_ref = ergotropy(da_ref).wc
    meas_ref = [g_m(da_ref, m) / factorial(m) for m in (2, 3, 4)]

    def shape(m: int, th: float, ww: float):
        if ww < MEAN_FLOOR:
            return None
        odd = isinstance(process, Exchange) and process.k % 2 == 1
        if odd:
            if isinstance(process, Exchange) and process.k == 3:
                q = q_exchange3(th, m - 1, nbar)
                return None if q is None else q / ww ** (m - 1)
            return None
        if m == 2:
            return 1.0 / (2.0 * ww)
        if isinstance(process, CrossPhase) and process.s == 1:
            f = float(f_cross_phase(th))
        elif isinstance(process, Exchange) and process.k == 2:
            f = float(f_exchange2(th))
        else:
            return None
        return 1.5 * f / ww if m == 3 else 0.75 * f / ww ** 2

    out = []
    for i, m in enumerate((2, 3, 4)):
        s_ref = shape(m, theta_ref, w_ref)
        s_here = shape(m, theta, w)
        if s_ref is None or s_here is None or not np.isfinite(meas_ref[i]):
            out.append(float("nan"))
        else:
            # the ratio is exactly 1.0 at theta_ref, so the calibration
            # point returns the measured value unrounded
            out.append(meas_ref[i] * (s_here / s_ref))
    return ScalingPrediction(g2=out[0], g3=out[1], g4=out[2],
                             theta_ref=theta_ref, regime_warning=warn)
