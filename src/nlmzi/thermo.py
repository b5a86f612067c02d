"""Work capacity (ergotropy) of photon number distributions.

For a diagonal field state with distribution p, the passive counterpart
rearranges the same probabilities in descending order; the work capacity

    W = <n> - <n>_passive

is the energy (in photon quanta, hbar omega = 1) unitarily extractable from
the state. The dispersion |Var(n) - Var_passive(n)| tracks the fluctuation
cost of that extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import fock
from .errors import DomainError
from .evolution import sweep_distributions
from .operators import ProcessSpec

# negative work capacities can only be round-off: sorting minimizes the mean
_ROUNDOFF = 1e-14

# work capacities within this many ulp of a scan's maximum tie, and the
# smallest tied angle wins: mirror peaks such as cross-phase's theta* and
# 2 pi - theta* are then resolved by the rule, not by round-off
_PEAK_ULPS = 64

# max_efficiency refines its bracket until it is narrower than this angle
_THETA_XTOL = 1e-5


@dataclass(frozen=True)
class ErgotropyReport:
    """One value per field and distribution: floats for (n,), (T,) for (n, T)."""
    mean_energy: float
    passive_energy: float
    wc: float
    wc_dispersion: float
    efficiency: float  # nan when the input scale nbar was not supplied


def passive_distribution(p) -> np.ndarray:
    """Probabilities rearranged to descending order, column by column."""
    return np.sort(np.asarray(p, dtype=float), axis=0)[::-1]


def wc_from_dist(p) -> float:
    """Work capacity <n> - <n>_passive of a distribution."""
    return ergotropy(p).wc


def checked_probabilities(p) -> np.ndarray:
    """p as a float array; a non-finite entry or one below -1e-12 raises
    DomainError."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise DomainError("non-finite probability in distribution")
    if p.size and p.min() < -1e-12:
        raise DomainError("negative probability %g in distribution" % p.min())
    return p


def ergotropy(p, nbar: Optional[float] = None) -> ErgotropyReport:
    """Full work-capacity report of a distribution (n,) or a stack (n, T).

    nbar, when given, is the input-side mean photon number used for the
    efficiency eta = W / nbar. A negative W is round-off and clipped to 0
    while it stays within _ROUNDOFF * n * max(1, <n>) of 0; a larger one,
    a probability below -1e-12 or a non-finite entry raises DomainError.
    """
    p = checked_probabilities(p)
    pas = passive_distribution(p)
    mean = fock.mean_photon(p)
    pas_mean = fock.mean_photon(pas)
    w = mean - pas_mean
    if np.any(w < -_ROUNDOFF * p.shape[0] * np.maximum(1.0, mean)):
        raise DomainError("passive rearrangement increased the mean")
    w = np.clip(w, 0.0, None)
    if nbar is None:
        eta = w * np.nan
    else:
        eta = w * 0.0 if nbar == 0 else w / nbar
    return ErgotropyReport(
        mean_energy=mean, passive_energy=pas_mean, wc=w,
        wc_dispersion=np.abs(fock.variance(p) - fock.variance(pas)),
        efficiency=eta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def wc_cross_kerr_closed_form(nbar: float, theta: float) -> float:
    """W(theta) for the cross-phase s=1 interferometer with thermal input:

        W = (nbar/4) (1 - 1 / (1 + nbar - nbar cos theta)^2).
    """
    if nbar < 0:
        raise DomainError("nbar must be >= 0")
    return (nbar / 4.0) * (1.0 - 1.0 / (1.0 + nbar - nbar * np.cos(theta)) ** 2)


def exchange3_envelope(theta):
    """Envelope of the leading small-nbar 3-photon-exchange work capacity.

    Defined piecewise on the windows where the passive reordering is
    analytically known:

      (4j+1) pi/12 < theta < (4j+3) pi/12:
          3/4 sin^4(3 theta) - 3/16 sin^2(6 theta)
      (6j+5) pi/18 < theta < (6j+7) pi/18:
          1/16 sin^2(6 theta) - 3/4 sin^4(3 theta)

    Returns None outside both window families (both may apply; the first
    family's branch is returned).
    """
    s3 = np.sin(3.0 * theta)
    s6 = np.sin(6.0 * theta)
    x = theta / np.pi
    if 1.0 < (12.0 * x) % 4.0 < 3.0:
        return 0.75 * s3 ** 4 - (3.0 / 16.0) * s6 ** 2
    if 0.0 < (18.0 * x - 5.0) % 6.0 < 2.0:  # window (6j+5, 6j+7) wraps mod 6
        return (1.0 / 16.0) * s6 ** 2 - 0.75 * s3 ** 4
    return None


# ---------------------------------------------------------------------------
# sweeps and saturation scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    thetas: np.ndarray
    wc: np.ndarray
    eta: np.ndarray
    wc_dispersion: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    odd_mass: np.ndarray
    tail_mass: float


def wc_sweep(process: ProcessSpec, nbar: float, thetas,
             tail_tol: float = 1e-12) -> SweepResult:
    """Work capacity and companions across a theta grid (vectorized)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    da, db, P = sweep_distributions(process, nbar, thetas, tail_tol)
    rep = ergotropy(da, nbar)
    return SweepResult(thetas=thetas, wc=rep.wc, eta=rep.efficiency,
                       wc_dispersion=rep.wc_dispersion,
                       mean_a=rep.mean_energy, mean_b=fock.mean_photon(db),
                       odd_mass=fock.odd_mass(da),
                       tail_mass=fock.thermal_tail_mass(nbar, P.size - 1))


def _first_peak(w) -> int:
    """Index of the first entry within _PEAK_ULPS ulp of max(w)."""
    top = w.max()
    return int(np.argmax(w >= top - _PEAK_ULPS * np.spacing(top)))


def max_efficiency(process: ProcessSpec, nbar: float, theta_max: float,
                   grid: int = 200,
                   tail_tol: float = 1e-12) -> Tuple[float, float]:
    """(eta_max, theta_star) over theta in [0, theta_max].

    Coarse grid scan followed by bracket refinement around the best grid
    point; the best point of a grid is its smallest angle whose W lies
    within _PEAK_ULPS ulp of the grid's maximum. A sweep evaluating a dozen
    angles through the cached block factors costs barely more than
    evaluating one (the cache streaming dominates), so each refinement
    round re-grids the bracket instead of bisecting point by point. The
    rounds stop at a bracket narrower than _THETA_XTOL, or at one that a
    round no longer narrows, where the ulp of theta exceeds it.
    """
    if not (np.isfinite(theta_max) and theta_max > 0):
        raise DomainError("theta_max must be finite and > 0")
    if grid < 100:
        raise DomainError("grid must be >= 100 for a trustworthy coarse scan")
    if nbar == 0:
        return 0.0, 0.0
    thetas = np.linspace(0.0, theta_max, grid)
    res = wc_sweep(process, nbar, thetas, tail_tol)
    i = _first_peak(res.wc)
    step = thetas[1] - thetas[0]
    theta_star, w_star = float(thetas[i]), float(res.wc[i])

    lo = max(0.0, theta_star - step)
    hi = min(theta_max, theta_star + step)
    while hi - lo > _THETA_XTOL:
        sub = np.linspace(lo, hi, 13)
        w = wc_sweep(process, nbar, sub, tail_tol).wc
        j = _first_peak(w)
        if w[j] > w_star:
            theta_star, w_star = float(sub[j]), float(w[j])
        width = hi - lo
        lo, hi = sub[max(j - 1, 0)], sub[min(j + 1, sub.size - 1)]
        if hi - lo >= width:
            break  # a few ulp of a large theta: the bracket shrinks no more
    return w_star / nbar, theta_star
