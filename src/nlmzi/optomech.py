"""Mechanical-oscillator readout of field work capacity.

The interferometer output drives an oscillator through
H = omega n + Omega O+O + G n (O+ + O). Since n is conserved, each field
Fock level just displaces its own oscillator, and every observable has a
closed form. For parity-filtered fields the phonon trace is

    <O+O>(tau) = nbar_O
        + (2 sqrt2 G/Omega) W [ (a+a*)/sqrt2 (1-cos) - (a-a*)/(sqrt2 i) sin ]
        + [ |dW^2|/3 + W^2 ] (16 G^2/Omega^2) sin^2(Omega tau/2),

so the beating amplitude reads out W directly, and the position variance
reads out the dispersion. A dense truncated-oscillator oracle provides the
independent cross-check, and infer_wc inverts a measured trace back to W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from . import fock
from .errors import ConfigurationError, DomainError, FitError

PARITY_TOL = 1e-10
ORACLE_TOP_TOL = 1e-8


@dataclass(frozen=True)
class CoherentInit:
    alpha: complex

    @property
    def nbar_osc(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class ThermalInit:
    nbar_osc: float

    def __post_init__(self):
        if self.nbar_osc < 0:
            raise DomainError("oscillator nbar must be >= 0")


@dataclass(frozen=True)
class OscillatorConfig:
    G: float
    Omega: float
    init: Union[CoherentInit, ThermalInit]

    def __post_init__(self):
        if not (self.Omega > 0):
            raise DomainError("Omega must be positive")
        if not np.isfinite(self.G):
            raise DomainError("G must be finite")


@dataclass(frozen=True)
class FieldSummary:
    """What the oscillator sees of the field: work capacity, its dispersion,
    the first two number moments, and the parity diagnostic."""
    wc: float
    wc_dispersion: float
    mean: float
    second_moment: float
    odd_mass: float


def field_summary(dist) -> FieldSummary:
    from .thermo import ergotropy
    p = np.asarray(dist, dtype=float)
    rep = ergotropy(p)
    return FieldSummary(wc=rep.wc, wc_dispersion=rep.wc_dispersion,
                        mean=rep.mean_energy,
                        second_moment=fock.second_moment(p),
                        odd_mass=fock.odd_mass(p))


def _as_summary(field) -> FieldSummary:
    if isinstance(field, FieldSummary):
        return field
    return field_summary(field)


def _require_parity(summary: FieldSummary, what: str):
    if summary.odd_mass > PARITY_TOL:
        raise DomainError(
            "%s assumes a parity-filtered field (odd mass %.2e > %g); "
            "use full_quantum_oracle for general fields"
            % (what, summary.odd_mass, PARITY_TOL))


@dataclass(frozen=True)
class OscillatorTrace:
    taus: np.ndarray
    phonon: np.ndarray
    xvar: Optional[np.ndarray]
    config: OscillatorConfig
    field_summary: FieldSummary


def _beat(alpha: complex, c: np.ndarray) -> np.ndarray:
    # (a + a*)/sqrt2 (1 - cos) - (a - a*)/(sqrt2 i) sin, up to the sqrt2
    return np.real(alpha) * (1.0 - np.cos(c)) - np.imag(alpha) * np.sin(c)


def phonon_trace_moments(mean: float, second_moment: float, alpha: complex,
                         cfg: OscillatorConfig, taus) -> np.ndarray:
    """General-field phonon trace; only <n> and <n^2> of the field enter:

        nbar_O + (sqrt2 G/Omega) <n> beat + <n^2> (4G^2/Omega^2) sin^2(.../2)
    """
    taus = np.asarray(taus, dtype=float)
    c = cfg.Omega * taus
    u = cfg.G / cfg.Omega
    return (abs(alpha) ** 2
            + 2.0 * u * mean * _beat(alpha, c)
            + second_moment * 4.0 * u ** 2 * np.sin(c / 2.0) ** 2)


def phonon_trace_coherent(field, cfg: OscillatorConfig, taus) -> OscillatorTrace:
    """Closed-form phonon trace for a coherent-state oscillator.

    field: a FieldSummary or the photon distribution itself; must be
    parity-filtered, since the W-form of the trace uses <n> = 2W and the
    dispersion identity.
    """
    if not isinstance(cfg.init, CoherentInit):
        raise DomainError("cfg.init must be CoherentInit here")
    s = _as_summary(field)
    _require_parity(s, "phonon_trace_coherent")
    taus = np.asarray(taus, dtype=float)
    c = cfg.Omega * taus
    u = cfg.G / cfg.Omega
    alpha = cfg.init.alpha
    phonon = (cfg.init.nbar_osc
              + 4.0 * u * s.wc * _beat(alpha, c)
              + (s.wc_dispersion / 3.0 + s.wc ** 2)
              * 16.0 * u ** 2 * np.sin(c / 2.0) ** 2)
    xv = position_variance(s, cfg, taus)
    return OscillatorTrace(taus=taus, phonon=phonon, xvar=xv,
                           config=cfg, field_summary=s)


def phonon_trace_thermal(field, cfg: OscillatorConfig, taus,
                         small_nbar: bool = False) -> OscillatorTrace:
    """Thermal-oscillator phonon trace: no beating, only the sin^2 bulge.

    small_nbar=True swaps the exact coefficient |dW^2|/3 + W^2 for its
    small-field limit W (flagged variant; the exact form is the default).
    """
    if not isinstance(cfg.init, ThermalInit):
        raise DomainError("cfg.init must be ThermalInit here")
    s = _as_summary(field)
    _require_parity(s, "phonon_trace_thermal")
    taus = np.asarray(taus, dtype=float)
    c = cfg.Omega * taus
    u = cfg.G / cfg.Omega
    coeff = s.wc if small_nbar else s.wc_dispersion / 3.0 + s.wc ** 2
    phonon = cfg.init.nbar_osc + coeff * 16.0 * u ** 2 * np.sin(c / 2.0) ** 2
    xv = position_variance(s, cfg, taus)
    return OscillatorTrace(taus=taus, phonon=phonon, xvar=xv,
                           config=cfg, field_summary=s)


def position_variance(field, cfg: OscillatorConfig, taus) -> np.ndarray:
    """Oscillator position variance:

        <dX^2>(tau) = baseline + (32 G^2 / 3 Omega^2) sin^4(.../2) |dW^2|

    with baseline 1/2 for a coherent init and (1 + 2 nbar_O)/2 thermal.
    """
    s = _as_summary(field)
    _require_parity(s, "position_variance")
    taus = np.asarray(taus, dtype=float)
    u = cfg.G / cfg.Omega
    base = 0.5 if isinstance(cfg.init, CoherentInit) \
        else (1.0 + 2.0 * cfg.init.nbar_osc) / 2.0
    return base + (32.0 / 3.0) * u ** 2 * np.sin(cfg.Omega * taus / 2.0) ** 4 \
        * s.wc_dispersion


# ---------------------------------------------------------------------------
# independent dense oracle
# ---------------------------------------------------------------------------

def _coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    m = np.arange(cutoff + 1)
    if alpha == 0:
        v = np.zeros(cutoff + 1, dtype=complex)
        v[0] = 1.0
        return v
    return np.exp(-abs(alpha) ** 2 / 2.0
                  + m * np.log(complex(alpha)) - 0.5 * gammaln(m + 1))


def suggested_osc_cutoff(cfg: OscillatorConfig, n_top: int) -> int:
    """Oscillator truncation for field levels up to n_top.

    ceil(amp^2 + 10 amp + 20), with amp the initial amplitude plus the
    largest displacement 2 |G| n_top / Omega.
    """
    if isinstance(cfg.init, CoherentInit):
        amp0 = abs(cfg.init.alpha)
    else:
        amp0 = np.sqrt(cfg.init.nbar_osc) + 3.0
    amp = amp0 + 2.0 * abs(cfg.G) * n_top / cfg.Omega
    return int(np.ceil(amp * amp + 10.0 * amp + 20.0))


def full_quantum_oracle(dist, cfg: OscillatorConfig, osc_cutoff: int,
                        taus) -> OscillatorTrace:
    """Exact evolution on a truncated oscillator, no closed forms used.

    The field level n is conserved, so each level evolves under the
    displaced oscillator H_n = Omega m + G n (O + O+), diagonalized densely.
    Raises when the top oscillator level accumulates more than 1e-8
    population anywhere on the grid, with a suggested larger cutoff.
    """
    p = np.asarray(dist, dtype=float)
    taus = np.asarray(taus, dtype=float)
    mm = np.arange(osc_cutoff + 1, dtype=float)
    sq = np.sqrt(mm[1:])
    if isinstance(cfg.init, CoherentInit):
        inits = [(1.0, _coherent_vector(cfg.init.alpha, osc_cutoff))]
    else:
        wts = fock.thermal_distribution(cfg.init.nbar_osc, 1e-12)
        if wts.size > osc_cutoff + 1:
            wts = wts[: osc_cutoff + 1]
        eye = np.eye(osc_cutoff + 1, dtype=complex)
        inits = [(wts[k], eye[:, k]) for k in range(wts.size)]

    phon = np.zeros(taus.size)
    ex = np.zeros(taus.size)
    ex2 = np.zeros(taus.size)
    X = (np.diag(sq, 1) + np.diag(sq, -1)) / np.sqrt(2.0)
    top = 0.0
    for n, pn in enumerate(p):
        if pn == 0:
            continue
        lam, V = eigh_tridiagonal(cfg.Omega * mm, cfg.G * n * sq)
        for w, psi0 in inits:
            if w == 0:
                continue
            y = V.T @ psi0
            Z = V @ (np.exp(-1j * np.outer(lam, taus)) * y[:, None])
            pr = np.abs(Z) ** 2
            top = max(top, float(pr[-1].max()))
            phon += pn * w * (mm @ pr)
            XZ = X @ Z
            ex += pn * w * np.real(np.sum(np.conj(Z) * XZ, axis=0))
            ex2 += pn * w * np.real(np.sum(np.conj(XZ) * XZ, axis=0))
    if top > ORACLE_TOP_TOL:
        suggest = suggested_osc_cutoff(cfg, p.size - 1)
        raise ConfigurationError(
            "oscillator cutoff %d too small (top-level population %.2e); "
            "try osc_cutoff >= %d" % (osc_cutoff, top, max(suggest, 2 * osc_cutoff)))
    return OscillatorTrace(taus=taus, phonon=phon, xvar=ex2 - ex ** 2,
                           config=cfg, field_summary=field_summary(p))


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InferenceResult:
    wc: float
    wc_dispersion: float
    quad: float           # the sin^2 bundle |dW^2|/3 + W^2
    residual: float
    from_xvar: bool       # dispersion measured (True) or approximated


def infer_wc(trace: OscillatorTrace, alpha: Optional[complex] = None,
             G: Optional[float] = None, Omega: Optional[float] = None) -> InferenceResult:
    """Invert a phonon trace (and, when present, the position variance)
    back to the field work capacity.

    The phonon signal is fit by least squares onto a constant plus the two
    independent oscillations {1 - cos, sin}; the constant absorbs n_O and
    any thermal background. The sin^2 bundle is degenerate with 1 - cos on
    any grid, so its coefficient is taken from the position variance
    channel when the trace carries one, and otherwise from the small-field
    dispersion relation |dW^2| = 3W - 3W^2 (flagged via from_xvar=False).
    With the bundle pinned, the beating coefficient

        D = 4 (G/Omega) W Re(alpha) + 8 (G/Omega)^2 (W^2 + |dW^2|/3)

    is a quadratic in W whose stable root is returned.
    """
    cfg = trace.config
    if alpha is None:
        if not isinstance(cfg.init, CoherentInit):
            raise FitError("alpha unknown: thermal-init trace carries no beating phase")
        alpha = cfg.init.alpha
    G = cfg.G if G is None else G
    Omega = cfg.Omega if Omega is None else Omega
    u = G / Omega
    if u == 0:
        raise FitError("G = 0 carries no work-capacity signal")

    taus = np.asarray(trace.taus, dtype=float)
    if taus.size < 4 or (taus.max() - taus.min()) * Omega < 2.0 * np.pi * 0.99:
        raise FitError("time grid must span at least one oscillator period")
    c = Omega * taus
    # fit const + D (1-cos) + B sin as {1, cos, sin}; the constant column
    # absorbs n_O and any un-modeled thermal background on top of it
    design = np.stack([np.ones_like(c), np.cos(c), np.sin(c)], axis=1)
    rhs = np.asarray(trace.phonon, dtype=float)
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 3:
        raise FitError("degenerate time grid: beating basis is rank deficient")
    D = -float(coef[1])
    B = float(coef[2])
    residual = float(np.linalg.norm(design @ coef - rhs))

    ar, ai = float(np.real(alpha)), float(np.imag(alpha))
    if trace.xvar is not None:
        s4 = np.sin(c / 2.0) ** 4
        a2 = np.stack([np.ones_like(s4), s4], axis=1)
        cf2, _, r2, _ = np.linalg.lstsq(
            a2, np.asarray(trace.xvar, dtype=float), rcond=None)
        if r2 < 2:
            raise FitError("grid never leaves sin^4 = 0; variance channel empty")
        disp = float(cf2[1]) / ((32.0 / 3.0) * u ** 2)
        # D = 4u W ar + 8u^2 (W^2 + disp/3), quadratic in W
        rad = ar ** 2 + 2.0 * (D - (8.0 / 3.0) * u ** 2 * disp)
        if rad < 0:
            raise FitError("inconsistent trace: negative discriminant in W solve")
        w = (-ar + np.sqrt(rad)) / (4.0 * u) if ar >= 0 \
            else (-ar - np.sqrt(rad)) / (4.0 * u)
        if abs(ar) < 1e-9 and abs(ai) > 0:
            w = -B / (4.0 * u * ai)
        return InferenceResult(wc=w, wc_dispersion=disp,
                               quad=w ** 2 + disp / 3.0,
                               residual=residual, from_xvar=True)

    # no variance channel: close the system with |dW^2| ~ 3W - 3W^2, under
    # which D = 4u W ar + 8u^2 W exactly
    if abs(ar) < 1e-12:
        raise FitError("phonon-only inference needs Re(alpha) != 0")
    w = D / (4.0 * u * ar + 8.0 * u ** 2)
    disp = 3.0 * w - 3.0 * w ** 2
    return InferenceResult(wc=w, wc_dispersion=disp, quad=w ** 2 + disp / 3.0,
                           residual=residual, from_xvar=False)
