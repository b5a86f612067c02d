"""Mechanical-oscillator readout of field work capacity.

The interferometer output drives an oscillator through
H = omega n + Omega O+O + G n (O+ + O). Since n is conserved, each field
Fock level just displaces its own oscillator, and every observable has a
closed form. For any field the phonon trace depends only on <n> and <n^2>:

    <O+O>(tau) = |alpha|^2 + (2G/Omega) <n> [ Re(alpha) (1-cos) - Im(alpha) sin ]
        + <n^2> (4 G^2/Omega^2) sin^2(Omega tau/2)

for a coherent init (a thermal init starts at nbar_O and does not beat).
On a parity-filtered field <n> = 2W and <n^2> = 4(|dW^2|/3 + W^2), so the
beating amplitude reads out W directly, and the position variance reads out
the dispersion. The exact truncated-oscillator oracle (tridiagonal
eigensolve, banded moments) provides the independent cross-check, and
infer_wc inverts a measured trace back to W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import fock
from .errors import ConfigurationError, DomainError, FitError
from .evolution import PhaseGrid, chain_eig, phase_product
from .thermo import checked_probabilities, ergotropy

PARITY_TOL = 1e-10
ORACLE_TOP_TOL = 1e-8
# tail mass of a thermal init's Fock weights left out of the oracle
THERMAL_INIT_TAIL = 1e-12


@dataclass(frozen=True)
class CoherentInit:
    alpha: complex

    def __post_init__(self):
        if not np.isfinite(complex(self.alpha)):
            raise DomainError("alpha must be finite")

    @property
    def nbar_osc(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class ThermalInit:
    nbar_osc: float

    def __post_init__(self):
        if not (np.isfinite(self.nbar_osc) and self.nbar_osc >= 0):
            raise DomainError("oscillator nbar must be finite and >= 0")


@dataclass(frozen=True)
class OscillatorConfig:
    G: float
    Omega: float
    init: Union[CoherentInit, ThermalInit]

    def __post_init__(self):
        if not (np.isfinite(self.Omega) and self.Omega > 0):
            raise DomainError("Omega must be finite and positive")
        if not np.isfinite(self.G):
            raise DomainError("G must be finite")


def _require_parity(p: np.ndarray, what: str):
    odd = fock.odd_mass(p)
    if odd > PARITY_TOL:
        raise DomainError(
            "%s assumes a parity-filtered field (odd mass %.2e > %g); "
            "use full_quantum_oracle for general fields"
            % (what, odd, PARITY_TOL))


@dataclass(frozen=True)
class OscillatorTrace:
    taus: np.ndarray
    phonon: np.ndarray
    xvar: Optional[np.ndarray]
    config: OscillatorConfig


def _finite_taus(taus) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    if not np.isfinite(taus).all():
        raise DomainError("taus must be finite")
    return taus


def _beat(alpha: complex, c: np.ndarray) -> np.ndarray:
    # (a + a*)/sqrt2 (1 - cos) - (a - a*)/(sqrt2 i) sin, up to the sqrt2
    return np.real(alpha) * (1.0 - np.cos(c)) - np.imag(alpha) * np.sin(c)


def phonon_trace_moments(mean: float, second_moment: float,
                         cfg: OscillatorConfig, taus) -> np.ndarray:
    """Phonon trace of any field; only <n> and <n^2> of the field enter:

        base + 2 (G/Omega) <n> beat + <n^2> (4 G^2/Omega^2) sin^2(.../2)

    A coherent init beats with its alpha from base |alpha|^2; a thermal
    init does not beat (its phase averages out) and starts at nbar_O.
    Raises DomainError on a non-finite tau.
    """
    c = cfg.Omega * _finite_taus(taus)
    u = cfg.G / cfg.Omega
    bulge = second_moment * 4.0 * u ** 2 * np.sin(c / 2.0) ** 2
    if isinstance(cfg.init, ThermalInit):
        return cfg.init.nbar_osc + bulge
    alpha = cfg.init.alpha
    return abs(alpha) ** 2 + 2.0 * u * mean * _beat(alpha, c) + bulge


def _parity_trace(dist, cfg: OscillatorConfig, taus,
                  what: str) -> OscillatorTrace:
    """phonon_trace_moments read through <n> = 2W and
    <n^2> = 4 (|dW^2|/3 + W^2), with the position variance attached."""
    taus = _finite_taus(taus)
    p = np.asarray(dist, dtype=float)
    _require_parity(p, what)
    rep = ergotropy(p)
    bundle = rep.wc_dispersion / 3.0 + rep.wc ** 2
    return OscillatorTrace(
        taus=taus, phonon=phonon_trace_moments(2.0 * rep.wc, 4.0 * bundle,
                                               cfg, taus),
        xvar=_xvar(rep.wc_dispersion, cfg, taus), config=cfg)


def phonon_trace_coherent(dist, cfg: OscillatorConfig, taus) -> OscillatorTrace:
    """Closed-form phonon trace of a parity-filtered field for a
    coherent-state oscillator: the beat amplitude reads out W."""
    if not isinstance(cfg.init, CoherentInit):
        raise DomainError("cfg.init must be CoherentInit here")
    return _parity_trace(dist, cfg, taus, "phonon_trace_coherent")


def phonon_trace_thermal(dist, cfg: OscillatorConfig, taus) -> OscillatorTrace:
    """Thermal-oscillator phonon trace of a parity-filtered field: no
    beating, only the sin^2 bulge, of coefficient |dW^2|/3 + W^2."""
    if not isinstance(cfg.init, ThermalInit):
        raise DomainError("cfg.init must be ThermalInit here")
    return _parity_trace(dist, cfg, taus, "phonon_trace_thermal")


def _xvar(wc_dispersion: float, cfg: OscillatorConfig, taus: np.ndarray):
    u = cfg.G / cfg.Omega
    base = 0.5 if isinstance(cfg.init, CoherentInit) \
        else (1.0 + 2.0 * cfg.init.nbar_osc) / 2.0
    return base + (32.0 / 3.0) * u ** 2 * np.sin(cfg.Omega * taus / 2.0) ** 4 \
        * wc_dispersion


def position_variance(dist, cfg: OscillatorConfig, taus) -> np.ndarray:
    """Oscillator position variance of a parity-filtered field:

        <dX^2>(tau) = baseline + (32 G^2 / 3 Omega^2) sin^4(.../2) |dW^2|

    with baseline 1/2 for a coherent init and (1 + 2 nbar_O)/2 thermal.
    Raises DomainError on a non-finite tau.
    """
    taus = _finite_taus(taus)
    p = np.asarray(dist, dtype=float)
    _require_parity(p, "position_variance")
    return _xvar(ergotropy(p).wc_dispersion, cfg, taus)


# ---------------------------------------------------------------------------
# exact truncated-oscillator oracle (tridiagonal eigensolve, banded moments)
# ---------------------------------------------------------------------------

def _coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes of |alpha>; real for a real alpha, whose sign enters
    as the exact (-1)^m. log m! is math.lgamma(m + 1)."""
    m = np.arange(cutoff + 1)
    alpha = complex(alpha)
    if alpha == 0:
        return (m == 0).astype(float)
    half_lf = 0.5 * np.array([math.lgamma(x + 1.0) for x in range(cutoff + 1)])
    if alpha.imag != 0:
        return np.exp(-abs(alpha) ** 2 / 2.0 + m * np.log(alpha) - half_lf)
    return np.sign(alpha.real) ** m * np.exp(
        -abs(alpha) ** 2 / 2.0 + m * np.log(abs(alpha)) - half_lf)


def suggested_osc_cutoff(cfg: OscillatorConfig, n_top: int) -> int:
    """Oscillator truncation for field levels up to n_top.

    ceil(amp^2 + 10 amp + 20), with amp the initial amplitude plus the
    largest displacement 2 |G| n_top / Omega. A thermal init's amplitude
    is sqrt(m_top), m_top its highest Fock level before the tail
    THERMAL_INIT_TAIL, so that the oracle keeps every init level it weighs
    and none of them starts at the top. Raises ConfigurationError when
    the cutoff would take more than fock.DEFAULT_DIM_GUARD levels, the
    budget full_quantum_oracle keeps.
    """
    if isinstance(cfg.init, CoherentInit):
        amp0 = abs(cfg.init.alpha)
    else:
        amp0 = np.sqrt(fock.thermal_cutoff(cfg.init.nbar_osc,
                                           THERMAL_INIT_TAIL))
    amp = amp0 + 2.0 * abs(cfg.G) * n_top / cfg.Omega
    cutoff = np.ceil(amp * amp + 10.0 * amp + 20.0)
    if not cutoff + 1 <= fock.DEFAULT_DIM_GUARD:
        raise ConfigurationError(
            "the oscillator needs a cutoff of %g levels, above the level "
            "budget %d" % (cutoff + 1, fock.DEFAULT_DIM_GUARD))
    return int(cutoff)


def _small_cutoff(cfg, n_top: int, osc_cutoff: int, why: str):
    suggest = max(suggested_osc_cutoff(cfg, n_top),
                  min(2 * osc_cutoff, fock.DEFAULT_DIM_GUARD - 1))
    return ConfigurationError(
        "oscillator cutoff %d too small (%s); try osc_cutoff >= %d"
        % (osc_cutoff, why, suggest))


def full_quantum_oracle(dist, cfg: OscillatorConfig, osc_cutoff: int,
                        taus) -> OscillatorTrace:
    """Exact truncated-oscillator oracle (tridiagonal eigensolve, banded
    moments); no closed form is used.

    The field level n is conserved, so each level evolves under the
    displaced oscillator H_n = Omega m + G n (O + O+), a tridiagonal
    chain solved once (evolution.chain_eig) as (lam, V), whose phases
    every initial state shares: the states at all taus are
    evolution.phase_product of V diag(V^T psi0), one real product when
    psi0 is real (a real alpha or a thermal basis state), all on one
    evolution.PhaseGrid of the taus, tile by tile, whose phase buffer
    they reuse and then take their squares in. With
    h_m = sqrt(m+1)/sqrt2 the moments of the truncated position X are
    read off the bands

        <X>   = 2 sum h_m Re(conj(Z_m) Z_(m+1))
        <X^2> = sum d_m |Z_m|^2 + 2 sum h_m h_(m+1) Re(conj(Z_m) Z_(m+2)),

    d the diagonal of the truncated X^2. A thermal init is the mixture of
    its Fock levels up to the tail THERMAL_INIT_TAIL (and osc_cutoff),
    each evolved on its own.
    Raises DomainError on a non-finite tau, a non-finite or negative
    (below -1e-12) dist entry or osc_cutoff < 1, and ConfigurationError
    on osc_cutoff + 1 > fock.DEFAULT_DIM_GUARD levels, when the cut drops
    more than ORACLE_TOP_TOL of a coherent init's norm, and when the top
    oscillator level accumulates more than ORACLE_TOP_TOL population
    anywhere on the grid, the last two with a suggested larger cutoff.
    """
    p = checked_probabilities(dist)
    taus = _finite_taus(taus)
    if osc_cutoff < 1:
        raise DomainError("osc_cutoff must be >= 1")
    if osc_cutoff + 1 > fock.DEFAULT_DIM_GUARD:
        raise ConfigurationError(
            "osc_cutoff %d needs %d levels, above the level budget %d"
            % (osc_cutoff, osc_cutoff + 1, fock.DEFAULT_DIM_GUARD))
    mm = np.arange(osc_cutoff + 1, dtype=float)
    sq = np.sqrt(mm[1:])
    if isinstance(cfg.init, CoherentInit):
        wts = np.ones(1)
        psi0 = _coherent_vector(cfg.init.alpha, osc_cutoff)[None]
        kept = float(np.vdot(psi0, psi0).real)
        if not 1.0 - kept <= ORACLE_TOP_TOL:
            raise _small_cutoff(cfg, p.size - 1, osc_cutoff,
                                "it keeps %.2e of the init's norm" % kept)
    else:
        wts = fock.thermal_distribution(cfg.init.nbar_osc, THERMAL_INIT_TAIL)
        wts = wts[: osc_cutoff + 1]
        psi0 = np.eye(wts.size, osc_cutoff + 1)[wts != 0]
        wts = wts[wts != 0]
    band = np.vstack([cfg.Omega * mm, np.zeros_like(mm)])
    h = np.sqrt(0.5) * sq
    hh = h[:-1] * h[1:]
    d = mm + 0.5
    d[-1] = 0.5 * mm[-1]  # X couples the top level downwards only

    phon = np.zeros(taus.size)
    ex = np.zeros(taus.size)
    ex2 = np.zeros(taus.size)
    tiles = list(PhaseGrid(taus).tiles())
    top = 0.0
    for n, pn in enumerate(p):
        if pn == 0:
            continue
        band[1, :-1] = cfg.G * n * sq
        lam, V, _ = chain_eig(band)
        ys = psi0 @ V
        last = len(ys) - 1 if np.isrealobj(ys) else -1
        for i, (w, y) in enumerate(zip(pn * wts, ys)):
            # a real last initial state scales V itself, which nothing
            # reads after it
            A = np.multiply(V, y, out=V if i == last else None)
            for cols, tile in tiles:
                Z = phase_product(A, A, lam, tile)
                # the squares go to the tile's phase buffer, which nothing
                # reads once phase_product returns
                buf = tile.pool.take("Z", Z.shape[1:], complex)
                buf = buf.view(float).reshape(Z.shape)
                np.multiply(Z, Z, out=buf)
                top = max(top, float(buf[:, -1].sum(axis=0).max()))
                phon[cols] += w * (mm @ buf).sum(axis=0)
                x2 = (d @ buf).sum(axis=0)
                np.multiply(Z[:, :-1], Z[:, 1:], out=buf[:, :-1])
                ex[cols] += w * 2.0 * (h @ buf[:, :-1]).sum(axis=0)
                np.multiply(Z[:, :-2], Z[:, 2:], out=buf[:, :-2])
                ex2[cols] += w * (x2 + 2.0 * (hh @ buf[:, :-2]).sum(axis=0))
    if top > ORACLE_TOP_TOL:
        raise _small_cutoff(cfg, p.size - 1, osc_cutoff,
                            "top-level population %.2e" % top)
    return OscillatorTrace(taus=taus, phonon=phon, xvar=ex2 - ex ** 2,
                           config=cfg)


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


def infer_wc(trace: OscillatorTrace,
             alpha: Optional[complex] = None) -> InferenceResult:
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

    is a quadratic in W whose stable root is returned. Where |Im(alpha)|
    > |Re(alpha)| + 2 |G/Omega| the sine coefficient B = -4 (G/Omega) W
    Im(alpha) gives W linearly instead, and D is not consulted: B weighs W
    by 4 |G/Omega| |Im(alpha)|, against D's 4 |G/Omega| |Re(alpha)| plus
    the 8 (G/Omega)^2 that does not shrink with alpha. G, Omega and the
    init come from the trace's config. Raises FitError on a non-finite
    tau, phonon or variance entry.
    """
    cfg = trace.config
    if alpha is None:
        if not isinstance(cfg.init, CoherentInit):
            raise FitError("alpha unknown: thermal-init trace carries no beating phase")
        alpha = cfg.init.alpha
    Omega = cfg.Omega
    u = cfg.G / Omega
    if u == 0:
        raise FitError("G = 0 carries no work-capacity signal")

    taus = np.asarray(trace.taus, dtype=float)
    rhs = np.asarray(trace.phonon, dtype=float)
    xvar = None if trace.xvar is None else np.asarray(trace.xvar, dtype=float)
    if not all(np.isfinite(a).all() for a in (taus, rhs, xvar)
               if a is not None):
        raise FitError("the trace has a non-finite tau, phonon or xvar")
    if taus.size < 4 or (taus.max() - taus.min()) * Omega < 2.0 * np.pi * 0.99:
        raise FitError("time grid must span at least one oscillator period")
    c = Omega * taus
    # fit const + D (1-cos) + B sin as {1, cos, sin}; the constant column
    # absorbs n_O and any un-modeled thermal background on top of it
    design = np.stack([np.ones_like(c), np.cos(c), np.sin(c)], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 3:
        raise FitError("degenerate time grid: beating basis is rank deficient")
    D = -float(coef[1])
    B = float(coef[2])
    residual = float(np.linalg.norm(design @ coef - rhs))

    ar, ai = float(np.real(alpha)), float(np.imag(alpha))
    # B needs no bundle: it carries W wherever it weighs W more than D
    w_sine = -B / (4.0 * u * ai) if abs(ai) > abs(ar) + 2.0 * abs(u) else None
    if xvar is not None:
        s4 = np.sin(c / 2.0) ** 4
        a2 = np.stack([np.ones_like(s4), s4], axis=1)
        cf2, _, r2, _ = np.linalg.lstsq(a2, xvar, rcond=None)
        if r2 < 2:
            raise FitError("grid never leaves sin^4 = 0; variance channel empty")
        disp = float(cf2[1]) / ((32.0 / 3.0) * u ** 2)
        w = w_sine
        if w is None:
            # D = 4u W ar + 8u^2 (W^2 + disp/3), quadratic in W
            rad = ar ** 2 + 2.0 * (D - (8.0 / 3.0) * u ** 2 * disp)
            if rad < 0:
                raise FitError(
                    "inconsistent trace: negative discriminant in W solve")
            w = (-ar + np.sqrt(rad)) / (4.0 * u) if ar >= 0 \
                else (-ar - np.sqrt(rad)) / (4.0 * u)
        return InferenceResult(wc=w, wc_dispersion=disp,
                               quad=w ** 2 + disp / 3.0,
                               residual=residual, from_xvar=True)

    # no variance channel: the dispersion is |dW^2| ~ 3W - 3W^2, under
    # which D = 4u W ar + 8u^2 W exactly
    if abs(alpha) < 1e-12:
        raise FitError("phonon-only inference needs alpha != 0")
    w = w_sine if w_sine is not None else D / (4.0 * u * ar + 8.0 * u ** 2)
    disp = 3.0 * w - 3.0 * w ** 2
    return InferenceResult(wc=w, wc_dispersion=disp, quad=w ** 2 + disp / 3.0,
                           residual=residual, from_xvar=False)
