"""Single-mode photon number distributions and two-mode block bookkeeping.

A photon number distribution is a plain 1d float array p with p[n] >= 0 and
sum(p) in [1 - tail_tol, 1]; the only mass ever missing is the truncated tail
of the thermal input, P_n = nbar^n / (1 + nbar)^(n+1).

Two-mode states appear only block-wise: the total photon number
N = n_a + n_b is conserved by every process in this package, so a pure state
produced from |N, 0> lives in the (N+1)-dimensional block spanned by
|n_a = N - j, n_b = j>, j = 0..N, and is stored as a complex amplitude
vector of length N + 1 in that ordering.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Tolerances used when validating distributions. Round-off can push an
# entry slightly negative; anything below -CLAMP_TOL is a real bug.
CLAMP_TOL = 1e-14
NORM_SLACK = 1e-12


def as_distribution(p, tail_tol: float = 1e-12) -> np.ndarray:
    """Validate (and defensively copy) a photon number distribution.

    Entries in (-1e-14, 0) are clamped to zero; more negative entries raise.
    The total mass must lie in [1 - tail_tol - 1e-12, 1 + 1e-12].
    """
    p = np.asarray(p, dtype=float).copy()
    if p.ndim != 1 or p.size == 0:
        raise DomainError("distribution must be a non-empty 1d array")
    neg = p < 0
    if np.any(p < -CLAMP_TOL):
        raise DomainError("negative probability %g at n=%d"
                          % (p[neg].min(), int(np.argmin(p))))
    p[neg] = 0.0
    s = p.sum()
    if not (1.0 - tail_tol - NORM_SLACK <= s <= 1.0 + NORM_SLACK):
        raise DomainError("distribution mass %r outside [1 - %g, 1]" % (s, tail_tol))
    return p


def thermal_cutoff(nbar: float, tail_tol: float = 1e-12) -> int:
    """Smallest N_max with tail mass (nbar/(1+nbar))^(N_max+1) <= tail_tol."""
    if not (np.isfinite(nbar) and nbar >= 0):
        raise DomainError("nbar must be finite and >= 0")
    if not (0.0 < tail_tol < 1.0):
        raise DomainError("tail_tol must lie in (0, 1)")
    if nbar == 0:
        return 0
    x = nbar / (1.0 + nbar)
    # solve x^(N+1) <= tol, then walk to the exact minimal integer
    n = max(0, int(np.ceil(np.log(tail_tol) / np.log(x))) - 1)
    while x ** (n + 1) > tail_tol:
        n += 1
    while n > 0 and x ** n <= tail_tol:
        n -= 1
    return n


def thermal_distribution(nbar: float, tail_tol: float = 1e-12) -> np.ndarray:
    """Truncated thermal distribution P_n = nbar^n / (1+nbar)^(n+1).

    The cutoff is the smallest N_max whose tail mass does not exceed
    tail_tol; nbar = 0 returns the vacuum [1.0].
    """
    n_max = thermal_cutoff(nbar, tail_tol)
    if nbar == 0:
        return np.array([1.0])
    x = nbar / (1.0 + nbar)
    return x ** np.arange(n_max + 1) / (1.0 + nbar)


def thermal_tail_mass(nbar: float, n_max: int) -> float:
    """Probability mass above n_max: sum_{n > n_max} P_n = x^(n_max+1)."""
    if nbar == 0:
        return 0.0
    x = nbar / (1.0 + nbar)
    return x ** (n_max + 1)


def thermal_tail_energy(nbar: float, n_max: int) -> float:
    """Mean photon number carried by the truncated tail.

    sum_{n > n_max} n P_n = x^(n_max+1) (n_max + 1 + nbar), the bound on any
    energy-linear quantity lost to truncation.
    """
    if nbar == 0:
        return 0.0
    x = nbar / (1.0 + nbar)
    return x ** (n_max + 1) * (n_max + 1 + nbar)


def mean_photon(p) -> float:
    p = np.asarray(p, dtype=float)
    return float(np.arange(p.size) @ p)


def second_moment(p) -> float:
    p = np.asarray(p, dtype=float)
    n = np.arange(p.size, dtype=float)
    return float((n * n) @ p)


def variance(p) -> float:
    m = mean_photon(p)
    return second_moment(p) - m * m


def factorial_moment(p, m: int) -> float:
    """<n (n-1) ... (n-m+1)>, the m-th factorial moment."""
    if m < 1:
        raise DomainError("factorial moment order must be >= 1")
    p = np.asarray(p, dtype=float)
    n = np.arange(p.size, dtype=float)
    f = np.ones_like(n)
    for i in range(m):
        f *= np.clip(n - i, 0.0, None)
    return float(f @ p)


def odd_mass(p) -> float:
    """Total probability on odd photon numbers."""
    p = np.asarray(p, dtype=float)
    return float(p[1::2].sum())


def _reduce(weighted_blocks, mode_a: bool) -> np.ndarray:
    out = None
    top = 0
    blocks = list(weighted_blocks)
    for w, amps in blocks:
        top = max(top, len(np.asarray(amps)) - 1)
    out = np.zeros(top + 1)
    for w, amps in blocks:
        if w < 0:
            raise DomainError("negative block weight %g" % w)
        amps = np.asarray(amps)
        pr = np.abs(amps) ** 2
        nn = len(amps) - 1
        if mode_a:
            # index j holds n_a = N - j
            out[: nn + 1] += w * pr[::-1]
        else:
            out[: nn + 1] += w * pr
    return out


def reduce_mode_a(weighted_blocks) -> np.ndarray:
    """Mode-a photon distribution of a mixture of block-pure states.

    weighted_blocks: iterable of (weight, amplitudes) where amplitudes[j] is
    the coefficient of |n_a = N - j, n_b = j> on the block N = len - 1.
    Tracing out mode b of a block-pure state is diagonal in n_a because each
    n_a value appears at most once per block.
    """
    return _reduce(weighted_blocks, mode_a=True)


def reduce_mode_b(weighted_blocks) -> np.ndarray:
    """Mode-b marginal; mirror of reduce_mode_a with j in place of N - j."""
    return _reduce(weighted_blocks, mode_a=False)
