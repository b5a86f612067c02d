"""Single-mode photon number distributions and two-mode block bookkeeping.

A photon number distribution is a plain 1d float array p with p[n] >= 0 and
sum(p) in [1 - tail_tol, 1]; the only mass ever missing is the truncated tail
of the thermal input, P_n = nbar^n / (1 + nbar)^(n+1).

Two-mode states appear only block-wise: the total photon number
N = n_a + n_b is conserved by every process in this package, so a pure state
produced from |N, 0> lives in the (N+1)-dimensional block spanned by
|n_a = N - j, n_b = j>, j = 0..N, and is stored as a complex amplitude
vector of length N + 1 in that ordering.

The moment functions also take a stack (n, T) of distributions, one per
column, and then return one value per column.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError

# Tolerances used when validating distributions. Round-off can push an
# entry slightly negative; anything below -CLAMP_TOL is a real bug.
CLAMP_TOL = 1e-14
NORM_SLACK = 1e-12

# Largest number of thermal blocks N = 0..N_max. It also bounds every
# evolution in `evolution`: a block has N + 1 states, and a down-conversion
# chain n + 1 for pump level n <= N_max.
DEFAULT_DIM_GUARD = 4096


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
    tail_tol; nbar = 0 returns the vacuum [1.0]. More than DEFAULT_DIM_GUARD
    blocks raise ConfigurationError before anything is allocated.
    """
    n_max = thermal_cutoff(nbar, tail_tol)
    if n_max + 1 > DEFAULT_DIM_GUARD:
        raise ConfigurationError(
            "nbar %g at tail_tol %g needs %d blocks, above the block budget "
            "%d" % (nbar, tail_tol, n_max + 1, DEFAULT_DIM_GUARD))
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


def mean_photon(p):
    p = np.asarray(p, dtype=float)
    return np.arange(p.shape[0], dtype=float) @ p


def second_moment(p):
    p = np.asarray(p, dtype=float)
    n = np.arange(p.shape[0], dtype=float)
    return (n * n) @ p


def variance(p):
    m = mean_photon(p)
    return second_moment(p) - m * m


def factorial_moment(p, m: int):
    """<n (n-1) ... (n-m+1)>, the m-th factorial moment."""
    if m < 1:
        raise DomainError("factorial moment order must be >= 1")
    p = np.asarray(p, dtype=float)
    n = np.arange(p.shape[0], dtype=float)
    f = np.ones_like(n)
    for i in range(m):
        f *= np.clip(n - i, 0.0, None)
    return f @ p


def odd_mass(p):
    """Total probability on odd photon numbers."""
    p = np.asarray(p, dtype=float)
    return p[1::2].sum(axis=0)
