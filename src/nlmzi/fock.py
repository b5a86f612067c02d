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

import numbers

import numpy as np

from .errors import (ConfigurationError, DomainError, checked_count,
                     checked_real)

# Largest number of thermal blocks N = 0..N_max. It also bounds every
# evolution in `evolution`: a block has N + 1 states, and a down-conversion
# chain n + 1 for pump level n <= N_max.
DEFAULT_DIM_GUARD = 4096


def _ratio(nbar: float) -> float:
    """nbar/(1+nbar), P_(n+1)/P_n, of a finite real nbar >= 0 (DomainError)."""
    if not (isinstance(nbar, numbers.Real) and 0 <= nbar < np.inf):
        raise DomainError("nbar must be a finite real >= 0, not %r" % (nbar,))
    return nbar / (1.0 + nbar)


def thermal_cutoff(nbar: float, tail_tol: float = 1e-12) -> int:
    """Smallest N_max with tail mass (nbar/(1+nbar))^(N_max+1) <= tail_tol."""
    x = _ratio(nbar)
    if not (0.0 < checked_real(tail_tol, "tail_tol") < 1.0):
        raise DomainError("tail_tol must lie in (0, 1)")
    if nbar == 0:
        return 0
    if x == 1.0:  # nbar above about 9e15: no finite N_max
        raise ConfigurationError("nbar %g needs more blocks than the block "
                                 "budget %d" % (nbar, DEFAULT_DIM_GUARD))
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
    return _ratio(nbar) ** np.arange(n_max + 1) / (1.0 + nbar)


def thermal_tail_mass(nbar: float, n_max: int) -> float:
    """Probability mass above n_max: sum_{n > n_max} P_n = x^(n_max+1).
    Raises DomainError on an nbar thermal_cutoff refuses and on an n_max
    that is not a count."""
    return _ratio(nbar) ** (checked_count(n_max, "n_max") + 1)


def thermal_tail_energy(nbar: float, n_max: int) -> float:
    """Mean photon number carried by the truncated tail.

    sum_{n > n_max} n P_n = x^(n_max+1) (n_max + 1 + nbar), the bound on any
    energy-linear quantity lost to truncation. Raises DomainError as
    thermal_tail_mass does.
    """
    return thermal_tail_mass(nbar, n_max) * (int(n_max) + 1 + nbar)


def mean_photon(p):
    p = np.asarray(p, dtype=float)
    return np.arange(p.shape[0], dtype=float) @ p


def second_moment(p):
    p = np.asarray(p, dtype=float)
    n = np.arange(p.shape[0], dtype=float)
    return (n * n) @ p


def factorial_moment(p, m: int):
    """<n (n-1) ... (n-m+1)>, the m-th factorial moment."""
    m = checked_count(m, "factorial moment order m", 1)
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
