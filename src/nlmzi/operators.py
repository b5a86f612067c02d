"""Block operators for two-mode nonlinear interferometry.

All operators act on the total-photon-number block N with basis
|n_a = N - j, n_b = j>, j = 0..N (see fock.py), and are returned as dense
(N+1) x (N+1) complex arrays. Stokes operators

    J_x = (a+ b + a b+)/2,  J_y = -i (a+ b - a b+)/2,  J_z = (n_a - n_b)/2

generate the linear optics; the nonlinear arm is either a cross-phase
coupling (n_a n_b)^s or a k-photon exchange a+^k b^k + a^k b+^k. The 50:50
splitter exp(-i (pi/2) J_x) is the phased view of the real Wigner matrix
exp(-i (pi/2) J_y), which a division-free ladder builds block by block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, DomainError

# the exchange hierarchy converges fast; orders beyond 4 are physically
# negligible and need an explicit opt-in
EXCHANGE_ORDER_GUARD = 4


# ---------------------------------------------------------------------------
# process taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossPhase:
    """Cross-phase process exp(-i chi t (n_a n_b)^s) in one arm."""
    s: int = 1
    chi: float = 1.0

    def __post_init__(self):
        if self.s < 1 or int(self.s) != self.s:
            raise DomainError("cross-phase order s must be a positive integer")

    @property
    def strength(self) -> float:
        return self.chi


@dataclass(frozen=True)
class Exchange:
    """k-photon exchange exp(-i g t (a+^k b^k + a^k b+^k))."""
    k: int = 2
    g: float = 1.0
    allow_high_order: bool = False

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise DomainError("exchange order k must be a positive integer")
        if self.k > EXCHANGE_ORDER_GUARD and not self.allow_high_order:
            raise ConfigurationError(
                "exchange order k=%d exceeds the default guard k<=%d; "
                "pass allow_high_order=True to override" % (self.k, EXCHANGE_ORDER_GUARD))

    @property
    def strength(self) -> float:
        return self.g


@dataclass(frozen=True)
class Hybrid:
    """Weighted sum of cross-phase and exchange generators in one arm."""
    terms: Tuple[Tuple[float, Union[CrossPhase, Exchange]], ...]
    strength: float = 1.0

    def __post_init__(self):
        if len(self.terms) == 0:
            raise DomainError("hybrid process needs at least one term")


@dataclass(frozen=True)
class DegeneratePDC:
    """Pump photon -> signal photon pair: g (a_p a_s+^2 + a_p+ a_s^2)."""
    g: float = 1.0


@dataclass(frozen=True)
class NonDegeneratePDC:
    """Pump photon -> signal + idler: g (a_p a_s+ a_i+ + a_p+ a_s a_i)."""
    g: float = 1.0


ProcessSpec = Union[CrossPhase, Exchange, Hybrid, DegeneratePDC, NonDegeneratePDC]


# ---------------------------------------------------------------------------
# block matrices
# ---------------------------------------------------------------------------

def stokes(N: int, axis: str) -> np.ndarray:
    """Stokes (pseudospin) operator J_axis on block N.

    J_z is diagonal with entries (N - 2j)/2; J_x and J_y couple j <-> j+1
    with the usual spin-(N/2) ladder elements.
    """
    if N < 0:
        raise DomainError("block label N must be >= 0")
    j = np.arange(N, dtype=float)
    # <j+1| a b+ |j> = sqrt((N - j)(j + 1))
    e = 0.5 * np.sqrt((N - j) * (j + 1))
    M = np.zeros((N + 1, N + 1), dtype=complex)
    if axis == "x":
        M[np.arange(N), np.arange(1, N + 1)] = e
        M[np.arange(1, N + 1), np.arange(N)] = e
    elif axis == "y":
        M[np.arange(N), np.arange(1, N + 1)] = -1j * e
        M[np.arange(1, N + 1), np.arange(N)] = 1j * e
    elif axis == "z":
        M[np.diag_indices(N + 1)] = (N - 2 * np.arange(N + 1)) / 2.0
    else:
        raise DomainError("axis must be one of 'x', 'y', 'z'")
    return M


def cross_phase_generator(N: int, s: int = 1) -> np.ndarray:
    """Diagonal generator (n_a n_b)^s on block N: entries ((N - j) j)^s."""
    if N < 0 or s < 1:
        raise DomainError("need N >= 0 and s >= 1")
    j = np.arange(N + 1, dtype=float)
    return np.diag(((N - j) * j) ** s).astype(complex)


def exchange_generator(N: int, k: int) -> np.ndarray:
    """Generator a+^k b^k + a^k b+^k on block N.

    Couples j <-> j - k with element sqrt((N-j+k)!/(N-j)! * j!/(j-k)!);
    blocks with N < k cannot exchange and give the zero matrix. The order
    guard belongs to the Exchange spec; this takes any k >= 1.
    """
    if N < 0 or k < 1:
        raise DomainError("need N >= 0 and k >= 1")
    M = np.zeros((N + 1, N + 1), dtype=complex)
    if N < k:
        return M
    j = np.arange(k, N + 1, dtype=float)
    val = np.exp(0.5 * (gammaln(N - j + k + 1) - gammaln(N - j + 1))
                 + 0.5 * (gammaln(j + 1) - gammaln(j - k + 1)))
    M[(np.arange(k, N + 1) - k), np.arange(k, N + 1)] = val
    M[np.arange(k, N + 1), (np.arange(k, N + 1) - k)] = val
    return M


def hybrid_generator(N: int, terms) -> np.ndarray:
    """Weighted sum of cross-phase / exchange generators; Hermitian by
    construction."""
    terms = list(terms)
    if not terms:
        raise DomainError("hybrid generator needs at least one term")
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for coeff, spec in terms:
        if isinstance(spec, CrossPhase):
            M += coeff * cross_phase_generator(N, spec.s)
        elif isinstance(spec, Exchange):
            M += coeff * exchange_generator(N, spec.k)
        else:
            raise DomainError("hybrid terms must be CrossPhase or Exchange specs")
    return M


def process_generator(process: ProcessSpec, N: int) -> np.ndarray:
    """Dense nonlinear-arm generator for a process on block N."""
    if isinstance(process, CrossPhase):
        return cross_phase_generator(N, process.s)
    if isinstance(process, Exchange):
        return exchange_generator(N, process.k)
    if isinstance(process, Hybrid):
        return hybrid_generator(N, process.terms)
    raise ConfigurationError(
        "%s has no block generator; use evolution.pdc_signal_sweep"
        % type(process).__name__)


# ---------------------------------------------------------------------------
# beam splitter: the real Wigner-d ladder
# ---------------------------------------------------------------------------

# (-i)^j for j mod 4: the row phase of B_N = diag((-i)^j) d_N diag(i^m)
QUARTER_TURNS = np.array([1.0, -1.0j, -1.0, 1.0j])


class LadderScratch:
    """Work buffers of the ladder step, reused from step to step; the flat
    buffer at least doubles when a step outgrows it."""

    def __init__(self):
        self._buf = np.empty(0)

    def pair(self, N: int):
        """Two (N+1, N) work arrays."""
        n = (N + 1) * N
        if self._buf.size < 2 * n:
            self._buf = np.empty(max(2 * n, 2 * self._buf.size))
        return (self._buf[:n].reshape(N + 1, N),
                self._buf[n:2 * n].reshape(N + 1, N))


def _jx_factorization(N: int, r_prev: np.ndarray,
                      scratch: LadderScratch) -> np.ndarray:
    """Ladder step: the rung r_N = 2^((N mod 2)/2) d_N from r_{N-1}.

    d_N = exp(-i (pi/2) J_y) is the real Wigner matrix of block N. Block N
    is the symmetric embedding of N-1 photons plus one, so

        d_N[i, k] = sum_{x, y in {a, b}} w_x(i) w_y(k) u[x, y]
                    d_{N-1}[i - [x=b], k - [y=b]]

    with w_a(i) = sqrt((N-i)/N), w_b(i) = sqrt(i/N) and u = d_1 =
    [[1, -1], [1, 1]]/sqrt(2) (Risbo, J. Geodesy 70, 383 (1996)): a
    contraction that divides by nothing, stable for any N. u's 1/sqrt(2)
    is applied as an exact 1/2 on every even step, hence the sqrt(2) odd
    rungs carry; a rounded 1/sqrt(2) at every step drifts the norm by N
    ulp. Intermediates live in scratch; only r_N is allocated. N >= 1.

    The name is older than the step: the benchmark tracer (bench/tracer.py)
    wraps operators._jx_factorization as the per-block splitter layer.
    """
    i = np.arange(N + 1)
    wa = np.sqrt((N - i) / N)
    wb = np.sqrt(i / N)
    P, Q = scratch.pair(N)
    # row embeddings: P = rows from row i (weight w_a), Q = from row i-1 (w_b)
    np.multiply(wa[:N, None], r_prev, out=P[:N])
    P[N] = 0.0
    np.multiply(wb[1:, None], r_prev, out=Q[1:])
    Q[0] = 0.0
    r = np.empty((N + 1, N + 1))
    T = r[:, :N]
    np.add(P, Q, out=T)            # u's first column: column k from k
    np.subtract(Q, P, out=Q)       # u's second column: column k from k-1
    half = 0.5 if N % 2 == 0 else 1.0
    T *= half * wa[:N]
    Q *= half * wb[1:]
    r[:, N] = 0.0
    r[:, 1:] += Q
    return r


def ladder_walk(N: int, start=None, scratch: LadderScratch | None = None):
    """Rung r_N = 2^((N mod 2)/2) d_N of the Wigner-d ladder.

    Walks up from start = (n, r_n) with n <= N, by default from
    r_0 = [[1]], one _jx_factorization step per block.
    """
    if N < 0:
        raise DomainError("block label N must be >= 0")
    n, r = start if start is not None else (0, np.ones((1, 1)))
    scratch = scratch if scratch is not None else LadderScratch()
    for m in range(n + 1, N + 1):
        r = _jx_factorization(m, r, scratch)
    return r


def wigner_d(N: int) -> np.ndarray:
    """Real Wigner matrix d_N = exp(-i (pi/2) J_y) on block N."""
    r = ladder_walk(N)
    return r if N % 2 == 0 else r * np.sqrt(0.5)


def beam_splitter_unitary(N: int) -> np.ndarray:
    """50:50 beam splitter U_BS = exp(-i (pi/2) J_x) on block N.

    Convention a -> (a - i b)/sqrt(2); on N = 1 this is
    [[1, -i], [-i, 1]]/sqrt(2). This sign choice is what makes the
    nonlinear-arm conjugation identities (tested in the suite) come out
    with the signs used throughout. It is the phased view
    diag((-i)^j) d_N diag(i^m) of the Wigner-d ladder the block engine
    walks.
    """
    d = wigner_d(N)
    q = QUARTER_TURNS[np.arange(N + 1) % 4]
    return q[:, None] * d * q.conj()
