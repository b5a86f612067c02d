"""Block operators for two-mode nonlinear interferometry.

All operators act on the total-photon-number block N with basis
|n_a = N - j, n_b = j>, j = 0..N (see fock.py). The nonlinear arm is a
cross-phase coupling (n_a n_b)^s, a k-photon exchange
a+^k b^k + a^k b+^k, or a weighted sum of them; its generator on a block
is real symmetric, a diagonal plus exchange bands, and process_generator
returns it in banded storage. The 50:50 splitter exp(-i (pi/2) J_x), with
the Stokes operator J_x = (a+ b + a b+)/2, is the phased view of the real
Wigner matrix exp(-i (pi/2) J_y), which a division-free ladder builds
block by block, one quarter of it per block: its pi/2 mirrors give the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Weighted sum of cross-phase and exchange generators in one arm.

    A term (c, spec) weighs spec's generator by c times spec's strength
    (chi or g); the Hybrid's own strength scales theta, as a bare
    process's does.
    """
    terms: Tuple[Tuple[float, Union[CrossPhase, Exchange]], ...]
    strength: float = 1.0

    def __post_init__(self):
        if len(self.terms) == 0:
            raise DomainError("hybrid process needs at least one term")
        if not all(isinstance(spec, (CrossPhase, Exchange))
                   for _, spec in self.terms):
            raise DomainError("hybrid terms must be CrossPhase or Exchange specs")
        weights = np.array([c for c, _ in self.terms])
        if weights.dtype.kind not in "biuf" or not np.isfinite(weights).all():
            raise DomainError("hybrid term weights must be finite reals")
        if not np.isfinite([spec.strength for _, spec in self.terms]).all():
            raise DomainError("hybrid term strengths must be finite")
        # hashable, as evolution.block_engine keys its engine on the process
        object.__setattr__(self, "terms",
                           tuple((float(c), spec) for c, spec in self.terms))


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

def exchange_couplings(N: int, k: int) -> np.ndarray:
    """Elements <j-k| a+^k b^k |j> = sqrt((N-j+k)!/(N-j)! * j!/(j-k)!),
    j = k..N, of the exchange generator on block N; empty for N < k.

    Entry j - k couples j - k with j, so chain c (j = c, c+k, ...) has the
    couplings [c::k].
    """
    if N < 0 or k < 1:
        raise DomainError("need N >= 0 and k >= 1")
    j = np.arange(k, N + 1, dtype=float)
    return np.exp(0.5 * (gammaln(N - j + k + 1) - gammaln(N - j + 1))
                  + 0.5 * (gammaln(j + 1) - gammaln(j - k + 1)))


def process_generator(process: ProcessSpec, N: int) -> np.ndarray:
    """Nonlinear-arm generator of a process on block N, in the lower band
    storage of scipy.linalg.eig_banded: shape (b+1, N+1).

    Row 0 is the diagonal, the sum of c ((N-j) j)^s over the cross-phase
    terms; row d holds the couplings G[j+d, j], j = 0..N-d, of offset d,
    the sum of c times the exchange_couplings of the order-d terms; b is
    the largest exchange order that fits in the block, or 0. A Hybrid's
    term weighs c = coefficient times strength (chi or g); a bare process
    is the one term of weight 1, as its strength scales theta instead. The
    benchmark tracer (bench/tracer.py) wraps this as the per-block
    generator layer.
    """
    if isinstance(process, Hybrid):
        terms = [(c * spec.strength, spec) for c, spec in process.terms]
    elif isinstance(process, (CrossPhase, Exchange)):
        terms = ((1.0, process),)
    else:
        raise ConfigurationError(
            "%s has no block generator; use evolution.pdc_signal_sweep"
            % type(process).__name__)
    if N < 0:
        raise DomainError("block label N must be >= 0")
    b = max([spec.k for _, spec in terms
             if isinstance(spec, Exchange) and spec.k <= N], default=0)
    band = np.zeros((b + 1, N + 1))
    j = np.arange(N + 1, dtype=float)
    for c, spec in terms:
        if isinstance(spec, CrossPhase):
            band[0] += c * ((N - j) * j) ** spec.s
        elif spec.k <= N:
            band[spec.k, : N + 1 - spec.k] += c * exchange_couplings(N, spec.k)
    return band


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

    def triple(self, h: int):
        """Three (h, h) work arrays."""
        n = h * h
        if self._buf.size < 3 * n:
            self._buf = np.empty(max(3 * n, 2 * self._buf.size))
        return [self._buf[c * n:(c + 1) * n].reshape(h, h) for c in range(3)]


def _jx_factorization(N: int, q_prev: np.ndarray,
                      scratch: LadderScratch) -> np.ndarray:
    """Ladder step: the quarter q_N = r_N[:h, :h], h = N//2 + 1, of the
    rung r_N = 2^((N mod 2)/2) d_N, from the quarter q_{N-1} of r_{N-1}.

    d_N = exp(-i (pi/2) J_y) is the real Wigner matrix of block N. Block N
    is the symmetric embedding of N-1 photons plus one, so

        d_N[i, k] = sum_{x, y in {a, b}} w_x(i) w_y(k) u[x, y]
                    d_{N-1}[i - [x=b], k - [y=b]]

    with w_a(i) = sqrt((N-i)/N), w_b(i) = sqrt(i/N) and u = d_1 =
    [[1, -1], [1, 1]]/sqrt(2) (Risbo, J. Geodesy 70, 383 (1996)): a
    contraction that divides by nothing, stable for any N. u's 1/sqrt(2)
    is applied as an exact 1/2 on every even step, hence the sqrt(2) odd
    rungs carry; a rounded 1/sqrt(2) at every step drifts the norm by N
    ulp. The pi/2 mirrors of d_N (Varshalovich et al., Quantum Theory of
    Angular Momentum, sec. 4.4),

        r_N[N-i, k] = (-1)^k r_N[i, k],   r_N[i, N-k] = (-1)^(N+i) r_N[i, k],

    hold bit for bit on every rung, as w_a(N-i) is w_b(i) exactly; so the
    step computes only the quarter i, k <= N//2, which reads r_{N-1} on
    rows and columns 0..N//2. For odd N that is q_{N-1}; for even N it is
    one row and column more, their mirrors in q_{N-1} times a sign.
    rung_entries reads any entry of r_N off q_N. Intermediates live in
    scratch; only q_N is allocated. N >= 1.

    The name is older than the step: the benchmark tracer (bench/tracer.py)
    wraps operators._jx_factorization as the per-block splitter layer.
    """
    h = N // 2 + 1
    i = np.arange(h)
    wa = np.sqrt((N - i) / N)
    wb = np.sqrt(i / N)
    P, Q, R = scratch.triple(h)
    if N % 2:
        R = q_prev
    else:
        # r_{N-1}'s row and column h-1 are the mirrors of its h-2
        alt = 1.0 - 2.0 * (i % 2)
        R[:-1, :-1] = q_prev
        np.multiply(alt[:-1], q_prev[-1], out=R[-1, :-1])
        np.multiply(-alt, R[:, -2], out=R[:, -1])
    # row embeddings: P = rows from row i (weight w_a), Q = from row i-1 (w_b)
    np.multiply(wa[:, None], R, out=P)
    np.multiply(wb[1:, None], R[:-1], out=Q[1:])
    Q[0] = 0.0
    q = np.add(P, Q)               # u's first column: column k from k
    np.subtract(Q, P, out=Q)       # u's second column: column k from k-1
    half = 0.5 if N % 2 == 0 else 1.0
    q *= half * wa
    Q[:, :-1] *= half * wb[1:]
    q[:, 1:] += Q[:, :-1]
    return q


def rung_entries(q: np.ndarray, N: int, rows, cols) -> np.ndarray:
    """r_N[rows][:, cols] read off the quarter q = r_N[:h, :h],
    h = N//2 + 1: an entry past the middle row or column is its mirror's
    times (-1)^k or (-1)^(N+i), as in _jx_factorization.

    rows is a slice or an integer array, cols an integer array. The result
    is column-major, the layout of a slice-and-index r[rows, cols] of a
    full rung; the BLAS products of the block engine round the last bit of
    some cells differently on the other layout.
    """
    rows = np.arange(N + 1)[rows]
    mirror = N - rows
    B = q[np.minimum(rows, mirror)]
    B[rows > mirror, 1::2] *= -1.0
    cols = np.asarray(cols)
    A = B.T[np.minimum(cols, N - cols)].T
    mixed = mirror % 2 == 1
    if mixed.any():  # the column mirror's sign is 1 on the rows of N's parity
        A[:, cols > N - cols] *= 1.0 - 2.0 * mixed[:, None]
    return A


def ladder_walk(N: int, start=None, scratch: LadderScratch | None = None):
    """Quarter q_N = r_N[:N//2+1, :N//2+1] of the rung
    r_N = 2^((N mod 2)/2) d_N of the Wigner-d ladder.

    Walks up from start = (n, q_n) with n <= N, by default from
    q_0 = r_0 = [[1]], one _jx_factorization step per block.
    """
    if N < 0:
        raise DomainError("block label N must be >= 0")
    n, q = start if start is not None else (0, np.ones((1, 1)))
    scratch = scratch if scratch is not None else LadderScratch()
    for m in range(n + 1, N + 1):
        q = _jx_factorization(m, q, scratch)
    return q
