"""Exact unitary evolution of the nonlinear two-mode interferometer.

Everything here is block-diagonal in the conserved total photon number N.
The interferometer unitary on block N is

    U(N, theta) = U_BS  exp(-i theta  g_N)  U_BS,

with g_N the nonlinear-arm generator on the block and theta = chi t (cross
phase) or g t (exchange) the single dimensionless knob swept everywhere.
Per block the engine (BlockEngine) keeps the input's components on the
generator eigenvectors carried through the second splitter, a real
record, so every theta of a sweep costs real matrix products per block,
whatever the number of thetas. The splitter is the phased real Wigner
matrix exp(-i (pi/2) J_y), which a division-free ladder builds a quarter
at a time. Every generator is a diagonal plus exchange bands: a diagonal
block needs no eigensolve, and any other is solved on its banded chains
j = c, c+g, ..., g the gcd of its exchange orders. chain_eig solves every
real chain of the package and gives a bipartite one as its exact
(mu, -mu) pairs, which take one phase exp(-i mu theta) per pair and
theta.

Parametric down-conversion is not block-diagonal in N, but with n pump
photons it reaches one bipartite chain of n + 1 states, which the pump
engine keeps in the blocks' pair form, one level at a time.

Every evolution goes through one phase kernel, phase_product. On a
uniform grid of T points (every linspace) it takes the phases by angle
addition from two tables of about sqrt(T) columns each, so cos and sin
run O(sqrt(T)) times per eigenvalue rather than T times.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from . import fock
from .errors import ConfigurationError, DomainError
from .operators import (QUARTER_TURNS, DegeneratePDC, LadderScratch,
                        NonDegeneratePDC, ProcessSpec, ladder_walk,
                        process_generator, rung_entries)


def _cis(mu, ts) -> np.ndarray:
    """exp(-i outer(mu, ts)) by one cos and one sin per cell."""
    ph = np.outer(mu, -ts)
    Z = np.empty(ph.shape, dtype=complex)
    np.cos(ph, out=Z.real)
    np.sin(ph, out=Z.imag)
    return Z


def _phases(mu, ts) -> np.ndarray:
    """exp(-i outer(mu, ts)), shape (mu.size, ts.size).

    A uniform grid, every point within 4 ulp of max|ts| of ts[0] + i h (a
    linspace), is cut into runs of B = isqrt(T) points: with i = q B + r,
    column i is exp(-i mu ts[q B]) exp(-i mu r h), one complex product of
    a column of each of two tables of about sqrt(T) columns, so cos and
    sin run on O(M sqrt(T)) phases instead of M T. _cis builds both
    tables, so columns q B are its own bit for bit, and a column t = 0 is
    exactly 1 wherever it lies; it also takes any other grid, and one of
    fewer than 16 points, whose tables would save less than the uniformity
    test costs.
    """
    T = ts.size
    B = math.isqrt(T)
    if B < 4:
        return _cis(mu, ts)
    h = (ts[-1] - ts[0]) / (T - 1)
    dev = np.abs(ts - (ts[0] + h * np.arange(T))).max()
    if not dev <= 4.0 * np.finfo(float).eps * np.abs(ts).max():
        return _cis(mu, ts)
    hi = _cis(mu, ts[::B])
    lo = _cis(mu, h * np.arange(B))
    Z = np.empty((mu.size, T), dtype=complex)
    Q, F = T // B, T - T % B
    np.multiply(hi[:, :Q, None], lo[:, None, :],
                out=Z[:, :F].reshape(mu.size, Q, B))
    np.multiply(hi[:, Q:], lo[:, : T - F], out=Z[:, F:])
    Z[:, ts == 0.0] = 1.0  # as _cis gives it, also off the columns q B
    return Z


def phase_product(C, D, mu, ts) -> np.ndarray:
    """Real and imaginary parts of C cos(mu t) - i D sin(mu t), column i
    at ts[i]: shape (2, rows, len(ts)).

    The one phase kernel of the block engine, the pump-level chains and
    the oscillator oracle; its phases exp(-i mu t) come from _phases. With
    C is D this is C exp(-i mu t): a real C takes one real product on the
    phases' float view (a complex C a complex product), and the parts are
    views of the interleaved result. Otherwise C and D are real, the pair
    form C = a+b and D = a-b for the columns a, b of eigenvalues mu and
    -mu: one phase per pair and two real products, C @ cos and D @ sin.
    """
    Z = _phases(mu, np.asarray(ts, dtype=float))
    if C is D:
        Z = C @ Z if np.iscomplexobj(C) else (C @ Z.view(float)).view(complex)
        return Z.view(float).reshape(Z.shape + (2,)).transpose(2, 0, 1)
    P = np.empty((2, C.shape[0], Z.shape[1]))
    # unit-stride parts: numpy's matmul skips BLAS on some strided operands
    np.matmul(C, np.ascontiguousarray(Z.real), out=P[0])
    np.matmul(D, np.ascontiguousarray(Z.imag), out=P[1])  # Im Z = -sin
    return P


def interleaved(P) -> np.ndarray:
    """phase_product's parts as the float view of a complex array, shape
    (rows, 2 T); no copy when they came from one interleaved buffer."""
    return P.transpose(1, 2, 0).reshape(P.shape[1], -1)


def chain_eig(band):
    """(mu, V, paired) of a real symmetric chain in the lower band storage
    of operators.process_generator, shape (b+1, L): the one eigensolve of
    the package. Bandwidth 1 goes to eigh_tridiagonal, which gives
    eig_banded's bits without its product with the reduction matrix, and
    a wider band to eig_banded. A bipartite chain (zero diagonal,
    couplings at odd offsets only) has exact pairs (mu, v), (-mu, S v),
    S = diag((-1)^i) (Coulson & Rushbrooke, Proc. Camb. Phil. Soc. 36, 193
    (1940)): it comes back as its mu >= 0 half with paired=True, an odd
    length's zero mode first, with mu = 0.0 and odd entries 0.0. Any
    other chain comes back whole, mu ascending.
    """
    if band.shape[0] == 2:
        mu, V = eigh_tridiagonal(band[0], band[1, :-1])
    else:
        mu, V = eig_banded(band, lower=True)
    paired = not band[0].any() and not band[2::2].any()
    if paired:
        h = band.shape[1] // 2
        mu, V = mu[h:], V[:, h:]
        if band.shape[1] % 2:
            mu[0] = 0.0
            V[1::2, 0] = 0.0
    return mu, V, paired


# ---------------------------------------------------------------------------
# block engine: one splitter ladder step per block, any number of thetas
# ---------------------------------------------------------------------------

class BlockEngine:
    """Caches one factorization per block for one process family.

    amplitudes(N, thetas) returns the (N+1, T) output amplitudes
    <N-j, j| U(theta) |N, 0>, one column per theta; probs(N, thetas) their
    squared moduli on the rows rows(N), outside which they are exact zeros.

    The splitter is B_N = diag((-i)^j) d_N diag(i^m), and the ladder gives
    the quarter q_N = r_N[:h, :h], h = N//2 + 1, of the rung r_N = c_N d_N
    with c_N^2 = 2^(N mod 2) (operators.ladder_walk); every entry of r_N a
    block reads is gathered from q_N (operators.rung_entries), and no full
    rung is formed.
    Block N keeps (C, D, mu, rows), C and D real, and its amplitudes are
    phase_j [C cos(theta mu) - i D sin(theta mu)]_j on the rows j of the
    slice rows (phase_product), with the row phase phase_j = (-i)^j on the
    rows j of N's parity and (-i)^(j-1) on the others. Column l of C and D
    comes from the input's components on generator eigenvectors, carried
    through the second splitter, with the columns of mirror eigenvectors
    of one eigenvalue merged. The generator comes as a band
    (operators.process_generator): a block with no couplings is diagonal,
    and its columns m and N-m merge, so that only the rows of N's parity
    are nonzero, where the merged column is 2 r_N[:, m] exactly; any other
    is solved chain by chain (_exchange_chains). The columns a, b of a
    pair of a bipartite chain (chain_eig) enter as C = a+b, D = a-b, and
    a zero mode once, with mu = 0.0 exactly. An unpaired column has C = D,
    and a block with no pairs keeps C is D, the one-product path of
    phase_product. A diagonal or even-stride block keeps only the rows j
    of N's parity, N//2 + 1 at most, as the mirror merge makes the others
    exact zeros; an odd-stride block keeps all N+1 rows, those off N's
    parity divided by i (_exchange_chains). A diagonal block keeps N//2 + 1
    columns. The engine keeps the highest quarter built so far
    (_top): a new block takes ladder steps from it, or from r_0 when it
    lies below that one. A process with no photon-number blocks raises
    ConfigurationError on its first block.
    """

    def __init__(self, process: ProcessSpec):
        self.process = process
        self._blocks: Dict[int, tuple] = {}
        self._top = (0, np.ones((1, 1)))
        self._scratch = LadderScratch()

    def _rung(self, N: int) -> np.ndarray:
        n, q = self._top
        q = ladder_walk(N, (n, q) if n < N else None, self._scratch)
        if N > n:
            self._top = (N, q)
        return q

    def _build(self, N: int):
        q = self._rung(N)
        inv_c2 = 0.5 ** (N % 2)  # exact
        band = process_generator(self.process, N)
        offsets = [d for d in range(1, band.shape[0]) if band[d].any()]
        if offsets:
            self._blocks[N] = _exchange_chains(q, N, band, offsets, inv_c2)
            return
        # diagonal generator: it and the input column r_N[:, 0] are
        # symmetric under j -> N-j, so columns m and N-m merge; on the rows
        # of N's parity r_N[:, N-m] = r_N[:, m], on the others they cancel
        h = N // 2 + 1
        rows = slice(N % 2, N + 1, 2)
        w = inv_c2 * q[:, 0]
        w[: N + 1 - h] *= 2.0  # an even N's middle column is its own mirror
        C = np.multiply(rung_entries(q, N, rows, np.arange(h)), w, order="C")
        self._blocks[N] = (C, C, band[0, :h], rows)

    def _factor(self, N: int):
        if N not in self._blocks:
            self._build(N)
        return self._blocks[N]

    def rows(self, N: int) -> slice:
        """The rows j that probs(N, .) returns; the others are exact zeros."""
        return self._factor(N)[3]

    def amplitudes(self, N: int, thetas, phased: bool = True) -> np.ndarray:
        """Output amplitudes, shape (N+1, len(thetas)).

        phased=False returns instead phase_product's parts, shape
        (2, rows, len(thetas)): the amplitudes on the rows rows(N) without
        the row phase, which no modulus depends on.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        C, D, mu, rows = self._factor(N)
        P = phase_product(C, D, mu, thetas)
        if not phased:
            return P
        Z = np.zeros((N + 1, thetas.size), dtype=complex)
        Z.real[rows] = P[0]
        Z.imag[rows] = P[1]
        j = np.arange(N + 1)
        Z *= QUARTER_TURNS[(j - (j + N) % 2) % 4, None]
        return Z

    def probs(self, N: int, thetas) -> np.ndarray:
        """Squared moduli on the rows rows(N), shape (rows, len(thetas))."""
        P = self.amplitudes(N, thetas, phased=False)
        P *= P
        return P[0] + P[1]


def _signs(m):
    """s_m in i^m = s_m i^(m mod 2)."""
    return 1.0 - 2.0 * (m // 2 % 2)


def _image(q, N, rows, pos, V, w):
    """(U, w kappa) = (r_N[rows][:, pos] W, w W^T r_N[pos, 0]) with
    W = diag(s_pos) V, i^m = s_m i^(m mod 2): one gather from the quarter
    q of the rung r_N (operators.rung_entries), all of it real.

    V's rows are the basis states pos. Where they share one parity of m
    the columns r_N diag(i^m) V diag(V^T diag((-i)^m) r_N[:, 0]) are
    U diag(kappa), as i^(m mod 2) (-i)^(m mod 2) = 1. The weight w is a
    power of 2, exact wherever it is applied.
    """
    W = _signs(pos)[:, None] * V
    r0 = q[np.minimum(pos, N - pos), 0]  # the row mirror's sign is (-1)^0
    return rung_entries(q, N, rows, pos) @ W, w * (W.T @ r0)


def _fold(band, sigma):
    """Band of a chain that is its own mirror i -> L-1-i, restricted to
    the mirror sector sigma: sites 0..(L-1)//2, the middle one included.

    A coupling of sites a < L/2 and L-1-a' crosses the fold and lands,
    times sigma, on the folded pair (a, a'): on the diagonal where
    a = a', which an even-length chain's central coupling does. The
    couplings of an odd-length chain's middle site take sqrt(2); that
    site's sector sigma is +1. The crossing couplings also stay past the
    end of their band rows, outside the matrix eig_banded reads.
    """
    b, L = band.shape[0] - 1, band.shape[1]
    h, F = L // 2, (L + 1) // 2
    fb = band[:, :F].copy()
    a = np.arange(h)
    for d in range(1, b + 1):
        a2 = L - 1 - d - a
        on = (a2 >= 0) & (a2 <= a)
        fb[a[on] - a2[on], a2[on]] += sigma * band[d, a[on]]
    if L % 2:
        d = np.arange(1, min(b, h) + 1)
        fb[d, h - d] *= np.sqrt(2.0)
    return fb


def _exchange_chains(q, N: int, band, offsets, scale):
    """(C, D, mu, rows) of block N on its chains, one chain or mirror pair
    at a time; q is the quarter of the rung r_N, band the generator
    (operators.process_generator), with couplings at the offsets offsets.

    The generator couples only sites j an offset apart, so it splits into
    g real chains j = c, c+g, ..., g the gcd of the offsets, each a band
    of width max(offsets)/g solved by chain_eig. The mirror j -> N-j
    commutes with it and maps chain c onto chain (N - c) mod g reversed,
    eigenvalue for eigenvalue: a pair of distinct chains is solved once
    and each eigenvalue's two columns merge into one. For even g a chain
    that is its own mirror is folded (_fold) onto the mirror sector
    sigma = s_c s_(N-c) of the input, which is zero on the other one; for
    odd g it mixes the parities of j and stays whole. A fold stays
    bipartite only at odd length, as at even length its central coupling
    lands on the diagonal. A bipartite chain comes back as its positive
    half: the partner (-mu, S v) of (mu, v) keeps the image (U0, k0) of
    v's even sites i and flips the sign of (U1, k1), that of its odd ones
    (_image), and a zero mode enters once, as C = a, D = 0.

    For even g every site has the parity of c, and a pair's C = a+b and
    D = a-b are 2 (U0 k0 + U1 k1) and 2 (U0 k1 + U1 k0). For odd g the
    halves have opposite parities of m, and a column is
    U0 k0 + U1 k1 + i (-1)^c (U1 k0 - U0 k1); its mirror chain's is
    (-1)^(N+j) times its complex conjugate on row j, as
    r_N[j, N-m] = (-1)^(N+j) r_N[j, m] and r_N[N-m, 0] = r_N[m, 0]. So a
    merged column, or one of a chain that is its own mirror, is real on
    the rows of N's parity and imaginary on the others, which the block
    keeps divided by i: a pair's C is 2 (U0 k0 + U1 k1) on the former,
    its D 2 (-1)^c (U1 k0 - U0 k1) on the latter, each 0.0 elsewhere, and
    an unpaired column is C + D.
    """
    g = math.gcd(*offsets)
    b = max(offsets) // g
    even = g % 2 == 0
    rows = slice(N % 2, N + 1, 2) if even else slice(0, N + 1, 1)
    mus, Cs, Ds = [], [], []
    for c in range(g):
        m = (N - c) % g
        if m < c:
            continue  # merged into chain m
        pos = np.arange(c, N + 1, g)
        cb = band[: b * g + 1: g, c::g]
        if m == c and even:
            pos, cb = pos[: (pos.size + 1) // 2], _fold(
                cb, _signs(c) * _signs(N - c))
        mu, V, paired = chain_eig(cb)
        if even and 2 * pos[-1] == N:
            V[-1] *= np.sqrt(0.5)  # the middle site is its own mirror
        # exact: merged mirror columns are twice the chain's on the rows of
        # N's parity, and a pair's C = a+b, D = a-b twice its half-images
        w = scale * 2.0 ** ((m != c or even) + paired)
        if even and not paired:
            U, kappa = _image(q, N, rows, pos, V, w)
            C = D = U * kappa
        else:
            (U0, k0), (U1, k1) = (_image(q, N, rows, pos[s::2], V[s::2], w)
                                  for s in (0, 1))
            C = U0 * k0 + U1 * k1
            if even:
                D = U0 * k1 + U1 * k0
            else:
                D = U0 * k1 - U1 * k0 if c % 2 else U1 * k0 - U0 * k1
                C[1 - N % 2::2] = 0.0
                D[N % 2::2] = 0.0
                if not paired:
                    C = D = C + D
            if paired and pos.size % 2:
                C[:, 0] *= 0.5  # the zero mode is its own partner
        mus.append(mu)
        Cs.append(C)
        Ds.append(D)
    C = np.hstack(Cs)
    D = C if all(a is b for a, b in zip(Cs, Ds)) else np.hstack(Ds)
    return C, D, np.concatenate(mus), rows


@functools.lru_cache(maxsize=1)
def block_engine(process: ProcessSpec) -> BlockEngine:
    """The BlockEngine of process, kept until another process is swept:
    repeated sweeps of one process reuse its blocks, which do not depend
    on the order they are built in, so they keep a fresh engine's bits."""
    return BlockEngine(process)


def mzi_output(process: ProcessSpec, t: float, nbar: float,
               tail_tol: float = 1e-12):
    """Thermal-input interferometer output marginals (dist_a, dist_b).

    The one-point sweep_distributions at theta = t * strength: |N, 0> is
    evolved on every retained block, weighted by the thermal P_N and reduced
    to the two single-mode distributions. Evolution is exact per block; the
    only approximation is the input tail cut.
    """
    if not np.isfinite(t):
        raise DomainError("t must be finite")
    da, db, _ = sweep_distributions(process, nbar, [t * process.strength],
                                    tail_tol)
    return da[:, 0], db[:, 0]


def sweep_distributions(process: ProcessSpec, nbar: float, thetas,
                        tail_tol: float = 1e-12):
    """Output distributions across a theta grid in one pass.

    Returns (dist_a, dist_b, input_probs): dist_a[n, i] is the mode-a
    probability of n photons at thetas[i] (dist_b likewise); thetas are the
    dimensionless angles chi t or g t. The blocks come from block_engine.
    Raises DomainError on a non-finite theta.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.isfinite(thetas).all():
        raise DomainError("thetas must be finite")
    P = fock.thermal_distribution(nbar, tail_tol)
    M = P.size
    eng = block_engine(process)
    da = np.zeros((M, thetas.size))
    db = np.zeros((M, thetas.size))
    for N in range(M):
        pb = eng.probs(N, thetas)
        pb *= P[N]
        rows = eng.rows(N)
        da[N - rows.start::-rows.step] += pb
        db[rows] += pb
    return da, db, P


# ---------------------------------------------------------------------------
# parametric down-conversion: one chain per pump level
# ---------------------------------------------------------------------------

class GenericEngine:
    """Pump-level chains of one down-conversion variant.

    From |n, 0> (pump, signal) or |n, 0, 0> (pump, signal, idler), the
    trilinear Hamiltonian g (a_p a_s+^2 + h.c.) or g (a_p a_s+ a_i+ + h.c.)
    reaches only the n + 1 states (n-m, 2m) or (n-m, m, m), m = 0..n
    (Walls & Barakat, Phys. Rev. A 1, 446 (1970)). In that order the
    Hamiltonian is a real chain with zero diagonal and couplings

        g sqrt(n-m) sqrt(2m+1) sqrt(2m+2)   (degenerate)
        g sqrt(n-m) sqrt(m+1) sqrt(m+1)     (non-degenerate),

    a bipartite chain that chain_eig gives as its mu >= 0 half. From site
    0 a pair (mu, v), (-mu, S v) evolves as 2 v_0 v cos(mu t) on the even
    sites and -2i v_0 v sin(mu t) on the odd ones: the blocks' pair form
    (C, D, mu) of phase_product, C = 2 v_0 v on the even sites, D on the
    odd ones, 0.0 elsewhere, and a zero mode once, as C = v_0 v. The
    engine keeps only the level it solved last, as a sweep evolves each
    level once. Every mode's occupation is fixed by m, so each reduced
    state is diagonal.

    The name is older than the chains: the benchmark tracer
    (bench/tracer.py) wraps _component, evolve and mode_distributions and
    reads _components.
    """

    def __init__(self, process):
        # step: signal photons made per converted pump photon
        if isinstance(process, DegeneratePDC):
            self.step = 2
        elif isinstance(process, NonDegeneratePDC):
            self.step = 1
        else:
            raise ConfigurationError("GenericEngine needs a PDC process spec")
        self.process = process
        self._components: Dict[int, tuple] = {}

    def _component(self, n: int):
        """Pump level n's record (C, D, mu), C and D of n+1 rows."""
        if n not in self._components:
            m = np.arange(n, dtype=float)
            s = self.step * m
            band = np.zeros((2, n + 1))
            # rounded left to right in the order the ladder operators act
            # (a_p, then the two creations); another order changes the
            # last bits of the couplings and with them the output bytes
            band[1, :n] = self.process.g * np.sqrt(n - m) * np.sqrt(s + 1)
            band[1, :n] *= np.sqrt(s + self.step)
            mu, V, _ = chain_eig(band)
            C = V * (2.0 * V[0])
            C[:, 0] *= 0.5 if n % 2 == 0 else 1.0  # a zero mode enters once
            D = C.copy()
            C[1::2], D[::2] = 0.0, 0.0
            self._components = {n: (C, D, mu)}
        return self._components[n]

    def evolve(self, n: int, ts) -> np.ndarray:
        """Chain amplitudes from pump level n on a grid of T times, shape
        (n+1, T): phase_product of the level's pair record, two real
        products for the whole grid."""
        P = phase_product(*self._component(n), ts)
        return P[0] + 1j * P[1]

    def mode_distributions(self, n: int, t) -> List[np.ndarray]:
        """Photon distributions of pump, signal (and idler) from level n.

        They have n+1, step*n+1 (and n+1) rows; 1d for a scalar t, one
        column per time for a grid.
        """
        ts = np.asarray(t, dtype=float)
        weight = np.abs(self.evolve(n, np.atleast_1d(ts))) ** 2
        sig = np.zeros((self.step * n + 1, weight.shape[1]))
        sig[:: self.step] = weight
        dists = [weight[::-1], sig] + ([sig.copy()] if self.step == 1 else [])
        return [d[:, 0] if ts.ndim == 0 else d for d in dists]


def pdc_signal_sweep(process, nbar: float, gts, tail_tol: float = 1e-12):
    """Signal-mode distributions across a g t grid, one column per point.

    Rows are signal occupations 0..step*N_max for a thermal pump cut at
    N_max. The chain couplings carry g, so each pump level's chain is
    evolved once over the times t = g t / g and added, weighted by P[n],
    into the leading step*n+1 rows. Raises DomainError on a non-finite
    g t and on a coupling g that is zero or not finite.
    """
    P = fock.thermal_distribution(nbar, tail_tol)
    eng = GenericEngine(process)
    if not (np.isfinite(process.g) and process.g != 0.0):
        raise DomainError("the coupling g must be finite and non-zero")
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    if not np.isfinite(gts).all():
        raise DomainError("g t must be finite")
    ts = gts / process.g
    sig = np.zeros((eng.step * (P.size - 1) + 1, ts.size))
    for n in range(P.size):
        d = eng.mode_distributions(n, ts)[1]
        sig[: d.shape[0]] += P[n] * d
    return sig
