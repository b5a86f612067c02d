"""Exact unitary evolution of the nonlinear two-mode interferometer.

Everything here is block-diagonal in the conserved total photon number N.
The interferometer unitary on block N is

    U(N, theta) = U_BS  exp(-i theta  g_N)  U_BS,

with g_N the nonlinear-arm generator on the block and theta = chi t (cross
phase) or g t (exchange) the single dimensionless knob swept everywhere.
Per block the engine (BlockEngine) keeps the input's components on the
generator eigenvectors carried through the second splitter, a real
record, so every theta of a sweep costs real matrix products per block.
The splitter is the phased real Wigner matrix exp(-i (pi/2) J_y), which a
division-free ladder builds a quarter at a time. A diagonal generator
needs no eigensolve; any other is solved on its tridiagonal chains
j = c, c+k, ..., k its one exchange order, by chain_eig, which gives a
bipartite chain as its (mu, -mu) pairs: one phase exp(-i mu theta) per
pair and theta. With n pump photons, parametric down-conversion reaches
one bipartite chain of n + 1 states, kept in the blocks' pair form one
level at a time.

Every evolution goes through one phase kernel, phase_product, which on a
uniform grid takes its phases by angle addition from two tables of about
sqrt(T) columns. A CrossPhase(s=1) block passes it phases read off one
table per grid instead. On block N, n_a n_b = N^2/4 - J_z^2 with
J_z = (n_a - n_b)/2 (the Schwinger map; J_z^2 is the one-axis-twisting
generator of Kitagawa & Ueda, Phys. Rev. A 47, 5138 (1993)), so
exp(-i theta n_a n_b) is the block phase exp(-i theta N^2/4), which no
probability depends on, times exp(i theta u^2/4), u = N - 2m, the same
for every block of N's parity (PhaseGrid.twists). Other generators'
eigenvalues are not affine in u^2: their blocks keep their own phases.
Each loop over blocks or pump levels (sweep_distributions,
pdc_signal_sweep, the oscillator oracle) analyses its grid once, as a
PhaseGrid, whose buffers every product of the loop reuses, and reads
phase_product's real and imaginary parts. It runs its products on
column tiles of about TILE points (PhaseGrid.tiles), so what a loop
holds besides its result does not grow with the grid, while a tile is
wide enough that a block's per-product costs stay small. A tile shares
its grid's angle-addition tables, zero mask and buffers and starts on
a multiple of the table stride, so its phases are the grid's columns
bit for bit.

The eigensolves call LAPACK dbdsdc (a bipartite chain, as the SVD of its
half-size bidiagonal) and dstevd (any other chain) in the OpenBLAS that
numpy bundles and runs every product on, bound through numpy's own LAPACK
extension, so the process holds one BLAS library and one thread pool.
Where numpy links no such library, the first chain solve raises
ConfigurationError, and the CLI exits 3.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
from typing import Dict

import numpy as np
from numpy.linalg import _umath_linalg

from . import fock
from .errors import ConfigurationError, DomainError
from .operators import (BufferPool, CrossPhase, DegeneratePDC,
                        NonDegeneratePDC, ProcessSpec, ladder_walk,
                        process_generator, rung_entries)


TILE = 1024  # about the columns of one tile (PhaseGrid.tiles)


class PhaseGrid:
    """A grid of T angles or times, analysed once for every phase_product
    over it, with the buffers that those products reuse.

    The analysis: the negated points, as _cis takes them; the mask of the
    columns t = 0; and, when the grid is uniform with T >= 16 (every
    point within 4 ulp of max|ts| of ts[0] + i h, a linspace), the
    negated abscissae of _phases' two tables, ts[::B] and h r for
    r < B = isqrt(T). top is the highest block a loop over blocks reads,
    the size of its cross-phase table (twists). The pool
    (operators.BufferPool) holds a product's phases, their contiguous real
    and imaginary parts and the pair form's products. A loop's arrays
    grow block by block, each above glibc's dynamic mmap threshold, so
    fresh ones would each be mapped and zero-filled anew; reused, they are
    faulted in once. A product on a grid is therefore a view that the
    grid's next product overwrites.

    A loop runs its products tile by tile (tiles), so that no phase table,
    part copy or product holds more than a tile's columns.
    """

    def __init__(self, ts, top: int = 0):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        T = ts.size
        self.ts, self.size, self.pool = ts, T, BufferPool()
        self.negated, self.zeros, self.tables = -ts, ts == 0.0, None
        self.top, self._twists = top, None
        B = math.isqrt(T)
        if B >= 4:
            h = (ts[-1] - ts[0]) / (T - 1)
            dev = np.abs(ts - (ts[0] + h * np.arange(T))).max()
            if dev <= 4.0 * np.finfo(float).eps * np.abs(ts).max():
                self.tables = (self.negated[::B], -(h * np.arange(B)))

    def tiles(self):
        """Yields (cols, tile), tile the grid's columns cols, in order: runs
        of TILE // B * B columns (at least B, the table stride B =
        isqrt(T)) and a shorter last one: one tile when T <= TILE, none
        when T = 0.

        A tile shares the grid's pool, top, zero mask and angle-addition
        tables (the entries of ts[::B] that its columns read), and builds
        its own cross-phase table (twists) of its columns alone, which goes
        with the tile, as each tile is made when the loop reaches it. As
        every tile starts on a multiple of B, its column q B + r is still
        the product of the grid's table columns q and r, so its phases are
        the grid's columns bit for bit. The width bounds what a loop holds and
        is wide enough that the per-product costs of a block (its call,
        _full rebuild and small table) stay small next to its columns:
        with 484-column tiles the warm 2000-point exchange coarse sweep of
        the benchmark's long_scan took about a quarter longer, with 1012
        (TILE // B * B there) its wall time did not move.
        """
        T, B = self.size, max(1, math.isqrt(self.size))
        W = max(B, TILE // B * B)
        for s in range(0, T, W):
            cols = slice(s, min(s + W, T))
            tile = copy.copy(self)
            tile.ts, tile.negated = self.ts[cols], self.negated[cols]
            tile.zeros, tile.size = self.zeros[cols], cols.stop - s
            tile._twists = None
            if self.tables is not None:
                hi, lo = self.tables
                tile.tables = (hi[s // B: -(-cols.stop // B)], lo)
            yield cols, tile

    def twists(self, N: int) -> np.ndarray:
        """exp(i t u^2/4) on u = N%2, N%2 + 2, ..., N, shape
        (N//2 + 1, size): the phases of a CrossPhase(s=1) block N without
        its block phase (BlockEngine), a strided view of one table on
        u = 0..max(N, top) that _cis builds, one direct cos and sin per
        cell, when a block first reads past its end."""
        if self._twists is None or self._twists.shape[0] <= N:
            u = np.arange(max(N, self.top) + 1, dtype=float)
            self._twists = _cis(u * u / 4.0, self.ts)
        return self._twists[N % 2: N + 1: 2]


def _cis(mu, neg_ts, out=None) -> np.ndarray:
    """exp(i outer(mu, neg_ts)) by one cos and one sin per cell, into out
    or a fresh array: the angles go into its imaginary half, where cos
    and sin read them."""
    if out is None:
        out = np.empty((mu.size, neg_ts.size), dtype=complex)
    np.multiply(mu[:, None], neg_ts, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _phases(mu, grid: PhaseGrid) -> np.ndarray:
    """exp(-i outer(mu, grid.ts)), shape (mu.size, grid.size), in the
    grid's buffer "Z".

    A grid that PhaseGrid finds uniform is cut into runs of B = isqrt(T)
    points: column i = q B + r is exp(-i mu ts[q B]) exp(-i mu r h), one
    complex product of a column of each of two tables of about sqrt(T)
    columns, so cos and sin run on O(M sqrt(T)) phases instead of M T.
    _cis builds both tables, so columns q B are its own bit for bit, and
    a column t = 0 is exactly 1 wherever it lies; it also takes any other
    grid, and one of fewer than 16 points, whose tables would save less
    than the uniformity test costs.
    """
    T = grid.size
    Z = grid.pool.take("Z", (mu.size, T), complex)
    if grid.tables is None:
        return _cis(mu, grid.negated, Z)
    hi, lo = (_cis(mu, a) for a in grid.tables)
    B = lo.shape[1]
    Q, F = T // B, T - T % B
    np.multiply(hi[:, :Q, None], lo[:, None, :],
                out=Z[:, :F].reshape(mu.size, Q, B))
    np.multiply(hi[:, Q:], lo[:, : T - F], out=Z[:, F:])
    Z[:, grid.zeros] = 1.0  # as _cis gives it, also off the columns q B
    return Z


def phase_product(C, D, mu, grid: PhaseGrid, Z=None) -> np.ndarray:
    """Real and imaginary parts of C cos(mu t) - i D sin(mu t), column i
    at grid.ts[i]: shape (2, rows, grid.size).

    The one phase kernel of the block engine, the pump-level chains and
    the oscillator oracle; its phases exp(-i mu t) come from _phases, or
    are Z, a (mu.size, grid.size) complex array whose rows may be strided
    (a CrossPhase(s=1) block's rows of PhaseGrid.twists, where mu is not
    read). With C is D this is C Z: a real C takes one real product on
    the phases' float view (a complex C a complex product) into a fresh
    array, and the parts are views of the interleaved result. Otherwise C
    and D are real, the pair form C = a+b and D = a-b for the columns a, b
    of eigenvalues mu and -mu: one phase per pair and two real products,
    C @ cos and D @ sin, into the grid's buffer "P", which the next
    pair-form product on the grid overwrites.
    """
    if Z is None:
        Z = _phases(mu, grid)
    if C is D:
        # a fresh array, not the pair form on pooled buffers: that kept all
        # CSV bytes but took bright_scan's peak RSS up 5.6% in free heap,
        # and exact-size pools or a fresh pair-form product cost long_scan
        # 11% RSS or 4x its page faults
        Z = C @ Z if np.iscomplexobj(C) else (C @ Z.view(float)).view(complex)
        return Z.view(float).reshape(Z.shape + (2,)).transpose(2, 0, 1)
    # unit-stride parts: numpy's matmul skips BLAS on some strided operands
    re, im = grid.pool.take("parts", (2,) + Z.shape)
    np.copyto(re, Z.real)
    np.copyto(im, Z.imag)  # Im Z = -sin
    P = grid.pool.take("P", (2, C.shape[0], grid.size))
    np.matmul(C, re, out=P[0])
    np.matmul(D, im, out=P[1])
    return P


_COL_MAJOR = 102  # LAPACKE's matrix layout code for Fortran order


def _find_lapacke(lib=_umath_linalg.__file__):
    """{routine: function} of LAPACKE dstevd and dbdsdc as lib exports
    them, or, where it does not, a message naming what is missing. dbdsdc
    is bound in its _work form, which takes its workspace from the caller,
    where the plain form allocates and frees it on every call.

    lib is numpy's own LAPACK extension by default: a symbol looked up on
    its handle is also looked up in the libraries it links, so these are
    the routines of the OpenBLAS that runs numpy's products. numpy's wheels
    bundle an ILP64 OpenBLAS (scipy-openblas64), which exports LAPACKE as
    scipy_LAPACKE_<routine>64_, with 64-bit integers; another BLAS (MKL,
    Accelerate) or a 32-bit-integer OpenBLAS exports no such names.
    """
    want = {"dstevd": "scipy_LAPACKE_dstevd64_",
            "dbdsdc": "scipy_LAPACKE_dbdsdc_work64_"}
    try:
        handle = ctypes.CDLL(lib)
        found = {r: getattr(handle, sym) for r, sym in want.items()}
    except (OSError, AttributeError):
        return ("chain_eig needs numpy's bundled OpenBLAS, whose LAPACKE "
                "exports %s; %s does not link them"
                % (", ".join(want.values()), lib))
    ptr = ctypes.POINTER(ctypes.c_double)
    i64, char = ctypes.c_int64, ctypes.c_char
    args = {"dstevd": [ctypes.c_int, char, i64, ptr, ptr, ptr, i64],
            "dbdsdc": [ctypes.c_int, char, char, i64, ptr, ptr, ptr, i64,
                       ptr, i64, ptr, ctypes.POINTER(i64), ptr,
                       ctypes.POINTER(i64)]}
    for routine, fn in found.items():
        fn.argtypes, fn.restype = args[routine], i64
    return found


_LAPACKE = _find_lapacke()


def _ref(a):
    """A double* argument for a, a writeable Fortran-order float64 array
    that its caller made: a ctypes view of its buffer, which raises
    TypeError on any other layout but reads no dtype. It takes about
    0.5 us, against 2 us for a.ctypes and 5 us for
    numpy.ctypeslib.ndpointer's checks, on solves of 10-100 us."""
    return ctypes.c_double.from_buffer(a.T)


def _lapacke(routine):
    """LAPACKE routine of numpy's OpenBLAS; ConfigurationError, naming
    what is missing, where _find_lapacke found none."""
    if isinstance(_LAPACKE, str):
        raise ConfigurationError(_LAPACKE)
    return _LAPACKE[routine]


def eig_banded(band):
    """(mu, V, info) of LAPACK dstevd on a real symmetric tridiagonal chain
    in lower band storage, shape (2, L), whose last coupling band[1, L-1]
    it does not read: eigenvalues ascending and eigenvectors as
    Fortran-order columns, as scipy.linalg.eig_banded(band, lower=True)
    gives them, bit for bit. The benchmark tracer (bench/tracer.py) wraps
    this name."""
    L = band.shape[1]
    mu, e = np.array(band, dtype=float)  # dstevd overwrites both
    V = np.empty((L, L), order="F")
    info = _lapacke("dstevd")(_COL_MAJOR, b"V", L, _ref(mu), _ref(e), _ref(V),
                              L)
    return mu, V, info


def chain_eig(band, pool: BufferPool | None = None):
    """(mu, X, Y) of a real symmetric tridiagonal chain in the lower band
    storage of operators.process_generator, shape (2, L): the one
    eigensolve of the package (_find_lapacke). A non-finite band raises
    DomainError; a band of other than two rows, a nonzero LAPACK info, or
    no LAPACK, ConfigurationError. pool (operators.BufferPool, a fresh one
    by default) holds dbdsdc's workspace, 3 h^2 + 4 h doubles and 8 h
    integers for h = (L+1)//2: a loop's chains grow solve by solve, and a
    fresh workspace above glibc's mmap threshold would be mapped and
    faulted in on every one.

    A bipartite chain (zero diagonal) has exact pairs (mu, (u, v)/sqrt2),
    (-mu, (u, -v)/sqrt2), u on its even sites and v on its odd ones
    (Coulson & Rushbrooke, Proc. Camb. Phil. Soc. 36, 193 (1940)): it
    comes back as its mu >= 0 half, ascending, with X = u and Y = v,
    columns of unit norm, an odd length's zero mode first, with mu and Y's
    column 0.0. It is the SVD of its lower bidiagonal B[k, k] = e[2k],
    B[k+1, k] = e[2k+1], padded with a zero column at odd length, by
    dbdsdc, which keeps small mu to high relative accuracy (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11, 873 (1990)). Any other chain comes back
    whole, mu ascending, with its eigenvectors X and Y None, from dstevd
    (eig_banded).
    """
    if not np.isfinite(band).all():
        raise DomainError("chain_eig needs a finite band")
    if band.shape[0] != 2:
        raise ConfigurationError("chain_eig solves a tridiagonal chain, a "
                                 "band of two rows, not %d" % band.shape[0])
    L = band.shape[1]
    paired = not band[0].any()
    if paired:
        h = (L + 1) // 2
        # dbdsdc overwrites both and reads h-1 of e, which never is empty
        d, e = band[1, ::2].copy(), np.zeros(h)
        e[: h - 1] = band[1, 1: L - 1: 2]
        if L % 2:
            d[-1] = 0.0  # the padded column; band[1, L-1] lies past the end
        U, VT = np.empty((h, h), order="F"), np.empty((h, h), order="F")
        # one buffer: the doubles, then the 64-bit integers
        nw = 3 * h * h + 4 * h
        work = (pool or BufferPool()).take("dbdsdc", (nw + 8 * h,))
        info = _lapacke("dbdsdc")(_COL_MAJOR, b"L", b"I", h, _ref(d),
                                  _ref(e), _ref(U), h, _ref(VT), h, None,
                                  None, _ref(work),
                                  ctypes.c_int64.from_buffer(work, 8 * nw))
        mu, X, Y = d[::-1], U[:, ::-1], VT[::-1, : L // 2].T  # ascending
    else:
        (mu, X, info), Y = eig_banded(band), None
    if info:
        raise ConfigurationError("LAPACK failed on a chain (info %d)" % info)
    if paired and L % 2:
        mu[0] = 0.0
        Y[:, 0] = 0.0
    return mu, X, Y


# ---------------------------------------------------------------------------
# block engine: one splitter ladder step per block, any number of thetas
# ---------------------------------------------------------------------------

class BlockEngine:
    """Caches one factorization per block for one process family.

    On a PhaseGrid of T thetas, amplitudes(N, grid) returns the output
    amplitudes <N-j, j| U(theta) |N, 0> on the rows j of rows(N), outside
    which they are exact zeros, as phase_product's parts, shape
    (2, rows, T), without their row phase and, for CrossPhase(s=1),
    without the block phase exp(-i theta N^2/4); probs(N, grid) returns
    their squared moduli.

    The splitter is B_N = diag((-i)^j) d_N diag(i^m), and the ladder gives
    the quarter q_N = r_N[:h, :h], h = N//2 + 1, of the rung r_N = c_N d_N
    with c_N^2 = 2^(N mod 2) (operators.ladder_walk); every entry of r_N a
    block reads is gathered from q_N (operators.rung_entries), and no full
    rung is formed.
    Block N keeps (C, D, mu, rows, sign), C and D real, and its amplitudes
    are phase_j [C cos(theta mu) - i D sin(theta mu)]_j on the rows j of
    the slice rows (phase_product), with the row phase phase_j = (-i)^j on
    the rows j of N's parity and (-i)^(j-1) on the others. Column l of C
    and D comes from the input's components on generator eigenvectors,
    carried through the second splitter, with the columns of mirror
    eigenvectors of one eigenvalue merged. The generator comes as a band
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
    columns, m = N//2 down to 0: u = N - 2m ascending, the rows of the
    grid's table PhaseGrid.twists(N), from which a CrossPhase(s=1) block
    takes its phases in place of its own exp(-i theta m(N-m)). Where N is
    even and the rows are those of N's parity, the row mirror
    r_N[N-j, m] = (-1)^m r_N[j, m] maps them onto themselves,
    and every column's m share one parity: (-1)^m for the diagonal's
    merged column m, (-1)^c for a column of chain c (for even g a merged
    mirror chain has the parity of c). Such a record keeps only its rows
    j <= N/2, ceil((N//2 + 1)/2) of them, and sign, that mirror sign per
    column; any other keeps sign None. A middle row j = N/2 is kept, with
    exact zeros on the columns of sign -1. amplitudes rebuilds the rows
    j > N/2 into the grid's pool (_full) before its one product, so
    every product keeps the bits of a full-height record. The engine
    keeps the highest quarter built so far (_top): a new block takes
    ladder steps from it, or from r_0 when it lies below that one. A
    process with no photon-number blocks raises ConfigurationError on its
    first block.
    """

    def __init__(self, process: ProcessSpec):
        self.process = process
        self._twisted = isinstance(process, CrossPhase) and process.s == 1
        self._blocks: Dict[int, tuple] = {}
        self._top = (0, np.ones((1, 1)))
        self._scratch = BufferPool()

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
        k = band.shape[0] - 1  # the one exchange order, or 0
        if k and band[k].any():
            self._blocks[N] = _exchange_chains(q, N, band, k, inv_c2,
                                               self._scratch)
            return
        # diagonal generator: it and the input column r_N[:, 0] are
        # symmetric under j -> N-j, so columns m and N-m merge; on the rows
        # of N's parity r_N[:, N-m] = r_N[:, m], on the others they cancel
        h = N // 2 + 1
        rows = slice(N % 2, N + 1, 2)
        w = inv_c2 * q[:, 0]
        w[: N + 1 - h] *= 2.0  # an even N's middle column is its own mirror
        # m descending: u = N - 2m ascending, the order of PhaseGrid.twists
        kept, m = _kept_rows(N, rows), np.arange(h - 1, -1, -1)
        C = np.multiply(rung_entries(q, N, kept, m), w[m], order="C")
        self._blocks[N] = (C, C, band[0, m], rows,
                           None if kept is rows else 1.0 - 2.0 * (m % 2))

    def _factor(self, N: int):
        if N not in self._blocks:
            self._build(N)
        return self._blocks[N]

    def _full(self, N: int, pool: BufferPool):
        """Block N's (C, D, mu) on all the rows rows(N). A half record's
        rows j > N/2 are rebuilt into pool, each row N-j times its
        column's mirror sign, exactly, before the one product: a product
        split by rows changes the bits of some cells."""
        C, D, mu, _, sign = self._factor(N)
        if sign is None:
            return C, D, mu
        h, t = N // 2 + 1, C.shape[0]
        full = []
        for key, half in zip("CD", (C,) if D is C else (C, D)):
            F = pool.take(key, (h, half.shape[1]))
            F[:t] = half
            # an odd h's middle row is stored and is its own mirror
            np.multiply(half[::-1][h % 2:], sign, out=F[t:])
            full.append(F)
        return full[0], full[-1], mu

    def rows(self, N: int) -> slice:
        """The rows j that probs(N, .) returns; the others are exact zeros."""
        return self._factor(N)[3]

    def amplitudes(self, N: int, grid: PhaseGrid) -> np.ndarray:
        """phase_product's parts of block N, shape (2, rows, grid.size):
        the amplitudes on the rows rows(N) without the row phase and, for
        CrossPhase(s=1), without the block phase exp(-i theta N^2/4), none
        of which a modulus depends on; a view that the grid's next product
        may overwrite."""
        C, D, mu = self._full(N, grid.pool)
        return phase_product(C, D, mu, grid,
                             grid.twists(N) if self._twisted else None)

    def probs(self, N: int, grid: PhaseGrid) -> np.ndarray:
        """Squared moduli on the rows rows(N), shape (rows, grid.size).

        The pair form's parts are one contiguous buffer, whose first part
        takes the sum; the one-product path's parts interleave, and their
        sum goes to a fresh contiguous array, which the reduction reads
        faster than a strided one.
        """
        P = self.amplitudes(N, grid)
        P *= P
        return np.add(P[0], P[1], out=P[0] if P.flags.c_contiguous else None)


def _kept_rows(N: int, rows: slice) -> slice:
    """The rows that block N's record keeps of rows, the slice rows(N):
    where N is even and rows are those of N's parity, which the row
    mirror j -> N-j maps onto themselves, those j <= N/2; otherwise
    rows, the same slice object."""
    return slice(0, N // 2 + 1, 2) if N % 2 == 0 and rows.step == 2 else rows


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
    """Band of a tridiagonal chain that is its own mirror i -> L-1-i,
    restricted to the mirror sector sigma: sites 0..(L-1)//2, the middle
    one included.

    At even length the central coupling, of sites L/2 - 1 and L/2, crosses
    the fold and lands, times sigma, on the diagonal of site L/2 - 1. At
    odd length the couplings of the middle site take sqrt(2); that site's
    sector sigma is +1. The crossing coupling also stays past the end of
    the band row, outside the matrix chain_eig reads.
    """
    L = band.shape[1]
    h = L // 2
    fb = band[:, : (L + 1) // 2].copy()
    if L % 2 == 0:
        fb[0, h - 1] += sigma * band[1, h - 1]
    elif h:
        fb[1, h - 1] *= np.sqrt(2.0)
    return fb


def _exchange_chains(q, N: int, band, g: int, scale, pool: BufferPool):
    """(C, D, mu, rows, sign) of block N on its chains, one chain or mirror
    pair at a time; q is the quarter of the rung r_N, band the generator
    (operators.process_generator), with couplings at the one offset g, the
    process's exchange order, and pool the engine's work buffers.

    The generator couples only sites j that lie g apart, so it splits into
    g real tridiagonal chains j = c, c+g, ..., band[::g, c::g], each solved
    by chain_eig. The mirror j -> N-j
    commutes with it and maps chain c onto chain (N - c) mod g reversed,
    eigenvalue for eigenvalue: a pair of distinct chains is solved once
    and each eigenvalue's two columns merge into one. For even g a chain
    that is its own mirror is folded (_fold) onto the mirror sector
    sigma = s_c s_(N-c) of the input, which is zero on the other one; for
    odd g it mixes the parities of j and stays whole. A fold stays
    bipartite only at odd length, as at even length its central coupling
    lands on the diagonal. A bipartite chain comes back as its positive
    half with the halves u, v of its pairs on the even and odd sites i
    (chain_eig), each of unit norm, which go to _image as they come: the
    partner (-mu, (u, -v)/sqrt2) of (mu, (u, v)/sqrt2) keeps the image
    (U0, k0) of u and flips the sign of (U1, k1), that of v, and a zero
    mode, whose v is 0.0, enters once, as C = a, D = 0.

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

    For even g and even N, _image gathers only the rows j <= N/2 that
    the record keeps (_kept_rows), and sign is (-1)^c on chain c's
    columns (BlockEngine); otherwise sign is None.
    """
    even = g % 2 == 0
    rows = slice(N % 2, N + 1, 2) if even else slice(0, N + 1, 1)
    kept = _kept_rows(N, rows)
    mus, Cs, Ds, parities = [], [], [], []
    for c in range(g):
        m = (N - c) % g
        if m < c:
            continue  # merged into chain m
        pos = np.arange(c, N + 1, g)
        cb = band[::g, c::g]
        if m == c and even:
            pos, cb = pos[: (pos.size + 1) // 2], _fold(
                cb, _signs(c) * _signs(N - c))
        mu, X, Y = chain_eig(cb, pool)
        paired = Y is not None
        if even and 2 * pos[-1] == N:
            # the middle site is its own mirror; it is the chain's last
            (Y if paired and pos.size % 2 == 0 else X)[-1] *= np.sqrt(0.5)
        # exact: merged mirror columns are twice the chain's on the rows of
        # N's parity
        w = scale * 2.0 ** (m != c or even)
        if even and not paired:
            U, kappa = _image(q, N, kept, pos, X, w)
            C = D = U * kappa
        else:
            halves = (X, Y) if paired else (X[::2], X[1::2])
            (U0, k0), (U1, k1) = (_image(q, N, kept, pos[s::2], V, w)
                                  for s, V in enumerate(halves))
            C = U0 * k0 + U1 * k1
            if even:
                D = U0 * k1 + U1 * k0
            else:
                D = U0 * k1 - U1 * k0 if c % 2 else U1 * k0 - U0 * k1
                C[1 - N % 2::2] = 0.0
                D[N % 2::2] = 0.0
                if not paired:
                    C = D = C + D
        mus.append(mu)
        Cs.append(C)
        Ds.append(D)
        parities.append(np.full(mu.size, c % 2))
    C = np.hstack(Cs)
    D = C if all(a is b for a, b in zip(Cs, Ds)) else np.hstack(Ds)
    sign = None if kept is rows else 1.0 - 2.0 * np.concatenate(parities)
    return C, D, np.concatenate(mus), rows, sign


def checked_grid(ts, name: str) -> np.ndarray:
    """ts as a float grid of one axis, a scalar one point; more axes or a
    non-finite point raise DomainError naming the grid."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1:
        raise DomainError("%s must lie on one axis, not shape %s"
                          % (name, ts.shape))
    if not np.isfinite(ts).all():
        raise DomainError("%s must be finite" % name)
    return ts


@functools.lru_cache(maxsize=1)
def block_engine(process: ProcessSpec) -> BlockEngine:
    """The BlockEngine of process, kept until another process is swept:
    repeated sweeps of one process reuse its blocks, which do not depend
    on the order they are built in, so they keep a fresh engine's bits."""
    return BlockEngine(process)


def mzi_output(process: ProcessSpec, t: float, nbar: float,
               tail_tol: float = 1e-12) -> np.ndarray:
    """Mode a's thermal-input output distribution, dist_a, at time t: the
    one-point sweep_distributions at theta = t * strength. Evolution is
    exact per block; the only approximation is the input tail cut. A t
    that is not a finite scalar raises DomainError, and a process with no
    strength (no blocks) the sweep's ConfigurationError."""
    if np.ndim(t) or not np.isfinite(t):
        raise DomainError("t must be a finite scalar")
    theta = t * getattr(process, "strength", 1.0)
    return sweep_distributions(process, nbar, [theta], tail_tol)[:, 0]


def sweep_distributions(process: ProcessSpec, nbar: float, thetas,
                        tail_tol: float = 1e-12) -> np.ndarray:
    """Mode a's output distributions across a theta grid in one pass.

    Returns dist_a, shape (M, T): dist_a[n, i] is the mode-a probability
    of n photons at thetas[i], the dimensionless angles chi t or g t, on
    the M = fock.thermal_distribution(nbar, tail_tol).size kept blocks.
    The blocks come from block_engine, and one PhaseGrid of thetas, with
    top = M - 1, serves every block, one column tile at a time
    (PhaseGrid.tiles, which says what a tile shares and why it is about
    TILE wide): every block adds its probabilities on a tile into
    da[:, cols] before the next tile's, so the phases, the cross-phase
    table, the part copies and the products hold one tile's columns
    whatever T. Raises DomainError on a grid checked_grid refuses.
    """
    thetas = checked_grid(thetas, "thetas")
    P = fock.thermal_distribution(nbar, tail_tol)
    M = P.size
    eng = block_engine(process)
    da = np.zeros((M, thetas.size))
    for cols, tile in PhaseGrid(thetas, top=M - 1).tiles():
        for N in range(M):
            pb = eng.probs(N, tile)
            pb *= P[N]
            rows = eng.rows(N)
            da[N - rows.start::-rows.step, cols] += pb
    return da


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

    a bipartite chain that chain_eig gives as its mu >= 0 half, with the
    halves U and V of its pairs (mu, (u, v)/sqrt2), (-mu, (u, -v)/sqrt2)
    on the even and odd sites. From site 0 a pair evolves as
    u_0 u cos(mu t) on the even sites and -i u_0 v sin(mu t) on the odd
    ones: the blocks' pair form (C, D, mu) of phase_product, C = u_0 U
    and D = u_0 V straight from the halves, a zero mode, whose v is 0.0,
    included. The record keeps only those rows, n//2 + 1 of each (D's
    last one 0.0 past the chain's end for an even n), column-major, the
    layout whose product rows keep their bits whatever the number of
    rows. The engine keeps only the
    level it solved last, as a sweep evolves each level once. Every
    mode's occupation is fixed by m, so each reduced state is diagonal.

    The name is older than the chains, and mode_distributions' older than
    its in-place signal sum: the benchmark tracer (bench/tracer.py) wraps
    _component, evolve and mode_distributions and reads _components.
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
        self._scratch = BufferPool()

    def _component(self, n: int):
        """Pump level n's record (C, D, mu): C on the even sites, D on the
        odd ones, each of n//2 + 1 rows."""
        if n not in self._components:
            m = np.arange(n, dtype=float)
            s = self.step * m
            band = np.zeros((2, n + 1))
            # rounded left to right in the order the ladder operators act
            # (a_p, then the two creations); another order changes the
            # last bits of the couplings and with them the output bytes
            band[1, :n] = self.process.g * np.sqrt(n - m) * np.sqrt(s + 1)
            band[1, :n] *= np.sqrt(s + self.step)
            mu, X, Y = chain_eig(band, self._scratch)
            C = np.multiply(X, X[0], order="F")
            D = np.zeros(C.shape, order="F")
            np.multiply(Y, X[0], out=D[: Y.shape[0]])
            self._components = {n: (C, D, mu)}
        return self._components[n]

    def evolve(self, n: int, grid: PhaseGrid) -> np.ndarray:
        """Chain amplitudes from pump level n on a PhaseGrid of T times,
        as phase_product's parts of the level's pair record, shape
        (2, n//2 + 1, T): the real amplitudes of the even sites and the
        imaginary ones of the odd sites, two real products for the whole
        grid."""
        return phase_product(*self._component(n), grid)

    def mode_distributions(self, n: int, grid: PhaseGrid, out, w: float):
        """Adds w times pump level n's signal distribution into out (rows
        0..step*n or more, a column per time of the grid): site m's one
        nonzero part, squared in the pooled product, goes onto row step*m."""
        P = self.evolve(n, grid)
        P *= P
        P *= w
        sites = out[: self.step * n + 1: self.step]
        sites[::2] += P[0]
        sites[1::2] += P[1][: (n + 1) // 2]


def pdc_signal_sweep(process, nbar: float, gts, tail_tol: float = 1e-12):
    """Signal-mode distributions across a g t grid, one column per point.

    Rows are signal occupations 0..step*N_max for a thermal pump cut at
    N_max. The chain couplings carry g, so each pump level's chain is
    solved once and evolved over the times t = g t / g, one PhaseGrid for
    every level, tile by tile (PhaseGrid.tiles), and added, weighted by
    P[n], into the tile's columns (GenericEngine.mode_distributions).
    Raises DomainError on the g t that checked_grid refuses and on a
    coupling g that is zero or not finite.
    """
    P = fock.thermal_distribution(nbar, tail_tol)
    eng = GenericEngine(process)
    if not (np.isfinite(process.g) and process.g != 0.0):
        raise DomainError("the coupling g must be finite and non-zero")
    gts = checked_grid(gts, "g t")
    tiles = list(PhaseGrid(gts / process.g).tiles())
    sig = np.zeros((eng.step * (P.size - 1) + 1, gts.size))
    for n in range(P.size):
        for cols, tile in tiles:
            eng.mode_distributions(n, tile, sig[:, cols], P[n])
    return sig
