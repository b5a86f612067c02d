"""Exact unitary evolution of the nonlinear two-mode interferometer.

Everything here is block-diagonal in the conserved total photon number N.
The interferometer unitary on block N is

    U(N, theta) = U_BS  exp(-i theta  g_N)  U_BS,

with g_N the nonlinear-arm generator on the block and theta = chi t (cross
phase) or g t (exchange) the single dimensionless knob swept everywhere.
The splitter on block N is B_N = diag((-i)^j) d_N diag(i^m), with d_N the
real Wigner matrix exp(-i (pi/2) J_y), built by one division-free ladder
step from d_{N-1}. Per block the engine keeps one matrix, the input's
components on the generator eigenvectors carried through the second
splitter, so every theta of a sweep costs one matrix product per block
(a real one unless the generator mixes the parities of j).

A small generic engine (connected-component enumeration plus one
eigendecomposition per component, tridiagonal where the component is a
real chain) covers non-block Hamiltonians such as parametric
down-conversion, where photons change modes in unequal numbers; it evolves
each component over a whole time grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.linalg import eig_banded, eigh, eigh_tridiagonal

from . import fock
from .errors import ConfigurationError, DomainError
from .fock import DEFAULT_DIM_GUARD
from .operators import (QUARTER_TURNS, CrossPhase, DegeneratePDC, Exchange,
                        Hybrid, LadderScratch, NonDegeneratePDC, ProcessSpec,
                        beam_splitter_unitary, ladder_walk,
                        process_generator)

HERMITICITY_TOL = 1e-12
REDUCED_OFFDIAG_TOL = 1e-10


# ---------------------------------------------------------------------------
# dense helpers
# ---------------------------------------------------------------------------

def _is_hermitian(op: np.ndarray) -> bool:
    """|op - op^+|max within HERMITICITY_TOL of max(1, |op|max).

    Relative, because entries built in different orders differ in their
    last ulps: a degenerate PDC pump level of n ~ 400 gives |H| ~ 5e3.
    """
    return (np.abs(op - op.conj().T).max()
            <= HERMITICITY_TOL * max(1.0, np.abs(op).max()))


def hermitian_eig(op: np.ndarray):
    """Eigendecomposition of a Hermitian block operator.

    Returns (eigenvalues ascending, unitary eigenvector matrix); delegates
    to LAPACK's Householder tridiagonalization + implicit QL solver, which
    is the right tool at these block sizes.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DomainError("operator must be a square matrix")
    if not _is_hermitian(op):
        raise DomainError("operator is not Hermitian within %g of its scale"
                          % HERMITICITY_TOL)
    w, V = eigh(op)
    return w, V


def unitary_of(op: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta op) for Hermitian op, via the eigendecomposition."""
    if not np.isfinite(theta):
        raise DomainError("theta must be finite")
    w, V = hermitian_eig(op)
    return (V * np.exp(-1j * theta * w)) @ V.conj().T


def mzi_unitary(process: ProcessSpec, t: float, N: int) -> np.ndarray:
    """Full interferometer unitary U_BS exp(-i t strength g_N) U_BS on block N."""
    if isinstance(process, (DegeneratePDC, NonDegeneratePDC)):
        raise ConfigurationError(
            "%s is not a block-diagonal interferometer arm; "
            "use pdc_signal_sweep" % type(process).__name__)
    B = beam_splitter_unitary(N)
    gen = process_generator(process, N)
    theta = t * process.strength
    if isinstance(process, CrossPhase):
        U_nl = np.diag(np.exp(-1j * theta * np.real(np.diag(gen))))
    else:
        U_nl = unitary_of(gen, theta)
    return B @ U_nl @ B


# ---------------------------------------------------------------------------
# block engine: one splitter ladder step per block, any number of thetas
# ---------------------------------------------------------------------------

class BlockEngine:
    """Caches one matrix per block for one process family.

    amplitudes(N, thetas) returns the (N+1, T) output amplitudes
    <N-j, j| U(theta) |N, 0>, one column per theta; probs(N, thetas) their
    squared moduli.

    The splitter is B_N = diag((-i)^j) d_N diag(i^m), and the ladder gives
    the rung r_N = c_N d_N with c_N^2 = 2^(N mod 2) (operators.ladder_walk).
    Block N keeps (A, lam), and its amplitudes are
    (-i)^j [A exp(-i theta lam)]_j: column l of A is the input's component
    on generator eigenvector l, carried through the second splitter. A is
    real, applied as one real product on the real view of the phases,
    unless the generator mixes the parities of j (odd-order exchange). A
    new block takes ladder steps from the highest rung built so far, or
    from r_0 when it lies below that one.
    """

    def __init__(self, process: ProcessSpec):
        if isinstance(process, (DegeneratePDC, NonDegeneratePDC)):
            raise ConfigurationError(
                "%s needs the generic engine" % type(process).__name__)
        self.process = process
        self._blocks: Dict[int, tuple] = {}
        self._top = (0, np.ones((1, 1)))
        self._scratch = LadderScratch()

    def _rung(self, N: int) -> np.ndarray:
        n, r = self._top
        r = ladder_walk(N, (n, r) if n < N else None, self._scratch)
        if N > n:
            self._top = (N, r)
        return r

    def _build(self, N: int):
        r = self._rung(N)
        inv_c2 = 0.5 ** (N % 2)  # exact
        if isinstance(self.process, CrossPhase) or (
                isinstance(self.process, Exchange) and N < self.process.k):
            # diagonal generator: it and the input column r_N[:, 0] are
            # symmetric under j -> N-j, so columns m and N-m merge
            h = N // 2 + 1
            A = r[:, :h].copy()
            A[:, : N + 1 - h] += r[:, : h - 1: -1]
            A *= inv_c2 * r[:h, 0]
            j = np.arange(h, dtype=float)
            lam = (((N - j) * j) ** self.process.s
                   if isinstance(self.process, CrossPhase) else np.zeros(h))
            self._blocks[N] = (A, lam)
            return
        gen = np.real(process_generator(self.process, N))
        if isinstance(self.process, Exchange):
            # symmetric banded form: only the j <-> j-k couplings exist
            k = self.process.k
            bands = np.zeros((k + 1, N + 1))
            bands[k, : N + 1 - k] = gen[np.arange(k, N + 1) - k,
                                        np.arange(k, N + 1)]
            lam, V = eig_banded(bands, lower=True)
        else:
            lam, V = np.linalg.eigh(gen)
        # A = r_N diag(i^m) V diag(V^T diag((-i)^m) r_N[:, 0]) / c_N^2, with
        # i^m = s_m i^(m mod 2). A generator that keeps the parity of j
        # commutes with diag(i^(m mod 2)), which then cancels, leaving the
        # real A = r_N W diag(W^T r_N[:, 0]) / c_N^2 with W = diag(s) V.
        s = 1.0 - 2.0 * (np.arange(N + 1) // 2 % 2)
        if not gen[0::2, 1::2].any():
            W = s[:, None] * V
            A = r @ W
            A *= inv_c2 * (W.T @ r[:, 0])
        else:
            A = np.empty((N + 1, N + 1), dtype=complex)
            A.real = r[:, 0::2] @ (s[0::2, None] * V[0::2])
            A.imag = r[:, 1::2] @ (s[1::2, None] * V[1::2])
            q = QUARTER_TURNS[np.arange(N + 1) % 4]
            A *= inv_c2 * (V.T @ (q * r[:, 0]))
        self._blocks[N] = (A, lam)

    def _factor(self, N: int):
        if N not in self._blocks:
            self._build(N)
        return self._blocks[N]

    def amplitudes(self, N: int, thetas, phased: bool = True) -> np.ndarray:
        """Output amplitudes, shape (N+1, len(thetas)).

        phased=False leaves out the row phase (-i)^j, which no modulus
        depends on.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        A, lam = self._factor(N)
        ph = np.outer(lam, -thetas)
        Z = np.empty(ph.shape, dtype=complex)
        np.cos(ph, out=Z.real)
        np.sin(ph, out=Z.imag)
        if A.dtype == complex:
            Z = A @ Z
        else:
            Z = (A @ Z.view(float)).view(complex)
        if phased:
            Z *= QUARTER_TURNS[np.arange(N + 1) % 4, None]
        return Z

    def probs(self, N: int, thetas) -> np.ndarray:
        R = self.amplitudes(N, thetas, phased=False).view(float)
        R *= R
        return R[:, 0::2] + R[:, 1::2]


def mzi_output(process: ProcessSpec, t: float, nbar: float,
               tail_tol: float = 1e-12, engine: BlockEngine | None = None):
    """Thermal-input interferometer output marginals (dist_a, dist_b).

    The one-point sweep_distributions at theta = t * strength: |N, 0> is
    evolved on every retained block, weighted by the thermal P_N and reduced
    to the two single-mode distributions. Evolution is exact per block; the
    only approximation is the input tail cut.
    """
    if not np.isfinite(t):
        raise DomainError("t must be finite")
    da, db, _ = sweep_distributions(process, nbar, [t * process.strength],
                                    tail_tol, engine)
    return da[:, 0], db[:, 0]


def sweep_distributions(process: ProcessSpec, nbar: float, thetas,
                        tail_tol: float = 1e-12,
                        engine: BlockEngine | None = None):
    """Output distributions across a theta grid in one pass.

    Returns (dist_a, dist_b, input_probs): dist_a[n, i] is the mode-a
    probability of n photons at thetas[i] (dist_b likewise); thetas are the
    dimensionless angles chi t or g t.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    P = fock.thermal_distribution(nbar, tail_tol)
    M = P.size
    eng = engine if engine is not None else BlockEngine(process)
    da = np.zeros((M, thetas.size))
    db = np.zeros((M, thetas.size))
    for N in range(M):
        pb = eng.probs(N, thetas)
        pb *= P[N]
        da[N::-1] += pb
        db[: N + 1] += pb
    return da, db, P


# ---------------------------------------------------------------------------
# generic ladder-monomial engine (parametric processes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericSystem:
    """Truncated multi-mode system with a ladder-monomial Hamiltonian.

    cutoffs[m] is the highest retained occupation of mode m. Each term is
    (coefficient, powers) with powers[m] = (creation, annihilation)
    exponents on mode m; the term list must be closed under Hermitian
    conjugation.
    """
    cutoffs: Tuple[int, ...]
    terms: Tuple[Tuple[complex, Tuple[Tuple[int, int], ...]], ...]
    dim_guard: int = DEFAULT_DIM_GUARD

    def __post_init__(self):
        for c in self.cutoffs:
            if c < 0:
                raise DomainError("cutoffs must be >= 0")
        for coeff, powers in self.terms:
            if len(powers) != len(self.cutoffs):
                raise DomainError("term arity does not match mode count")
            conj = (np.conj(coeff), tuple((a, c) for c, a in powers))
            ok = any(abs(conj[0] - c2) < 1e-15 and conj[1] == p2
                     for c2, p2 in self.terms)
            if not ok:
                raise DomainError(
                    "Hamiltonian not Hermitian: missing conjugate of %r" % (powers,))


def _apply_term(state, coeff, powers, cutoffs):
    """coeff * prod_m a_m+^cre a_m^ann applied to a Fock product state.

    Returns (amplitude, new state) or None when annihilation underflows or
    creation leaves the truncation window.
    """
    amp = coeff
    out = list(state)
    for m, (cre, ann) in enumerate(powers):
        n = out[m]
        if ann:
            if n < ann:
                return None
            for i in range(ann):
                amp *= np.sqrt(n - i)
            n -= ann
        if cre:
            if n + cre > cutoffs[m]:
                return None
            for i in range(cre):
                amp *= np.sqrt(n + 1 + i)
            n += cre
        out[m] = n
    return amp, tuple(out)


class GenericEngine:
    """Connected-component evolution for a GenericSystem.

    Each initial Fock product state only couples to the states reachable
    through the Hamiltonian terms, which for the parametric processes is a
    short ladder, never the full tensor space. Each component is assembled
    and eigendecomposed once, together with its per-mode reduction indices,
    and then evolved over a whole time grid in one product, so a sweep costs
    one call per component rather than one per (component, time) point.
    Components whose Hamiltonian is real and tridiagonal in walk order (every
    PDC ladder) take the O(L^2) MRRR tridiagonal eigensolver; any other
    structure takes the dense one.
    """

    def __init__(self, system: GenericSystem):
        self.system = system
        self._components: Dict[tuple, tuple] = {}
        self._reductions: Dict[tuple, list] = {}

    def _component(self, initial: tuple):
        if initial in self._components:
            return self._components[initial]
        sys = self.system
        seen = {initial: 0}
        order = [initial]
        stack = [initial]
        rows, cols, amps = [], [], []
        while stack:
            st = stack.pop()
            col = seen[st]
            for coeff, powers in sys.terms:
                r = _apply_term(st, coeff, powers, sys.cutoffs)
                if r is None:
                    continue
                row = seen.get(r[1])
                if row is None:
                    if len(order) >= sys.dim_guard:
                        raise ConfigurationError(
                            "reachable state set exceeds the dimension guard %d"
                            % sys.dim_guard)
                    row = seen[r[1]] = len(order)
                    order.append(r[1])
                    stack.append(r[1])
                rows.append(row)
                cols.append(col)
                amps.append(r[0])
        H = np.zeros((len(order), len(order)), dtype=complex)
        np.add.at(H, (rows, cols), amps)
        if not _is_hermitian(H):
            raise DomainError("assembled Hamiltonian is not Hermitian")
        if (not H.imag.any()
                and not np.triu(H, 2).any() and not np.tril(H, -2).any()):
            # the lower triangle is the one the dense eigh would read
            w, V = eigh_tridiagonal(H.real.diagonal(), H.real.diagonal(-1))
        else:
            w, V = eigh(H)
        self._components[initial] = (order, w, V)
        return self._components[initial]

    def _reduction(self, initial: tuple):
        """Per mode: occupation index of each component state, and the
        (u, v) index pairs of states that differ only in that mode."""
        if initial not in self._reductions:
            order = self._component(initial)[0]
            red = []
            for m in range(len(self.system.cutoffs)):
                groups: Dict[tuple, list] = {}
                for i, st in enumerate(order):
                    groups.setdefault(st[:m] + st[m + 1:], []).append(i)
                pairs = [(u, v) for idxs in groups.values()
                         for k, u in enumerate(idxs) for v in idxs[k + 1:]]
                uv = np.array(pairs, dtype=int).reshape(-1, 2).T
                red.append((np.array([st[m] for st in order]), uv[0], uv[1]))
            self._reductions[initial] = red
        return self._reductions[initial]

    def evolve(self, initial: tuple, t):
        """Amplitudes over the component basis at time(s) t from |initial>.

        Returns (order, psi): psi has shape (L,) for a scalar t and (L, T)
        for a grid of T times, one column per time.
        """
        order, w, V = self._component(initial)
        ts = np.asarray(t, dtype=float)
        psi = V @ (np.exp(-1j * np.outer(w, ts)) * np.conj(V[0])[:, None])
        return order, (psi[:, 0] if ts.ndim == 0 else psi)

    def mode_distributions(self, initial: tuple, t) -> List[np.ndarray]:
        """Per-mode photon distributions of the evolved pure state.

        For a scalar t each distribution is 1d; for a grid of T times it is
        (cutoff+1, T), one column per time. The reduced state of each mode
        is checked to be numerically diagonal at every time (the parametric
        Hamiltonians conserve enough charges to guarantee it); a violation
        raises rather than silently dropping coherences.
        """
        ts = np.asarray(t, dtype=float)
        psi = self.evolve(initial, np.atleast_1d(ts))[1]
        weight = np.abs(psi) ** 2
        dists = []
        for m, (occ, u, v) in enumerate(self._reduction(initial)):
            if u.size:
                off = np.abs(psi[u] * np.conj(psi[v])).max()
                if off > REDUCED_OFFDIAG_TOL:
                    raise ConfigurationError(
                        "reduced state of mode %d has off-diagonal "
                        "weight %g" % (m, off))
            d = np.zeros((self.system.cutoffs[m] + 1, weight.shape[1]))
            np.add.at(d, occ, weight)
            dists.append(d[:, 0] if ts.ndim == 0 else d)
        return dists


# ---------------------------------------------------------------------------
# parametric down-conversion front ends
# ---------------------------------------------------------------------------

def pdc_system(process, nbar: float, tail_tol: float = 1e-12):
    """(GenericSystem, pump mixture) for a PDC variant with a thermal pump.

    Non-degenerate: modes (pump, signal, idler), signal/idler cutoffs equal
    the pump cutoff. Degenerate: modes (pump, signal) with signal cutoff
    twice the pump cutoff, since each converted pump photon makes a pair.
    """
    P = fock.thermal_distribution(nbar, tail_tol)
    cut = P.size - 1
    if isinstance(process, NonDegeneratePDC):
        g = process.g
        system = GenericSystem(
            cutoffs=(cut, cut, cut),
            terms=((g, ((0, 1), (1, 0), (1, 0))),
                   (g, ((1, 0), (0, 1), (0, 1)))))
        initial = [(P[n], (n, 0, 0)) for n in range(P.size)]
    elif isinstance(process, DegeneratePDC):
        g = process.g
        system = GenericSystem(
            cutoffs=(cut, 2 * cut),
            terms=((g, ((0, 1), (2, 0))),
                   (g, ((1, 0), (0, 2)))))
        initial = [(P[n], (n, 0)) for n in range(P.size)]
    else:
        raise ConfigurationError("pdc_system needs a PDC process spec")
    return system, initial


def pdc_signal_sweep(process, nbar: float, gts, tail_tol: float = 1e-12):
    """Signal-mode distributions across a g t grid, one column per point.

    Each pump level's component is evolved once over the whole grid.
    """
    system, initial = pdc_system(process, nbar, tail_tol)
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    eng = GenericEngine(system)
    sig = np.zeros((system.cutoffs[1] + 1, gts.size))
    for w, occ in initial:
        sig += w * eng.mode_distributions(tuple(occ), gts)[1]
    return sig
