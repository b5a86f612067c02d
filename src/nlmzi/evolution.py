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

Parametric down-conversion is not block-diagonal in N, but with n pump
photons it reaches one chain of n + 1 states; a chain engine solves each
pump level once and evolves it over a whole time grid at once.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from . import fock
from .errors import ConfigurationError, DomainError
from .operators import (QUARTER_TURNS, CrossPhase, DegeneratePDC, Exchange,
                        LadderScratch, NonDegeneratePDC, ProcessSpec,
                        ladder_walk, process_generator)


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
                "%s has no photon-number blocks; use pdc_signal_sweep"
                % type(process).__name__)
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

    solved once per pump level by the tridiagonal eigensolver and evolved
    over a whole time grid in one product. Every mode's occupation is fixed
    by m, so each reduced state is diagonal.

    The name is older than the chains: the benchmark tracer
    (bench/tracer.py) wraps _component, evolve and mode_distributions.
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
        """(eigenvalues, eigenvectors) of pump level n's chain."""
        if n not in self._components:
            m = np.arange(n, dtype=float)
            s = self.step * m
            # rounded left to right in the order the ladder operators act
            # (a_p, then the two creations); another order changes the
            # last bits of the couplings and with them the output bytes
            off = self.process.g * np.sqrt(n - m) * np.sqrt(s + 1)
            off *= np.sqrt(s + self.step)
            self._components[n] = eigh_tridiagonal(np.zeros(n + 1), off)
        return self._components[n]

    def evolve(self, n: int, t):
        """Chain amplitudes at time(s) t from pump level n.

        Shape (n+1,) for a scalar t and (n+1, T) for a grid of T times,
        one column per time.
        """
        w, V = self._component(n)
        ts = np.asarray(t, dtype=float)
        psi = V @ (np.exp(-1j * np.outer(w, ts)) * V[0][:, None])
        return psi[:, 0] if ts.ndim == 0 else psi

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
    N_max. Each pump level's chain is evolved once over the whole grid and
    added, weighted by P[n], into the leading step*n+1 rows.
    """
    P = fock.thermal_distribution(nbar, tail_tol)
    eng = GenericEngine(process)
    gts = np.atleast_1d(np.asarray(gts, dtype=float))
    sig = np.zeros((eng.step * (P.size - 1) + 1, gts.size))
    for n in range(P.size):
        d = eng.mode_distributions(n, gts)[1]
        sig[: d.shape[0]] += P[n] * d
    return sig
