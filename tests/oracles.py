"""Dense oracles and test-only helpers, built from scratch on purpose.

Shared by the operator and evolution tests and the acceptance gate. The
dense block operators (Stokes operators, generators, the splitter as a
matrix) live here because only tests use them: the engine reads each
generator as a band (operators.process_generator). The full-rung Risbo
step (risbo_step) is the reference the engine's quarter-rung ladder is
checked against bit for bit. wigner_d and beam_splitter_unitary are views
of the engine's ladder, not oracles of it. The two-mode and
down-conversion tensor-product oracles are written against bare kron
products, and the block splitter oracles against bare ladder elements (a
dense exponential and the J_x eigensystem), and the oscillator oracle
against a dense position matrix, so none can inherit a mistake from the
Wigner-d ladder, the block machinery, the pump-level chains or the banded
oscillator moments they check. The closed-form small-nbar work capacities
(wc_table_oracle, wc_exchange3_windows) have no caller outside the tests.
"""

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, expm
from scipy.special import gammaln

from nlmzi import fock, thermo
from nlmzi.errors import ConfigurationError, DomainError
from nlmzi.optomech import CoherentInit
from nlmzi.operators import (QUARTER_TURNS, CrossPhase, DegeneratePDC,
                             Exchange, Hybrid, exchange_couplings,
                             ladder_walk, rung_entries)

HERMITICITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# dense block operators: (N+1) x (N+1) complex arrays on the basis
# |n_a = N - j, n_b = j>, j = 0..N
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

    Couples j <-> j - k with the exchange_couplings; blocks with N < k
    cannot exchange and give the zero matrix. The order guard belongs to
    the Exchange spec; this takes any k >= 1.
    """
    val = exchange_couplings(N, k)
    M = np.zeros((N + 1, N + 1), dtype=complex)
    j = np.arange(k, N + 1)
    M[j - k, j] = val
    M[j, j - k] = val
    return M


def dense_generator(process, N: int) -> np.ndarray:
    """Dense nonlinear-arm generator of a process on block N; a Hybrid's
    is the sum of its terms' generators, each weighted by its coefficient
    times its strength (chi or g). A process without a block generator
    raises ConfigurationError."""
    if isinstance(process, CrossPhase):
        return cross_phase_generator(N, process.s)
    if isinstance(process, Exchange):
        return exchange_generator(N, process.k)
    if isinstance(process, Hybrid):
        M = np.zeros((N + 1, N + 1), dtype=complex)
        for coeff, spec in process.terms:
            M += coeff * spec.strength * dense_generator(spec, N)
        return M
    raise ConfigurationError(
        "%s has no block generator" % type(process).__name__)


def risbo_step(N: int, r_prev: np.ndarray) -> np.ndarray:
    """Reference ladder step: the full rung r_N = 2^((N mod 2)/2) d_N from
    r_{N-1}, all (N+1)^2 entries, by the Risbo contraction that
    operators._jx_factorization restricts to the quarter r_N[:h, :h],
    h = N//2 + 1. The operations and their order are the engine step's,
    so the quarter it computes must equal this rung's bit for bit."""
    i = np.arange(N + 1)
    wa = np.sqrt((N - i) / N)
    wb = np.sqrt(i / N)
    P = np.zeros((N + 1, N))
    Q = np.zeros((N + 1, N))
    P[:N] = wa[:N, None] * r_prev
    Q[1:] = wb[1:, None] * r_prev
    T, D = P + Q, Q - P
    half = 0.5 if N % 2 == 0 else 1.0
    r = np.zeros((N + 1, N + 1))
    r[:, :N] = T * (half * wa[:N])
    r[:, 1:] += D * (half * wb[1:])
    return r


def wigner_d(N: int) -> np.ndarray:
    """Real Wigner matrix d_N = exp(-i (pi/2) J_y) on block N, read off
    the engine ladder's quarter rung (operators.rung_entries)."""
    i = np.arange(N + 1)
    r = rung_entries(ladder_walk(N), N, i, i)
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


def ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def tensor_ops(nmax):
    d = nmax + 1
    a = np.kron(ladder(d).conj().T, np.eye(d))  # creation on mode a
    b = np.kron(np.eye(d), ladder(d).conj().T)
    return a, b


def pdc_tensor_marginals(process, n0, t, pump_cutoff=3):
    """Pump, signal (and idler) distributions of exp(-i t H) |n0, 0(, 0)>.

    H = g (a_p a_s+^2 + h.c.) or g (a_p a_s+ a_i+ + h.c.) on the full
    tensor space, exponentiated densely. The signal keeps 2 pump_cutoff
    (degenerate) or pump_cutoff photons, so from n0 <= pump_cutoff no
    truncation edge is reached.
    """
    p = ladder(pump_cutoff + 1)
    if isinstance(process, DegeneratePDC):
        s = ladder(2 * pump_cutoff + 1)
        dims = (pump_cutoff + 1, 2 * pump_cutoff + 1)
        up = np.kron(p, s.conj().T @ s.conj().T)
    else:
        s = ladder(pump_cutoff + 1)
        dims = (pump_cutoff + 1,) * 3
        up = np.kron(np.kron(p, s.conj().T), s.conj().T)
    H = process.g * (up + up.conj().T)
    psi0 = np.zeros(H.shape[0], dtype=complex)
    psi0[n0 * (H.shape[0] // dims[0])] = 1.0
    prob = (np.abs(expm(-1j * t * H) @ psi0) ** 2).reshape(dims)
    return [prob.sum(axis=tuple(k for k in range(len(dims)) if k != m))
            for m in range(len(dims))]


def tensor_generator(process, nmax):
    ad, bd = tensor_ops(nmax)
    a, b = ad.conj().T, bd.conj().T
    na, nb = ad @ a, bd @ b
    if isinstance(process, CrossPhase):
        return np.diag((np.diag(na) * np.diag(nb)) ** process.s)
    if isinstance(process, Exchange):
        k = process.k
        return (np.linalg.matrix_power(ad, k) @ np.linalg.matrix_power(b, k)
                + np.linalg.matrix_power(a, k) @ np.linalg.matrix_power(bd, k))
    if isinstance(process, Hybrid):
        out = np.zeros_like(na)
        for c, spec in process.terms:
            out = out + c * spec.strength * tensor_generator(spec, nmax)
        return out
    raise ValueError(process)


def tensor_mzi_state(process, t, N, nmax):
    """Evolve |N, 0> through splitter, nonlinear arm, splitter, densely."""
    ad, bd = tensor_ops(nmax)
    a, b = ad.conj().T, bd.conj().T
    Jx = (ad @ b + a @ bd) / 2.0
    U_bs = expm(-0.5j * np.pi * Jx)
    H = tensor_generator(process, nmax)
    U = U_bs @ expm(-1j * t * process.strength * H) @ U_bs
    d = nmax + 1
    psi0 = np.zeros(d * d, dtype=complex)
    psi0[N * d] = 1.0  # |n_a=N, n_b=0>
    psi = U @ psi0
    # pull out the block amplitudes <N-j, j|psi>
    return np.array([psi[(N - j) * d + j] for j in range(N + 1)])


def block_jx_elements(N):
    """<j+1| J_x |j> = sqrt((N - j)(j + 1))/2 on block N, j = 0..N-1."""
    j = np.arange(N, dtype=float)
    return 0.5 * np.sqrt((N - j) * (j + 1))


def splitter_input_column(N):
    """First splitter column U_BS |N, 0> = (-i)^j sqrt(C(N, j) / 2^N).

    Evaluated through gammaln so large blocks neither overflow nor lose
    the binomial envelope.
    """
    m = np.arange(N + 1)
    mag = np.exp(0.5 * (gammaln(N + 1) - gammaln(m + 1) - gammaln(N - m + 1))
                 - 0.5 * N * np.log(2.0))
    return (-1j) ** (m % 4) * mag


def expm_splitter(N):
    """exp(-i (pi/2) J_x) on block N by a dense matrix exponential."""
    e = block_jx_elements(N)
    return expm(-0.5j * np.pi * (np.diag(e, 1) + np.diag(e, -1)))


def eig_splitter(N):
    """exp(-i (pi/2) J_x) on block N through the J_x eigensystem.

    J_x is real symmetric tridiagonal with the exact spectrum -N/2 .. N/2;
    the computed eigenvalues are snapped onto that half-integer grid.
    """
    if N == 0:
        return np.ones((1, 1), dtype=complex)
    mu, V = eigh_tridiagonal(np.zeros(N + 1), block_jx_elements(N))
    mu = np.round(2.0 * mu) / 2.0
    return (V * np.exp(-0.5j * np.pi * mu)) @ V.T


def eig_block_amplitudes(process, N, thetas):
    """Block amplitudes B exp(-i theta g) B |N, 0> with B = eig_splitter(N),
    one column per theta; a non-diagonal generator g is diagonalized densely.
    """
    B = eig_splitter(N)
    gen = np.real(dense_generator(process, N))
    if isinstance(process, CrossPhase):
        lam, V = np.diag(gen), np.eye(N + 1)
    else:
        lam, V = np.linalg.eigh(gen)
    Z = np.exp(-1j * np.outer(lam, np.atleast_1d(thetas)))
    return B @ (V @ (Z * (V.T @ B[:, 0])[:, None]))


# ---------------------------------------------------------------------------
# test-only helpers: dense unitaries and ladder monomials
# ---------------------------------------------------------------------------

def _is_hermitian(op):
    """|op - op^+|max within HERMITICITY_TOL of max(1, |op|max)."""
    return (np.abs(op - op.conj().T).max()
            <= HERMITICITY_TOL * max(1.0, np.abs(op).max()))


def hermitian_eig(op):
    """(eigenvalues ascending, unitary eigenvectors) of a Hermitian matrix."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DomainError("operator must be a square matrix")
    if not _is_hermitian(op):
        raise DomainError("operator is not Hermitian within %g of its scale"
                          % HERMITICITY_TOL)
    return eigh(op)


def unitary_of(op, theta):
    """exp(-i theta op) for Hermitian op, via the eigendecomposition."""
    if not np.isfinite(theta):
        raise DomainError("theta must be finite")
    w, V = hermitian_eig(op)
    return (V * np.exp(-1j * theta * w)) @ V.conj().T


def mzi_unitary(process, t, N):
    """Full interferometer unitary U_BS exp(-i t strength g_N) U_BS on block
    N; a process without a block generator raises ConfigurationError."""
    B = beam_splitter_unitary(N)
    gen = dense_generator(process, N)
    theta = t * process.strength
    if isinstance(process, CrossPhase):
        U_nl = np.diag(np.exp(-1j * theta * np.real(np.diag(gen))))
    else:
        U_nl = unitary_of(gen, theta)
    return B @ U_nl @ B


def two_mode_monomial(N, ap, am, bp, bm):
    """Matrix of a+^ap a^am b+^bp b^bm on block N.

    Only number-conserving monomials (ap - am + bp - bm = 0) stay on the
    block; anything else is the zero matrix here.
    """
    M = np.zeros((N + 1, N + 1), dtype=complex)
    if ap - am + bp - bm != 0:
        return M
    for j in range(N + 1):
        na, nb = N - j, j
        if nb < bm or na < am:
            continue
        amp = 1.0
        for i in range(bm):
            amp *= np.sqrt(nb - i)
        nb2 = nb - bm + bp
        for i in range(bp):
            amp *= np.sqrt(nb - bm + 1 + i)
        for i in range(am):
            amp *= np.sqrt(na - i)
        na2 = na - am + ap
        for i in range(ap):
            amp *= np.sqrt(na - am + 1 + i)
        if na2 < 0 or nb2 < 0 or na2 + nb2 != N:
            continue
        M[nb2, j] = amp
    return M


def position_variance_general(var_n, cfg, taus, baseline=0.5):
    """Oscillator variance form valid for any field:
    baseline + 8 (G/Omega)^2 sin^4(Omega tau / 2) Var(n)."""
    taus = np.asarray(taus, dtype=float)
    u = cfg.G / cfg.Omega
    return baseline + 8.0 * u ** 2 * np.sin(cfg.Omega * taus / 2.0) ** 4 * var_n


def dense_oscillator_oracle(dist, cfg, osc_cutoff, taus):
    """(phonon, xvar, <X^2>) of a field driving a truncated oscillator, by
    the textbook route: a complex coherent vector, complex phase
    exponentials and the position operator as a dense (cutoff+1)^2
    matrix."""
    p = np.asarray(dist, dtype=float)
    taus = np.asarray(taus, dtype=float)
    mm = np.arange(osc_cutoff + 1, dtype=float)
    sq = np.sqrt(mm[1:])
    if isinstance(cfg.init, CoherentInit):
        alpha = cfg.init.alpha
        if alpha == 0:
            psi = np.zeros(osc_cutoff + 1, dtype=complex)
            psi[0] = 1.0
        else:
            psi = np.exp(-abs(alpha) ** 2 / 2.0 + mm * np.log(complex(alpha))
                         - 0.5 * gammaln(mm + 1))
        inits = [(1.0, psi)]
    else:
        wts = fock.thermal_distribution(cfg.init.nbar_osc, 1e-12)
        wts = wts[: osc_cutoff + 1]
        eye = np.eye(osc_cutoff + 1, dtype=complex)
        inits = [(wts[k], eye[:, k]) for k in range(wts.size)]
    phon = np.zeros(taus.size)
    ex = np.zeros(taus.size)
    ex2 = np.zeros(taus.size)
    X = (np.diag(sq, 1) + np.diag(sq, -1)) / np.sqrt(2.0)
    for n, pn in enumerate(p):
        if pn == 0:
            continue
        lam, V = eigh_tridiagonal(cfg.Omega * mm, cfg.G * n * sq)
        for w, psi0 in inits:
            if w == 0:
                continue
            y = V.T @ psi0
            Z = V @ (np.exp(-1j * np.outer(lam, taus)) * y[:, None])
            pr = np.abs(Z) ** 2
            phon += pn * w * (mm @ pr)
            XZ = X @ Z
            ex += pn * w * np.real(np.sum(np.conj(Z) * XZ, axis=0))
            ex2 += pn * w * np.real(np.sum(np.conj(XZ) * XZ, axis=0))
    return phon, ex2 - ex ** 2, ex2


# ---------------------------------------------------------------------------
# closed-form small-nbar work capacities
# ---------------------------------------------------------------------------

def wc_table_oracle(process, nbar: float, theta: float):
    """Leading small-nbar work capacity, where a closed row exists.

    Cross-phase s=1:  nbar^2/(1+nbar)^3 sin^2(theta/2)
    Exchange k=2:     nbar^2/(1+nbar)^3 (sin^2 theta
                        + nbar/(4(1+nbar)) sin^2(2 sqrt(3) theta))
    Returns None for any other process; k=3 in particular has no clean
    single-expression row (its windowed forms live with the coherence
    scalings).
    """
    if nbar < 0:
        raise DomainError("nbar must be >= 0")
    lead = nbar ** 2 / (1.0 + nbar) ** 3
    if isinstance(process, CrossPhase) and process.s == 1:
        return lead * np.sin(theta / 2.0) ** 2
    if isinstance(process, Exchange) and process.k == 2:
        return lead * (np.sin(theta) ** 2
                       + nbar / (4.0 * (1.0 + nbar))
                       * np.sin(2.0 * np.sqrt(3.0) * theta) ** 2)
    return None


def wc_exchange3_windows(nbar: float, theta: float):
    """Leading small-nbar 3-photon-exchange work capacity
    nbar^3 / (1+nbar)^4 * thermo.exchange3_envelope(theta); None outside
    its windows.
    """
    env = thermo.exchange3_envelope(theta)
    return None if env is None else nbar ** 3 / (1.0 + nbar) ** 4 * env
