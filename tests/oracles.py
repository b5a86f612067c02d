"""Dense oracles and test-only helpers, built from scratch on purpose.

Shared by the evolution tests and the acceptance gate. The two-mode and
down-conversion tensor-product oracles are written against bare kron
products, and the block splitter oracles against bare ladder elements (a
dense exponential and the J_x eigensystem), so none can inherit a mistake
from the Wigner-d ladder, the block machinery or the pump-level chains
they check.
"""

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, expm
from scipy.special import gammaln

from nlmzi.errors import DomainError
from nlmzi.operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                             beam_splitter_unitary, process_generator)

HERMITICITY_TOL = 1e-12


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
            out = out + c * tensor_generator(spec, nmax)
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
    gen = np.real(process_generator(process, N))
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
    gen = process_generator(process, N)
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
