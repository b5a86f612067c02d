"""Dense oracles, built from scratch on purpose.

Shared by the evolution tests and the acceptance gate. The two-mode
tensor-product oracle is written against bare kron products, and the block
splitter oracles against bare ladder elements (a dense exponential and the
J_x eigensystem), so none can inherit a mistake from the Wigner-d ladder or
the block machinery they check.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import gammaln

from nlmzi.operators import CrossPhase, Exchange, Hybrid, process_generator


def ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def tensor_ops(nmax):
    d = nmax + 1
    a = np.kron(ladder(d).conj().T, np.eye(d))  # creation on mode a
    b = np.kron(np.eye(d), ladder(d).conj().T)
    return a, b


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
