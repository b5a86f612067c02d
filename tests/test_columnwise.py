"""Column-wise analysis: each quantity of an (n, T) stack of distributions
equals the same quantity of each column on its own."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlmzi import coherence as coh
from nlmzi import thermo

EPS = np.finfo(float).eps


@st.composite
def dirichlet_stacks(draw):
    """(n, T) stacks of random distributions, from flat to nearly sparse."""
    n = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 6))
    alpha = draw(st.sampled_from([0.05, 0.5, 1.0, 5.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(n, alpha), size=cols).T


@settings(max_examples=200, deadline=None)
@given(dirichlet_stacks())
def test_ergotropy_of_a_stack_is_per_column(P):
    rep = thermo.ergotropy(P)
    for j in range(P.shape[1]):
        one = thermo.ergotropy(P[:, j])
        assert isinstance(one.wc, np.float64)
        assert abs(rep.wc[j] - one.wc) <= 8 * EPS * max(1.0, one.mean_energy)
        assert 0.0 <= rep.wc[j] <= rep.mean_energy[j]


@settings(max_examples=200, deadline=None)
@given(dirichlet_stacks())
def test_g_m_of_a_stack_is_per_column(P):
    for m in (2, 3, 4):
        cols = coh.g_m(P, m)
        for j in range(P.shape[1]):
            one = coh.g_m(P[:, j], m)
            if np.isnan(one):
                assert np.isnan(cols[j])
            else:
                assert abs(cols[j] - one) <= 1e-14 * abs(one)
