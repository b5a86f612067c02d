"""Thermal distributions, truncation bookkeeping, moments."""

import numpy as np
import pytest

from nlmzi import fock
from nlmzi.errors import ConfigurationError, DomainError


def test_thermal_cutoff_minimality():
    # smallest N with geometric tail (nbar/(1+nbar))^(N+1) <= tol
    for nbar in [0.05, 0.3, 1.0, 2.7, 5.0, 20.0]:
        for tol in [1e-6, 1e-9, 1e-12]:
            n = fock.thermal_cutoff(nbar, tol)
            assert fock.thermal_tail_mass(nbar, n) <= tol
            if n > 0:
                assert fock.thermal_tail_mass(nbar, n - 1) > tol


def test_thermal_cutoff_reference_points():
    assert fock.thermal_cutoff(0.0, 1e-12) == 0
    assert fock.thermal_cutoff(1.0, 1e-12) == 39
    assert fock.thermal_cutoff(5.0, 1e-12) == 151


def test_thermal_distribution_block_budget():
    # nbar = 100 at 1e-12 keeps 2777 blocks; nbar = 1e6 would ask for 27.6M
    assert fock.thermal_distribution(100.0, 1e-12).size == 2777
    assert fock.thermal_cutoff(1e6, 1e-12) == 27631034
    with pytest.raises(ConfigurationError):
        fock.thermal_distribution(1e6, 1e-12)
    with pytest.raises(ConfigurationError):
        fock.thermal_distribution(1000.0, 1e-2)
    # from about 9e15 on nbar/(1+nbar) rounds to 1: no cutoff exists
    for nbar in (1e16, 1e300):
        with pytest.raises(ConfigurationError, match="block budget"):
            fock.thermal_cutoff(nbar, 1e-12)


def test_thermal_distribution_shape_and_mass():
    nbar, tol = 1.3, 1e-10
    p = fock.thermal_distribution(nbar, tol)
    assert p.size == fock.thermal_cutoff(nbar, tol) + 1
    x = nbar / (1.0 + nbar)
    # geometric ratio and explicit head
    assert np.allclose(p[1:] / p[:-1], x, rtol=1e-13)
    assert abs(p[0] - 1.0 / (1.0 + nbar)) < 1e-15
    assert abs(1.0 - p.sum() - fock.thermal_tail_mass(nbar, p.size - 1)) < 1e-15


def test_tail_formulas_match_direct_sums():
    nbar, nmax = 0.8, 25
    x = nbar / (1.0 + nbar)
    n = np.arange(nmax + 1, nmax + 4000)
    p_tail = np.sum(x ** n / (1.0 + nbar))
    assert abs(fock.thermal_tail_mass(nbar, nmax) - p_tail) < 1e-15
    e_tail = np.sum(n * x ** n / (1.0 + nbar))
    assert abs(fock.thermal_tail_energy(nbar, nmax) - e_tail) < 1e-12


def test_moments_of_thermal():
    import math
    nbar = 1.5
    p = fock.thermal_distribution(nbar, 1e-14)
    assert abs(fock.mean_photon(p) - nbar) < 1e-10
    var = fock.second_moment(p) - fock.mean_photon(p) ** 2
    assert abs(var - (nbar + nbar ** 2)) < 1e-9
    for m in range(1, 5):
        # thermal factorial moments: <a+^m a^m> = m! nbar^m
        ref = math.factorial(m) * nbar ** m
        assert abs(fock.factorial_moment(p, m) - ref) < 1e-8 * ref
    with pytest.raises(DomainError):
        fock.factorial_moment(p, 0)


def test_odd_mass_thermal():
    # sum over odd n of thermal weights: x/((1+nbar)(1-x^2))
    for nbar in [0.2, 1.0, 3.0]:
        p = fock.thermal_distribution(nbar, 1e-14)
        x = nbar / (1.0 + nbar)
        ref = x / ((1.0 + nbar) * (1.0 - x * x))
        assert abs(fock.odd_mass(p) - ref) < 1e-12
    assert abs(fock.odd_mass(fock.thermal_distribution(1.0, 1e-14)) - 1 / 3) < 1e-12


def test_vacuum_input_is_exact():
    # nbar = 0 goes through the general formulas: x = 0.0 gives the exact
    # vacuum and exact zero tails
    for nbar in (0, 0.0):
        p = fock.thermal_distribution(nbar)
        assert p.tolist() == [1.0]
        assert fock.thermal_tail_mass(nbar, 0) == 0.0
        assert fock.thermal_tail_energy(nbar, 0) == 0.0
        assert fock.thermal_tail_mass(nbar, 7) == 0.0
        assert fock.thermal_tail_energy(nbar, 7) == 0.0
