"""Thermal distributions, truncation bookkeeping, moments, and the count
and scalar arguments of the package."""

import numpy as np
import pytest

from nlmzi import evolution as ev
from nlmzi import coherence, fock, thermo
from nlmzi import optomech as om
from nlmzi.errors import ConfigurationError, DomainError
from nlmzi.operators import CrossPhase, DegeneratePDC, Exchange


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


P = fock.thermal_distribution(1.0, 1e-6)
CFG = om.OscillatorConfig(G=0.05, Omega=1.0, init=om.CoherentInit(1.0))
MALFORMED = {
    "exchange-k-str": lambda: Exchange(k="2"),
    "cross-phase-s-str": lambda: CrossPhase(s="x"),
    "factorial-moment-fraction": lambda: fock.factorial_moment(P, 2.5),
    "factorial-moment-str": lambda: fock.factorial_moment(P, "2"),
    "max-efficiency-grid-fraction":
        lambda: thermo.max_efficiency(Exchange(k=2), 1.0, 3.0, grid=150.5),
    "oracle-cutoff-fraction":
        lambda: om.full_quantum_oracle([0.5, 0.3, 0.2], CFG, 20.5, [0.0]),
    "tail-mass-negative-nbar": lambda: fock.thermal_tail_mass(-1, 3),
    "tail-energy-negative-nbar": lambda: fock.thermal_tail_energy(-1, 3),
    "tail-mass-fraction": lambda: fock.thermal_tail_mass(1, 2.5),
    "osc-cutoff-negative-top": lambda: om.suggested_osc_cutoff(CFG, -1),
    "mzi-output-array-t":
        lambda: ev.mzi_output(CrossPhase(), np.array([1.0, 2.0]), 1.0),
    "thermal-nbar-list": lambda: fock.thermal_distribution([1, 2]),
    "thermal-nbar-str": lambda: fock.thermal_distribution("x"),
    "thermal-init-str": lambda: om.ThermalInit("x"),
    "coherent-init-str": lambda: om.CoherentInit("x"),
    "oscillator-init-none":
        lambda: om.OscillatorConfig(G=0.05, Omega=1.0, init=None),
    "ergotropy-scalar": lambda: thermo.ergotropy(0.5),
    "ergotropy-3d": lambda: thermo.ergotropy(np.full((2, 2, 2), 0.25)),
    "g2-3d": lambda: coherence.g_m(np.full((2, 2, 2), 0.25), 2),
    "mzi-output-pdc": lambda: ev.mzi_output(DegeneratePDC(), 1.0, 1.0),
}

# a process the entry point cannot run is mis-configured, not out of domain
RAISES = {"mzi-output-pdc": ConfigurationError}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_counts_and_scalars_raise_domain_error(name):
    # a count must be an integer-valued real within its bound, nbar a
    # finite real >= 0, a time t one finite scalar and a distribution of
    # shape (n,) or (n, T), n >= 1; anything else is the package's
    # DomainError (or ConfigurationError), not an error of Python or numpy
    with pytest.raises(RAISES.get(name, DomainError)):
        MALFORMED[name]()


def test_integer_valued_floats_are_their_counts():
    assert fock.factorial_moment(P, 2.0) == fock.factorial_moment(P, 2)
    assert type(Exchange(k=2.0).k) is int and type(CrossPhase(s=2.0).s) is int
    assert CrossPhase(s=2.0) == CrossPhase(s=2)
    assert fock.thermal_tail_mass(1.0, 3.0) == fock.thermal_tail_mass(1.0, 3)
    assert fock.thermal_tail_energy(1.0, 3.0) == \
        fock.thermal_tail_energy(1.0, 3)
    assert om.suggested_osc_cutoff(CFG, 3.0) == om.suggested_osc_cutoff(CFG, 3)
    assert thermo.max_efficiency(Exchange(k=2), 0.5, 3.0, grid=100.0) == \
        thermo.max_efficiency(Exchange(k=2), 0.5, 3.0, grid=100)
    taus = np.linspace(0.0, 6.3, 16)
    got = om.full_quantum_oracle([0.5, 0.3, 0.2], CFG, 40.0, taus)
    ref = om.full_quantum_oracle([0.5, 0.3, 0.2], CFG, 40, taus)
    assert np.array_equal(got.phonon, ref.phonon)
