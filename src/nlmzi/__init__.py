"""Exact Fock-space toolkit for a thermal-noise nonlinear interferometer.

A single thermal mode enters a balanced two-mode interferometer whose arms
carry a number-conserving nonlinear interaction. Everything downstream is
exact linear algebra on small total-photon blocks: output photon
distributions, extractable work (ergotropy) of the output mode, coherence
diagnostics, and a mechanical-oscillator readout of the work capacity.
"""

__version__ = "0.1.0"

from . import coherence, evolution, fock, operators, optomech, thermo
from .errors import ConfigurationError, DomainError, FitError
from .evolution import (BlockEngine, GenericEngine, mzi_output,
                        pdc_signal_sweep, sweep_distributions)
from .fock import (thermal_cutoff, thermal_distribution, thermal_tail_energy,
                   thermal_tail_mass)
from .operators import (CrossPhase, DegeneratePDC, Exchange, Hybrid,
                        NonDegeneratePDC)
from .optomech import (CoherentInit, OscillatorConfig, OscillatorTrace,
                       ThermalInit, full_quantum_oracle, infer_wc,
                       phonon_trace_coherent, phonon_trace_thermal,
                       position_variance)
from .thermo import (ErgotropyReport, SweepResult, ergotropy,
                     max_efficiency, passive_distribution,
                     wc_cross_kerr_closed_form, wc_exchange3_windows,
                     wc_from_dist, wc_sweep, wc_table_oracle)
from .coherence import (CoherenceReport, ScalingPrediction, coherence_report,
                        g2_from_wc, g_m, small_nbar_scalings)

__all__ = [
    "__version__",
    "ConfigurationError", "DomainError", "FitError",
    "fock", "operators", "evolution", "thermo", "coherence", "optomech",
    "thermal_cutoff", "thermal_distribution", "thermal_tail_mass",
    "thermal_tail_energy",
    "CrossPhase", "Exchange", "Hybrid", "DegeneratePDC", "NonDegeneratePDC",
    "BlockEngine", "mzi_output", "sweep_distributions",
    "GenericEngine", "pdc_signal_sweep",
    "ErgotropyReport", "SweepResult", "ergotropy", "passive_distribution",
    "wc_from_dist", "wc_sweep", "max_efficiency",
    "wc_cross_kerr_closed_form", "wc_table_oracle", "wc_exchange3_windows",
    "CoherenceReport", "ScalingPrediction", "g_m", "coherence_report",
    "g2_from_wc", "small_nbar_scalings",
    "OscillatorConfig", "CoherentInit", "ThermalInit", "OscillatorTrace",
    "phonon_trace_coherent", "phonon_trace_thermal", "position_variance",
    "full_quantum_oracle", "infer_wc",
]
