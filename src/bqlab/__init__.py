"""Numerical laboratory for rough-data ill-posedness of generalized
Boussinesq equations: witness construction, resonance audits, diophantine
bookkeeping, the p-th derivative of the flow map, a pseudo-spectral
simulator, and desk-scale growth-exponent measurements."""

from .errors import ResourceBudgetError, SimulationBlowup
from .spectral import (Domain, FrequencySet, SetSign, SpectralData,
                       dispersion, free_flow_rotation, propagate_linear_pair,
                       sobolev_norm)
from .witness import (WitnessConfig, WitnessPair, attainable_triplet_range,
                      build_witness, data_norm, frequency_set, output_window,
                      triplet_count)
from .resonance import (BetaRange, Representation, ResonanceReport,
                        beta_range, closed_form_profiles,
                        construct_representation, count_ordered_tuples,
                        enumerate_representations, pattern_sum_range,
                        solve_diophantine, verify_pattern_constraints,
                        verify_resonance_bounds)
from .flow_derivative import (DerivativeProfile, GrowthTable,
                              flow_derivative, flow_derivative_line,
                              flow_derivative_torus, growth_table,
                              predicted_growth_slope, time_integral,
                              window_sobolev_mass)
from .simulator import (InflationResult, ProbeResult, SimConfig, SimState,
                        Stepper, fd_derivative_probe, full_norm,
                        inflation_experiment, linear_energy, windowed_norm,
                        witness_state)
from .acceptance import CriterionResult, run_criteria

__version__ = "0.1.0"

__all__ = [
    "ResourceBudgetError", "SimulationBlowup",
    "Domain", "FrequencySet", "SetSign", "SpectralData", "dispersion",
    "free_flow_rotation", "propagate_linear_pair", "sobolev_norm",
    "WitnessConfig", "WitnessPair", "attainable_triplet_range",
    "build_witness", "data_norm", "frequency_set", "output_window",
    "triplet_count",
    "BetaRange", "Representation", "ResonanceReport", "beta_range",
    "closed_form_profiles", "construct_representation",
    "count_ordered_tuples", "enumerate_representations",
    "pattern_sum_range", "solve_diophantine", "verify_pattern_constraints",
    "verify_resonance_bounds",
    "DerivativeProfile", "GrowthTable", "flow_derivative",
    "flow_derivative_line", "flow_derivative_torus", "growth_table",
    "predicted_growth_slope", "time_integral", "window_sobolev_mass",
    "InflationResult", "ProbeResult", "SimConfig", "SimState", "Stepper",
    "fd_derivative_probe", "full_norm", "inflation_experiment",
    "linear_energy", "windowed_norm", "witness_state",
    "CriterionResult", "run_criteria",
]
