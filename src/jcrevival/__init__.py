"""Collapse and revival of Rabi oscillations in the Jaynes-Cummings model.

Series, envelope and sum-to-integral representations of the atomic
population inversion, cross-validated against each other, with standard
(float64) and extended (double-double) scalar kinds.
"""

from .ddmath import CDD, DD
from .errors import IntegrandError, PrecisionLossError
from .jcm import (DEFAULT_X_SPEC, DEFAULT_Y_SPEC, JcmConfig,
                  PerturbativeRegimeWarning, SeriesSpec, ThermalConfig,
                  ThetaResult, abel_plana_identity,
                  const_plateau, correction_integrand_probe,
                  correction_origin, detuned_profile,
                  envelope_approximation, envelope_factor, i1_integral,
                  i2_integral, j1_integral, j2_integral, p1_correction,
                  p2_correction, perturbative_strength, pg_series,
                  pg_thermal, q_g, resonant_profile, sigma_z_integral,
                  sigma_z_resonant_integral, sigma_z_series,
                  sigma_z_series_resonant, theta_of_beta)
from .quadrature import IntegralResult, QuadratureSpec, integrate
from .special import log_gamma, principal_sqrt, reciprocal_gamma

__version__ = "0.1.0"

__all__ = [
    "CDD", "DD", "IntegrandError", "PrecisionLossError",
    "DEFAULT_X_SPEC", "DEFAULT_Y_SPEC",
    "JcmConfig", "PerturbativeRegimeWarning", "SeriesSpec", "ThermalConfig",
    "ThetaResult", "abel_plana_identity", "const_plateau",
    "correction_integrand_probe", "correction_origin", "detuned_profile", "envelope_approximation",
    "envelope_factor", "i1_integral", "i2_integral", "j1_integral",
    "j2_integral", "p1_correction", "p2_correction",
    "perturbative_strength", "pg_series", "pg_thermal", "q_g",
    "resonant_profile", "sigma_z_integral", "sigma_z_resonant_integral",
    "sigma_z_series", "sigma_z_series_resonant", "theta_of_beta",
    "IntegralResult", "QuadratureSpec", "integrate", "log_gamma",
    "principal_sqrt", "reciprocal_gamma",
]
