"""Collapse and revival of Rabi oscillations in the Jaynes-Cummings model.

Series, envelope and sum-to-integral representations of the atomic
population inversion, cross-validated against each other, with standard
(float64) and extended (double-double) scalar kinds.

Importing the package loads nothing else: each public name imports its
submodule, and with it numpy, on first use (PEP 562).  The command-line
front end relies on this to configure numpy before it is loaded.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("CDD", "DD"), "ddmath"),
    **dict.fromkeys(("IntegrandError", "PrecisionLossError"), "errors"),
    **dict.fromkeys((
        "BANDED_X_SPEC", "BANDED_Y_SPEC", "DEFAULT_X_SPEC", "DEFAULT_Y_SPEC",
        "JcmConfig", "PerturbativeRegimeWarning", "SeriesSpec", "ThermalConfig",
        "abel_plana_identity", "const_plateau",
        "correction_integrand_probe", "correction_origin", "detuned_profile",
        "envelope_approximation", "envelope_factor", "j2_integral",
        "p1_correction", "p2_correction", "perturbative_strength",
        "pg_series", "pg_thermal", "q_g", "resonant_profile",
        "sigma_z_series", "sigma_z_series_resonant"), "jcm"),
    **dict.fromkeys(("IntegralResult", "QuadratureSpec"), "quadrature"),
    **dict.fromkeys(("log_gamma", "principal_sqrt", "reciprocal_gamma"),
                    "special"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
