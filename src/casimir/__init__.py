"""Finite-temperature Casimir pressure between material half-spaces.

The pressure is a primed Matsubara sum of semi-infinite integrals over
TE/TM reflection products, evaluated for Drude or tabulated permittivities
with a fully analytic static mode.  Companion thermodynamics (free energy,
entropy, the vanishing zero-temperature entropy, and the temperature
crossover of the pressure) live in :mod:`casimir.thermo`.

``import casimir`` loads no submodule: each public name imports its module
on first use, so a process pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("BlochGruneisenParams", "DrudeModel", "DrudeParams", "IdealMetal",
                     "MaterialDatabase", "PermittivityTable", "TabulatedModel",
                     "UnknownMaterialError", "Vacuum", "bloch_gruneisen_nu",
                     "kramers_kronig_transform"), "dielectric"),
    **dict.fromkeys(("QuadratureSpec", "SumConvergenceError", "casimir_pressure", "zeta3"),
                    "lifshitz"),
    "QuadratureError": "quadrature",
    "CODATA": "quantities",
    "Geometry": "quantities",
    **dict.fromkeys(("BracketError", "crossover_separation", "entropy", "free_energy",
                     "nernst_check"), "thermo"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    """Import the submodule behind a public name and keep the value here."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
