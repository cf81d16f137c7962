"""Finite-temperature Casimir pressure between material half-spaces.

The pressure is a primed Matsubara sum of semi-infinite integrals over
TE/TM reflection products, evaluated for Drude or tabulated permittivities
with a fully analytic static mode.  Companion thermodynamics (free energy,
entropy, the vanishing zero-temperature entropy, and the temperature
crossover of the pressure) live in :mod:`casimir.thermo`.
"""

from .dielectric import (
    BlochGruneisenParams,
    DrudeModel,
    DrudeParams,
    IdealMetal,
    MaterialDatabase,
    PermittivityTable,
    TabulatedModel,
    UnknownMaterialError,
    Vacuum,
    bloch_gruneisen_nu,
    kramers_kronig_transform,
)
from .lifshitz import (
    QuadratureSpec,
    SumConvergenceError,
    casimir_pressure,
    zeta3,
)
from .quadrature import QuadratureError
from .quantities import CODATA, Geometry
from .thermo import (
    BracketError,
    crossover_separation,
    entropy,
    free_energy,
    nernst_check,
)

__version__ = "0.1.0"

__all__ = [
    "BlochGruneisenParams",
    "BracketError",
    "CODATA",
    "DrudeModel",
    "DrudeParams",
    "Geometry",
    "IdealMetal",
    "MaterialDatabase",
    "PermittivityTable",
    "QuadratureError",
    "QuadratureSpec",
    "SumConvergenceError",
    "TabulatedModel",
    "UnknownMaterialError",
    "Vacuum",
    "bloch_gruneisen_nu",
    "casimir_pressure",
    "crossover_separation",
    "entropy",
    "free_energy",
    "kramers_kronig_transform",
    "nernst_check",
    "zeta3",
]
