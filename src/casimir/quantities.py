"""Unit system and nondimensional quantities for the two-plate problem.

Frequencies are handled in eV and lengths in micrometres throughout the
package; this module owns every conversion in and out of SI.  The constants
are pinned CODATA 2018 values so that regression results are bit-stable
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "Geometry",
    "reduced_temperature",
    "matsubara_frequency",
    "pressure_to_si",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Pinned fundamental constants (CODATA 2018); immutable."""

    hbar_c_eV_nm: float = 197.3269804      # hbar*c in eV nm
    k_B_eV_per_K: float = 8.617333262e-5   # Boltzmann constant in eV/K
    e_charge_C: float = 1.602176634e-19    # elementary charge (exact)
    hbar_J_s: float = 1.054571817e-34      # hbar in J s

    @property
    def hbar_c_eV_um(self) -> float:
        return self.hbar_c_eV_nm * 1e-3

    @property
    def k_B_J_per_K(self) -> float:
        return self.k_B_eV_per_K * self.e_charge_C

    @property
    def eV_to_rad_per_s(self) -> float:
        """Angular frequency (rad/s) corresponding to 1 eV."""
        return self.e_charge_C / self.hbar_J_s


CODATA = PhysicalConstants()


# Largest reduced temperature: mode m's integral starts at m*gamma, its first
# break 0.75 above, distinct doubles while m*gamma < 2^53 ~ 9e15; thousands of
# modes fit, and past gamma ~ 400 every mode m >= 1 underflows to 0 anyway.
_GAMMA_MAX = 1e12


@dataclass(frozen=True)
class Geometry:
    """Gap width (um) and temperature (K) of the plate configuration.

    Both must be strictly positive.  Zero temperature is represented by a
    small positive value such as 1 K, which is numerically indistinguishable
    from T=0 at micrometre separations.  A pair is rejected where no unit
    conversion holds (a*T, a^3 in m^3 or the SI pressure or free-energy scale
    under- or overflows) or its reduced temperature exceeds _GAMMA_MAX.
    """

    a_um: float
    T_K: float

    def __post_init__(self) -> None:
        if not self.a_um > 0:
            raise ValueError(f"gap width must be positive, got {self.a_um}")
        if not self.T_K > 0:
            raise ValueError(f"temperature must be positive, got {self.T_K}")
        a_m = self.a_um * 1e-6
        gamma = reduced_temperature(self)
        if gamma > _GAMMA_MAX:
            raise ValueError(f"a={self.a_um} um, T={self.T_K} K: a*T too large "
                             f"(reduced temperature {gamma:.3g} > {_GAMMA_MAX:g})")
        # a^3 first: a float divided by 0 raises
        if not (gamma > 0 and a_m * a_m * a_m > 0 and 0 < pressure_to_si(1.0, self) < math.inf
                and 0 < CODATA.k_B_J_per_K * self.T_K / (2.0 * math.pi * a_m**2) < math.inf):
            raise ValueError(f"a={self.a_um} um, T={self.T_K} K: a*T, a^3 or the SI pressure "
                             "or free-energy scale under- or overflows")


def matsubara_frequency(m: int, T_K: float) -> float:
    """m-th Matsubara frequency 2*pi*m*k_B*T in eV; m=0 returns exactly 0.

    Written as m times the first frequency so the proportionality in m is
    exact in floating point as well.
    """
    if m < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {m}")
    if m == 0:
        return 0.0
    return m * (2.0 * math.pi * CODATA.k_B_eV_per_K * T_K)


def reduced_temperature(geom: Geometry) -> float:
    """Dimensionless temperature gamma = 2*pi*a*k_B*T/(hbar*c).

    Linear in both the gap width and the temperature.  The m-th Matsubara
    mode sits at y = m*gamma on the dimensionless frequency axis, which is
    the lower limit of the corresponding mode integral.  Computed through
    the first Matsubara frequency so gamma = a*zeta_1/(hbar*c) holds
    exactly.
    """
    return geom.a_um * matsubara_frequency(1, geom.T_K) / CODATA.hbar_c_eV_um


def pressure_to_si(coefficient: float, geom: Geometry) -> float:
    """Convert a dimensionless pressure coefficient to mPa.

    The natural-unit prefactor 1/(pi*beta*a^3) of the mode sum becomes
    k_B*T/(pi*a^3) in SI.  The geometry factor is assembled first, so the
    map is exactly linear in the coefficient and scales as T/a^3.
    """
    a_m = geom.a_um * 1e-6
    factor_mPa = CODATA.k_B_J_per_K * geom.T_K / (math.pi * (a_m * a_m * a_m)) * 1e3
    return coefficient * factor_mPa
