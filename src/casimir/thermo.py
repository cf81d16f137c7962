"""Free energy per unit area, entropy, Nernst verification, and the
temperature-crossover separation.

The free energy uses the logarithmic mode sum

    F = (k_B T / 2 pi a^2) * sum'_m int_{m*gamma}^inf y dy
        [ln(1 - x_TM) + ln(1 - x_TE)],    x = delta1*delta2*e^{-2y},

whose a-derivative reproduces the pressure mode sum exactly; that relation
is enforced by tests rather than assumed.  The static TM term integrates in
closed form to -zeta(3)/8 (half weight included), the static TE term
vanishes for any finite relaxation frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dielectric import DielectricModel
from .lifshitz import (
    QuadratureSpec,
    _summed_modes,
    casimir_pressure,
    zeta3,
)
from .quadrature import integrate_adaptive
from .quantities import CODATA, Geometry

__all__ = [
    "FreeEnergyResult",
    "EntropyResult",
    "NernstReport",
    "BracketError",
    "free_energy",
    "entropy",
    "nernst_check",
    "crossover_separation",
]

# Entropy is a small difference of nearly equal free energies; its default
# summation tolerance is two decades tighter than the pressure default so
# the truncation bias stays far below the differences being resolved.
_ENTROPY_SPEC = QuadratureSpec(sum_rel_tol=1e-10)


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy per unit area (J/m^2, negative = binding) and diagnostics."""

    free_energy_J_per_m2: float
    zero_mode_J_per_m2: float
    terms_J_per_m2: np.ndarray
    n_terms_used: int
    converged: bool


@dataclass(frozen=True)
class EntropyResult:
    """Entropy per unit area from a central difference of the free energy."""

    entropy_J_per_m2_K: float
    T_K: float
    fd_step_K: float


@dataclass(frozen=True)
class NernstReport:
    """Entropy behaviour approaching T=0 at fixed separation.

    Raw values are carried along so the verdict stays auditable:
    ``entropies_J_per_m2_K`` follows ``temperatures_K``, the ladder
    T_min * (1, 2, 4, 8).  ``reference_entropy_J_per_m2_K`` is the
    Nernst-violating limit S_NV = -k_B zeta(3)/(16 pi a^2), the static-mode
    free energy divided by T (0 for vacuum pairs), which a pair with unit
    reflection for every m >= 1 and no static TE mode keeps at T -> 0.
    The check passes when |S| does not increase down the ladder and
    |S(T_min)| <= threshold = |S_NV| / 2.
    """

    a_um: float
    temperatures_K: tuple[float, ...]
    entropies_J_per_m2_K: tuple[float, ...]
    reference_entropy_J_per_m2_K: float
    threshold_J_per_m2_K: float
    monotone: bool
    passed: bool


class BracketError(RuntimeError):
    """No sign change of the temperature difference on the given bracket."""

    def __init__(self, message: str, g_low: float, g_high: float):
        super().__init__(message)
        self.g_low = g_low
        self.g_high = g_high


def free_energy(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                spec: QuadratureSpec | None = None) -> FreeEnergyResult:
    """Free energy per unit area in J/m^2 under the same tolerance regime
    as the pressure sum.

    Raises SumConvergenceError (carrying the partial result) when max_terms
    is exhausted first.
    """
    a_m = geom.a_um * 1e-6
    return _summed_modes(geom, model1, model3, spec or QuadratureSpec(), True,
                         integrate_adaptive,
                         CODATA.k_B_J_per_K * geom.T_K / (2.0 * math.pi * a_m**2),
                         FreeEnergyResult)


def entropy(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
            spec: QuadratureSpec | None = None, fd_step_K: float = 0.5,
            models_at=None) -> EntropyResult:
    """Entropy per unit area, S = -dF/dT, by a central difference in T.

    The step is recorded in the result for reproducibility.  By default the
    given models (and therefore their relaxation frequencies) are used
    unchanged on both sides of the difference; pass ``models_at``, a
    callable T_K -> (model1, model3), to rebuild them at the shifted
    temperatures for exploratory runs with a temperature-dependent
    relaxation frequency.
    """
    if fd_step_K <= 0:
        raise ValueError(f"fd step must be positive, got {fd_step_K}")
    if geom.T_K - fd_step_K <= 0:
        raise ValueError(
            f"T - fd_step must stay positive, got T={geom.T_K}, step={fd_step_K}")
    spec = spec or _ENTROPY_SPEC
    t_lo, t_hi = geom.T_K - fd_step_K, geom.T_K + fd_step_K
    lo_models = models_at(t_lo) if models_at is not None else (model1, model3)
    hi_models = models_at(t_hi) if models_at is not None else (model1, model3)
    f_lo = free_energy(Geometry(geom.a_um, t_lo), *lo_models, spec)
    f_hi = free_energy(Geometry(geom.a_um, t_hi), *hi_models, spec)
    s = (f_lo.free_energy_J_per_m2 - f_hi.free_energy_J_per_m2) / (2.0 * fd_step_K)
    return EntropyResult(entropy_J_per_m2_K=s, T_K=geom.T_K, fd_step_K=fd_step_K)


def nernst_check(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                 spec: QuadratureSpec | None = None) -> NernstReport:
    """Evaluate the entropy toward T -> 0 and test that it vanishes there.

    The ladder is T * (1, 2, 4, 8) with T and the separation from ``geom``;
    each rung is a central difference with step T_rung/8.  The verdict
    measures |S(T)| against the Nernst-violating limit S_NV (see
    :class:`NernstReport`): it passes when |S| does not increase down the
    ladder and |S(T)| <= |S_NV|/2.  For a fixed-relaxation Drude pair
    S/S_NV depends on T/T_c alone, with the turnover temperature
    T_c = nu (hbar c/(omega_p a))^2 / (2 pi k_B) (0.03 K for Au at 1 um):
    about 0.33 at 16 T_c and 0.63 at 130 T_c, so the check passes only with
    T well below 100 T_c.  Vacuum pairs pass trivially with all-zero
    entropies and a zero threshold.
    """
    spec = spec or _ENTROPY_SPEC
    ladder = tuple(geom.T_K * k for k in (1.0, 2.0, 4.0, 8.0))
    svals = tuple(
        entropy(Geometry(geom.a_um, t), model1, model3, spec,
                fd_step_K=t / 8.0).entropy_J_per_m2_K
        for t in ladder)
    # static-mode free energy over T: -k_B zeta(3)/(16 pi a^2)
    reference = 0.0
    if not (model1.is_vacuum or model3.is_vacuum):
        a_m = geom.a_um * 1e-6
        reference = -CODATA.k_B_J_per_K * zeta3() / (16.0 * math.pi * a_m**2)
    threshold = 0.5 * abs(reference)
    magnitudes = [abs(s) for s in svals]  # ordered up the ladder
    monotone = all(magnitudes[i] <= magnitudes[i + 1] for i in range(len(magnitudes) - 1))
    passed = monotone and magnitudes[0] <= threshold
    return NernstReport(
        a_um=geom.a_um,
        temperatures_K=ladder,
        entropies_J_per_m2_K=svals,
        reference_entropy_J_per_m2_K=reference,
        threshold_J_per_m2_K=threshold,
        monotone=monotone,
        passed=passed,
    )


def crossover_separation(model1: DielectricModel, model3: DielectricModel,
                         T_low_K: float, T_high_K: float,
                         spec: QuadratureSpec | None = None,
                         bracket_um: tuple[float, float] = (1.0, 6.0),
                         resolution_um: float = 0.01) -> float:
    """Separation where the pressure magnitude stops falling and starts
    rising with temperature, by bisection of
    g(a) = |P(a, T_high)| - |P(a, T_low)| on the bracket.

    Raises BracketError carrying the endpoint values when g does not change
    sign across the bracket.
    """
    if not T_low_K < T_high_K:
        raise ValueError(f"need T_low < T_high, got {T_low_K}, {T_high_K}")
    spec = spec or QuadratureSpec()

    def g(a_um: float) -> float:
        p_hi = casimir_pressure(Geometry(a_um, T_high_K), model1, model3, spec)
        p_lo = casimir_pressure(Geometry(a_um, T_low_K), model1, model3, spec)
        return abs(p_hi.pressure_mPa) - abs(p_lo.pressure_mPa)

    lo, hi = bracket_um
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}] um: g({lo})={g_lo:.4g}, g({hi})={g_hi:.4g}",
            g_low=g_lo, g_high=g_hi)
    while hi - lo > resolution_um:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_hi > 0):
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)
