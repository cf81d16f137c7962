"""Free energy per unit area, entropy, Nernst verification, and the
temperature-crossover separation.

The free energy uses the logarithmic mode sum

    F = u_F * sum'_m int_{m*gamma}^inf y dy
        [ln(1 - x_TM) + ln(1 - x_TE)],    x = delta1*delta2*e^{-2y},

with u_F the SI scale of ``quantities.free_energy_to_si``.  Its
a-derivative reproduces the pressure mode sum exactly; that relation
is enforced by tests rather than assumed.  The static TM term integrates in
closed form to -zeta(3)/8 (half weight included), the static TE term
vanishes for any finite relaxation frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dielectric import DielectricModel
from .lifshitz import (  # the entropy defaults live there, beside the pressure's
    FreeEnergyResult,
    QuadratureSpec,
    _ENTROPY_SPEC,
    _ENTROPY_STEP_K,
    _summed_modes,
    casimir_pressure,
    zeta3,
)
from .quadrature import integrate_adaptive  # unused here: perfbench/tracing.py patches it
from .quantities import Geometry, free_energy_to_si

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
    return _summed_modes(geom, model1, model3, spec, True)


def entropy(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
            spec: QuadratureSpec | None = None, fd_step_K: float = _ENTROPY_STEP_K,
            models_at=None) -> EntropyResult:
    """Entropy per unit area, S = -dF/dT, by a central difference in T.

    The step is recorded in the result for reproducibility.  Each free
    energy takes the models at its own temperature T -/+ fd_step_K
    (``DielectricModel.at``), so a relaxation frequency nu(T) enters the
    difference.  ``models_at``, a callable T_K -> (model1, model3), replaces
    them there; it is kept for ``perfbench/worker.py``, which passes it.
    """
    if not fd_step_K > 0:  # NaN fails it too
        raise ValueError(f"fd step must be positive, got {fd_step_K}")
    if geom.T_K - fd_step_K <= 0:
        raise ValueError(
            f"T - fd_step must stay positive, got T={geom.T_K}, step={fd_step_K}")
    spec = spec or _ENTROPY_SPEC
    t_lo, t_hi = geom.T_K - fd_step_K, geom.T_K + fd_step_K
    models_at = models_at or (lambda T_K: (model1, model3))
    f_lo = free_energy(Geometry(geom.a_um, t_lo), *models_at(t_lo), spec)
    f_hi = free_energy(Geometry(geom.a_um, t_hi), *models_at(t_hi), spec)
    s = (f_lo.free_energy_J_per_m2 - f_hi.free_energy_J_per_m2) / (2.0 * fd_step_K)
    return EntropyResult(entropy_J_per_m2_K=s, T_K=geom.T_K, fd_step_K=fd_step_K)


def nernst_check(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                 spec: QuadratureSpec | None = None) -> NernstReport:
    """Evaluate the entropy toward T -> 0 and test that it vanishes there.

    The ladder is T * (1, 2, 4, 8) with T and the separation from ``geom``;
    each rung is an :func:`entropy` with step T_rung/8, whose free energies
    take nu(T) at their own temperatures.  The verdict measures |S(T)|
    against the Nernst-violating limit S_NV (see :class:`NernstReport`): it
    passes when |S| does not increase down the ladder and
    |S(T)| <= |S_NV|/2.  For a fixed-relaxation Drude pair
    S/S_NV depends on T/T_c alone, with the turnover temperature
    T_c = nu (hbar c/(omega_p a))^2 / (2 pi k_B) (0.03 K for Au at 1 um):
    about 0.33 at 16 T_c and 0.63 at 130 T_c, so the check passes only with
    T well below 100 T_c.  Vacuum pairs pass trivially with all-zero
    entropies and a zero threshold.
    """
    spec = spec or _ENTROPY_SPEC
    ladder = tuple(geom.T_K * k for k in (1.0, 2.0, 4.0, 8.0))
    svals = tuple(
        entropy(Geometry(geom.a_um, t), model1, model3, spec, fd_step_K=t / 8.0).entropy_J_per_m2_K
        for t in ladder)
    reference = 0.0  # the static-mode free energy over T
    if not (model1.is_vacuum or model3.is_vacuum):
        reference = free_energy_to_si(-zeta3() / 8.0, geom) / geom.T_K
    threshold = 0.5 * abs(reference)
    magnitudes = [abs(s) for s in svals]  # ordered up the ladder
    monotone = all(magnitudes[i] <= magnitudes[i + 1] for i in range(len(magnitudes) - 1))
    passed = monotone and magnitudes[0] <= threshold
    return NernstReport(a_um=geom.a_um, temperatures_K=ladder, entropies_J_per_m2_K=svals,
                        reference_entropy_J_per_m2_K=reference, threshold_J_per_m2_K=threshold,
                        monotone=monotone, passed=passed)


def crossover_separation(model1: DielectricModel, model3: DielectricModel,
                         T_low_K: float, T_high_K: float,
                         spec: QuadratureSpec | None = None,
                         bracket_um: tuple[float, float] = (1.0, 6.0),
                         resolution_um: float = 0.01) -> float:
    """Separation where the pressure magnitude stops falling and starts
    rising with temperature, by bisection of
    g(a) = |P(a, T_high)| - |P(a, T_low)| on the bracket.

    Raises ValueError unless 0 < bracket_um[0] < bracket_um[1] < inf and
    0 < resolution_um < inf, before any pressure is computed, and
    BracketError carrying the endpoint values when g has the same strict
    sign at both ends.
    """
    if not T_low_K < T_high_K:
        raise ValueError(f"need T_low < T_high, got {T_low_K}, {T_high_K}")
    lo, hi = bracket_um
    if not 0 < lo < hi < np.inf:
        raise ValueError(f"bracket_um must satisfy 0 < lo < hi < inf, got {bracket_um}")
    if not 0 < resolution_um < np.inf:
        raise ValueError(f"resolution_um must be positive and finite, got {resolution_um}")

    def g(a_um: float) -> float:
        p_hi = casimir_pressure(Geometry(a_um, T_high_K), model1, model3, spec)
        p_lo = casimir_pressure(Geometry(a_um, T_low_K), model1, model3, spec)
        return abs(p_hi.pressure_mPa) - abs(p_lo.pressure_mPa)

    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo <= 0.0 <= g_hi or g_hi <= 0.0 <= g_lo):
        raise BracketError(
            f"no sign change on [{lo}, {hi}] um: g({lo})={g_lo:.4g}, g({hi})={g_hi:.4g}",
            g_low=g_lo, g_high=g_hi)
    rising = g_lo < g_hi  # not the sign of g_hi: a zero may sit at an end
    while hi - lo > resolution_um:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: finer than any resolution
            break
        g_mid = g(mid)
        if (g_mid > 0) == rising:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
