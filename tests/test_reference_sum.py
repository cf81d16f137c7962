"""Differential test of the Matsubara sums against a plain reference sum.

The reference integrates every mode m = 1..N by ``integrate_adaptive`` alone
at rel_tol 1e-13, on the breaks A + _BREAK_OFFSETS below y_max and then
y_max, adds the static term +/- zeta(3)/8 with ``math.fsum`` and converts to
SI once.  N is the first mode past which the unit-reflection bound's tail,
written out here as ``tail``, lies below 1e-17 of the static term.  The
reference shares only the integrand (``_mode_kernel``, with its scratch
``_Workspace``) and ``integrate_adaptive`` with the fast path: no rule
ladder, block, plan, screen, interpolant, floor, bound or stop rule.  The
fast path runs at QuadratureSpec(1e-13, 1e-13) and must meet the reference
to 4e-13 of its value, also on long sums that plan their modes once.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casimir.dielectric import (
    BlochGruneisenParams,
    DrudeModel,
    IdealMetal,
    MaterialDatabase,
    PermittivityTable,
    TabulatedModel,
    drude_epsilon,
)
from casimir.lifshitz import (_BREAK_OFFSETS, _FINITE, _IDEAL, QuadratureSpec, _mode_kernel,
                              _Workspace, casimir_pressure, zeta3)
from casimir.quadrature import integrate_adaptive
from casimir.quantities import (CODATA, Geometry, free_energy_to_si, matsubara_frequency,
                                pressure_to_si, reduced_temperature)
from casimir.thermo import free_energy

SPEC = QuadratureSpec(1e-13, 1e-13)
# |fast - reference| <= REL * |reference|, fixed before the first run
REL = 4e-13

DB = MaterialDatabase.builtin()
AU, CU = DrudeModel(DB.get("Au")), DrudeModel(DB.get("Cu"))
_ZETA = np.logspace(-2, 2, 9)
PAIRS = {
    "Au-Au": (AU, AU),
    "Au-Cu": (AU, CU),
    "bloch-gruneisen": (DrudeModel(DB.get("Au"), BlochGruneisenParams()),
                        DrudeModel(DB.get("Al"), BlochGruneisenParams())),
    "tabulated-Cu": (TabulatedModel(PermittivityTable(_ZETA, drude_epsilon(DB.get("Al"), _ZETA)),
                                    low_freq=AU), CU),
    "Au-ideal": (AU, IdealMetal()),
    "ideal-ideal": (IdealMetal(), IdealMetal()),
}
EVALUATE = {"pressure": casimir_pressure, "free-energy": free_energy}


def tail(A, gamma, free):
    """The tail of the sum from the mode at A = m*gamma on: both reflections
    lie in [0, 1], so a term is at most e^{-2A}(A^2 + A + 1/2)/(1 - e^{-2A})
    (A + 1/2 for the free energy), summed as a geometric series of ratio
    e^{-2 gamma}, as the sums' stop rule estimates its tail."""
    poly = A + 0.5 if free else (A + 1.0) * A + 0.5
    return math.exp(-2.0 * A) * poly / -math.expm1(-2.0 * A) / -math.expm1(-2.0 * gamma)


def reference_sum(geom, pair, free):
    """The primed Matsubara sum of ``geom`` in SI units, every mode by
    integrate_adaptive and the terms added by math.fsum."""
    gamma, zeta1 = reduced_temperature(geom), matsubara_frequency(1, geom.T_K)
    models = [model.at(geom.T_K) for model in pair]
    work, terms = _Workspace(), [-zeta3() / 8.0 if free else zeta3() / 8.0]
    n = 0  # the last mode integrated
    while tail((n + 1) * gamma, gamma, free) >= 1e-17 * zeta3() / 8.0:
        n += 1
    for m in range(1, n + 1):
        A = np.array([m * gamma])
        eps = [np.array([model.epsilon(m * zeta1)], dtype=float) for model in models]
        kinds = tuple(_IDEAL if e[0] == np.inf else _FINITE for e in eps)
        y_max = float(SPEC.y_max(A[0]))
        breaks = A[0] + _BREAK_OFFSETS
        value, _ = integrate_adaptive(
            lambda y: _mode_kernel(y[None], work, free, kinds, A, *eps)[0],
            np.append(breaks[breaks < y_max], y_max), rel_tol=SPEC.integral_rel_tol)
        terms.append(value)
    unit = free_energy_to_si(1.0, geom) if free else -pressure_to_si(1.0, geom)
    return math.fsum(terms) * unit


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(math.log(8e-3), math.log(500.0)).map(math.exp),
       T_K=st.floats(0.0, math.log(400.0)).map(math.exp),
       pair=st.sampled_from(sorted(PAIRS)), what=st.sampled_from(sorted(EVALUATE)))
# a long sum that interpolates past mode 128: Au-Cu at 1 um and 1 K
@example(gamma=2.74e-3, T_K=1.0, pair="Au-Cu", what="pressure")
# Au-Cu at 10 um and 300 K: the bound puts modes 4 and 5 below the
# default first floor, but not mode 1, so all five modes are integrated
@example(gamma=8.23, T_K=300.0, pair="Au-Cu", what="pressure")
# the bound at mode 1 lies below the first floor: every term reads 0
@example(gamma=72.4, T_K=300.0, pair="ideal-ideal", what="free-energy")
# every mode's integrand subnormal: the reference integrates none
@example(gamma=math.exp(5.90625), T_K=1.0, pair="Au-Au", what="pressure")
def test_the_sums_meet_a_plain_reference(gamma, T_K, pair, what):
    geom = Geometry(gamma * CODATA.hbar_c_eV_um / matsubara_frequency(1, T_K), T_K)
    res = EVALUATE[what](geom, *PAIRS[pair], SPEC)
    fast = res.pressure_mPa if what == "pressure" else res.free_energy_J_per_m2
    ref = reference_sum(geom, PAIRS[pair], what == "free-energy")
    assert abs(fast - ref) <= REL * abs(ref), (fast, ref, abs(fast - ref) / abs(ref))


@pytest.mark.parametrize("pair, what", [("Au-Cu", "free-energy"), ("Au-Cu", "pressure"),
                                        ("tabulated-Cu", "pressure")])
def test_long_sums_plan_once_and_meet_the_reference(pair, what, monkeypatch):
    # at 1 um and 1 K one plan of integer modes covers the sum: Au-Cu's
    # Chebyshev panels and the panel that holds its stop, where the terms
    # lie below 1e-13 of the sum, read their modes from it; the tabulated
    # side interpolates nothing, so every planned mode it sums carries weight
    import casimir.lifshitz as lifshitz

    plans, plan = [], lifshitz._plan

    def counted(ms, *args):
        plans.append(ms.dtype.kind)  # a Chebyshev sample plan takes float modes
        return plan(ms, *args)
    monkeypatch.setattr(lifshitz, "_plan", counted)
    geom = Geometry(1.0, 1.0)
    res = EVALUATE[what](geom, *PAIRS[pair], SPEC)
    assert plans.count("i") == 1
    fast = res.pressure_mPa if what == "pressure" else res.free_energy_J_per_m2
    ref = reference_sum(geom, PAIRS[pair], what == "free-energy")
    assert abs(fast - ref) <= REL * abs(ref), (fast, ref, abs(fast - ref) / abs(ref))
