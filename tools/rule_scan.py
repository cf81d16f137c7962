"""Derive the ladder of fixed rule pairs for the pressure mode integrals.

Each candidate pair is built by ``casimir.lifshitz._rule_pair``: a value rule
(12-node Gauss-Legendre on each panel next to A, then an n_value-node
Gauss-Laguerre tail) and a coarser check rule (8-node panels and an
n_check-node tail).  A mode integral depends only on its lower limit A and
the permittivities at zeta = A c / (2a), so the scan covers A and the gap a,
not the temperature, for every pair kind below, and compares each pair with
``integrate_adaptive`` at integral_rel_tol 1e-14.  A pair's reach is the A
above which it certifies every scanned mode (|value - check| <= 1e-12
|value|, the default integral_rel_tol) with a value within 1e-13 of the
reference.  Going down in A, each rung is the cheapest pair that reaches
below the rung above it, from 3% above its reach rounded up to two digits.
Below the first rung no pair is trusted: every pair certifies some modes
there that are off by more than 1e-12, so those modes take the adaptive
quadrature.  The candidates use only the 8-, 12- and 16-node Laguerre and
8- and 12-node Legendre node sets, because every set costs import time.
The script prints every reach, the ladder, and per rung and pair kind the
share of modes certified and the worst certified error.

    PYTHONPATH=src python tools/rule_scan.py
"""

from __future__ import annotations

import math

import numpy as np

from casimir.dielectric import (DrudeModel, IdealMetal, MaterialDatabase, PermittivityTable,
                                TabulatedModel, drude_epsilon)
from casimir.lifshitz import (QuadratureSpec, _BREAK_OFFSETS, _Workspace, _mode_kernel,
                              _rule_pair)
from casimir.quadrature import integrate_adaptive
from casimir.quantities import Geometry, matsubara_frequency, reduced_temperature

DB = MaterialDatabase.builtin()
AU, CU, AL = (DrudeModel(DB.get(label)) for label in ("Au", "Cu", "Al"))
TABLE_ZETA_EV = np.logspace(-2, 2, 9)
TAB = TabulatedModel(PermittivityTable(TABLE_ZETA_EV, drude_epsilon(DB.get("Al"), TABLE_ZETA_EV)),
                     low_freq=DrudeModel(DB.get("Au")))
NEAR_ZETA_EV = np.logspace(-4, 2, 7)
NEAR_VACUUM = TabulatedModel(PermittivityTable(NEAR_ZETA_EV, np.full(7, 1.0 + 1e-12)),
                             low_freq=DrudeModel(DB.get("Au")))
PAIRS = {"Au-Au": (AU, AU), "Au-Cu": (AU, CU), "Au-Al": (AU, AL), "Al-Al": (AL, AL),
         "Au-ideal": (AU, IdealMetal()), "ideal-ideal": (IdealMetal(), IdealMetal()),
         "tabulated-Cu": (TAB, CU), "near-vacuum-Au": (NEAR_VACUUM, AU)}
GAPS_UM = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0)

CANDIDATES = {  # name: (tail value nodes, tail check nodes, panel offsets from A)
    "Laguerre 12/8": (12, 8, (0.0,)),
    "Laguerre 16/12": (16, 12, (0.0,)),
    "panels 0.7, tail 16/12": (16, 12, (0.0, 0.7)),
    "panels 1, tail 16/12": (16, 12, (0.0, 1.0)),
    "panels .5 1.5, tail 16/12": (16, 12, (0.0, 0.5, 1.5)),
    "panels .2 .7 2, tail 16/12": (16, 12, (0.0, 0.2, 0.7, 2.0)),
    "panels .1 .3 .75 2, tail 16/12": (16, 12, (0.0, 0.1, 0.3, 0.75, 2.0)),
    "panels .03 .1 .3 .75 2, tail 16/12": (16, 12, (0.0, 0.03, 0.1, 0.3, 0.75, 2.0)),
    "panels .01 .05 .2 .7 2 4, tail 12/8": (12, 8, (0.0, 0.01, 0.05, 0.2, 0.7, 2.0, 4.0)),
    "panels .005 .02 .07 .25 .75 2 4, tail 12/8": (12, 8, (0.0, 0.005, 0.02, 0.07, 0.25, 0.75,
                                                          2.0, 4.0)),
}
LOWERS = np.geomspace(0.0008, 40.0, 700)


def modes(pair, a_um, lowers):
    """(A, eps1, eps3) of modes at lower limits ``lowers`` and gap a."""
    geom = Geometry(a_um, 1.0)
    zeta = lowers / reduced_temperature(geom) * matsubara_frequency(1, geom.T_K)
    return (lowers, *(np.asarray(model.epsilon(zeta), dtype=float) for model in pair))


def reference(A, eps1, eps3):
    """Mode integrals by integrate_adaptive at integral_rel_tol 1e-14."""
    spec = QuadratureSpec(integral_rel_tol=1e-14)
    breaks = np.full((A.size, _BREAK_OFFSETS.size + 1), np.nan)
    for row, (start, y_max) in enumerate(zip(A, spec.y_max(A))):
        starts = start + _BREAK_OFFSETS
        starts = starts[starts < y_max]
        breaks[row, :starts.size + 1] = np.append(starts, y_max)
    work = _Workspace()
    return integrate_adaptive(lambda y: _mode_kernel(y, work, False, A, eps1, eps3), breaks,
                              rel_tol=spec.integral_rel_tol)[0]


def fixed(pair_rule, A, eps1, eps3):
    """(value, error) of every mode by one fixed rule pair."""
    dy, weights = pair_rule
    fx = _mode_kernel(A[:, None] + dy, _Workspace(), False, A, eps1, eps3)
    value, check = np.einsum("rn,kn->kr", fx, weights)
    return value, np.abs(value - check)


def two_digits_up(x: float) -> float:
    """x rounded up to two significant digits."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 1)
    return round(math.ceil(x / scale) * scale, 12)


def main() -> None:
    rules = {name: _rule_pair(nv, nc, np.array(panels))
             for name, (nv, nc, panels) in CANDIDATES.items()}
    scan = {name: {} for name in rules}  # pair kind: (certified, error if certified), per mode
    for kind, pair in PAIRS.items():
        for a_um in GAPS_UM:
            A, eps1, eps3 = modes(pair, a_um, LOWERS)
            ref = reference(A, eps1, eps3)
            for name, rule in rules.items():
                value, error = fixed(rule, A, eps1, eps3)
                ok = error <= 1e-12 * np.abs(value)
                err = np.where(ok, np.abs(value - ref) / np.abs(ref), np.nan)
                old = scan[name].get(kind, np.zeros((2, 0)))
                scan[name][kind] = np.append(old, [ok, err], axis=1)
    nodes = {name: rule[0].size for name, rule in rules.items()}
    bad = {name: np.concatenate([~(np.nan_to_num(err, nan=1.0) <= 1e-13)
                                 for _, err in scan[name].values()]) for name in rules}
    every_A = np.tile(LOWERS, len(PAIRS) * len(GAPS_UM))
    reach = {name: every_A[bad[name]].max(initial=0.0) for name in rules}
    print(f"{len(PAIRS)} pair kinds x {len(GAPS_UM)} gaps x {LOWERS.size} lower limits "
          f"from {LOWERS[0]:g} to {LOWERS[-1]:g}")
    for name in rules:
        print(f"  {name:<44} {nodes[name]:4d} nodes  reach {reach[name]:.4g}")
    ladder = []  # (lowest A, name), from the top
    for name in sorted(rules, key=lambda name: (nodes[name], reach[name])):
        if not ladder or reach[name] < reach[ladder[-1][1]]:
            ladder.append((two_digits_up(1.03 * reach[name]), name))
    ladder.reverse()
    print("\nladder (lowest A: pair), then per pair kind the certified share and "
          "the worst certified relative error")
    ladder.insert(0, (0.0, "adaptive quadrature"))
    tops = [a for a, _ in ladder[1:]] + [math.inf]
    print(f"{'':>52}" + "".join(f"{kind:>20}" for kind in PAIRS))
    for (lo, name), hi in zip(ladder, tops):
        band = (LOWERS >= lo) & (LOWERS < hi)
        cells = []
        for kind in PAIRS if name in scan else ():
            ok, err = (x.reshape(len(GAPS_UM), -1)[:, band] for x in scan[name][kind])
            cells.append(f"{ok.mean():6.1%} {np.nanmax(err, initial=0.0):8.1e}")
        print(f"{lo:>6g}: {name:<44}" + "".join(f"{c:>20}" for c in cells))


if __name__ == "__main__":
    main()
