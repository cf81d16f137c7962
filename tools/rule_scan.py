"""Derive the fixed rule pairs of the mode integrals: the ladder of rungs for
the pressure, and the range of the A-scaled panels on both integrands.

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
Below the first rung no candidate is trusted: every one certifies some
modes there that are off by more than 1e-12.  The candidates use only the
8-, 12- and 16-node Laguerre and 8- and 12-node Legendre node sets, because
every set costs import time.  The script prints every reach, the ladder, and
per rung and pair kind the share of modes certified and the worst certified
error; then that table again for the free-energy integrand, graded the same
way against its own adaptive reference on the pressure ladder (a
free-energy mode the pair rejects takes the adaptive quadrature).

Last it scans the A-scaled panels (``casimir.lifshitz._scaled_rule(k)``:
breaks at A*2^j for the k values of j with A*2^j below 1, then 1, 2 and 4
from A) from A = 1e-7 to 2 on both integrands, below the floors and past
the cuts of the ladders, so it groups the modes by k itself.  A band's cost is the mean kernel nodes per mode: the rule's
nodes, plus, for a mode it does not certify, the nodes the adaptive
quadrature spends on it at integral_rel_tol 1e-12 (below the first rung the
ladder is the adaptive quadrature alone).  An integrand's cut is the lowest
rung from which the ladder costs no more than the scaled panels in every
band the panels' scan reaches; below the cut the panels replace the ladder.
Its floor is 3% above the highest A below the cut at which the panels miss
a scanned mode (not certified, or off by more than 1e-13), rounded up to two
digits, or the scan's lowest A if they miss none; below the floor modes take
the adaptive quadrature.  The (floor, cut) pairs printed last are
``casimir.lifshitz._SCALED``.

    PYTHONPATH=src python tools/rule_scan.py
"""

from __future__ import annotations

import math

import numpy as np

from casimir.dielectric import (DrudeModel, IdealMetal, MaterialDatabase, PermittivityTable,
                                TabulatedModel, drude_epsilon)
from casimir.lifshitz import (QuadratureSpec, _BREAK_OFFSETS, _Workspace, _kernel_sides,
                              _mode_kernel, _rule_pair, _scaled_rule)
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
SCALED_LOWERS = np.geomspace(1e-7, 2.0, 480)


def modes(pair, a_um, lowers):
    """(A, eps1, eps3) of modes at lower limits ``lowers`` and gap a."""
    geom = Geometry(a_um, 1.0)
    zeta = lowers / reduced_temperature(geom) * matsubara_frequency(1, geom.T_K)
    return (lowers, *(np.asarray(model.epsilon(zeta), dtype=float) for model in pair))


def kernel(y, work, free_energy, A, eps1, eps3):
    """_mode_kernel on modes with permittivities eps1 and eps3 (inf for an
    ideal metal), whose sides it classifies as a block of the sum does."""
    return _mode_kernel(y, work, free_energy, _kernel_sides(eps1, eps3), A, eps1, eps3)


def reference(A, eps1, eps3, free_energy, rel_tol=1e-14):
    """Mode integrals by integrate_adaptive at ``rel_tol``, one call per
    mode, and the kernel nodes it spent on each."""
    spec = QuadratureSpec(integral_rel_tol=rel_tol)
    work, values, nodes = _Workspace(), np.empty(A.size), np.zeros(A.size)
    for i, y_max in enumerate(spec.y_max(A)):
        starts = A[i] + _BREAK_OFFSETS
        row = [a[i:i + 1] for a in (A, eps1, eps3)]

        def f(y):
            nodes[i] += y.size
            return kernel(y[None], work, free_energy, *row)[0]
        values[i] = integrate_adaptive(f, np.append(starts[starts < y_max], y_max),
                                       rel_tol=spec.integral_rel_tol)[0]
    return values, nodes


def fixed(pair_rule, A, eps1, eps3, free_energy):
    """(value, error) of every mode by one fixed rule pair."""
    dy, weights = pair_rule
    fx = kernel(A[:, None] + dy, _Workspace(), free_energy, A, eps1, eps3)
    value, check = np.einsum("rn,kn->kr", fx, weights)
    return value, np.abs(value - check)


def scaled(A, eps1, eps3, free_energy):
    """(value, error, nodes) of every mode by the A-scaled pair of its panel
    count k: A*2^j first reaches 1 at j = k = 1 - e, with A = f*2^e and f in
    [0.5, 1)."""
    out, counts = np.zeros((3, A.size)), 1 - np.frexp(A)[1]
    for k in np.unique(counts).tolist():
        rows = counts == k
        y0, dy, w0, dw = _scaled_rule(k)
        lower = A[rows, None]
        offsets, weights = y0 + lower * dy, w0 + lower[..., None] * dw
        fx = kernel(lower + offsets, _Workspace(), free_energy, A[rows], eps1[rows], eps3[rows])
        value, check = np.einsum("rn,rkn->kr", fx, weights)
        out[:, rows] = value, np.abs(value - check), np.full(value.size, y0.size)
    return out


def two_digits_up(x: float) -> float:
    """x rounded up to two significant digits."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 1)
    return round(math.ceil(x / scale) * scale, 12)


def print_table(ladder, scan) -> None:
    """Per rung of ``ladder`` and pair kind, the certified share and the
    worst certified relative error of ``scan``."""
    tops = [a for a, _ in ladder[1:]] + [math.inf]
    print(f"{'':>52}" + "".join(f"{kind:>20}" for kind in PAIRS))
    for (lo, name), hi in zip(ladder, tops):
        band = (LOWERS >= lo) & (LOWERS < hi)
        cells = []
        for kind in PAIRS if name in scan else ():
            ok, err = (x.reshape(len(GAPS_UM), -1)[:, band] for x in scan[name][kind])
            worst = f"{np.nanmax(err):8.1e}" if ok.any() else f"{'-':>8}"
            cells.append(f"{ok.mean():6.1%} {worst}")
        print(f"{lo:>6g}: {name:<44}" + "".join(f"{c:>20}" for c in cells))


def graded(value, error, ref):
    """(certified, error if certified) of every mode."""
    ok = error <= 1e-12 * np.abs(value)
    return ok, np.where(ok, np.abs(value - ref) / np.abs(ref), np.nan)


def scaled_range(ladder, nodes, scan, scan_scaled):
    """(floor, cut) of the A-scaled panels on one integrand, with the table
    of band costs that sets the cut (see the module docstring)."""
    tops = [a for a, _ in ladder[1:]] + [math.inf]
    kinds = list(PAIRS)

    def band_cost(lowers, cost, lo, hi):
        band = np.tile((lowers >= lo) & (lowers < hi) & (lowers <= SCALED_LOWERS[-1]),
                       len(PAIRS) * len(GAPS_UM))
        return cost[band].mean()
    family = np.concatenate([s_nodes + (ok == 0) * adaptive
                             for ok, _, s_nodes, adaptive in map(scan_scaled.get, kinds)])
    print(f"{'band':>15}  {'ladder nodes':>12}  {'scaled nodes':>12}")
    cheaper = []
    for (lo, name), hi in zip(ladder, tops):
        if lo > SCALED_LOWERS[-1]:
            break
        if name in scan:
            rung = np.concatenate([nodes[name] + (scan[name][kind][0] == 0)
                                   * scan["adaptive"][kind] for kind in kinds])
            lowers = LOWERS
        else:  # below the first rung: the adaptive quadrature alone
            rung = np.concatenate([scan_scaled[kind][3] for kind in kinds])
            lowers = SCALED_LOWERS
        costs = band_cost(lowers, rung, lo, hi), band_cost(SCALED_LOWERS, family, lo, hi)
        print(f"{lo:>6g} - {hi:<6g}  {costs[0]:12.1f}  {costs[1]:12.1f}")
        cheaper.append((lo, costs[0] <= costs[1]))
    cut = next(lo for lo, _ in cheaper[1:] if all(ok for a, ok in cheaper if a >= lo))
    every_A = np.tile(SCALED_LOWERS, len(PAIRS) * len(GAPS_UM))
    miss = np.concatenate([~(np.nan_to_num(err, nan=1.0) <= 1e-13)
                           for _, err, _, _ in map(scan_scaled.get, kinds)])
    worst = every_A[miss & (every_A < cut)].max(initial=0.0)
    floor = two_digits_up(1.03 * worst) if worst else float(SCALED_LOWERS[0])
    print(f"{'':>15}" + "".join(f"{kind:>20}" for kind in kinds))
    band = (SCALED_LOWERS >= floor) & (SCALED_LOWERS < cut)
    cells = []
    for kind in kinds:
        ok, err = (x.reshape(len(GAPS_UM), -1)[:, band] for x in scan_scaled[kind][:2])
        cells.append(f"{ok.mean():6.1%} {np.nanmax(err):8.1e}")
    print(f"{'certified':>15}" + "".join(f"{c:>20}" for c in cells))
    return floor, cut


def main() -> None:
    rules = {name: _rule_pair(nv, nc, np.array(panels))
             for name, (nv, nc, panels) in CANDIDATES.items()}
    # scans[free_energy][pair][pair kind]: (certified, error if certified), per mode;
    # scans[free_energy]["adaptive"][pair kind]: adaptive nodes per mode
    scans = {free: {name: {} for name in (*rules, "adaptive")} for free in (False, True)}
    # scaled_scans[free_energy][pair kind]: (certified, error if certified, nodes,
    # adaptive nodes), per mode
    scaled_scans = {free: {} for free in (False, True)}
    for kind, pair in PAIRS.items():
        for a_um in GAPS_UM:
            A, eps1, eps3 = modes(pair, a_um, LOWERS)
            As, eps1s, eps3s = modes(pair, a_um, SCALED_LOWERS)
            for free, scan in scans.items():
                ref = reference(A, eps1, eps3, free)[0]
                rows = [reference(A, eps1, eps3, free, 1e-12)[1]]
                for name, rule in rules.items():
                    rows.append(graded(*fixed(rule, A, eps1, eps3, free), ref))
                for name, row in zip(("adaptive", *rules), rows):
                    old = scan[name].get(kind)
                    scan[name][kind] = row if old is None else np.append(old, row, axis=-1)
                value, error, s_nodes = scaled(As, eps1s, eps3s, free)
                row = (*graded(value, error, reference(As, eps1s, eps3s, free)[0]), s_nodes,
                       reference(As, eps1s, eps3s, free, 1e-12)[1])
                old = scaled_scans[free].get(kind)
                scaled_scans[free][kind] = row if old is None else np.append(old, row, axis=1)
    scan = scans[False]
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
    print_table(ladder, scan)
    print("\nthe same ladder on the free-energy integrand")
    print_table(ladder, scans[True])
    ranges = {}
    for free, what in ((False, "pressure"), (True, "free-energy")):
        print(f"\nA-scaled panels on the {what} integrand, {SCALED_LOWERS.size} lower limits "
              f"from {SCALED_LOWERS[0]:g} to {SCALED_LOWERS[-1]:g}: mean kernel nodes per "
              "mode by band, then per pair kind from the floor to the cut the certified "
              "share and the worst certified relative error")
        ranges[free] = scaled_range(ladder, nodes, scans[free], scaled_scans[free])
        print(f"floor {ranges[free][0]:g}, cut {ranges[free][1]:g}")
    print(f"\n_SCALED = {{False: {ranges[False]}, True: {ranges[True]}}}")


if __name__ == "__main__":
    main()
