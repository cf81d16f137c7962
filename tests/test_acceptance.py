"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The reference grids (six material pairs, 36 cells each) are
computed once per module and shared across criteria.

Criterion 2 fails for Al-Al (table 3) below 0.5 um: the grid comes from
measured permittivities, and the pure Drude form lacks aluminium's
interband absorption.  Criterion 8 starts each entropy ladder at 16 times
the Drude turnover temperature T_c, below which the entropy heads to zero,
and measures it against the Nernst-violating limit S_NV.
"""

import math
import time

import numpy as np
import pytest

from casimir.dielectric import (
    DrudeModel,
    DrudeParams,
    IdealMetal,
    MaterialDatabase,
    drude_epsilon,
    kramers_kronig_transform,
)
from casimir.golden import SEPARATIONS_UM, TABLES, TEMPERATURES_K, cell_tolerance
from casimir.lifshitz import (
    QuadratureSpec,
    casimir_pressure,
    lifshitz_variables,
    matsubara_term,
    reflection_te,
    reflection_tm,
    zeta3,
)
from casimir.quantities import CODATA, Geometry, reduced_temperature
from casimir.thermo import crossover_separation, free_energy, nernst_check

DB = MaterialDatabase.builtin()
MODELS = {label: DrudeModel(DB.get(label)) for label in ("Au", "Cu", "Al")}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def table_grid():
    """Computed pressures for every reference-table cell, plus the reversed
    material order for the mixed pairs (for the symmetry property)."""
    forward, reverse = {}, {}
    t0 = time.time()
    for tid, fx in TABLES.items():
        m1, m3 = MODELS[fx.pair[0]], MODELS[fx.pair[1]]
        for a in SEPARATIONS_UM:
            for T in TEMPERATURES_K:
                forward[(tid, a, T)] = casimir_pressure(Geometry(a, T), m1, m3)
                if fx.pair[0] != fx.pair[1]:
                    reverse[(tid, a, T)] = casimir_pressure(Geometry(a, T), m3, m1)
    return {"forward": forward, "reverse": reverse, "seconds": time.time() - t0}


def test_criterion_1_zero_mode_constant():
    value = zeta3() / 8.0
    ok = abs(value - 0.1502571129) <= 5e-11
    report("1 (zero-mode constant)", ok, f"zeta(3)/8 = {value:.12f}")
    assert ok


@pytest.mark.parametrize("table_id", sorted(TABLES))
def test_criterion_2_table_reproduction(table_grid, table_id):
    fx = TABLES[table_id]
    worst = (0.0, None)
    failures = []
    for a in SEPARATIONS_UM:
        for T in TEMPERATURES_K:
            res = table_grid["forward"][(table_id, a, T)]
            ref, _ = fx.reference(a, T)
            dev = abs(abs(res.pressure_mPa) - ref) / ref
            if dev > worst[0]:
                worst = (dev, (a, T))
            if dev > cell_tolerance(a):
                failures.append((a, T, dev))
    ok = not failures
    pair = "-".join(fx.pair)
    report(f"2 (table {table_id} {pair})", ok,
           f"worst dev {worst[0]:.2%} at (a={worst[1][0]} um, T={worst[1][1]} K); "
           f"grid took {table_grid['seconds']:.0f}s total, target < 600s")
    assert table_grid["seconds"] < 600.0
    assert ok, (
        f"cells out of tolerance: {failures}. The Drude surrogate sits below "
        f"the measured-data reference at the shortest separation for "
        f"Al-containing pairs; see the worst-deviation figure above.")


def test_criterion_3_prose_reductions(table_grid):
    cells = {(a, T): abs(table_grid["forward"][(1, a, T)].pressure_mPa)
             for a in (0.5, 2.0) for T in TEMPERATURES_K}
    red_cold_05 = 1.0 - cells[(0.5, 300.0)] / cells[(0.5, 1.0)]
    red_cold_20 = 1.0 - cells[(2.0, 300.0)] / cells[(2.0, 1.0)]
    red_warm_05 = 1.0 - cells[(0.5, 350.0)] / cells[(0.5, 300.0)]
    red_warm_20 = 1.0 - cells[(2.0, 350.0)] / cells[(2.0, 300.0)]
    checks = [
        ("0.5um 1K->300K", red_cold_05, 0.065, 0.005),
        ("2um 1K->300K", red_cold_20, 0.265, 0.010),
        ("0.5um 300K->350K", red_warm_05, 0.012, 0.003),
        ("2um 300K->350K", red_warm_20, 0.037, 0.003),
    ]
    bad = [(name, got) for name, got, want, tol in checks if abs(got - want) > tol]
    ok = not bad
    report("3 (quoted reductions)", ok,
           ", ".join(f"{name}: {got:.2%}" for name, got, _, _ in checks))
    assert ok, bad


def test_criterion_4_convergence_bookkeeping(table_grid):
    n = table_grid["forward"][(1, 0.16, 1.0)].n_terms_used
    ok = 15_000 <= n <= 40_000
    report("4 (term count at a=0.16um, T=1K)", ok, f"n_terms_used = {n}")
    assert ok


def test_criterion_5_crossover(table_grid):
    a_star = crossover_separation(MODELS["Au"], MODELS["Au"], 300.0, 350.0)
    diff_25 = (abs(table_grid["forward"][(1, 2.5, 350.0)].pressure_mPa)
               - abs(table_grid["forward"][(1, 2.5, 300.0)].pressure_mPa))
    diff_30 = (abs(table_grid["forward"][(1, 3.0, 350.0)].pressure_mPa)
               - abs(table_grid["forward"][(1, 3.0, 300.0)].pressure_mPa))
    ok = abs(a_star - 2.8) <= 0.3 and diff_25 < 0 and diff_30 > 0
    report("5 (temperature crossover)", ok,
           f"a* = {a_star:.2f} um; sign(g) at 2.5/3.0 um = "
           f"{np.sign(diff_25):+.0f}/{np.sign(diff_30):+.0f}")
    assert ok


def test_criterion_6_ideal_metal_oracle():
    hbar_c = CODATA.hbar_J_s * 2.99792458e8
    worst_pressure = 0.0
    for a in (0.5, 1.0, 2.0):
        res = casimir_pressure(Geometry(a, 1.0), IdealMetal(), IdealMetal())
        ideal = -math.pi**2 * hbar_c / (240.0 * (a * 1e-6) ** 4) * 1e3
        worst_pressure = max(worst_pressure, abs(res.pressure_mPa - ideal) / abs(ideal))
    worst_term = 0.0
    for m, a_um, T_K in ((1, 1.0, 300.0), (5, 1.0, 300.0), (2, 0.5, 77.0), (1, 2.0, 1.0)):
        geom = Geometry(a_um, T_K)
        lower = m * reduced_temperature(geom)
        got = matsubara_term(m, geom, IdealMetal(), IdealMetal())
        n = np.arange(1, max(200, int(18.0 / (2.0 * lower)) + 1), dtype=float)
        na = n * lower
        oracle = 2.0 * math.fsum(
            (np.exp(-2.0 * na) * (2.0 * na**2 + 2.0 * na + 1.0) / (4.0 * n**3)).tolist())
        worst_term = max(worst_term, abs(got - oracle) / oracle)
    ok = worst_pressure <= 5e-3 and worst_term <= 1e-10
    report("6 (ideal-metal oracles)", ok,
           f"pressure dev {worst_pressure:.2e} (tol 5e-3), "
           f"term dev {worst_term:.2e} (tol 1e-10)")
    assert ok


def test_criterion_7_thermodynamic_consistency():
    spec = QuadratureSpec(sum_rel_tol=1e-10)
    au = MODELS["Au"]
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        h = a / 1000.0
        for T in (1.0, 300.0, 350.0):
            f_lo = free_energy(Geometry(a - h, T), au, au, spec).free_energy_J_per_m2
            f_hi = free_energy(Geometry(a + h, T), au, au, spec).free_energy_J_per_m2
            fd_mPa = -(f_hi - f_lo) / (2.0 * h * 1e-6) * 1e3
            p = casimir_pressure(Geometry(a, T), au, au, spec).pressure_mPa
            worst = max(worst, abs(fd_mPa - p) / abs(p))
    ok = worst <= 1e-3
    report("7 (pressure = -dF/da)", ok, f"worst rel dev {worst:.2e} over 9 grid points")
    assert ok


def drude_turnover_K(params: DrudeParams, a_um: float) -> float:
    """T_c = nu (hbar c/(omega_p a))^2 / (2 pi k_B): the temperature scale
    on which the fixed-relaxation Drude entropy turns toward zero."""
    ratio = CODATA.hbar_c_eV_um / (params.omega_p_eV * a_um)
    return params.nu_eV * ratio**2 / (2.0 * math.pi * CODATA.k_B_eV_per_K)


def test_criterion_8_nernst_property():
    # S/S_NV is a function of T/T_c alone; the ladder starts at 16 T_c,
    # where it is about 0.32, inside the |S_NV|/2 threshold
    rows = []
    all_monotone = True
    all_threshold = True
    t0 = time.time()
    for label in ("Au", "Cu", "Al"):
        model = MODELS[label]
        for a in (0.5, 1.0, 2.0):
            t_min = 16.0 * drude_turnover_K(DB.get(label), a)
            rep = nernst_check(Geometry(a, t_min), model, model)
            ratios = ", ".join(f"{s / rep.reference_entropy_J_per_m2_K:.4f}"
                               for s in rep.entropies_J_per_m2_K)
            rows.append(f"{label}-{label} a={a}: S/S_NV = {ratios} at T = "
                        f"{', '.join(f'{t:.3g}' for t in rep.temperatures_K)} K, "
                        f"monotone={rep.monotone}")
            all_monotone &= rep.monotone
            all_threshold &= abs(rep.entropies_J_per_m2_K[0]) <= rep.threshold_J_per_m2_K
    ok = all_monotone and all_threshold
    report("8 (entropy toward T=0)", ok,
           f"monotone decrease {'holds' if all_monotone else 'violated'}; "
           f"|S(16 T_c)| <= |S_NV|/2 {'met' if all_threshold else 'not met'}; "
           f"took {time.time() - t0:.0f}s")
    for row in rows:
        print("  " + row)
    assert ok, "entropy ladders:\n  " + "\n  ".join(rows)


def test_criterion_9_kk_self_consistency():
    au = DB.get("Au")
    w = np.logspace(np.log10(1.5e11), np.log10(1.5e18), 7 * 80)
    w_eV = w / CODATA.eV_to_rad_per_s
    eps2 = au.omega_p_eV**2 * au.nu_eV / (w_eV * (w_eV**2 + au.nu_eV**2))
    worst = 0.0
    for z_eV in np.logspace(-2.0, 2.0, 13):
        got = kramers_kronig_transform(w, eps2, z_eV * CODATA.eV_to_rad_per_s)
        want = drude_epsilon(au, z_eV)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 5e-3
    report("9 (KK self-consistency)", ok,
           f"worst rel dev {worst:.2e} over zeta in [1e-2, 1e2] eV (tol 5e-3)")
    assert ok


def test_criterion_10_property_suites(table_grid):
    rng = np.random.default_rng(20240813)
    n = 100_000
    eps = np.exp(rng.uniform(0.0, math.log(1e8), n)) + 1.0
    p = np.exp(rng.uniform(0.0, math.log(1e6), n))
    s, _ = lifshitz_variables(eps, eps, p)
    dte = reflection_te(s, p)
    dtm = reflection_tm(eps, s, p)
    bounds_ok = bool(np.all((dte >= 0) & (dte < 1) & (dtm >= 0) & (dtm < 1)))

    symmetry_ok = all(
        table_grid["forward"][key].pressure_mPa == table_grid["reverse"][key].pressure_mPa
        for key in table_grid["reverse"])

    bracketing_ok = True
    pure = {"Au": 1, "Cu": 2, "Al": 3}
    for tid, (lab1, lab3) in ((4, ("Au", "Cu")), (5, ("Au", "Al")), (6, ("Cu", "Al"))):
        for a in SEPARATIONS_UM:
            for T in TEMPERATURES_K:
                p_mixed = abs(table_grid["forward"][(tid, a, T)].pressure_mPa)
                p_11 = abs(table_grid["forward"][(pure[lab1], a, T)].pressure_mPa)
                p_33 = abs(table_grid["forward"][(pure[lab3], a, T)].pressure_mPa)
                bracketing_ok &= min(p_11, p_33) <= p_mixed <= max(p_11, p_33)

    dominance_ok = all(
        abs(table_grid["forward"][(3, a, T)].pressure_mPa)
        >= abs(table_grid["forward"][(1, a, T)].pressure_mPa)
        for a in SEPARATIONS_UM for T in TEMPERATURES_K)

    decay_ok = all(
        abs(table_grid["forward"][(tid, SEPARATIONS_UM[i + 1], T)].pressure_mPa)
        < abs(table_grid["forward"][(tid, SEPARATIONS_UM[i], T)].pressure_mPa)
        for tid in TABLES for T in TEMPERATURES_K
        for i in range(len(SEPARATIONS_UM) - 1))

    hbar_c = CODATA.hbar_J_s * 2.99792458e8
    zero_bound_ok, ideal_bound_ok = True, True
    for tid in TABLES:
        for a in SEPARATIONS_UM:
            for T in TEMPERATURES_K:
                res = table_grid["forward"][(tid, a, T)]
                zero_bound_ok &= abs(res.pressure_mPa) >= abs(res.zero_mode_mPa)
                if T == 1.0:
                    ideal = math.pi**2 * hbar_c / (240.0 * (a * 1e-6) ** 4) * 1e3
                    ideal_bound_ok &= abs(res.pressure_mPa) <= ideal

    zeta_grid = np.logspace(-2, -8, 13)
    eq10_ok = True
    for label in ("Au", "Cu", "Al"):
        params = DB.get(label)
        vals = zeta_grid**2 * (drude_epsilon(DB.get(label), zeta_grid) - 1.0)
        eq10_ok &= bool(np.all(np.diff(vals) < 0))
        eq10_ok &= bool(np.all(vals <= params.omega_p_eV**2 * zeta_grid
                               / params.nu_eV * (1 + 1e-12)))

    # heating weakens the attraction below the crossover, strengthens it
    # above, and never beats the near-zero-temperature value at short range
    temp_pattern_ok, cold_bound_ok = True, True
    for tid in TABLES:
        for a in SEPARATIONS_UM:
            p1 = abs(table_grid["forward"][(tid, a, 1.0)].pressure_mPa)
            p300 = abs(table_grid["forward"][(tid, a, 300.0)].pressure_mPa)
            p350 = abs(table_grid["forward"][(tid, a, 350.0)].pressure_mPa)
            if a <= 2.5:
                temp_pattern_ok &= p350 < p300
                cold_bound_ok &= p300 < p1
            if a >= 3.0:
                temp_pattern_ok &= p350 > p300

    parts = {
        "reflection bounds (1e5 samples)": bounds_ok,
        "pair symmetry exact": symmetry_ok,
        "mixed-pair bracketing": bracketing_ok,
        "plasma-frequency dominance": dominance_ok,
        "monotone distance decay": decay_ok,
        "|P| >= |zero mode|": zero_bound_ok,
        "|P| <= ideal metal at 1K": ideal_bound_ok,
        "static TE limit bound": eq10_ok,
        "temperature sign pattern": temp_pattern_ok,
        "room T weaker than 1 K for a <= 2.5um": cold_bound_ok,
    }
    ok = all(parts.values())
    report("10 (property suites)", ok,
           "; ".join(f"{name}: {'ok' if good else 'FAIL'}" for name, good in parts.items()))
    assert ok, parts
