"""Replay of the benchmark's recorded outputs for seeds 0 and 1.

``perfbench/run.py`` checks every output of a run against
``perfbench/recorded/<workload>-<seed>.json``: within 1e-12 relative, with
the same number of Matsubara terms.  These tests recompute each cell that
returned there the way ``perfbench/worker.py`` does, so a change that moves
a result past that bound fails the test suite first; the Bloch-Grueneisen
entropies also through models that take nu(T) themselves, which must give
the same bits.  The ``warm_grid`` cells recorded as a ``QuadratureError``
are evaluated now and must return a converged, finite, attractive pressure
no weaker than its static term.  The ``cli_tabulated`` sweeps run in
process through ``casimir.cli.main`` on the recorded ``kk`` tables, written
back to CSV, and must print what was recorded to 1e-11 relative, one unit in
the last printed digit.  The recorded ``warm_grid`` cells that make no mode
block are counted too.  The files are only read here.
"""

import json
import math
from pathlib import Path

import pytest

import casimir
from casimir import lifshitz
from casimir.cli import EXIT_OK, main
from casimir.quantities import reduced_temperature

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "recorded"
SEEDS = (0, 1)
REL_TOL = 1e-12
PRINTED_REL_TOL = 1e-11

DB = casimir.MaterialDatabase.builtin()
# one model object per label, as the benchmark builds them: a same-label
# pair passes one object as both sides
MODELS = {label: casimir.DrudeModel(DB.get(label)) for label in ("Au", "Cu", "Al")}
MODELS["ideal"] = casimir.IdealMetal()


def close(x: float, y: float, rel_tol: float = REL_TOL) -> bool:
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def record(workload: str, seed: int) -> dict:
    with open(RECORDED / f"{workload}-{seed}.json") as fh:
        return json.load(fh)


def returned_cells(workload: str, seed: int, returned: bool = True):
    """(input, output) of every recorded evaluation that returned, or with
    ``returned`` false of every one that raised."""
    rec = record(workload, seed)
    cells = [(item, out) for item, out in zip(rec["inputs"], rec["outputs"])
             if isinstance(out, dict) is not returned]
    assert cells
    return cells


@pytest.mark.parametrize("workload", ["cold_sum", "warm_grid"])
def test_pressures_match_the_record(workload):
    for seed in SEEDS:
        for (labels, a_um, T_K), (pressure, zero_mode, n_terms) in returned_cells(workload, seed):
            res = casimir.casimir_pressure(casimir.Geometry(a_um, T_K), *map(MODELS.get, labels))
            assert res.n_terms_used == n_terms, (seed, labels, a_um, T_K)
            assert close(res.pressure_mPa, pressure), (seed, labels, a_um, T_K)
            assert close(res.zero_mode_mPa, zero_mode), (seed, labels, a_um, T_K)


def test_recorded_quadrature_errors_now_converge():
    # the warm_grid cells recorded as QuadratureError (terms near 1e-319
    # that a purely relative target could not certify) are evaluated now
    cells = [cell for seed in SEEDS for cell in returned_cells("warm_grid", seed, returned=False)]
    assert len(cells) == 23 and all(out == {"error": "QuadratureError"} for _, out in cells)
    for (labels, a_um, T_K), _ in cells:
        res = casimir.casimir_pressure(casimir.Geometry(a_um, T_K), *map(MODELS.get, labels))
        p = res.pressure_mPa
        assert res.converged and math.isfinite(p) and p < 0, (labels, a_um, T_K)
        assert abs(p) >= abs(res.zero_mode_mPa), (labels, a_um, T_K)


def test_warm_grid_cells_below_the_floor_make_no_block(monkeypatch):
    # a cell makes no block exactly when the unit-reflection bound at m = 1,
    # e^{-2g}(g^2 + g + 1/2)/(1 - e^{-2g}) at g = gamma, lies below the first
    # block's floor: every mode it would sum then reads 0
    blocks = []

    def counted(*args):
        blocks.append(args[0].size)
        return mode_block(*args)
    mode_block = lifshitz._mode_block
    monkeypatch.setattr(lifshitz, "_mode_block", counted)
    spec = casimir.QuadratureSpec()
    floor = spec.integral_rel_tol * spec.sum_rel_tol * casimir.zeta3() / 8.0
    blockless = {}
    for seed in SEEDS:
        made, below = [], []
        for labels, a_um, T_K in record("warm_grid", seed)["inputs"]:
            geom = casimir.Geometry(a_um, T_K)
            before = len(blocks)
            casimir.casimir_pressure(geom, *map(MODELS.get, labels))
            made.append(len(blocks) > before)
            g = reduced_temperature(geom)
            below.append(math.exp(-2.0 * g) * (g * g + g + 0.5) / -math.expm1(-2.0 * g) <= floor)
        assert [not m for m in made] == below
        blockless[seed] = sum(below)
    assert blockless == {0: 262, 1: 261}


def test_entropies_match_the_record():
    bloch_gruneisen = casimir.BlochGruneisenParams()
    # a model object per label, as for MODELS, that takes nu(T) itself
    bg_models = {label: casimir.DrudeModel(DB.get(label), bloch_gruneisen)
                 for label in ("Au", "Cu", "Al")}
    for seed in SEEDS:
        for (labels, a_um, T_K, with_bg), (entropy,) in returned_cells("entropy_ladder", seed):
            geom = casimir.Geometry(a_um, T_K)
            res = casimir.entropy(geom, *map(MODELS.get, labels))
            if with_bg:
                def models_at(t_K, labels=labels):
                    nu = casimir.bloch_gruneisen_nu(bloch_gruneisen, t_K)
                    return tuple(casimir.DrudeModel(casimir.DrudeParams(
                        MODELS[label].params.omega_p_eV, nu, label)) for label in labels)
                res = casimir.entropy(geom, *map(MODELS.get, labels), models_at=models_at)
                own = casimir.entropy(geom, *map(bg_models.get, labels))
                assert own.entropy_J_per_m2_K == res.entropy_J_per_m2_K, (seed, labels, a_um, T_K)
            assert close(res.entropy_J_per_m2_K, entropy), (seed, labels, a_um, T_K, with_bg)


@pytest.mark.parametrize("seed", SEEDS)
def test_tabulated_sweeps_match_the_record(seed, tmp_path, capsys):
    rec = record("cli_tabulated", seed)
    labels = [label for label, _, _ in rec["inputs"]["absorbers"]]
    tables, sweeps = {}, []
    for invocation, out in zip(rec["inputs"]["invocations"], rec["outputs"]):
        if invocation[0] == "kk":  # the rows of the table `casimir kk` wrote
            tables[invocation[1]] = path = tmp_path / f"eps{invocation[1]}.csv"
            path.write_text("\n".join(["zeta_rad_s,eps_izeta", *map(",".join, out)]) + "\n")
        else:
            sweeps.append((invocation, out))
    assert len(tables) == len(labels) and sweeps
    for (_, i, j, a_um, T_K), rows in sweeps:
        argv = ["sweep", "--pair", f"{labels[i]},{labels[j]}", "--eps1", str(tables[i]),
                "--eps3", str(tables[j]), "--a", ",".join(map(repr, a_um)),
                "--T", ",".join(map(repr, T_K))]
        assert main(argv) == EXIT_OK, argv
        printed = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert len(printed) == len(rows) == len(a_um) * len(T_K), argv
        for row, ref in zip(printed, rows):
            assert len(row) == len(ref), argv
            for x, y in zip(row, ref):
                assert x == y or close(float(x), float(y), PRINTED_REL_TOL), (argv, row, ref)
