"""Replay of the benchmark's recorded outputs for seed 0.

``perfbench/run.py`` checks every output of a run against
``perfbench/recorded/<workload>-<seed>.json``: within 1e-12 relative, with
the same number of Matsubara terms.  These tests recompute each cell that
returned there the way ``perfbench/worker.py`` does, so a change that moves
a result past that bound fails the test suite first.  The files are only
read here.
"""

import json
from pathlib import Path

import pytest

import casimir

RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "recorded"
REL_TOL = 1e-12

DB = casimir.MaterialDatabase.builtin()
# one model object per label, as the benchmark builds them: a same-label
# pair passes one object as both sides
MODELS = {label: casimir.DrudeModel(DB.get(label)) for label in ("Au", "Cu", "Al")}
MODELS["ideal"] = casimir.IdealMetal()


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def returned_cells(workload: str):
    """(input, output) of every recorded evaluation that returned."""
    with open(RECORDED / f"{workload}-0.json") as fh:
        record = json.load(fh)
    cells = [(item, out) for item, out in zip(record["inputs"], record["outputs"])
             if not isinstance(out, dict)]
    assert cells
    return cells


@pytest.mark.parametrize("workload", ["cold_sum", "warm_grid"])
def test_pressures_match_the_record(workload):
    for (labels, a_um, T_K), (pressure, zero_mode, n_terms) in returned_cells(workload):
        res = casimir.casimir_pressure(casimir.Geometry(a_um, T_K), *map(MODELS.get, labels))
        assert res.n_terms_used == n_terms, (labels, a_um, T_K)
        assert close(res.pressure_mPa, pressure), (labels, a_um, T_K)
        assert close(res.zero_mode_mPa, zero_mode), (labels, a_um, T_K)


def test_entropies_match_the_record():
    bloch_gruneisen = casimir.BlochGruneisenParams()
    for (labels, a_um, T_K, with_bg), (entropy,) in returned_cells("entropy_ladder"):
        def models_at(t_K, labels=labels):
            nu = casimir.bloch_gruneisen_nu(bloch_gruneisen, t_K)
            return tuple(casimir.DrudeModel(casimir.DrudeParams(MODELS[label].params.omega_p_eV,
                                                                nu, label))
                         for label in labels)
        res = casimir.entropy(casimir.Geometry(a_um, T_K), *map(MODELS.get, labels),
                              models_at=models_at if with_bg else None)
        assert close(res.entropy_J_per_m2_K, entropy), (labels, a_um, T_K, with_bg)
