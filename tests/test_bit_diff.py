"""Smoke test of ``tools/bit_diff.py``, the bit-identity check of two trees.

The full dump covers every recorded ``cold_sum``, ``warm_grid``,
``entropy_ladder`` and ``cli_tabulated`` input and takes a few seconds per
tree.  Here the tool
runs this tree against itself on the first input of each recorded file and
grid pair kind, the records of the first two are checked for coverage, and
``compare`` is shown a moved term, value and error.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bit_diff", ROOT / "tools" / "bit_diff.py")
bit_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_diff)


def test_a_tree_against_itself_differs_nowhere(capsys):
    assert bit_diff.main([str(ROOT), str(ROOT), "--limit", "1"]) == 0
    assert capsys.readouterr().out == "0 of 30 records differ\n"


@pytest.fixture(scope="module")
def records():
    return dict(bit_diff.records(limit=2))


def test_records_cover_every_kind(records):
    recorded = {key.split(" #")[0] for key in records if " #" in key}
    assert recorded == {f"{w}-{s}" for w in ("cold_sum", "warm_grid", "entropy_ladder",
                                             "cli_tabulated") for s in (0, 1)}
    grid = {key.split(" a=")[0] for key in records if key.startswith("grid ")}
    assert len(grid) == 10 and {"grid Au-Au copies", "grid Au-Al bg", "grid tabulated-Cu"} < grid
    # the vacuum pair's all-zero result; a grid cell with ideal and finite modes
    assert records["grid vacuum-Au a=20.0 T=300.0 P"]["n_terms_used"] == 0
    assert records["grid ideal-below-Au a=20.0 T=3.0 F"]["n_terms_used"] > 5
    assert not any("error" in fields for fields in records.values())
    kk = records["cli_tabulated-1 #1 kk 1"]
    assert kk["exit"] == 0 and kk["stdout"] == "wrote 421 rows to WORKDIR/eps1.csv\n"
    assert bit_diff.base64.b64decode(kk["table"]).startswith(b"zeta_rad_s,eps_izeta\r\n")


def test_compare_names_each_difference(records):
    key = next(key for key in records if key.startswith("cold_sum-0"))
    moved = {k: dict(v) for k, v in records.items()}
    terms = np.frombuffer(bit_diff.base64.b64decode(moved[key]["terms"]), dtype=float).copy()
    terms[3] = np.nextafter(terms[3], 0.0)
    moved[key]["terms"] = bit_diff.base64.b64encode(terms.tobytes()).decode()
    moved[key]["value"] = float.hex(2.0)
    gone = list(records)[-1]
    del moved[gone]
    lines = bit_diff.compare(records, moved)
    assert len(lines) == 2 and lines[1] == f"{gone}: only in old"
    assert lines[0].startswith(f"{key}: value ") and lines[0].endswith(
        f"-> 2.0; 1 of {terms.size} shared terms differ")
    moved[key] = {"error": "QuadratureError: x"}
    assert bit_diff.compare(records, moved)[0].startswith(f"{key}: error None -> QuadratureError")
