"""The verdicts of ``tools/pairs.py``, the benchmark's claim rule, on synthetic
samples: no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"name": "eval_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rows", "unit": "count", "better": "higher", "bound": 0.25}
# ten parent runs: median 2.0, quartiles 1.9275 and 2.0725 (inclusive), spread 0.145
PARENT = [2.0, 1.9, 2.1, 1.95, 2.05, 1.8, 2.2, 2.0, 1.92, 2.08]


def test_a_clear_win_meets_the_claim():
    change = [x - 0.5 for x in PARENT]
    v = pairs.verdict(LOWER, PARENT, change, claim=True)
    assert v["won"] == 10 and v["ok"]
    assert v["parent"] == pytest.approx((1.9275, 2.0, 2.0725))
    assert v["change"] == pytest.approx((1.4275, 1.5, 1.5725))


def test_eight_of_ten_wins_do_not_and_nine_do():
    change = [x - 0.5 for x in PARENT[:8]] + [x + 0.01 for x in PARENT[8:]]
    v = pairs.verdict(LOWER, PARENT, change, claim=True)
    assert v["won"] == 8 and not v["ok"]
    nine = [x - 0.5 for x in PARENT[:9]] + PARENT[9:]  # a tie counts for neither side
    v = pairs.verdict(LOWER, PARENT, nine, claim=True)
    assert v["won"] == 9 and v["ok"]


def test_a_gap_inside_the_parents_spread_does_not():
    change = [x - 0.1 for x in PARENT]  # 10 of 10 pairs, medians 0.1 apart, spread 0.145
    v = pairs.verdict(LOWER, PARENT, change, claim=True)
    assert v["won"] == 10 and not v["ok"]
    assert pairs.verdict(LOWER, PARENT, change)["ok"]  # and well within the bound


def test_a_regression_past_the_bound_fails():
    assert pairs.verdict(LOWER, PARENT, [x * 1.2 for x in PARENT])["ok"]  # 20% < 25%
    v = pairs.verdict(LOWER, PARENT, [x * 1.3 for x in PARENT])
    assert v["won"] == 0 and not v["ok"]


def test_better_decides_which_way_wins():
    # the same larger samples: a clear win where higher is better, a loss
    # past the bound where lower is
    change = [x * 1.3 for x in PARENT]
    high, low = (pairs.verdict(m, PARENT, change, claim=True) for m in (HIGHER, LOWER))
    assert (high["won"], high["ok"]) == (10, True) and (low["won"], low["ok"]) == (0, False)
    assert pairs.verdict(HIGHER, PARENT, change)["ok"]
    assert pairs.verdict(HIGHER, PARENT, [x * 0.8 for x in PARENT])["ok"]
    assert not pairs.verdict(HIGHER, PARENT, [x * 0.7 for x in PARENT])["ok"]
    assert not pairs.verdict(LOWER, PARENT, change)["ok"]
