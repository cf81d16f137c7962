"""The verdict of ``tools/tier1.py``, the Tier-1 gate that knows its one red,
on synthetic JUnit XML: no pytest run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tier1", ROOT / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1)

RED = '<testcase classname="tests.test_acceptance" name="test_criterion_2_table_reproduction[3]">' \
      '<failure message="AssertionError">6.09% &gt; 5%</failure></testcase>'
PASSED = '<testcase classname="tests.test_lifshitz.TestBlockRequests" name="test_x[a-0.16]" />'
FAILED = '<testcase classname="tests.test_lifshitz.TestBlockRequests" name="test_x[b-0.5]">' \
         '<failure message="assert 1 == 2" /></testcase>'
ERRORED = '<testcase classname="tests.test_cli" name="test_y"><error message="fixture" /></testcase>'
UNCOLLECTED = '<testcase classname="" name="tests.test_broken"><error message="collection failure">' \
              'ImportError</error></testcase>'


def report(*cases):
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
            f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')


def test_exactly_the_known_red_passes_the_gate():
    ids = tier1.failed(report(PASSED, RED))
    assert ids == list(tier1.KNOWN_RED)
    assert tier1.verdict(ids) == (True, "tier-1: 1 failed, exactly the known red")


def test_every_failure_and_error_is_named_by_its_node_id():
    assert tier1.failed(report(RED, PASSED, FAILED, ERRORED, UNCOLLECTED)) == [
        *tier1.KNOWN_RED, "tests/test_lifshitz.py::TestBlockRequests::test_x[b-0.5]",
        "tests/test_cli.py::test_y", "tests/test_broken.py"]


def test_a_new_failure_fails_the_gate():
    ok, line = tier1.verdict(tier1.failed(report(RED, FAILED, ERRORED)))
    assert not ok and line == "tier-1: 2 new failure(s)"


def test_the_known_red_turning_green_fails_the_gate():
    ok, line = tier1.verdict(tier1.failed(report(PASSED)))
    assert not ok and line == f"tier-1: the known red passes: {tier1.KNOWN_RED[0]}"
    ok, line = tier1.verdict(tier1.failed(report(UNCOLLECTED)))
    assert not ok and line.startswith("tier-1: 1 new failure(s); the known red passes")
