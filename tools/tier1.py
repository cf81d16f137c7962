"""Tier-1 as a gate that knows its one red: pass only on exactly the known failure.

    python tools/tier1.py

Runs ROADMAP's Tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``, from the
repository's root, with ``--junitxml`` into a temporary file, and prints the
node id of every test that failed or raised an error, collection errors
included.  It exits 0 only when those are exactly KNOWN_RED: a new failure
fails the gate, and so does the known red turning green, which should be
seen and recorded rather than pass unnoticed.  It skips, deselects and
loosens nothing; pytest's own output goes to stdout as it runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the Al-Al cells at 0.16 um, Drude against measured-data physics (ROADMAP, README)
KNOWN_RED = ("tests/test_acceptance.py::test_criterion_2_table_reproduction[3]",)


def node_id(classname: str, name: str) -> str:
    """pytest's node id of a JUnit test case: its dotted module path up to
    the first capitalized part, a class, as a file; a collection error has
    no class name and its module path as its name."""
    parts = (classname or name).split(".")
    i = next((k for k, part in enumerate(parts) if part[:1].isupper()), len(parts))
    return "::".join(["/".join(parts[:i]) + ".py", *parts[i:], *([name] if classname else [])])


def failed(xml: str) -> list[str]:
    """The node ids, in report order, of the test cases of a JUnit XML report
    that hold a failure or an error."""
    return [node_id(case.get("classname", ""), case.get("name", ""))
            for case in ET.fromstring(xml).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None]


def verdict(ids: list[str]) -> tuple[bool, str]:
    """Whether the failed node ids are exactly KNOWN_RED, and a line saying so."""
    wrong = []
    if new := sorted(set(ids) - set(KNOWN_RED)):
        wrong.append(f"{len(new)} new failure(s)")
    if green := sorted(set(KNOWN_RED) - set(ids)):
        wrong.append("the known red passes: " + ", ".join(green))
    return not wrong, "tier-1: " + ("; ".join(wrong) or f"{len(ids)} failed, exactly the known red")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", f"--junitxml={report}"],
                              cwd=ROOT, env=env)
        if proc.returncode not in (0, 1) or not report.exists():
            print(f"tier-1: pytest exited {proc.returncode} without a full report")
            return 1
        ids = failed(report.read_text())
    for node in ids:
        print(f"failed: {node}")
    ok, line = verdict(ids)
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
