"""Smoke test of ``tools/rule_scan.py``, which derives the fixed rule pairs.

The tool imports internals of ``casimir.lifshitz`` (``_rule_pair``,
``_scaled_rule``, ``_mode_kernel``, ``_Workspace``), so a change to them
must keep its helpers running.  Its ``fixed`` and ``scaled`` helpers are run
here against its ``reference`` on a few modes of each integrand; the full
scan takes minutes and is run by hand.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from casimir.lifshitz import _LADDERS, _SCALED

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "rule_scan.py"
_spec = importlib.util.spec_from_file_location("rule_scan", SCRIPT)
rule_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rule_scan)


def agree(value, error, ref):
    """Each mode certified to 1e-12 and within 1e-13 of the reference."""
    ok, err = rule_scan.graded(value, error, ref)
    return ok.all() and (err <= 1e-13).all()


@pytest.mark.parametrize("free", [False, True], ids=["pressure", "free-energy"])
@pytest.mark.parametrize("kind", ["Au-Cu", "Au-ideal", "tabulated-Cu"])
def test_fixed_and_scaled_pairs_meet_the_reference(kind, free):
    pair = rule_scan.PAIRS[kind]
    # the lowest fixed rung of the integrand's ladder (past its A-scaled
    # entries, whose pair is a panel count), and the Laguerre rung from 6.4,
    # which certify every scanned mode of both integrands
    first = next(entry for entry in _LADDERS[free] if type(entry[1]) is not int)
    for lowest, rule, _ in (first, _LADDERS[free][-1]):
        A, eps1, eps3 = rule_scan.modes(pair, 1.0, lowest * np.array([1.05, 1.3, 1.6]))
        ref, nodes = rule_scan.reference(A, eps1, eps3, free)
        assert agree(*rule_scan.fixed(rule, A, eps1, eps3, free), ref) and (nodes > 0).all()
    floor, cut = _SCALED[free]
    A, eps1, eps3 = rule_scan.modes(pair, 0.5, np.geomspace(floor, cut, 6)[1:-1])
    value, error, nodes = rule_scan.scaled(A, eps1, eps3, free)
    assert agree(value, error, rule_scan.reference(A, eps1, eps3, free)[0])
    # 12/8-node panels between the breaks A*2^k below 1, then 1, 2 and 4,
    # and a 12/8-node tail
    assert np.array_equal(nodes, 20 * (1 - np.frexp(A)[1]) + 80)
