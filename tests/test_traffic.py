"""Smoke test of ``tools/traffic.py``, the statements the benchmark reaches.

The full run traces every recorded input of the four workloads in about
1.5 s; here it runs the first two of each recorded file, and its parts are
checked on a small module: which statements count as reached, and how the
lines of a module are split into docstring, comment, blank and code lines.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

SAMPLE = '''"""A module
docstring."""


def f(x):
    """Its docstring."""
    # a comment
    if x > 0:
        y = (x
             + 1)
    else:
        y = 0
    try:
        return y
    finally:
        pass


def g():
    return 1
'''


def test_a_statement_is_reached_by_its_header_or_an_inner_statement(tmp_path):
    path = tmp_path / "sample_mod.py"
    path.write_text(SAMPLE)
    spec = importlib.util.spec_from_file_location("sample_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    functions = traffic.statements(path)
    assert {name: [s.lineno for s in stmts] for name, stmts in functions.items()} == {
        "f": [8, 9, 12, 13, 14, 16], "g": [20]}
    with traffic._tracing({str(path)}) as hits:
        module.f(1)
    assert [s.lineno for s in functions["f"] if not traffic._reached(s, hits[str(path)])] == [12]
    assert not traffic._reached(functions["g"][0], hits[str(path)])
    assert traffic.line_counts(path) == {"docstring": 3, "comment": 1, "blank": 4, "code": 12}


def test_the_first_inputs_leave_the_models_at_t_caches_unreached(capsys):
    tracer = sys.gettrace()
    assert traffic.main(["--limit", "2"]) == 0
    first, *modules = capsys.readouterr().out.splitlines()
    assert first == ("inputs run (errors): cold_sum 4 (0), warm_grid 4 (0), "
                     "entropy_ladder 4 (0), cli_tabulated 4 (0)")
    heads = [line.split(":")[0] for line in modules if not line.startswith(" ")]
    assert heads == sorted(path.stem for path in (ROOT / "src" / "casimir").glob("*.py"))
    assert "    _drude_at: " in "\n".join(modules) and sys.gettrace() is tracer


def test_line_counts_add_up_to_the_lines_of_src(capsys):
    assert traffic.main(["--lines"]) == 0
    *_, total = capsys.readouterr().out.splitlines()
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "casimir").glob("*.py"))
    assert total.startswith(f"src/: {lines:,} lines: ")
