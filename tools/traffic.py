"""Which statements of ``src/casimir`` the benchmark's recorded inputs reach,
and how each module's lines split into docstrings, comments, blanks and code.

    python tools/traffic.py [--limit N]
    python tools/traffic.py --lines

Without ``--lines`` it traces lines, in one process on this tree's ``src``,
while it runs the recorded inputs of all four workloads (seeds 0 and 1 of
``perfbench/recorded``) as ``perfbench/worker.py`` evaluates them: the
pressure of every ``cold_sum`` and ``warm_grid`` cell, the entropy of every
``entropy_ladder`` row (its Bloch-Grueneisen rows through the worker's
``models_at``), and every ``cli_tabulated`` invocation through
``casimir.cli.main`` in this process, on absorption files written as the
worker's ``Cli`` writes them.  Errors are counted, as the benchmark counts
them.  Per module it prints how many of the statements inside functions no
input reached, and which, by function; ``--limit N`` takes the first N
inputs of each recorded file.  A compound statement counts as reached when
its header or any statement inside it is.

With ``--lines`` it runs nothing and prints, per module and for ``src/`` as
a whole, the lines that are docstrings, comments (a line holding only a
comment), blank, and code (all others).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "casimir"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("cold_sum", "warm_grid", "entropy_ladder", "cli_tabulated")
SEEDS = (0, 1)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstring(body: list) -> ast.stmt | None:
    first = body[0] if body else None
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first
    return None


def _inner(node):
    """The statements in ``node``'s blocks, not those of a function or class it defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, _DEFS):
                yield from _inner(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _inner(child)


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement before its first inner one (its decorators included)."""
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    inner = stmt.body[0] if isinstance(stmt, _DEFS) else next(_inner(stmt), None)
    last = stmt.end_lineno if inner is None else max(stmt.lineno, inner.lineno - 1)
    return range(first, last + 1)


def statements(path: Path) -> dict:
    """{function name: [statement, ...]} of every function of the module at ``path``,
    its docstring left out; a nested function is named outer.inner."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                doc = _docstring(child.body)
                out[name] = [s for s in _inner(child) if s is not doc]
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.stmt):
                visit(child, prefix)
    visit(ast.parse(path.read_text()), "")
    return out


def _reached(stmt: ast.stmt, hits: set) -> bool:
    return any(line in hits for line in _header(stmt)) or any(
        _reached(s, hits) for s in _inner(stmt) if not isinstance(stmt, _DEFS))


def _runs(lines: list) -> str:
    """Sorted line numbers as ranges: 3, 5-7."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


@contextlib.contextmanager
def _tracing(files: set):
    """{file name: {line}} of the lines run in ``files`` inside the block."""
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None
    saved = sys.gettrace()
    sys.settrace(scope)
    try:
        yield hits
    finally:
        sys.settrace(saved)


@contextlib.contextmanager
def _perfbench():
    """perfbench's worker module, with perfbench importable and no bytecode written."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        yield worker
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def _evaluations(worker, workload: str, inputs, workdir: str):
    """The items of one recorded file and the function that evaluates one of them."""
    C, models = worker.setup(workload)
    if workload != "cli_tabulated":
        kind = worker.Entropy if workload == "entropy_ladder" else worker.Pressure
        return inputs, kind(C, models)
    cli = worker.Cli(C, str(ROOT), inputs, workdir)  # writes the absorption files

    def run(inv):
        if C.cli.main(cli.argv(inv)):
            raise worker.CliError(inv)
    return inputs["invocations"], run


def run_workloads(limit: int | None = None) -> dict:
    """Run the recorded inputs (the first ``limit`` of each file) as the
    worker evaluates them; returns {workload: [inputs run, errors]}."""
    tally = {workload: [0, 0] for workload in WORKLOADS}
    with _perfbench() as worker:
        for workload in WORKLOADS:
            for seed in SEEDS:
                with open(PERFBENCH / "recorded" / f"{workload}-{seed}.json") as fh:
                    inputs = json.load(fh)["inputs"]
                with tempfile.TemporaryDirectory() as workdir:
                    items, evaluate = _evaluations(worker, workload, inputs, workdir)
                    for item in items[:limit]:
                        tally[workload][0] += 1
                        try:
                            with contextlib.redirect_stdout(io.StringIO()), \
                                    contextlib.redirect_stderr(io.StringIO()):
                                evaluate(item)
                        except Exception:  # counted, as the benchmark counts a failure
                            tally[workload][1] += 1
    return tally


def traffic(limit: int | None = None) -> list[str]:
    """The report lines: the inputs run, then per module the statements
    inside functions that none of them reached."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = sorted(PACKAGE.glob("*.py"))
    with _tracing({str(path) for path in modules}) as hits:
        tally = run_workloads(limit)
    lines = ["inputs run (errors): " + ", ".join(
        f"{w} {n:,} ({e:,})" for w, (n, e) in tally.items())]
    for path in modules:
        functions = statements(path)
        missed = {name: [s.lineno for s in stmts if not _reached(s, hits[str(path)])]
                  for name, stmts in functions.items()}
        total = sum(map(len, functions.values()))
        lines.append(f"{path.stem}: {sum(map(len, missed.values()))} of {total} "
                     "in-function statements never reached")
        lines += [f"    {name}: {_runs(ms)}" for name, ms in missed.items() if ms]
    return lines


def line_counts(path: Path) -> dict:
    """{"docstring", "comment", "blank", "code": lines} of the module at ``path``."""
    text = path.read_text().splitlines()
    doc = set()
    for node in ast.walk(ast.parse("\n".join(text))):
        if isinstance(node, (ast.Module, *_DEFS)) and (d := _docstring(node.body)):
            doc.update(range(d.lineno, d.end_lineno + 1))
    counts = dict.fromkeys(("docstring", "comment", "blank", "code"), 0)
    for number, line in enumerate(text, 1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def lines_report() -> list[str]:
    """One line per module of ``src/casimir`` and one for the whole."""
    rows = {path.stem: line_counts(path) for path in sorted(PACKAGE.glob("*.py"))}
    rows["src/"] = {kind: sum(r[kind] for r in rows.values()) for kind in next(iter(rows.values()))}
    return [f"{name}: {sum(r.values()):,} lines: " + ", ".join(f"{n:,} {kind}" for kind, n in r.items())
            for name, r in rows.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None,
                        help="first N inputs of each recorded file")
    parser.add_argument("--lines", action="store_true",
                        help="count docstring, comment, blank and code lines instead")
    args = parser.parse_args(argv)
    print("\n".join(lines_report() if args.lines else traffic(args.limit)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
