"""Check that two source trees give the same bits on the benchmark's inputs.

    python tools/bit_diff.py OLD_TREE NEW_TREE [--limit N] [--rel TOL]

Each tree is a checkout of this repository.  For each, a subprocess with that
tree's ``src`` on ``PYTHONPATH`` evaluates the records below and writes, per
record, the bytes of the value, of the terms array and ``n_terms_used``, or
the type and message of the error it raised (with the partial result of a
``SumConvergenceError``):

- the pressure of every recorded ``cold_sum`` and ``warm_grid`` input;
- both free energies behind every recorded ``entropy_ladder`` row, at
  T -/+ the entropy's default step with its default spec, the
  Bloch-Grueneisen rows through ``DrudeModel(params, BlochGruneisenParams())``;
- the pressure and the free energy on a small (a, T) grid for every pair
  kind of ``_models``: one model on both sides or two equal ones, Drude,
  Bloch-Grueneisen, tabulated, ideal, ideal below a frequency, vacuum, and
  two analytic sides that the interpolated sums at 0.2 um and 3 K must
  screen: one ideal up to mode 1500, one NaN at mode 3000 alone;
- three Au-Au cells whose modes reach the adaptive quadrature, which no
  recorded input does: the free energy at 0.16 um and 10 K (two modes) and
  at 0.3 um and 5 K with integral_rel_tol 1e-14 and sum_rel_tol 1e-10 (182
  modes), and the pressure at 0.1 um and 4 mK, a ``SumConvergenceError``;
- every recorded ``cli_tabulated`` invocation, run in order as
  ``python -m casimir.cli`` on the absorption files that the benchmark's
  ``Cli`` (``perfbench/worker.py``) writes: its exit code, its stdout and,
  for ``kk``, the bytes of the table it writes;
- the help and usage errors of ``python -m casimir.cli`` (USAGE): the
  top-level and every command's ``--help``, no command, and an option
  ``sweep`` does not take, each with its exit code, stdout and stderr.

The recorded inputs are read from this script's own ``perfbench/recorded``
(seeds 0 and 1), so both trees see the same ones.  The script prints every
record that differs and exits 1 if any does, or if a record is missing on
one side.  A record whose value and ``n_terms_used`` have the same bits but
whose terms differ also gets the largest |old - new| of its terms relative
to |value|, which shows whether terms moved only far below the value's last
bit.  ``--limit N`` takes only the first N inputs of each recorded file, the
first N grid cells of each pair kind and the first N adaptive cells; the
usage records are always all run.

``--rel TOL`` is for a change that moves the last bits of values on
purpose.  Every ``n_terms_used``, error type and message, exit code, CLI
stdout and stderr and ``kk`` table must still match exactly, but a value
or a term may move by up to TOL relative to the old one.  The script then
also prints the largest relative deviation of a value and of a term per
record kind: each workload, and each pair kind of the grid.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = PERFBENCH / "recorded"
SEEDS = (0, 1)
GRID_A_UM = (20.0, 2.0, 0.2)
GRID_T_K = (300.0, 3.0)
# (quantity, a_um, T_K, spec keywords) of the Au-Au adaptive cells
ADAPTIVE = (("F", 0.16, 10.0, {}),
            ("F", 0.3, 5.0, {"integral_rel_tol": 1e-14, "sum_rel_tol": 1e-10}),
            ("P", 0.1, 0.004, {}))
# argv of the help and usage records
USAGE = (["--help"], *([cmd, "--help"] for cmd in ("pressure", "sweep", "table", "entropy", "kk")),
         [], ["sweep", "--format", "json"])


def _models(C):
    """The models of each pair kind of the grid, built from the package ``C``."""
    from casimir.dielectric import drude_epsilon
    from casimir.quantities import matsubara_frequency

    db = C.MaterialDatabase.builtin()
    au, cu, al = (C.DrudeModel(db.get(label)) for label in ("Au", "Cu", "Al"))
    bg = C.BlochGruneisenParams()
    zeta = np.logspace(-2, 2, 9)
    tab = C.TabulatedModel(C.PermittivityTable(zeta, drude_epsilon(db.get("Al"), zeta)),
                           low_freq=C.DrudeModel(db.get("Au")))

    class IdealBelow(C.DrudeModel):
        """Au that reflects perfectly below 0.05 eV: ideal at some modes."""

        def epsilon(self, zeta_eV):
            eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
            return np.where(np.asarray(zeta_eV) < 0.05, np.inf, eps)

    zeta1 = matsubara_frequency(1, 3.0)  # the first Matsubara frequency at 3 K

    class IdealToMode(C.DrudeModel):
        """Au that reflects perfectly up to Matsubara mode 1500 at 3 K: the
        Chebyshev panel that holds that mode is ideal at some samples only."""

        analytic = True

        def epsilon(self, zeta_eV):
            eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
            return np.where(np.asarray(zeta_eV) < 1500.5 * zeta1, np.inf, eps)

    class NanAtMode(C.DrudeModel):
        """Au with NaN at Matsubara mode 3000 at 3 K alone, inside a
        Chebyshev panel that none of its samples shows bad."""

        analytic = True

        def epsilon(self, zeta_eV):
            eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
            return np.where(np.isclose(zeta_eV, 3000 * zeta1, rtol=1e-12, atol=0.0), np.nan, eps)

    ideal = C.IdealMetal()
    return {"Au-Au": (au, au), "Au-Au copies": (au, C.DrudeModel(db.get("Au"))),
            "Au-Cu": (au, cu), "Cu-Al": (cu, al),
            "Au-Al bg": (C.DrudeModel(db.get("Au"), bg), C.DrudeModel(db.get("Al"), bg)),
            "tabulated-Cu": (tab, cu), "Au-ideal": (au, ideal), "ideal-ideal": (ideal, ideal),
            "ideal-below-Au": (IdealBelow(db.get("Au")), au), "vacuum-Au": (C.Vacuum(), au),
            "ideal-to-1500-Au": (IdealToMode(db.get("Au")), au),
            "nan-at-3000-Au": (NanAtMode(db.get("Au")), au)}


def _fields(res) -> dict:
    """Value (hex), n_terms_used and the terms' bytes (base64) of a result."""
    value, _, terms, n_terms, _ = vars(res).values()
    return {"value": float(value).hex(), "n_terms_used": n_terms,
            "terms": base64.b64encode(np.asarray(terms, dtype=float).tobytes()).decode()}


def _evaluate(C, fn, *args) -> dict:
    """_fields of ``fn(*args)``, or the error it raised, with its partial result."""
    try:
        return _fields(fn(*args))
    except C.SumConvergenceError as exc:
        return {"error": f"{type(exc).__name__}: {exc}", **_fields(exc.partial)}
    except (C.QuadratureError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def records(limit: int | None = None):
    """(id, fields) of every record, evaluated with the importable casimir."""
    import casimir as C
    from casimir.thermo import _ENTROPY_SPEC, _ENTROPY_STEP_K

    db = C.MaterialDatabase.builtin()
    models = {label: C.DrudeModel(db.get(label)) for label in ("Au", "Cu", "Al")}
    models["ideal"] = C.IdealMetal()
    bg = C.BlochGruneisenParams()
    bg_models = {label: C.DrudeModel(db.get(label), bg) for label in ("Au", "Cu", "Al")}
    for workload in ("cold_sum", "warm_grid", "entropy_ladder"):
        for seed in SEEDS:
            with open(RECORDED / f"{workload}-{seed}.json") as fh:
                inputs = json.load(fh)["inputs"][:limit]
            for i, (labels, a_um, T_K, *with_bg) in enumerate(inputs):
                key = f"{workload}-{seed} #{i} {','.join(labels)} a={a_um!r} T={T_K!r}"
                if workload != "entropy_ladder":
                    yield key, _evaluate(C, C.casimir_pressure, C.Geometry(a_um, T_K),
                                         *map(models.get, labels))
                    continue
                pair = tuple(map((bg_models if with_bg[0] else models).get, labels))
                for t in (T_K - _ENTROPY_STEP_K, T_K + _ENTROPY_STEP_K):
                    yield f"{key} F at {t!r}", _evaluate(C, C.free_energy, C.Geometry(a_um, t),
                                                         *pair, _ENTROPY_SPEC)
    fns = {"P": C.casimir_pressure, "F": C.free_energy}
    grid = [(a, t) for a in GRID_A_UM for t in GRID_T_K][:limit]
    for kind, pair in _models(C).items():
        for a_um, T_K in grid:
            geom = C.Geometry(a_um, T_K)
            for name, fn in fns.items():
                yield f"grid {kind} a={a_um} T={T_K} {name}", _evaluate(C, fn, geom, *pair)
    for name, a_um, T_K, spec in ADAPTIVE[:limit]:
        yield (f"adaptive Au-Au a={a_um} T={T_K} {name}",
               _evaluate(C, fns[name], C.Geometry(a_um, T_K), models["Au"], models["Au"],
                         C.QuadratureSpec(**spec)))
    yield from _cli_records(C, limit)


def _cli_records(C, limit: int | None):
    """(id, fields) of the recorded ``cli_tabulated`` invocations and of
    USAGE, each run as ``python -m casimir.cli`` on the package ``C``'s tree."""
    sys.path.insert(0, str(PERFBENCH))
    from worker import Cli

    env = dict(os.environ, PYTHONPATH=str(Path(C.__file__).resolve().parents[1]))
    for seed in SEEDS:
        with open(RECORDED / f"cli_tabulated-{seed}.json") as fh:
            inputs = json.load(fh)["inputs"]
        with tempfile.TemporaryDirectory() as workdir:
            cli = Cli(C, os.getcwd(), inputs, workdir)  # writes the absorption files
            for i, inv in enumerate(inputs["invocations"][:limit]):
                argv = cli.argv(inv)
                proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                                      env=env, capture_output=True, text=True)
                fields = {"exit": proc.returncode,
                          "stdout": proc.stdout.replace(workdir, "WORKDIR")}
                if inv[0] == "kk":
                    fields["table"] = base64.b64encode(Path(argv[2]).read_bytes()).decode()
                yield f"cli_tabulated-{seed} #{i} {' '.join(map(str, inv[:3]))}", fields
    for argv in USAGE:
        proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                              env=env, capture_output=True, text=True)
        yield (" ".join(["usage casimir", *argv]),
               {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})


def dump(tree: Path, limit: int | None) -> dict:
    """{id: fields} of every record, evaluated in a subprocess on ``tree``'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, __file__, "--dump"]
    argv += [] if limit is None else ["--limit", str(limit)]
    out = subprocess.run(argv, env=env, cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{tree}: the dump failed:\n{out.stderr}")
    return dict(json.loads(line) for line in out.stdout.splitlines())


def _floats(fields: dict, name: str) -> np.ndarray:
    """The value or the terms of a record as a float array (empty if absent)."""
    if name == "value":
        return np.array([float.fromhex(fields["value"])] if "value" in fields else [])
    return np.frombuffer(base64.b64decode(fields.get("terms", "")), dtype=float)


def _deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|b - a| / |a| per element, 0 where the bits agree and inf where a is 0
    or either is NaN."""
    same = a.view(np.int64) == b.view(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(same, 0.0, np.nan_to_num(np.abs(b - a) / np.abs(a), nan=np.inf))


def compare(old: dict, new: dict, rel: float | None = None) -> list[str]:
    """One line per record that is missing on one side or differs; with
    ``rel``, values and terms differ only where they moved by more than rel
    relative to the old ones."""
    lines, tol = [], 0.0 if rel is None else rel
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        line = [f"{name} {a.get(name)} -> {b.get(name)}"
                for name in ("error", "n_terms_used", "exit") if a.get(name) != b.get(name)]
        line += [f"{name} differs" for name in ("stdout", "stderr", "table")
                 if a.get(name) != b.get(name)]
        (va, ta), (vb, tb) = ((_floats(r, "value"), _floats(r, "terms")) for r in (a, b))
        if va.size != vb.size or (_deviation(va, vb) > tol).any():
            line.append("value " + " -> ".join(repr(float(v[0])) if v.size else "none"
                                               for v in (va, vb)))
        n = min(ta.size, tb.size)
        moved = np.count_nonzero(_deviation(ta[:n], tb[:n]) > tol)
        if ta.size != tb.size or moved:
            line.append(f"{moved} of {n} shared terms differ"
                        + (f" by more than {rel}" if rel else ""))
            if rel is None and len(line) == 1 and ta.size == tb.size and va.size:  # only terms
                with np.errstate(divide="ignore", invalid="ignore"):
                    largest = np.abs(tb - ta).max() / abs(va[0])
                line.append(f"largest |old - new| {largest:.2e} of |value|")
        if line:
            lines.append(f"{key}: " + "; ".join(line))
    return lines


def _kind(key: str) -> str:
    """The record kind of a key: its workload, its grid pair kind, the
    adaptive cells or the usage records."""
    if key.startswith("usage "):
        return "usage"
    if key.startswith(("grid ", "adaptive ")):
        return key.split(" a=")[0]
    return key.split(" #")[0].rsplit("-", 1)[0]


def deviations(old: dict, new: dict) -> dict:
    """{record kind: (largest relative deviation of a value, of a term)} over
    the records both sides hold, with terms compared up to the shorter."""
    out = {}
    for key in old.keys() & new.keys():
        (va, ta), (vb, tb) = ((_floats(r, "value"), _floats(r, "terms"))
                              for r in (old[key], new[key]))
        n = min(ta.size, tb.size)
        value = _deviation(va, vb).max(initial=0.0) if va.size == vb.size else np.inf
        term = _deviation(ta[:n], tb[:n]).max(initial=0.0)
        worst = out.get(_kind(key), (0.0, 0.0))
        out[_kind(key)] = (max(worst[0], value), max(worst[1], term))
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--limit", type=int, default=None,
                        help="first N inputs of each recorded file and grid pair kind")
    parser.add_argument("--rel", type=float, default=None,
                        help="let values and terms move by up to this relative amount")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        for key, fields in records(args.limit):
            print(json.dumps([key, fields]))
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_TREE and NEW_TREE")
    old, new = (dump(tree.resolve(), args.limit) for tree in args.trees)
    lines = compare(old, new, args.rel)
    for line in lines:
        print(line)
    if args.rel is not None:
        for kind, (value, term) in deviations(old, new).items():
            print(f"{kind}: largest relative deviation {value:.2e} of a value, "
                  f"{term:.2e} of a term")
    print(f"{len(lines)} of {len(set(old) | set(new))} records differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
