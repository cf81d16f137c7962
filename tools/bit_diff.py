"""Check that two source trees give the same bits on the benchmark's inputs.

    python tools/bit_diff.py OLD_TREE NEW_TREE [--limit N] [--rel TOL]
    python tools/bit_diff.py [TREE ...] --split KIND [--passes N] [--limit N]

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
  Bloch-Grueneisen (two equal objects too), tabulated, one tabulated model
  with a Bloch-Grueneisen continuation on both sides, ideal, ideal below a
  frequency, vacuum, and two analytic sides that the interpolated sums at
  0.2 um and 3 K must screen: one ideal up to mode 1500, one NaN at mode
  3000 alone;
- three Au-Au cells whose modes reach the adaptive quadrature, which no
  recorded input does: the free energy at 0.16 um and 10 K (two modes) and
  at 0.3 um and 5 K with integral_rel_tol 1e-14 and sum_rel_tol 1e-10 (182
  modes), and the pressure at 0.1 um and 4 mK, a ``SumConvergenceError``;
- two cells whose converging sums run past 32,768 modes, which no recorded
  input does: the Au-Au pressure and the Au-Al free energy at 0.16 um and
  0.5 K (42,923 and 39,442 terms), each on one plan;
- three sums at 1 um and 1 K whose first Chebyshev panel, modes 129-256,
  is certified but integrated, which no recorded input does: the pressure
  and the free energy of a weak Drude metal (omega_p 0.0005 eV, nu
  0.05 eV) on both sides stop inside it, and the pressure of an analytic
  Au side ideal at mode 150 alone against Cu fails the screen there;
- five cells at 1 K of a Drude metal Y (nu 0.0345 eV) against Au whose
  permittivity overflows to inf at the first modes and then, finite,
  overflows the reflections at some planned modes: omega_p 3e153 eV at
  12 um, where the sums stop before the first such mode, and at 2 um, both
  quantities at each, and the pressure of omega_p 1e152 eV at 0.16 um;
- every recorded ``cli_tabulated`` invocation, run in order as
  ``python -m casimir.cli`` on the absorption files that the benchmark's
  ``Cli`` (``perfbench/worker.py``) writes: its exit code, its stdout and,
  for ``kk``, the bytes of the table it writes;
- ``kk`` on the absorption data of the tests that pin the transform's
  range (KK_INPUTS: samples whose squares under- or overflow, a zeta whose
  value is not representable, samples from a subnormal first one that span
  more than the float range, samples decades apart), each run as
  ``python -m casimir.cli``: its exit code, stdout, stderr and the bytes of
  the table it writes;
- the help and usage errors of ``python -m casimir.cli`` (USAGE): the
  top-level and every command's ``--help``, no command, and an option
  ``sweep`` does not take, each with its exit code, stdout and stderr;
- the same of three runs of the commands that evaluate cells (CELLS):
  ``table 1`` as CSV, an entropy grid with ``--check-step-halving`` and its
  Nernst verdicts, and a pressure grid in the pretty format.

The recorded inputs are read from this script's own ``perfbench/recorded``
(seeds 0 and 1), so both trees see the same ones.  The script prints every
record that differs and exits 1 if any does, or if a record is missing on
one side.  A record whose value and ``n_terms_used`` have the same bits but
whose terms differ also gets the largest |old - new| of its terms relative
to |value|, which shows whether terms moved only far below the value's last
bit.  ``--limit N`` takes only the first N inputs of each recorded file, the
first N grid cells of each pair kind and the first N adaptive, long,
panel, overflow and ``kk`` records; the usage and cell command records are
always all run.

The script also prints, per record kind that did any, the work each tree
did: integer-mode plans + sample plans (``_plan`` calls on Matsubara
indices and on Chebyshev points), ``_mode_block`` calls, the modes
(rows) they integrated, the kernel nodes (``_mode_kernel``'s nodes,
the adaptive quadrature's included) and the adaptive calls (those of
``integrate_adaptive`` as ``lifshitz`` binds it, and as ``thermo`` does
in a tree whose free energy passes its own) and the bound evaluations
(calls of ``lifshitz._log_bound``, the unit-reflection bound that ends
blocks, plans and panels), counted by the wraps of WRAPS (install) in the
dump subprocess.  A tree that does other work is reported, not failed,
since a change may move the work on purpose.

``--split KIND`` times where the sums of one record kind spend their time
on each TREE, or without one on this script's own tree, each in a
subprocess of its own.  KIND is a record kind as the work lines name it
(``warm_grid``, ``grid Au-Au``), a recorded file (``warm_grid-0``), a record
(``warm_grid-0 #234``) or a record's id; the CLI records are left out.  The
records' calls, their arguments built beforehand, are replayed in turn,
``--passes`` times (9 by default) with the wraps of WRAPS timed and as
often without them.  It prints, in ms and with the calls, the self time of
the plans (``_plan``), the block set-up (``_mode_block`` less the kernel),
the kernel (``_mode_kernel``), the Chebyshev work (``chebyshev._certify``
less its samples, whose requests the pump answers where it is a generator,
and ``_interpolated``), the scans (``_scan_loop``, ``_scan_arrays``) and the
sum driver (``_summed_modes`` less those parts: the pump and the sum's
generator, which runs inside it, with its bounds and result), and the rest
of the pass, what lies outside the sums; then the timed pass and the untimed
one, whose difference is the timers' own cost, and the work counts.  The
passes run in rounds of three, the trees' order reversed from one round to
the next, so that a slow phase of the host falls on every tree; each figure
is the median over the rounds of a round's fastest pass, and a last line
gives, per tree after the first, the median over the rounds of its ratio to
the first tree in the same round.

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
import contextlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent  # this script's own tree
PERFBENCH = ROOT / "perfbench"
RECORDED = PERFBENCH / "recorded"
SEEDS = (0, 1)
GRID_A_UM = (20.0, 2.0, 0.2)
GRID_T_K = (300.0, 3.0)
# (quantity, a_um, T_K, spec keywords) of the Au-Au adaptive cells
ADAPTIVE = (("F", 0.16, 10.0, {}),
            ("F", 0.3, 5.0, {"integral_rel_tol": 1e-14, "sum_rel_tol": 1e-10}),
            ("P", 0.1, 0.004, {}))
# (quantity, sides, a_um, T_K) of the converging sums past 32,768 modes
LONG = (("P", ("Au", "Au"), 0.16, 0.5), ("F", ("Au", "Al"), 0.16, 0.5))
# (quantity, pair kind of _panel_pairs) of the cells at 1 um and 1 K that integrate
# their certified panel 129-256
PANEL = (("P", "weak-weak"), ("F", "weak-weak"), ("P", "ideal-at-150-Cu"))
# (quantity, omega_p in eV, a_um) of the cells at 1 K of Y against Au whose eps
# overflows the reflections at some planned modes
OVERFLOW = (("P", 3e153, 12.0), ("F", 3e153, 12.0), ("P", 3e153, 2.0), ("F", 3e153, 2.0),
            ("P", 1e152, 0.16))
# the work counted per record (install)
WORK = ("integer-mode plans", "sample plans", "_mode_block calls", "rows", "kernel nodes",
        "adaptive calls", "bound evaluations")
# the work counts as a line prints them
WORK_TEXT = ("{:,} + {:,} plans, {:,} blocks, {:,} rows, {:,} kernel nodes, {:,} adaptive calls, "
             "{:,} bound evaluations")
# the wrap points (install): per casimir module.function, the WORK figures a
# call adds ({index in WORK: amount}, from its positional arguments; a plan
# on floats, Chebyshev points, is a sample plan) and the part of a split
# (--split) that its self time goes to; thermo calls the driver, and may
# call the adaptive quadrature, through names of its own
WRAPS = {"lifshitz._plan": (lambda ms, *_: {0 if ms.dtype.kind in "iu" else 1: 1}, "plan"),
         "lifshitz._mode_block": (lambda lower, *_: {2: 1, 3: lower.size}, "block set-up"),
         "lifshitz._mode_kernel": (lambda y, *_: {4: y.size}, "kernel"),
         "lifshitz.integrate_adaptive": (lambda *_: {5: 1}, None),
         "thermo.integrate_adaptive": (lambda *_: {5: 1}, None),
         "lifshitz._log_bound": (lambda *_: {6: 1}, None),
         "chebyshev._certify": (None, "Chebyshev"), "chebyshev._interpolated": (None, "Chebyshev"),
         "lifshitz._scan_loop": (None, "scans"), "lifshitz._scan_arrays": (None, "scans"),
         "lifshitz._summed_modes": (None, "driver"), "thermo._summed_modes": (None, "driver")}
# the parts of a split, in the order its lines print them
PARTS = tuple(dict.fromkeys(part for _, part in WRAPS.values() if part))
# timed passes per round of a split on trees (split_trees)
ROUND = 3
# (name, omega_rad_s,eps_imag rows, --grid or None) of the kk records, the data
# written as the tests write them: the two reproductions of
# test_kk_where_the_squares_underflow_exits_0, the samples of
# TestKramersKronig::test_a_value_where_the_squares_underflow_is_finite and
# ::test_a_value_that_is_not_finite_raises_naming_zeta on a grid through
# their zeta, those of test_kk_samples_whose_squares_overflow_exit_0 and
# test_kk_default_grid_below_the_squares_exits_0, and samples from a subnormal
# first one that span more than the float range (those of
# test_a_span_past_the_float_range_meets_the_closed_form, and four) on a grid of
# normal floats through that test's zeta; then sparse samples: those of
# test_three_sparse_samples_give_a_non_increasing_table on its grid, and a Drude
# loss (Au's omega_p and nu, 1.37e16 and 5.24e13 rad/s) at one sample per two
# decades from 1.5e11 rad/s on the default grid
_FLAT = np.array([2.2e-250 * 2e77 ** (k / 19) for k in range(20)])
_DRUDE = np.array([2.7e-162 * 1e12 ** (k / 2) for k in range(3)])
_LOG_X = np.log(_DRUDE) - 0.5 * (np.log(_DRUDE[0]) + np.log(_DRUDE[-1]))
_SPARSE = 1.5e11 * 100.0 ** np.arange(5)
KK_INPUTS = (
    ("flat from 2.2e-250", [f"{w!r},3.0" for w in _FLAT.tolist()], "2.9e-206,2.1e174,0.074"),
    ("drude from 2.7e-162", [f"{w!r},{e!r}" for w, e in zip(_DRUDE.tolist(), np.exp(
        math.log(3.0) - _LOG_X - np.logaddexp(0.0, 2.0 * _LOG_X)).tolist())], None),
    ("squares-underflow", [f"{w:.12g},3" for w in np.geomspace(1e-200, 1e-197, 10)],
     "1e-200,1e20,0.05"),
    ("tiny-zeta", [f"{w:.12g},3" for w in np.geomspace(1e10, 1e13, 10)], "1e-300,1e20,0.05"),
    *((name, [f"{w:.12g},1" for w in np.logspace(*span)], grid)
      for name, span in (("1e-300 to 1e300", (-300, 300, 61)), ("1e-300 to 1e10", (-300, 10, 32)))
      for grid in (None, "1e-10,1e10,2")),
    *((name, [f"{w!r},3" for w in samples], "1e-250,1e200,0.1")
      for name, samples in (("3,000 from 1e-320 to 1e300", np.logspace(-320, 300, 3000).tolist()),
                            ("four from 1e-320 to 1e300", [1e-320, 1e-100, 1e100, 1e300]))),
    ("three from 6.12e-8", ["6.12e-8,3.08e103", "3.19e94,29.5", "1.66e196,4.17e-304"],
     "1.98e32,9.66e201,5.32"),
    ("drude at one per two decades", [f"{w!r},{e!r}" for w, e in zip(_SPARSE.tolist(), (
        1.37e16**2 * 5.24e13 / (_SPARSE * (_SPARSE**2 + 5.24e13**2))).tolist())], None))
# argv of the help and usage records
USAGE = (["--help"], *([cmd, "--help"] for cmd in ("pressure", "sweep", "table", "entropy", "kk")),
         [], ["sweep", "--format", "json"])
# argv of the records of the commands that evaluate cells, recorded as USAGE's are
CELLS = (["table", "1", "--format", "csv"],
         ["entropy", "--pair", "Au,Au", "--a", "1,2", "--T", "4,8", "--format", "csv",
          "--check-step-halving"],
         ["pressure", "--pair", "Au,Cu", "--a", "0.5,2", "--T", "1,300"])


def _models(C):
    """The models of each pair kind of the grid, built from the package ``C``."""
    from casimir.dielectric import drude_epsilon
    from casimir.quantities import matsubara_frequency

    db = C.MaterialDatabase.builtin()
    au, cu, al = (C.DrudeModel(db.get(label)) for label in ("Au", "Cu", "Al"))
    bg = C.BlochGruneisenParams()
    zeta = np.logspace(-2, 2, 9)
    table = C.PermittivityTable(zeta, drude_epsilon(db.get("Al"), zeta))
    tab = C.TabulatedModel(table, low_freq=C.DrudeModel(db.get("Au")))
    tab_bg = C.TabulatedModel(table, low_freq=C.DrudeModel(db.get("Au"), bg))

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
            "Au bg copies": (C.DrudeModel(db.get("Au"), bg), C.DrudeModel(db.get("Au"), bg)),
            "tabulated-Cu": (tab, cu), "tabulated-bg both": (tab_bg, tab_bg),
            "Au-ideal": (au, ideal), "ideal-ideal": (ideal, ideal),
            "ideal-below-Au": (IdealBelow(db.get("Au")), au), "vacuum-Au": (C.Vacuum(), au),
            "ideal-to-1500-Au": (IdealToMode(db.get("Au")), au),
            "nan-at-3000-Au": (NanAtMode(db.get("Au")), au)}


def _panel_pairs(C):
    """The pairs of PANEL: a weak Drude metal on both sides, whose sums at
    1 um and 1 K stop inside the panel 129-256, and an analytic Au side
    ideal at mode 150 at 1 K alone, which the screen rejects there."""
    from casimir.quantities import matsubara_frequency

    db, zeta = C.MaterialDatabase.builtin(), matsubara_frequency(150, 1.0)

    class IdealAtMode(C.DrudeModel):
        analytic = True

        def epsilon(self, zeta_eV):
            eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
            return np.where(np.isclose(zeta_eV, zeta, rtol=1e-12, atol=0.0), np.inf, eps)

    weak = C.DrudeModel(C.DrudeParams(0.0005, 0.05, "weak"))
    return {"weak-weak": (weak, weak),
            "ideal-at-150-Cu": (IdealAtMode(db.get("Au")), C.DrudeModel(db.get("Cu")))}


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


def cases(limit: int | None = None):
    """(id, function, arguments) of every record that runs in this process, on
    the importable casimir: all but the CLI's."""
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
                    yield key, C.casimir_pressure, (C.Geometry(a_um, T_K),
                                                    *map(models.get, labels))
                    continue
                pair = tuple(map((bg_models if with_bg[0] else models).get, labels))
                for t in (T_K - _ENTROPY_STEP_K, T_K + _ENTROPY_STEP_K):
                    yield f"{key} F at {t!r}", C.free_energy, (C.Geometry(a_um, t), *pair,
                                                               _ENTROPY_SPEC)
    fns = {"P": C.casimir_pressure, "F": C.free_energy}
    grid = [(a, t) for a in GRID_A_UM for t in GRID_T_K][:limit]
    for kind, pair in _models(C).items():
        for a_um, T_K in grid:
            geom = C.Geometry(a_um, T_K)
            for name, fn in fns.items():
                yield f"grid {kind} a={a_um} T={T_K} {name}", fn, (geom, *pair)
    for name, a_um, T_K, spec in ADAPTIVE[:limit]:
        yield (f"adaptive Au-Au a={a_um} T={T_K} {name}", fns[name],
               (C.Geometry(a_um, T_K), models["Au"], models["Au"], C.QuadratureSpec(**spec)))
    for name, labels, a_um, T_K in LONG[:limit]:
        yield (f"long {'-'.join(labels)} a={a_um} T={T_K} {name}", fns[name],
               (C.Geometry(a_um, T_K), *map(models.get, labels)))
    pairs = _panel_pairs(C)
    for name, kind in PANEL[:limit]:
        yield f"panel {kind} a=1.0 T=1.0 {name}", fns[name], (C.Geometry(1.0, 1.0), *pairs[kind])
    for name, omega_p, a_um in OVERFLOW[:limit]:
        y = C.DrudeModel(C.DrudeParams(omega_p, 0.0345, "Y"))
        yield (f"overflow Y-Au a={a_um} T=1.0 omega_p={omega_p:g} {name}", fns[name],
               (C.Geometry(a_um, 1.0), y, models["Au"]))


def records(limit: int | None = None):
    """(id, fields) of every record, evaluated with the importable casimir."""
    import casimir as C

    for key, fn, args in cases(limit):
        yield key, _evaluate(C, fn, *args)
    yield from _cli_records(C, limit)


def install(timed: bool = False):
    """Wrap once each function of WRAPS that the importable casimir holds:
    every call adds its WORK figures to the counts, and with ``timed`` its
    own time, less that of the timed calls inside it, and 1 to its part's
    [seconds, calls]; a generator's own time is that of its creation and its
    resumes, not of the requests it yields, which its caller answers.
    Returns the counts (ordered as WORK), the parts ({part: [seconds,
    calls]}, ordered as PARTS) and a function that puts every wrapped
    function back."""
    counts, parts, inner = [0] * len(WORK), {part: [0.0, 0] for part in PARTS}, []
    saved = []  # (module, name, function) of each wrap

    def timing(tally, run):
        inner.append(0.0)  # the time of the timed calls inside this one
        t0 = time.perf_counter()
        try:
            return run()
        finally:
            dt = time.perf_counter() - t0
            tally[0] += dt - inner.pop()
            if inner:
                inner[-1] += dt

    def wrap(fn, figures, tally):
        def wrapper(*args, **kwargs):
            for i, n in (figures(*args) if figures else {}).items():
                counts[i] += n
            if tally is None:
                return fn(*args, **kwargs)
            tally[1] += 1
            return timing(tally, lambda: fn(*args, **kwargs))

        def resumes(*args, **kwargs):  # a generator's own resumes, not the requests it yields
            steps, out = wrapper(*args, **kwargs), None
            while True:
                try:
                    out = yield timing(tally, lambda: steps.send(out))
                except StopIteration as done:
                    return done.value
        return resumes if tally and inspect.isgeneratorfunction(fn) else wrapper
    for point, (figures, part) in WRAPS.items():
        module, name = point.split(".")
        tally = parts[part] if timed and part else None
        if not (figures or tally):
            continue
        module = importlib.import_module(f"casimir.{module}")
        if hasattr(module, name):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrap(getattr(module, name), figures, tally))

    def restore():
        for module, name, fn in saved:
            setattr(module, name, fn)
    return counts, parts, restore


def _selected(key: str, kind: str) -> bool:
    """Whether the record ``key`` is of ``kind``: its record kind (_kind),
    its recorded file (as ``warm_grid-0``), its id, or its file and number
    (as ``warm_grid-0 #234``)."""
    head, _, number = key.partition(" #")
    return kind in (_kind(key), head, key) or (
        bool(number) and kind == f"{head} #{number.split()[0]}")


def _replayer(kind: str, limit: int | None):
    """The number of records of ``kind`` (_selected) that run in this
    process, and a function of ``passes`` that replays their calls in turn,
    ``passes`` times with the wraps of install, timed, and as often without,
    each timed pass after an untimed one.  It returns the fastest timed pass
    as {"parts": {part: [seconds, calls]}, "rest": seconds, "timed":
    seconds, "work": counts} with "untimed", the fastest untimed pass; the
    rest is the timed pass less its parts."""
    import casimir as C

    calls = [(fn, args) for key, fn, args in cases(limit) if _selected(key, kind)]
    if not calls:
        sys.exit(f"no record of kind {kind!r}")

    def replay() -> float:
        t0 = time.perf_counter()
        for fn, args in calls:
            try:
                fn(*args)
            except (C.QuadratureError, C.SumConvergenceError, ValueError):
                pass  # warm_grid's underflow cells raise, as in the benchmark
        return time.perf_counter() - t0

    def passes_of(passes: int) -> dict:
        untimed, best = math.inf, None
        for _ in range(passes):
            untimed = min(untimed, replay())
            counts, spent, restore = install(timed=True)
            try:
                total = replay()
            finally:
                restore()
            if best is None or total < best["timed"]:
                rest = total - sum(s for s, _ in spent.values())
                best = {"parts": spent, "rest": rest, "timed": total, "work": counts}
        return dict(best, untimed=untimed)
    return len(calls), passes_of


def _split_lines(best: dict, head: str = "") -> list[str]:
    """The parts, passes and work lines of a split (_replayer), in ms, each
    line after ``head``."""
    parts = "; ".join(f"{part} {1e3 * s:.4g} ({n:,})" for part, (s, n) in best["parts"].items())
    return [f"{head}{parts}; rest {1e3 * best['rest']:.4g}",
            f"{head}timed pass {1e3 * best['timed']:.4g}, "
            f"untimed pass {1e3 * best['untimed']:.4g}",
            head + "work: " + WORK_TEXT.format(*best["work"])]


def _rounds(kind: str, limit: int | None):
    """Serve a split to another process (split_trees): the number of records,
    then for each number of passes read from stdin the fastest of that many
    (_replayer), each a line of JSON on stdout."""
    n, passes_of = _replayer(kind, limit)
    print(json.dumps({"records": n}), flush=True)
    for line in sys.stdin:
        print(json.dumps(passes_of(int(line))), flush=True)


def _median_round(rounds: list) -> dict:
    """The median over ``rounds`` (each a fastest pass, as _replayer returns
    it) of each part's seconds, of the rest and of both passes, with the
    calls and the work of the first round."""
    first = rounds[0]
    parts = {part: [float(np.median([r["parts"][part][0] for r in rounds])), calls]
             for part, (_, calls) in first["parts"].items()}
    return dict(first, parts=parts, **{key: float(np.median([r[key] for r in rounds]))
                                       for key in ("rest", "timed", "untimed")})


def split_trees(trees: list, kind: str, limit: int | None, passes: int) -> list[str]:
    """Lines of the split of the records of ``kind`` on each tree, in a
    process of its own that stays up: ``passes`` passes per tree in rounds
    of ROUND (fewer if ``passes`` is), the trees' order reversed from one
    round to the next, so a slow phase of the host falls on both.  Per tree,
    the median over the rounds of each part of a round's fastest timed pass,
    of its rest and of the round's fastest timed and untimed passes; then,
    per tree after the first, the median over the rounds of its ratio to the
    first tree in the same round, which cancels a phase longer than a round."""
    per_round = min(passes, ROUND)
    argv = [sys.executable, __file__, "--split", kind, "--dump"]
    argv += [] if limit is None else ["--limit", str(limit)]
    with contextlib.ExitStack() as stack:  # each process is waited for, its pipes closed
        children = [stack.enter_context(subprocess.Popen(
            argv, env=dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
                           PYTHONDONTWRITEBYTECODE="1"),
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)) for tree in trees]
        records = [json.loads(_answer(child, tree))["records"]
                   for child, tree in zip(children, trees)]
        rounds = [[] for _ in trees]
        for r in range(-(-passes // per_round)):
            for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                children[i].stdin.write(f"{per_round}\n")
                children[i].stdin.flush()
                rounds[i].append(json.loads(_answer(children[i], trees[i])))
    medians = [_median_round(r) for r in rounds]
    lines = [f"split {kind}: {records[0]} records, median over "
             f"{len(rounds[0])} rounds of the fastest of {per_round} passes, the trees' order "
             "alternating, ms (calls)"]
    for tree, median in zip(trees, medians):
        lines += _split_lines(median, f"{tree}: ")
    for tree, own in zip(trees[1:], rounds[1:]):
        ratios = [f"{part} {_ratio(own, rounds[0], lambda r: r['parts'][part][0])}"
                  for part in own[0]["parts"]]
        ratios += [f"{name} {_ratio(own, rounds[0], lambda r: r[key])}" for name, key in (
            ("rest", "rest"), ("timed pass", "timed"), ("untimed pass", "untimed"))]
        lines.append(f"ratio {tree} / {trees[0]}: " + "; ".join(ratios))
    return lines


def _answer(child, tree) -> str:
    """The next line a split process (_rounds) writes, or exit if it wrote none."""
    line = child.stdout.readline()
    if not line:
        sys.exit(f"{tree}: the split failed")
    return line


def _ratio(new: list, old: list, value) -> str:
    """The median over paired rounds of value(new round) / value(old round)."""
    pairs = [(value(a), value(b)) for a, b in zip(new, old)]
    return f"{np.median([a / b for a, b in pairs]):.3f}" if all(b for _, b in pairs) else "-"


def _cli_records(C, limit: int | None):
    """(id, fields) of the recorded ``cli_tabulated`` invocations, of
    KK_INPUTS, USAGE and CELLS, each run as ``python -m casimir.cli`` on the
    package ``C``'s tree."""
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
    with tempfile.TemporaryDirectory() as workdir:
        for name, rows, grid in KK_INPUTS[:limit]:
            src, out = Path(workdir, "loss.csv"), Path(workdir, "eps.csv")
            src.write_text("omega_rad_s,eps_imag\n" + "".join(f"{row}\n" for row in rows))
            out.unlink(missing_ok=True)
            argv = ["kk", str(src), str(out), *(["--grid", grid] if grid else [])]
            proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                                  env=env, capture_output=True, text=True)
            fields = {"exit": proc.returncode, "stdout": proc.stdout.replace(workdir, "WORKDIR"),
                      "stderr": proc.stderr.replace(workdir, "WORKDIR")}
            if out.exists():
                fields["table"] = base64.b64encode(out.read_bytes()).decode()
            yield f"kk {name} on {f'--grid {grid}' if grid else 'the default grid'}", fields
    for kind, argvs in (("usage", USAGE), ("cells", CELLS)):
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                                  env=env, capture_output=True, text=True)
            yield (" ".join([kind, "casimir", *argv]),
                   {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})


def dump(tree: Path, limit: int | None) -> tuple[dict, dict]:
    """{id: fields} and {id: work counts} of every record, evaluated in a
    subprocess on ``tree``'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, __file__, "--dump"]
    argv += [] if limit is None else ["--limit", str(limit)]
    out = subprocess.run(argv, env=env, cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{tree}: the dump failed:\n{out.stderr}")
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    return {key: fields for key, fields, _ in rows}, {key: work for key, _, work in rows}


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
    adaptive cells, a long cell's sides, a panel cell's pair, the overflow
    cells, the kk records, the usage records or the cell commands' records."""
    if key.startswith(("usage ", "cells ", "kk ")):
        return key.split(" ")[0]
    if key.startswith(("grid ", "adaptive ", "long ", "panel ", "overflow ")):
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


def work_lines(old: dict, new: dict) -> list[str]:
    """One line per record kind with any work: both trees' WORK counts,
    summed over its records, marked where they differ."""
    kinds = {}
    for side, counts in enumerate((old, new)):
        for key, c in counts.items():
            total = kinds.setdefault(_kind(key), [[0] * len(WORK), [0] * len(WORK)])[side]
            total[:] = [a + b for a, b in zip(total, c)]
    lines = []
    for kind, (a, b) in sorted(kinds.items()):
        if any(a) or any(b):
            text = [WORK_TEXT.format(*c) for c in (a, b)]
            lines.append(f"work {kind}: old {text[0]}; new "
                         + ("the same" if a == b else f"{text[1]} (differs)"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--limit", type=int, default=None,
                        help="first N inputs of each recorded file and grid pair kind")
    parser.add_argument("--rel", type=float, default=None,
                        help="let values and terms move by up to this relative amount")
    parser.add_argument("--split", metavar="KIND", default=None,
                        help="time the parts of one record kind's sums on each tree")
    parser.add_argument("--passes", type=int, default=9,
                        help="passes of --split, in rounds of three that alternate the trees")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.split is not None:
        if args.dump:
            _rounds(args.split, args.limit)
        else:
            trees = args.trees or [ROOT]
            print("\n".join(split_trees(trees, args.split, args.limit, args.passes)))
        return 0
    if args.dump:
        counts, _, _ = install()
        for key, fields in records(args.limit):
            print(json.dumps([key, fields, counts]))
            counts[:] = [0] * len(WORK)
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_TREE and NEW_TREE")
    (old, old_work), (new, new_work) = (dump(tree.resolve(), args.limit) for tree in args.trees)
    lines = compare(old, new, args.rel)
    for line in lines:
        print(line)
    if args.rel is not None:
        for kind, (value, term) in deviations(old, new).items():
            print(f"{kind}: largest relative deviation {value:.2e} of a value, "
                  f"{term:.2e} of a term")
    for line in work_lines(old_work, new_work):
        print(line)
    print(f"{len(lines)} of {len(set(old) | set(new))} records differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
