"""Command line front end.

Subcommands: ``pressure`` (point evaluations; ``sweep`` streams them as CSV
without the zero-mode share), ``table`` (regression against the built-in
reference grids), ``entropy`` (entropy rows plus the zero-temperature
check), and ``kk`` (Kramers-Kronig ingestion of absorption data).

Exit codes: 0 success, 1 computational failure, 2 tolerance failure,
3 input or usage error.  Input is checked where it enters, so any other
error raised by the numerics counts as a computational failure.

``main`` builds only the named command's parser, and each command imports
what it runs: ``golden`` for ``table``, ``lifshitz`` for the commands that
sum modes and ``thermo`` for ``entropy``.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # no collection during the imports; main enables the collector

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .dielectric import (
    BlochGruneisenParams,
    DrudeModel,
    IdealMetal,
    MaterialDatabase,
    NuRangeError,
    PermittivityTable,
    TabulatedModel,
    UnknownMaterialError,
    Vacuum,
    kramers_kronig_transform,
    read_optical_csv,
)
from .quadrature import QuadratureError
from .quantities import CODATA, Geometry

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_TOLERANCE = 2
EXIT_INPUT = 3

# Most points of a ``kk`` zeta grid, about 25x the largest default grid.
_GRID_MAX = 10**6

COMMANDS = ("pressure", "sweep", "table", "entropy", "kk")


class InputError(ValueError):
    """Bad command line input or unreadable data file."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as InputError, so it exits 3 and not 2."""

    def error(self, message):
        raise InputError(message)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise InputError(f"expected at least one number in {text!r}")
    if not all(0 < v < math.inf for v in values):
        raise InputError(f"values must be positive and finite, got {text!r}")
    return values


def _apply_config(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse the subcommand's flags again over the JSON config file's values,
    so flags > config > defaults.

    A key names a flag of the subcommand that takes a value; a JSON string
    or number goes through that flag's type and choices.
    """
    if not getattr(args, "config", None):
        return args
    import json

    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(conf, dict):
        raise InputError(f"{args.config}: config must be a JSON object")
    base = argparse.Namespace(command=args.command)
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        action = args.command_parser._option_string_actions.get(flag)
        if action is None or action.dest != key or action.nargs == 0 or key == "config":
            raise InputError(f"{args.config}: {args.command} takes no config key {key!r} ({flag})")
        try:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError
            value = (action.type or str)(str(value))
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except ValueError:
            raise InputError(f"{args.config}: invalid value {value!r} "
                             f"for config key {key!r}") from None
        setattr(base, key, value)
    return args.command_parser.parse_args(argv[argv.index(args.command) + 1:], base)


def _build_spec(args: argparse.Namespace):
    """The command's QuadratureSpec with the tolerances of its flags."""
    try:
        return replace(args.spec, integral_rel_tol=args.int_tol, sum_rel_tol=args.sum_tol)
    except ValueError as exc:
        raise InputError(f"--int-tol/--sum-tol: {exc}") from None


def _database(args: argparse.Namespace) -> MaterialDatabase:
    if args.materials:
        try:
            return MaterialDatabase.from_json(args.materials)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load material database: {exc}") from exc
    return MaterialDatabase.builtin()


def _side_model(label: str, db: MaterialDatabase, bg=None, eps_path=None):
    """Model of one half-space, a permittivity table read here once.  With
    ``bg`` the Drude model, also a table's continuation below its window,
    takes the relaxation frequency nu(T)."""
    if not eps_path and label.lower() in ("vacuum", "ideal"):
        return Vacuum() if label.lower() == "vacuum" else IdealMetal()
    drude = DrudeModel(db.get(label), bg)
    if not eps_path:
        return drude
    try:
        return TabulatedModel(PermittivityTable.from_csv(eps_path), low_freq=drude)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load permittivity table {eps_path}: {exc}") from exc


def _pair_models(args: argparse.Namespace):
    """(model1, model3) for ``--pair``."""
    db = _database(args)
    labels = [tok.strip() for tok in args.pair.split(",")]
    if len(labels) != 2 or not all(labels):
        raise InputError(f"--pair needs two comma-separated labels, got {args.pair!r}")
    bg = None
    if args.nu_model == "bloch-gruneisen":
        try:
            bg = BlochGruneisenParams()
            bg = bg if args.theta is None else replace(bg, theta_K=args.theta)
        except ValueError as exc:
            raise InputError(f"--theta: {exc}") from None
    elif args.theta is not None:
        raise InputError("--theta needs --nu-model bloch-gruneisen")
    models = _side_model(labels[0], db, bg, args.eps1), _side_model(labels[1], db, bg, args.eps3)
    if bg is not None and all(isinstance(model, (Vacuum, IdealMetal)) for model in models):
        raise InputError("--nu-model bloch-gruneisen needs a side with Drude "
                         f"parameters, got --pair {args.pair}")
    return models


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit_rows(rows, fmt: str, stream) -> list[dict]:
    """Write the rows in ``fmt`` and return them; CSV rows go out one by one
    as they are produced."""
    written = []
    if fmt == "csv":
        writer = csv.writer(stream)
        for row in rows:
            if not written:
                writer.writerow(row.keys())
            writer.writerow([_fmt(v) for v in row.values()])
            written.append(row)
        return written
    written = list(rows)
    keys = list(written[0].keys())
    if fmt == "json":
        import json

        json.dump(written, stream, indent=2, default=_fmt)
        stream.write("\n")
    else:  # pretty
        cells = [[_fmt(row[k]) for k in keys] for row in written]
        widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
        stream.write("  ".join(k.rjust(w) for k, w in zip(keys, widths)) + "\n")
        for c in cells:
            stream.write("  ".join(v.rjust(w) for v, w in zip(c, widths)) + "\n")
    return written


def _pressures(a_list, t_list, model1, model3, spec):
    """(a, T, result) over the sorted a x T grid; a sum that runs out of terms
    gives its partial result.  ``casimir_pressure`` is looked up in lifshitz
    at each call, so a wrapper installed there sees every sum."""
    from . import lifshitz

    for a in sorted(a_list):
        for T in sorted(t_list):
            try:
                yield a, T, lifshitz.casimir_pressure(Geometry(a, T), model1, model3, spec)
            except lifshitz.SumConvergenceError as exc:
                yield a, T, exc.partial


def cmd_pressure(args: argparse.Namespace, stream) -> int:
    """``pressure``, and ``sweep``: CSV without the zero_mode_share column."""
    spec = _build_spec(args)
    a_list = _float_list(args.a)
    t_list = _float_list(args.T)
    models = _pair_models(args)

    def rows():
        for a, T, res in _pressures(a_list, t_list, *models, spec):
            row = {"a_um": a, "T_K": T, "pressure_mPa": res.pressure_mPa,
                   "zero_mode_mPa": res.zero_mode_mPa, "zero_mode_share": res.zero_mode_share,
                   "n_terms": res.n_terms_used, "converged": res.converged}
            if args.command == "sweep":
                del row["zero_mode_share"]
            yield row

    written = _emit_rows(rows(), args.format, stream)
    return EXIT_OK if all(row["converged"] for row in written) else EXIT_COMPUTE


def cmd_table(args: argparse.Namespace, stream) -> int:
    from . import golden  # the one command that reads the reference grids

    if args.table_id not in golden.TABLES:
        raise InputError(f"table id must be 1..6, got {args.table_id}")
    fixture = golden.TABLES[args.table_id]
    db = _database(args)
    spec = _build_spec(args)
    tols = {}  # only those given: cell_tolerance owns the defaults
    for side, tol in (("short", args.tol_short), ("long", args.tol_long)):
        if tol is not None:
            if not 0 <= tol < math.inf:
                raise InputError(f"--tol-{side} must be finite and >= 0, got {tol}")
            tols[side + "_tol"] = tol
    sides = [_side_model(label, db) for label in fixture.pair]
    cells = list(_pressures(golden.SEPARATIONS_UM, golden.TEMPERATURES_K, *sides, spec))
    rows = []
    offenders = []
    for a, T, res in cells:
        ref, corrected = fixture.reference(a, T)
        dev = abs(abs(res.pressure_mPa) - ref) / ref
        tol = golden.cell_tolerance(a, **tols)
        ok = dev <= tol and res.converged
        if not ok:
            offenders.append((a, T, dev, tol))
        rows.append({"a_um": a, "T_K": T, "computed_mPa": abs(res.pressure_mPa),
                     "reference_mPa": ref, "rel_dev": dev, "tol": tol,
                     "status": "pass" if ok else "FAIL",
                     "note": "typo-corrected reference" if corrected else ""})
    _emit_rows(rows, args.format, stream)
    head = f"table {args.table_id} ({'-'.join(fixture.pair)})"  # stderr: stdout holds rows only
    if not all(res.converged for _, _, res in cells):
        sys.stderr.write(f"{head}: computational failure\n")
        return EXIT_COMPUTE
    if offenders:
        sys.stderr.write(f"{head}: {len(offenders)}/{len(rows)} cells out of tolerance\n")
        for a, T, dev, tol in offenders:
            sys.stderr.write(f"  a={a} um T={T} K: dev={dev:.3%} > tol={tol:.0%}\n")
        return EXIT_TOLERANCE
    sys.stderr.write(f"{head}: all {len(rows)} cells within tolerance\n")
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace, stream) -> int:
    from .thermo import entropy, nernst_check  # the one command that needs thermo

    spec = _build_spec(args)
    a_list = _float_list(args.a)
    t_list = _float_list(args.T)
    step = args.fd_step
    if not 0 < step < min(t_list):
        raise InputError(f"--fd-step must be positive and below every T, got {step}")
    models = _pair_models(args)  # entropy takes them at T -/+ step
    rows = []
    for a in sorted(a_list):
        for T in sorted(t_list):
            geom = Geometry(a, T)
            res = entropy(geom, *models, spec, fd_step_K=step)
            row = {"a_um": a, "T_K": T, "entropy_J_per_m2_K": res.entropy_J_per_m2_K,
                   "fd_step_K": res.fd_step_K}
            if args.check_step_halving:
                half = entropy(geom, *models, spec, fd_step_K=step / 2)
                row["entropy_halved_step"] = half.entropy_J_per_m2_K
                row["richardson"] = (4.0 * half.entropy_J_per_m2_K
                                     - res.entropy_J_per_m2_K) / 3.0
            rows.append(row)
    _emit_rows(rows, args.format, stream)
    t_min, failed = min(t_list), False
    for a in sorted(a_list):  # stderr: stdout holds rows only
        report = nernst_check(Geometry(a, t_min), *models, spec)
        failed = failed or not report.passed
        sys.stderr.write(
            f"nernst a={a} um: {'pass' if report.passed else 'FAIL'} "
            f"(|S({_fmt(t_min)}K)|={abs(report.entropies_J_per_m2_K[0]):.3e}, "
            f"threshold |S_NV|/2={report.threshold_J_per_m2_K:.3e}, "
            f"monotone={str(report.monotone).lower()})\n")
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_kk(args: argparse.Namespace, stream) -> int:
    try:  # the reader checks the samples before they set the default grid
        omega, eps2 = read_optical_csv(args.input)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if args.grid:
        try:
            lo, hi, per_decade = (float(v) for v in args.grid.split(","))
        except ValueError:
            raise InputError(f"--grid needs lo,hi,per_decade, got {args.grid!r}") from None
        if not (0 < lo < hi < math.inf and 0 < per_decade < math.inf):
            raise InputError(f"--grid values out of range: {args.grid!r}")
    else:
        lo, hi, per_decade = float(omega[0]), float(omega[-1]), 60.0
    span = np.log10(hi / lo) * per_decade  # points - 1; inf past the double range
    if not span + 1 < _GRID_MAX:
        raise InputError(f"--grid asks for {span + 1:.3g} points, more than {_GRID_MAX:g}")
    n = max(2, int(round(span)) + 1)
    zeta_grid = np.logspace(np.log10(lo), np.log10(hi), n)
    eps = kramers_kronig_transform(omega, eps2, zeta_grid)
    try:
        PermittivityTable(zeta_grid / CODATA.eV_to_rad_per_s, eps).to_csv(args.output)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    stream.write(f"wrote {n} rows to {args.output}\n")
    return EXIT_OK


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The subcommand parsers are the one list of what each command accepts,
    on the command line and in a ``--config`` file.  With a ``command`` of
    COMMANDS only its parser is built, and only the modules it needs are
    imported; without, all of them, for the top-level help."""
    parser = _Parser(
        prog="casimir",
        description="Finite-temperature Casimir pressure between material half-spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = COMMANDS if command is None else (command,)

    def common(p: argparse.ArgumentParser, T: str | None, spec=None, formats: bool = True) -> None:
        """Shared flags; ``T`` is the default --T (None: no pair flags), and
        the tolerances of ``spec`` (default: lifshitz's) are the defaults of
        --int-tol/--sum-tol."""
        from .lifshitz import _DEFAULT_SPEC

        spec = spec or _DEFAULT_SPEC
        if T is not None:
            p.add_argument("--pair", default="Au,Au", help="two material labels, "
                           "also vacuum or ideal (default %(default)s)")
            p.add_argument("--a", default="1.0",
                           help="comma-separated gap widths in um (default %(default)s)")
            p.add_argument("--T", default=T,
                           help="comma-separated temperatures in K (default %(default)s)")
            p.add_argument("--eps1", help="permittivity table CSV for side 1")
            p.add_argument("--eps3", help="permittivity table CSV for side 3")
            p.add_argument("--nu-model", dest="nu_model", default="fixed",
                           choices=("fixed", "bloch-gruneisen"),
                           help="relaxation frequency model (default %(default)s)")
            p.add_argument("--theta", type=float, help="phonon temperature for "
                           f"bloch-gruneisen (default {BlochGruneisenParams().theta_K:g} K)")
        p.add_argument("--int-tol", dest="int_tol", type=float, default=spec.integral_rel_tol,
                       help="relative tolerance of the mode integrals (default %(default)g)")
        p.add_argument("--sum-tol", dest="sum_tol", type=float, default=spec.sum_rel_tol,
                       help="relative tolerance of the frequency sum (default %(default)g)")
        if formats:
            p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty",
                           help="output format (default %(default)s)")
        p.add_argument("--materials", help="JSON material database path")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.set_defaults(spec=spec)

    if "pressure" in wanted:
        p = sub.add_parser("pressure", help="pressure at given (a, T) points")
        common(p, T="300")
        p.set_defaults(func=cmd_pressure)

    if "sweep" in wanted:
        p = sub.add_parser("sweep", help="pressure over the a x T grid as a CSV stream")
        common(p, T="300", formats=False)
        p.set_defaults(func=cmd_pressure, format="csv")

    if "table" in wanted:
        from . import golden

        short_tol, long_tol = golden.cell_tolerance.__defaults__
        p = sub.add_parser("table", help="regression against a reference grid")
        p.add_argument("table_id", type=int, help="reference table id (1..6)")
        p.add_argument("--tol-short", dest="tol_short", type=float,
                       help=f"relative tolerance for a < {golden.SHORT_RANGE_UM:g} um "
                       f"(default {short_tol:g})")
        p.add_argument("--tol-long", dest="tol_long", type=float,
                       help=f"relative tolerance for a >= {golden.SHORT_RANGE_UM:g} um "
                       f"(default {long_tol:g})")
        common(p, T=None)
        p.set_defaults(func=cmd_table)

    if "entropy" in wanted:
        from .lifshitz import _ENTROPY_SPEC, _ENTROPY_STEP_K

        p = sub.add_parser("entropy", help="entropy rows and zero-temperature check")
        common(p, T="1,2,4,8", spec=_ENTROPY_SPEC)
        p.add_argument("--fd-step", dest="fd_step", type=float, default=_ENTROPY_STEP_K,
                       help="central-difference step in K (default %(default)g)")
        p.add_argument("--check-step-halving", action="store_true",
                       help="also report the halved-step and Richardson values")
        p.set_defaults(func=cmd_entropy)

    if "kk" in wanted:
        p = sub.add_parser("kk", help="Kramers-Kronig transform of absorption data")
        p.add_argument("input", help="CSV with header omega_rad_s,eps_imag")
        p.add_argument("output", help="output CSV with header zeta_rad_s,eps_izeta")
        p.add_argument("--grid", help="zeta grid as lo,hi,per_decade in rad/s "
                       "(default: the input window at 60/decade)")
        p.set_defaults(func=cmd_kk)

    for p in sub.choices.values():  # read by _apply_config
        p.set_defaults(command_parser=p)
    return parser


def _sum_errors() -> tuple:
    """SumConvergenceError if lifshitz, the module that raises it, is loaded."""
    lifshitz = sys.modules.get(f"{__package__}.lifshitz")
    return (lifshitz.SumConvergenceError,) if lifshitz else ()


def main(argv=None) -> int:
    if argv is None:
        # the command ends the process: frozen, the import heap is skipped by
        # every collection, the one at shutdown included; the collector is
        # off from the start of a ``python -m casimir.cli`` process to here
        gc.freeze()
        gc.enable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        args = _apply_config(parser.parse_args(argv), argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so the flush
        # at exit cannot fail again (Python's documented recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_COMPUTE
    except (InputError, UnknownMaterialError, NuRangeError) as exc:
        # nu(T) may be out of range at a T the library derives, such as T - fd_step
        flags = "--T/--theta: " if isinstance(exc, NuRangeError) else ""
        print(f"error: {flags}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, *_sum_errors(), ValueError) as exc:  # built on an error only
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
