"""One benchmark run of one workload: set up, run timed passes, check outputs.

``run.py`` starts this script in a fresh interpreter with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  It prints one JSON
object on its last line of standard output.

    --setup-only   do only what precedes the first timed evaluation, print
                   ``ready`` and exit (``run.py`` times this from outside)
    --record       run one untraced pass and write its outputs to
                   ``recorded/<workload>-<seed>.json``; later runs of that
                   seed compare against them
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import Speed, clock

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED = os.path.join(HERE, "recorded")
# The project's rule for a result that may change: at most 1e-12 relative.  The
# CLI prints 12 significant digits, so one unit in the last printed digit
# (up to 1e-11 relative) is the same bound seen through the output format.
REL_TOL = 1e-12
PRINTED_REL_TOL = 1e-11
CHILD_TIMEOUT_S = 120
TIME_UNITS = ("s", "us", "ns")


class CliError(RuntimeError):
    """The CLI exited with a non-zero code."""


def setup(workload: str):
    """Imports, models and lazy caches: all that precedes the first timed
    evaluation.  Returns the casimir package and the models by label."""
    if workload == "cli_tabulated":
        import casimir.cli
        casimir.cli.build_parser()
        return casimir, {}
    import casimir
    db = casimir.MaterialDatabase.builtin()
    models = {label: casimir.DrudeModel(db.get(label)) for label in ("Au", "Cu", "Al")}
    models["ideal"] = casimir.IdealMetal()
    casimir.zeta3()
    if workload == "entropy_ladder":
        models["bg"] = casimir.BlochGruneisenParams()
    return casimir, models


class Pressure:
    """cold_sum and warm_grid: one ``casimir_pressure`` per [pair, a, T]."""

    def __init__(self, C, models):
        self.C, self.models = C, models

    def __call__(self, cell):
        (m1, m3), a, t = cell
        C = self.C
        r = C.casimir_pressure(C.Geometry(a, t), self.models[m1], self.models[m3])
        return [r.pressure_mPa, r.zero_mode_mPa, r.n_terms_used]

    def swapped(self, cell):
        (m1, m3), a, t = cell
        return self([[m3, m1], a, t])

    @staticmethod
    def symmetry_probe(inputs):
        """The cheapest cell of each mixed pair."""
        best = {}
        for cell in inputs:
            (m1, m3), a, t = cell[:3]
            if m1 != m3 and a * t > best.get((m1, m3), (0.0, None))[0]:
                best[(m1, m3)] = (a * t, cell)
        return [cell for _, cell in best.values()]

    @staticmethod
    def invariants(item, out) -> str | None:
        p, zero, _ = out
        if not (math.isfinite(p) and p < 0 and abs(p) >= abs(zero)):
            return f"pressure {p} vs zero mode {zero}"
        return None

    @staticmethod
    def matches(out, rec) -> bool:
        return out[2] == rec[2] and all(_close(x, y, REL_TOL) for x, y in zip(out[:2], rec[:2]))


class Entropy(Pressure):
    """entropy_ladder: one ``entropy`` per [pair, a, T, bloch_gruneisen]."""

    def __call__(self, row):
        (m1, m3), a, t, bg = row
        C, models = self.C, self.models
        models_at = None
        if bg:
            def models_at(t_K):
                nu = C.bloch_gruneisen_nu(models["bg"], t_K)
                return tuple(C.DrudeModel(C.DrudeParams(models[m].params.omega_p_eV, nu, m))
                             for m in (m1, m3))
        r = C.entropy(C.Geometry(a, t), models[m1], models[m3], models_at=models_at)
        return [r.entropy_J_per_m2_K]

    def swapped(self, row):
        (m1, m3), a, t, bg = row
        return self([[m3, m1], a, t, bg])

    @staticmethod
    def invariants(item, out) -> str | None:
        return None if math.isfinite(out[0]) else f"entropy {out[0]}"

    @staticmethod
    def matches(out, rec) -> bool:
        return _close(out[0], rec[0], REL_TOL)


class Cli:
    """cli_tabulated: ``casimir kk`` and ``casimir sweep`` as subprocesses."""

    def __init__(self, C, root: str, inputs: dict, workdir: str):
        import workloads
        self.root, self.workdir = root, workdir
        self.labels = [ab[0] for ab in inputs["absorbers"]]
        self.tracer = None
        ev = C.CODATA.eV_to_rad_per_s
        lo, hi, per_decade = workloads.ABSORPTION_GRID_RAD_S
        n = int(round(math.log10(hi / lo) * per_decade)) + 1
        omega = [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]
        for k, (_, wp_eV, nu_eV) in enumerate(inputs["absorbers"]):
            wp, nu = wp_eV * ev, nu_eV * ev
            with open(self._path("abs", k), "w") as fh:
                fh.write("omega_rad_s,eps_imag\n")
                for w in omega:
                    fh.write(f"{w!r},{wp * wp * nu / (w * (w * w + nu * nu))!r}\n")
        self.kk_grid = workloads.KK_GRID

    def _path(self, kind: str, k: int) -> str:
        return os.path.join(self.workdir, f"{kind}{k}.csv")

    def argv(self, inv) -> list[str]:
        if inv[0] == "kk":
            k = inv[1]
            return ["kk", self._path("abs", k), self._path("eps", k), "--grid", self.kk_grid]
        _, i, j, a, t = inv
        return ["sweep", "--pair", f"{self.labels[i]},{self.labels[j]}",
                "--eps1", self._path("eps", i), "--eps3", self._path("eps", j),
                "--a", ",".join(map(repr, a)), "--T", ",".join(map(repr, t))]

    def __call__(self, inv):
        argv = self.argv(inv)
        trace_out = os.path.join(self.workdir, "trace.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "casimir.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   trace_out, repr(time.monotonic()), *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if self.tracer is not None and os.path.exists(trace_out):
            with open(trace_out) as fh:
                self.tracer.merge(json.load(fh))
            os.remove(trace_out)
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if inv[0] == "kk":
            with open(self._path("eps", inv[1])) as fh:
                lines = fh.read().split()
        else:
            lines = proc.stdout.split()
        return [line.split(",") for line in lines[1:]]

    def swapped(self, inv):
        _, i, j, a, t = inv
        return self(["sweep", j, i, a, t])

    @staticmethod
    def symmetry_probe(inputs):
        mixed = [inv for inv in inputs if inv[0] == "sweep" and inv[1] != inv[2]]
        return mixed[:1]

    @staticmethod
    def invariants(item, out) -> str | None:
        if item[0] == "kk":  # a table of eps >= 1, non-increasing
            eps = [float(e) for _, e in out]
            if len(eps) < 2 or eps[-1] < 1.0 or any(b > a for a, b in zip(eps, eps[1:])):
                return "kk table not >= 1 and non-increasing"
            return None
        if len(out) != len(item[3]) * len(item[4]):
            return f"{len(out)} sweep rows"
        for row in out:
            p, zero, conv = float(row[2]), float(row[3]), row[5]
            if conv != "true" or not (p < 0 and abs(p) >= abs(zero)):
                return f"sweep row {row}"
        return None

    @staticmethod
    def matches(out, rec) -> bool:
        if len(out) != len(rec):
            return False
        for row, ref in zip(out, rec):
            if len(row) != len(ref):
                return False
            for x, y in zip(row, ref):
                if x == y:
                    continue
                try:
                    if not _close(float(x), float(y), PRINTED_REL_TOL):
                        return False
                except ValueError:  # a non-numeric field such as `converged`
                    return False
        return True


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


def run_pass(evaluate, inputs, problems: list, speed: Speed):
    """Closed loop over the input set while ``speed`` samples the machine;
    returns ([(start, end, seconds)] per input, outputs, speed marks).  The
    seconds leave out the speed samples taken during the evaluation."""
    spans, outputs = [], []
    first = speed.mark()
    for item in inputs:
        speed.maybe_sample()
        busy = speed.busy
        t0 = clock()
        try:
            out = evaluate(item)
        except Exception as exc:  # a failed evaluation is counted, not fatal
            out = {"error": type(exc).__name__}
            note = f"failed: {item!r}: {type(exc).__name__}: {str(exc)[:300]}"
            if note not in problems and len(problems) < 20:
                problems.append(note)
        t1 = clock()
        spans.append((t0, t1, t1 - t0 - (speed.busy - busy)))
        outputs.append(out)
    speed.sample()
    return spans, outputs, (first, speed.mark())


def timed_speed(kind) -> Speed:
    """Speed samples from a timer for in-process workloads; the CLI
    workload waits on child processes and samples between them."""
    speed = Speed()
    if kind is not Cli:
        speed.start_timer()
    return speed


def run_measured(run_some, n_calls: int, speed: Speed) -> list:
    """``n_calls`` calls of ``run_some()``, each returning a list of passes
    as ``run_pass`` makes them; all the passes, with each time in reference
    seconds.  With timer samples, each evaluation is scaled by the samples
    taken during it; otherwise (CLI children, which may run on another core
    than the samples) by all samples of its pass."""
    timed = speed.timed
    try:
        passes = [p for _ in range(n_calls) for p in run_some()]
    finally:
        speed.stop_timer()
    speed.sample()
    out = []
    for spans, outs, marks in passes:
        pass_factor = speed.factor(*marks)
        out.append(([dt * (speed.local_factor(t0, t1) if timed else pass_factor)
                     for t0, t1, dt in spans], outs, marks))
    return out


def per_input(passes) -> list[float]:
    """Each input's mean time over the passes, for the inputs whose
    evaluation returned (failures repeat exactly and are counted apart)."""
    return [statistics.fmean(p[0][i] for p in passes)
            for i in range(len(passes[0][0]))
            if not any(isinstance(p[1][i], dict) for p in passes)]


def check_outputs(kind, inputs, passes, record, problems: list) -> set[int]:
    """Indices whose output is wrong: not repeatable between passes, not
    matching the recorded output, or breaking an invariant."""
    bad = set()
    first = passes[0][1]
    for _, outs, _ in passes[1:]:
        for i, (a, b) in enumerate(zip(first, outs)):
            if a != b:
                bad.add(i)
                problems.append(f"not repeatable: {inputs[i]!r}")
    for i, out in enumerate(first):
        if isinstance(out, dict):
            continue  # a failed evaluation, already counted
        rec = record[i] if record is not None else None
        if rec is not None and not isinstance(rec, dict):
            if not kind.matches(out, rec):
                bad.add(i)
                problems.append(f"differs from record: {inputs[i]!r}: {out} vs {rec}")
            continue
        why = kind.invariants(inputs[i], out)
        if why:
            bad.add(i)
            problems.append(f"invariant broken: {inputs[i]!r}: {why}")
    return bad


def check_symmetry(evaluator, kind, inputs, first, record, problems: list) -> set[int]:
    """Exact pair symmetry on the cheapest mixed-pair input of each pair,
    for inputs without a recorded output."""
    bad = set()
    for item in kind.symmetry_probe(inputs):
        i = inputs.index(item)
        if isinstance(first[i], dict) or (record is not None and not isinstance(record[i], dict)):
            continue
        try:
            mirrored = evaluator.swapped(item)
        except Exception as exc:  # reported as a wrong output below
            mirrored = {"error": type(exc).__name__}
        if mirrored != first[i]:
            bad.add(i)
            problems.append(f"pair symmetry broken: {item!r}: {first[i]} vs {mirrored}")
    return bad


def _load_record(workload: str, seed: int, inputs) -> list | None:
    path = os.path.join(RECORDED, f"{workload}-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        rec = json.load(fh)
    if rec["inputs"] != json.loads(json.dumps(inputs)):
        raise SystemExit(f"{path} was recorded for other inputs; record it again")
    return rec["outputs"]


def _flat(inputs):
    return inputs["invocations"] if isinstance(inputs, dict) else inputs


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the 99th percentile, or where
    fewer than ten samples lie above it, the highest order statistic with at
    least ten above it; never below the lower median that ``eval_ms_p50``
    reports (with fewer than 21 samples that is the median).  Above p99 the
    few costliest inputs of a seed would set the value alone."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(min(math.ceil(0.99 * n) - 1, n - 11), (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def measure_end_to_end(evaluator, kind, items, n_passes: int, problems: list):
    """``n_passes`` passes.  ``wall_s`` is the mean pass over the inputs
    that returned; the latency percentiles are over every evaluation of
    every pass, so the tail has samples beyond it on every workload."""
    speed = timed_speed(kind)
    passes = run_measured(lambda: [run_pass(evaluator, items, problems, speed)],
                          n_passes, speed)
    returned = [i for i in range(len(items))
                if not any(isinstance(p[1][i], dict) for p in passes)]
    samples = [p[0][i] for p in passes for i in returned]
    tail, pct, beyond = _tail(samples)
    who = resource.RUSAGE_CHILDREN if kind is Cli else resource.RUSAGE_SELF
    return passes, {
        "passes": [len(passes)], "timed": len(samples),
        "wall_s": sum(per_input(passes)),
        "eval_ms_p50": 1e3 * statistics.median_low(samples),
        "eval_ms_tail": 1e3 * tail, "tail_percentile": pct, "tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def measure_layers(evaluator, kind, items, n_passes: int, problems: list):
    """Pairs of passes, one untraced and one with the shims installed;
    per-module metrics of each traced pass, their median, and the tracing
    overhead.  Times are in reference seconds (``speed.py``)."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    speed = timed_speed(kind)
    tracer = Tracer(clock=lambda: clock() - speed.busy)
    snaps = []

    def pair():
        untraced = run_pass(evaluator, items, problems, speed)
        if kind is Cli:
            evaluator.tracer = tracer  # the CLI children install the shims
        else:
            tracer.install()
        try:
            traced = run_pass(evaluator, items, problems, speed)
        finally:
            tracer.uninstall()
            if kind is Cli:
                evaluator.tracer = None
        snaps.append(tracer.snapshot())
        tracer.reset()
        return [untraced, traced]
    pairs = run_measured(pair, max(1, round(n_passes / 2)), speed)
    untraced, traced = pairs[0::2], pairs[1::2]

    rows = [sum(len(o) for o in p[1] if not isinstance(o, dict)) if kind is Cli else 0
            for p in traced]
    per_pass = []
    for snap, n_rows, (_, _, marks) in zip(snaps, rows, traced):
        metrics = layer_metrics(snap, n_rows)
        factor = speed.factor(*marks)
        for name, (unit, is_counter) in LAYER_METRICS.items():
            if not is_counter and unit in TIME_UNITS:
                metrics[name] *= factor
        per_pass.append(metrics)
    layers, repeat = {}, True
    for name, (_, is_counter) in LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if is_counter and len(set(values)) > 1:
            problems.append(f"work counter {name} differs between passes: {values}")
            repeat = False
        layers[name] = values[0] if is_counter else statistics.median(values)
    overhead = [sum(per_input([t])) / sum(per_input([u])) for u, t in zip(untraced, traced)]
    layers["trace.overhead_frac"] = statistics.median(overhead) - 1.0
    return pairs, {"passes": [len(untraced), len(traced)], "layers": layers,
                   "counters_repeat": repeat}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record and args.tiny:
        ap.error("outputs are recorded for the full-size inputs only")
    root = os.getcwd()

    if args.setup_only:
        setup(args.workload)
        print("ready", flush=True)
        return 0

    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.tiny)
    C, models = setup(args.workload)
    src = os.path.join(root, "src", "")
    if not os.path.abspath(C.__file__).startswith(src):
        raise SystemExit(f"casimir imported from {C.__file__}, not from {src}")

    workdir = None
    if args.workload == "cli_tabulated":
        os.makedirs(os.path.join(root, ".bench_build"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="perfbench-", dir=os.path.join(root, ".bench_build"))
        evaluator, kind = Cli(C, root, inputs, workdir), Cli
    elif args.workload == "entropy_ladder":
        evaluator, kind = Entropy(C, models), Entropy
    else:
        evaluator, kind = Pressure(C, models), Pressure
    items = _flat(inputs)
    problems: list[str] = []
    try:
        if args.record:
            passes = [run_pass(evaluator, items, problems, Speed())]
            path = os.path.join(RECORDED, f"{args.workload}-{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "inputs": inputs, "outputs": passes[0][1]}, fh)
                fh.write("\n")
            print(json.dumps({"recorded": path, "problems": problems}))
            return 0

        record = None if args.tiny else _load_record(args.workload, args.seed, inputs)
        measure = measure_layers if args.trace else measure_end_to_end
        n_passes = max(1, round(workloads.PASSES_AT_20_S[args.workload] * args.seconds / 20))
        passes, result = measure(evaluator, kind, items, n_passes, problems)
        first = passes[0][1]
        bad = check_outputs(kind, items, passes, record, problems)
        bad |= check_symmetry(evaluator, kind, items, first, record, problems)
        failed = sum(isinstance(out, dict) or i in bad
                     for _, outs, _ in passes for i, out in enumerate(outs))
        result.update(
            inputs=len(items), attempted=len(items) * len(passes), failed=failed,
            correct=not bad and result.get("counters_repeat", True),
            recorded=record is not None, problems=problems)
        print(json.dumps(result))
        return 0
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
