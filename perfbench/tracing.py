"""Per-module spans and work counters, installed from outside the program.

The shims replace public functions of the ``casimir`` modules by wrappers
that time each call; nothing under ``src/`` changes.  Spans nest on a stack,
and each span's self time is its duration minus the time its child spans
cover.  Spans are kept as in-memory aggregates per name (calls, total
seconds, self seconds), because the inner ones (integrand batches, eps
calls) fire hundreds of thousands of times per pass.

Span names and the layer they belong to:

    lifshitz.sum          casimir_pressure
    lifshitz.integrate    integrate_adaptive as bound in casimir.lifshitz
    lifshitz.kernel       the integrand passed to it (the mode kernel)
    thermo.entropy        entropy
    thermo.free_energy    free_energy
    thermo.integrate      integrate_adaptive as bound in casimir.thermo
    thermo.kernel         the free-energy integrand passed to it
    dielectric.epsilon    .epsilon of every model class
    dielectric.table_read PermittivityTable.from_csv
    dielectric.kk         kramers_kronig_transform
    dielectric.bg         bloch_gruneisen_nu
    cli.main              casimir.cli.main
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-name aggregates and named counters."""

    def __init__(self, clock=time.perf_counter):
        """``clock`` times the spans; the harness passes one that stops
        while it samples the machine's speed."""
        self._clock = clock
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.startup_s: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        stack = self._stack
        clock = self._clock
        children = [0.0]
        stack.append(children)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - children[0]

    def wrap(self, name: str, fn):
        call = self.call

        def shim(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return shim

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "startup_s": list(self.startup_s)}

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.startup_s.clear()

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, (calls, total, self_s) in snap["spans"].items():
            agg = self.spans[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, n in snap["counts"].items():
            self.counts[name] += n
        self.startup_s.extend(snap["startup_s"])

    def _patch(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap the public entry points of every casimir module."""
        import casimir
        import casimir.cli as cli
        import casimir.dielectric as dielectric
        import casimir.lifshitz as lifshitz
        import casimir.thermo as thermo
        from casimir.quadrature import QuadratureError

        modules = (casimir, dielectric, lifshitz, thermo, cli)
        counts = self.counts
        call = self.call

        def everywhere(orig, new):
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, new)

        orig_pressure = lifshitz.casimir_pressure

        def casimir_pressure(*args, **kwargs):
            try:
                return call("lifshitz.sum", orig_pressure, *args, **kwargs)
            except Exception:
                counts["lifshitz.sum_errors"] += 1
                raise
        everywhere(orig_pressure, casimir_pressure)

        for mod, layer in ((lifshitz, "lifshitz"), (thermo, "thermo")):
            self._patch(mod, "integrate_adaptive",
                        self._integrate_shim(mod.integrate_adaptive, layer, QuadratureError))

        for cls in (dielectric.DrudeModel, dielectric.TabulatedModel,
                    dielectric.Vacuum, dielectric.IdealMetal):
            def epsilon(model, zeta_eV, _orig=cls.__dict__["epsilon"]):
                counts["dielectric.eps_points"] += getattr(zeta_eV, "size", 1)
                return call("dielectric.epsilon", _orig, model, zeta_eV)
            self._patch(cls, "epsilon", epsilon)

        from_csv = dielectric.PermittivityTable.__dict__["from_csv"].__func__
        self._patch(dielectric.PermittivityTable, "from_csv", classmethod(
            lambda cls, path: call("dielectric.table_read", from_csv, cls, path)))

        for orig, name in ((dielectric.kramers_kronig_transform, "dielectric.kk"),
                           (dielectric.bloch_gruneisen_nu, "dielectric.bg"),
                           (thermo.free_energy, "thermo.free_energy"),
                           (thermo.entropy, "thermo.entropy"),
                           (cli.main, "cli.main")):
            everywhere(orig, self.wrap(name, orig))

    def _integrate_shim(self, orig, layer: str, error_type):
        counts = self.counts
        call = self.call
        kernel, nodes = layer + ".kernel", layer + ".nodes"

        def integrate_adaptive(f, breaks, *args, **kwargs):
            batches = 0

            def integrand(x):
                nonlocal batches
                batches += 1
                counts[nodes] += x.size
                return call(kernel, f, x)

            counts[layer + ".terms"] += 1
            try:
                return call(layer + ".integrate", orig, integrand, breaks, *args, **kwargs)
            except error_type:
                counts["quadrature.errors"] += 1
                raise
            finally:
                counts["quadrature.batches"] += batches
                if batches == 1:
                    counts["quadrature.first_pass"] += 1
        return integrate_adaptive

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


# name -> (unit, is_work_counter); the work counters must repeat exactly.
# What each group should move (end-to-end metric, workload):
#   lifshitz.*    wall_s and eval_ms_* on cold_sum most, warm_grid little;
#                 sum_errors -> failed/attempted
#   quadrature.*  wall_s on cold_sum (refinement); errors -> failed/attempted
#                 on warm_grid
#   dielectric.*  wall_s on cli_tabulated most, cold_sum second; bg_calls on
#                 entropy_ladder
#   thermo.*      wall_s on entropy_ladder only
#   cli.*         setup_s and wall_s on cli_tabulated only
LAYER_METRICS = {
    "lifshitz.terms": ("count", True),
    "lifshitz.kernel_s": ("s", False),
    "lifshitz.kernel_ns_per_node": ("ns", False),
    "lifshitz.sum_self_s": ("s", False),
    "lifshitz.sum_us_per_term": ("us", False),
    "lifshitz.sum_errors": ("count", True),
    "quadrature.integrals": ("count", True),
    "quadrature.batches": ("count", True),
    "quadrature.nodes": ("count", True),
    "quadrature.first_pass_ratio": ("ratio", True),
    "quadrature.self_s": ("s", False),
    "quadrature.us_per_integral": ("us", False),
    "quadrature.errors": ("count", True),
    "dielectric.eps_calls": ("count", True),
    "dielectric.eps_points": ("count", True),
    "dielectric.eps_s": ("s", False),
    "dielectric.eps_ns_per_point": ("ns", False),
    "dielectric.table_reads": ("count", True),
    "dielectric.kk_s": ("s", False),
    "dielectric.bg_calls": ("count", True),
    "thermo.free_energy_calls": ("count", True),
    "thermo.terms": ("count", True),
    "thermo.kernel_s": ("s", False),
    "thermo.self_s": ("s", False),
    "cli.startup_s": ("s", False),
    "cli.self_s": ("s", False),
    "cli.rows": ("count", True),
    "trace.overhead_frac": ("ratio", False),
}


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(snap: dict, rows: int) -> dict:
    """Per-module metrics of one pass from its span aggregates and counters.

    ``rows`` is the number of data rows the CLI wrote in the pass, which
    the harness counts from the outputs it checks.  ``trace.overhead_frac``
    needs an untraced pass and is filled in by the caller.
    """
    spans, counts = snap["spans"], snap["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def count(name):
        return counts.get(name, 0)

    terms = count("lifshitz.terms")
    integrals = terms + count("thermo.terms")
    quad_self = self_s("lifshitz.integrate") + self_s("thermo.integrate")
    sum_self = self_s("lifshitz.sum")
    eps_points = count("dielectric.eps_points")
    startup = sorted(snap["startup_s"])
    return {
        "lifshitz.terms": terms,
        "lifshitz.kernel_s": total("lifshitz.kernel"),
        "lifshitz.kernel_ns_per_node": _per(total("lifshitz.kernel"),
                                            count("lifshitz.nodes"), 1e9),
        "lifshitz.sum_self_s": sum_self,
        "lifshitz.sum_us_per_term": _per(sum_self, terms, 1e6),
        "lifshitz.sum_errors": count("lifshitz.sum_errors"),
        "quadrature.integrals": integrals,
        "quadrature.batches": count("quadrature.batches"),
        "quadrature.nodes": count("lifshitz.nodes") + count("thermo.nodes"),
        "quadrature.first_pass_ratio": _per(count("quadrature.first_pass"), integrals, 1.0),
        "quadrature.self_s": quad_self,
        "quadrature.us_per_integral": _per(quad_self, integrals, 1e6),
        "quadrature.errors": count("quadrature.errors"),
        "dielectric.eps_calls": calls("dielectric.epsilon"),
        "dielectric.eps_points": eps_points,
        "dielectric.eps_s": total("dielectric.epsilon"),
        "dielectric.eps_ns_per_point": _per(total("dielectric.epsilon"), eps_points, 1e9),
        "dielectric.table_reads": calls("dielectric.table_read"),
        "dielectric.kk_s": total("dielectric.kk"),
        "dielectric.bg_calls": calls("dielectric.bg"),
        "thermo.free_energy_calls": calls("thermo.free_energy"),
        "thermo.terms": count("thermo.terms"),
        "thermo.kernel_s": total("thermo.kernel"),
        "thermo.self_s": self_s("thermo.entropy") + self_s("thermo.free_energy"),
        "cli.startup_s": startup[len(startup) // 2] if startup else 0.0,
        "cli.self_s": self_s("cli.main"),
        "cli.rows": rows,
        "trace.overhead_frac": 0.0,
    }
