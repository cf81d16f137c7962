"""The benchmark's trace shims (``perfbench/tracing.py``) still fit the package.

The shims patch names of five modules and five classes by name, so a
refactor that renames one of them breaks ``perfbench/run.py --trace 1``
without failing anything else.  Here the shims are loaded by path, with no
bytecode written under ``perfbench``, installed around a Bloch-Grueneisen
pressure, an entropy and a free energy whose modes reach the adaptive
quadrature, and uninstalled; the spans must show each layer, that
fallback under ``lifshitz.integrate``, and every callable the shims could
have replaced must be back.
"""

import types
from pathlib import Path

import casimir
import casimir.cli
import casimir.dielectric as dielectric
import casimir.lifshitz
import casimir.thermo

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (casimir, dielectric, casimir.lifshitz, casimir.thermo, casimir.cli)
CLASSES = (dielectric.DrudeModel, dielectric.TabulatedModel, dielectric.Vacuum,
           dielectric.IdealMetal, dielectric.PermittivityTable)


def load_tracing():
    """perfbench/tracing.py as a module, compiled from its source alone."""
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def callables():
    """{(owner, name): value} of every callable attribute of MODULES and CLASSES."""
    return {(owner, name): value for owner in (*MODULES, *CLASSES)
            for name, value in vars(owner).items()
            if callable(value) or isinstance(value, (classmethod, staticmethod))}


def test_the_shims_trace_every_layer_and_put_everything_back():
    for name in casimir.__all__:  # a name first used under the shims would keep its shim
        getattr(casimir, name)
    before = callables()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        au = casimir.DrudeModel(casimir.MaterialDatabase.builtin().get("Au"),
                                casimir.BlochGruneisenParams())
        casimir.casimir_pressure(casimir.Geometry(1.0, 300.0), au, au)
        plain = casimir.DrudeModel(au.params)
        casimir.entropy(casimir.Geometry(1.0, 4.0), plain, plain)
        casimir.free_energy(casimir.Geometry(0.16, 10.0), plain, plain)  # two adaptive modes
    finally:
        tracer.uninstall()
    assert {"lifshitz.sum", "thermo.entropy", "thermo.free_energy", "dielectric.epsilon",
            "dielectric.bg"} <= set(tracer.spans)
    # a free energy's fallback calls the integrator lifshitz binds, not thermo's
    assert tracer.spans["lifshitz.integrate"][0] == 2 and "thermo.integrate" not in tracer.spans
    after = callables()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
