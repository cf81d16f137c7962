"""Seeded input sets for the benchmark workloads, and why each one exists.

Every workload is a closed loop: one caller in one process issues each
evaluation only after the previous one has returned.  A *pass* is one walk
over the workload's whole input set; a run makes a fixed number of passes
(``PASSES_AT_20_S``, scaled with ``--seconds``), so the work of a run and
the number of latency samples never depend on how fast the machine is at
the moment.  The program only ever sees the generated inputs.

Inputs are stratified.  Each range is cut into equal strata (on a log scale
where the workload says log-uniform) and one point per stratum is drawn with
the seed.  Work per evaluation grows like 1/(a T), so a plain random draw would
make the work of a 40-point pass swing by tens of percent between seeds.
Stratification keeps each pass at nearly the same work for every seed while
the values the program sees still change with the seed.  Where a pass has
few points, the seed moves each point within the middle quarter
(``cold_sum``) or tenth (``entropy_ladder``, three separations whose
costliest rungs set the latency percentiles) of its stratum; elsewhere
(``warm_grid``, ``cli_tabulated``), anywhere in the stratum.

Workloads
---------
cold_sum
    ``casimir_pressure`` for the six Drude pairs, a log-uniform in
    [0.16, 2] um, T uniform in [1, 8] K.  These are long Matsubara sums
    (hundreds to several thousand terms, 2,000 at the median) with many
    small-A modes whose integrals need bisection,
    so the mode kernel, the quadrature bookkeeping and the per-term loop
    carry almost all the time.  A batched mode kernel should gain most here.
warm_grid
    Thousands of short ``casimir_pressure`` calls (5 to about 300 terms):
    the Drude pairs plus pairs with an ideal metal, a log-uniform in
    [0.16, 500] um, T in [77, 400] K.  Per-call fixed cost dominates, so a
    batched kernel should show no gain here, or a loss.  The large-a cells
    include the known underflow ``QuadratureError``s (a term near 1e-319
    cannot meet a purely relative target); they stay in and count as
    failed evaluations.
entropy_ladder
    ``entropy`` at T in {1, 2, 4, 8, 300} K for seeded (pair, a), a in
    [0.5, 2] um.  Two of the three ladders rebuild the models at the shifted
    temperatures with a Bloch-Grueneisen relaxation frequency
    (``models_at``).  This runs the free-energy integrand, the tighter
    ``sum_rel_tol`` = 1e-10 and the central difference, which the pressure
    workloads bypass.
cli_tabulated
    ``casimir kk`` as a subprocess on seeded Drude-like absorption CSVs,
    then ``casimir sweep --eps1/--eps3`` runs on the resulting tables with
    T in [30, 350] K.  This is the only workload that measures the ``cli``
    module, the Kramers-Kronig transform and ``TabulatedModel``; process
    start-up and the per-cell table re-reads are part of what it sees.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("cold_sum", "warm_grid", "entropy_ladder", "cli_tabulated")

DRUDE_PAIRS = (("Au", "Au"), ("Cu", "Cu"), ("Al", "Al"),
               ("Au", "Cu"), ("Au", "Al"), ("Cu", "Al"))
IDEAL_PAIRS = (("ideal", "ideal"), ("Au", "ideal"), ("Cu", "ideal"), ("Al", "ideal"))
LADDER_T_K = (1.0, 2.0, 4.0, 8.0, 300.0)

# Drude parameters (eV) the absorption data of cli_tabulated are built around;
# the label also names the Drude continuation below the table window.
ABSORBERS = (("Au", 9.03, 34.5e-3), ("Cu", 8.97, 29.5e-3), ("Al", 11.5, 50.6e-3))
ABSORPTION_GRID_RAD_S = (1e11, 3e18, 30)   # lo, hi, samples per decade
KK_GRID = "1.5e11,1.5e18,60"               # the table grid passed to `casimir kk`

# Passes per run at --seconds 20; a run scales this with --seconds and makes
# at least one.  10 to 30 s of work each on a 2-vCPU x86-64 host: the
# latency percentiles need about 45 evaluations of the costly inputs.
PASSES_AT_20_S = {"cold_sum": 3, "warm_grid": 3, "entropy_ladder": 3, "cli_tabulated": 2}


def _strata(rng, lo: float, hi: float, n: int, jitter: float, log: bool) -> np.ndarray:
    """One point in each of n equal strata of [lo, hi].

    ``jitter`` is the share of a stratum the point may fall in, centred on
    the stratum's middle; 1.0 is plain stratified sampling.
    """
    u = (np.arange(n) + 0.5 + jitter * (rng.random(n) - 0.5)) / n
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def _fixed(n: int):
    """A generator that is the same for every seed.  It pairs strata and
    assigns material pairs, so the seed cannot change which costly
    combinations a pass contains: material pairs differ in cost at equal
    sum length."""
    return np.random.default_rng(n)


def cold_sum(rng, tiny: bool) -> list:
    """[pair, a_um, T_K] cells: a Latin hypercube of 16 a-strata and 16
    T-strata.  Strata and pairs are matched by ``_fixed``, so the seed moves
    points inside their strata but not the shape of the work distribution."""
    n = 2 if tiny else 16
    fixed = _fixed(n)
    a = _strata(rng, 0.16, 2.0, n, 0.25, log=True)
    t = _strata(rng, 1.0, 8.0, n, 0.25, log=False)[fixed.permutation(n)]
    pairs = [DRUDE_PAIRS[i % len(DRUDE_PAIRS)] for i in fixed.permutation(n)]
    cells = [[list(pairs[i]), float(a[i]), float(t[i])] for i in range(n)]
    return [cells[i] for i in rng.permutation(n)]


def warm_grid(rng, tiny: bool) -> list:
    """[pair, a_um, T_K] cells; 24 a-strata x 4 T-strata for each of 10 pairs."""
    n_a, n_t = (6, 1) if tiny else (24, 4)
    cells = [[list(pair), float(a), float(t)]
             for pair in DRUDE_PAIRS + IDEAL_PAIRS
             for a in _strata(rng, 0.16, 500.0, n_a, 1.0, log=True)
             for t in _strata(rng, 77.0, 400.0, n_t, 1.0, log=True)]
    return [cells[i] for i in rng.permutation(len(cells))]


def entropy_ladder(rng, tiny: bool) -> list:
    """[pair, a_um, T_K, bloch_gruneisen] rows, the five rungs of a ladder
    in a row; 3 a-strata, two of the three ladders with Bloch-Grueneisen."""
    n = 1 if tiny else 3
    a = _strata(rng, 0.5, 2.0, n, 0.1, log=True)
    if tiny:
        a = np.array([2.0])
    pairs = [DRUDE_PAIRS[i] for i in _fixed(n).permutation(len(DRUDE_PAIRS))[:n]]
    bg = [i % 2 == 0 for i in range(n)]
    rungs = LADDER_T_K[3:] if tiny else LADDER_T_K
    return [[list(pairs[i]), float(a[i]), t, bg[i]]
            for i in rng.permutation(n) for t in rungs]


def cli_tabulated(rng, tiny: bool) -> dict:
    """Absorbers (label, omega_p_eV, nu_eV) perturbed by up to 5%, and the
    CLI invocations: one ``kk`` per absorber, then ``sweep`` runs of two
    separations x two temperatures over pairs of the resulting tables."""
    absorbers = [[label, wp * (1 + 0.1 * (rng.random() - 0.5)),
                  nu * (1 + 0.1 * (rng.random() - 0.5))]
                 for label, wp, nu in ABSORBERS]
    n_sweeps = 1 if tiny else 9
    fixed = _fixed(2 * n_sweeps)
    a = _strata(rng, 0.5, 5.0, 2 * n_sweeps, 1.0, log=True)[fixed.permutation(2 * n_sweeps)]
    t = _strata(rng, 30.0, 350.0, 2 * n_sweeps, 1.0, log=True)[fixed.permutation(2 * n_sweeps)]
    tables = [(i, j) for i in range(3) for j in range(3)]
    invocations = [["kk", k] for k in range(3)]
    for s in range(n_sweeps):
        i, j = tables[int(rng.integers(len(tables)))] if tiny else tables[s % len(tables)]
        invocations.append(["sweep", i, j,
                            sorted(float(x) for x in a[2 * s:2 * s + 2]),
                            sorted(float(x) for x in t[2 * s:2 * s + 2])])
    head, sweeps = invocations[:3], invocations[3:]
    return {"absorbers": absorbers,
            "invocations": head + [sweeps[i] for i in rng.permutation(len(sweeps))]}


def generate(workload: str, seed: int, tiny: bool = False):
    """The input set of one pass; the same (workload, seed, tiny) gives the
    same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return globals()[workload](rng, tiny)
