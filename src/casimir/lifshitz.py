"""Core mode sum: the primed Matsubara sum of semi-infinite y-integrals
over TE/TM reflection products, with the analytic static (m=0) term.

The modes are integrated in blocks: one kernel evaluates the pressure or
free-energy integrand of a whole block at once.  Both take fixed rule
pairs, a value and a coarser rule for its error, graded by the lower limit
A: Gauss-Legendre panels next to A with a Gauss-Laguerre tail for small A,
pure Gauss-Laguerre rules of fewer nodes as A grows (_RUNGS), and below
them panels scaled by A itself, whose breaks A*2^k close in on the
near-singularity at y = 0 (_SCALED: below A = 0.0022 for the pressure,
0.45 for the free energy).  Modes below the scaled panels' floor (2.4e-6
and 1e-7), and those a pair does not certify, take the adaptive
quadrature, one call per mode.  A block ends where a bound that holds
for any reflections in [0, 1] shows the sum must stop, so a short sum
takes one block.  Each later one takes as many modes as fill the nodes of
that first block's rule pairs, its bound scaled through the last term so
that it ends near the stop.  A sum plans once: the permittivities of all
the modes the bound lets it reach, up to max_terms, one side per model.
A request (lower, zeta, sides, floor) slices a plan, and its block
(_mode_block) makes every decision on its permittivities: it merges two
sides equal over its rows, classifies each as ideal at all, none or some
of them and checks them for overflow and below 1, so no mode past the last
block is read.  A sum whose bound puts mode 1 below its first floor reads
0 up to min_terms, never planned or integrated.  A sum
(_sum_steps) finds its first block's end and makes its plan in a straight
line; then every block goes through one body, which asks for the block's
integrals (_summed_modes answers with _mode_block), unless an interpolant
gives them, and sums its values, a long block's in array passes, a short
one's in a loop, with the same bits; only a sum that goes on computes the
next block's extent.
Past mode 128 a long sum of two analytic sides (Drude, ideal) takes most
terms from Chebyshev interpolants in m (casimir.chebyshev) of sample
points it integrates, both screened for bad permittivities (_screen); the
samples of each degree are one more such request (_sampled).

All mode arithmetic is dimensionless; SI conversion happens once at the
end through the SI pressure scale of :class:`casimir.quantities.Geometry`.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .dielectric import DielectricModel
from .quadrature import (GAUSS_LAGUERRE, GAUSS_LEGENDRE, QuadratureError, SumConvergenceError,
                         _count_nonzero, _einsum, integrate_adaptive)
from .quantities import Geometry

__all__ = [
    "QuadratureSpec",
    "PressureResult",
    "FreeEnergyResult",
    "SumConvergenceError",
    "lifshitz_variables",
    "reflection_te",
    "reflection_tm",
    "matsubara_term",
    "zeta3",
    "casimir_pressure",
]


# Additive safety margin on the truncation point of the y-integrals.
_Y_MAX_PAD = 5.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Error control for the y-integrals and the frequency sum; integer term counts."""

    integral_rel_tol: float = 1e-12
    sum_rel_tol: float = 1e-8
    max_terms: int = 200_000
    min_terms: int = 5

    def __post_init__(self) -> None:
        for name in ("max_terms", "min_terms"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not (0 < self.sum_rel_tol < math.inf and 0 < self.integral_rel_tol < math.inf
                and 1.0 / self.integral_rel_tol < math.inf):  # y_max takes its log
            raise ValueError("tolerances must be positive and finite, and so must "
                             "the reciprocal of integral_rel_tol")
        if self.max_terms < 1 or self.min_terms < 1:
            raise ValueError("term counts must be >= 1")
        if self.min_terms > self.max_terms:  # the stop rule could never fire
            raise ValueError(f"min_terms ({self.min_terms}) must not exceed "
                             f"max_terms ({self.max_terms})")

    def y_max(self, lower):
        """Truncation point of the semi-infinite y-range.

        The unit-reflection envelope y^2 e^{-2y} bounds every admissible
        integrand, so cutting half a decade of e-foldings past the larger
        of (lower, 1) guarantees a relative tail below integral_rel_tol
        without evaluating any material model.
        """
        return np.maximum(lower, 1.0) + 0.5 * math.log(1.0 / self.integral_rel_tol) + _Y_MAX_PAD


# The spec of a call that passes none, built once: building one costs 2 us.
_DEFAULT_SPEC = QuadratureSpec()
# Entropy is a small difference of nearly equal free energies; its default
# summation tolerance is two decades tighter than the pressure default so
# the truncation bias stays far below the differences being resolved.
_ENTROPY_SPEC = QuadratureSpec(sum_rel_tol=1e-10)
# Default central-difference step of ``thermo.entropy`` in K.
_ENTROPY_STEP_K = 0.5


@dataclass(frozen=True)
class PressureResult:
    """Signed pressure (negative = attraction) plus per-mode diagnostics; a
    sum whose bound puts mode 1 below its floor has terms of 0.0."""

    pressure_mPa: float
    zero_mode_mPa: float
    terms_mPa: np.ndarray
    n_terms_used: int
    converged: bool

    @property
    def zero_mode_share(self) -> float:
        """Fraction of the total carried by the static mode."""
        if self.pressure_mPa == 0.0:
            return 0.0
        return self.zero_mode_mPa / self.pressure_mPa


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy per unit area (J/m^2, negative = binding) and diagnostics; a
    sum whose bound puts mode 1 below its floor has terms of 0.0."""

    free_energy_J_per_m2: float
    zero_mode_J_per_m2: float
    terms_J_per_m2: np.ndarray
    n_terms_used: int
    converged: bool


def lifshitz_variables(eps1, eps3, p):
    """s_i = sqrt(eps_i - 1 + p^2) for both half-spaces.

    eps_i >= 1 and p >= 1 keep the square roots real and s_i >= p, with
    equality exactly in vacuum.
    """
    e1 = np.asarray(eps1, dtype=float)
    e3 = np.asarray(eps3, dtype=float)
    pp = np.asarray(p, dtype=float)
    if np.any(e1 < 1.0) or np.any(e3 < 1.0):
        raise ValueError("permittivities must be >= 1 on the imaginary axis")
    if np.any(pp < 1.0):
        raise ValueError("p must be >= 1")
    s1 = np.sqrt(e1 - 1.0 + pp * pp)
    s3 = np.sqrt(e3 - 1.0 + pp * pp)
    if s1.ndim == 0:
        return float(s1), float(s3)
    return s1, s3


def reflection_te(s, p):
    """Transverse electric reflection quantity (s-p)/(s+p), in [0, 1)."""
    return (s - p) / (s + p)


def reflection_tm(eps, s, p):
    """Transverse magnetic reflection quantity (eps*p-s)/(eps*p+s), in [0, 1).

    Evaluated as (eps-1)*(p - 1/(s+p))/(eps*p+s), which is algebraically
    identical and free of cancellation as eps -> 1.
    """
    return (eps - 1.0) * (p - 1.0 / (s + p)) / (eps * p + s)


def zeta3() -> float:
    """Riemann zeta(3) (Apery's constant), correctly rounded to double."""
    return 1.2020569031595942


class _Workspace:
    """Scratch storage of the mode kernel, reused by every block of one sum.
    ``arrays(shape)`` views it as eight float arrays of that shape, stacked,
    and ``mask`` has a bool for each element of two of them (grown if need
    be); the next call overwrites them."""

    size, floats, mask = 0, np.empty(0), np.empty(0, dtype=bool)

    def arrays(self, shape):
        n = shape[0] * shape[1]
        if self.size < n:  # a large one on a 64-byte cache line: split stores cost more
            floats = np.empty(8 * n + 7)
            start = -floats.ctypes.data % 64 // 8 if n > 4096 else 0
            self.size, self.floats, self.mask = n, floats[start:], np.empty(2 * n, dtype=bool)
        return self.floats[:8 * n].reshape((8,) + shape)  # unpacking it would cost 1 us


# How a side reflects over the modes of a block: as an ideal metal
# (eps = inf) at every mode, at none, or at some (_kernel_sides).
_IDEAL, _FINITE, _MIXED = "ideal", "finite", "mixed"


# The constant operands of the ufuncs below (_reflections, _mode_kernel,
# _kernel_sides, _mode_block): a 0-d array, unlike a float, needs no
# conversion.
_ZERO, _ONE, _MINUS_TWO, _INF = np.array(0.0), np.array(1.0), np.array(-2.0), np.array(np.inf)


def _kernel_sides(*eps):
    """The kind of each side over a block's modes from its count of eps = inf, as _mode_kernel
    takes it; _MIXED gives ideal and finite rows their own bits, so a row's value does not
    depend on its block.  A NaN mode is not ideal: it gives NaN."""
    kinds = []
    for e in eps:  # a count, not a reduction such as max(), which costs more
        infs = _count_nonzero(np.equal(e, _INF))
        kinds.append(_FINITE if not infs else _IDEAL if infs == e.size else _MIXED)
    return tuple(kinds)


def _reflections(kind, eps, p, pp, pair, out):
    """(TM, TE) reflections of one interface into out[0] and out[1]; eps
    holds a permittivity per row of p, pp = p*p, and pair, shaped as out, is
    scratch.  A side of kind _IDEAL gives 1 and reads nothing; one of kind
    _MIXED has its rows with eps = inf computed as vacuum and then set to 1,
    never inf/inf; one of kind _FINITE takes no such step.  TM is computed
    as in reflection_tm, TE as (eps-1)/(s+p)^2, equal to reflection_te's
    (s-p)/(s+p) without its cancellation as eps -> 1; both numerators are
    assembled in out and both denominators in pair, so one divide finishes
    the two."""
    if kind is _IDEAL:
        return 1.0
    tm, em1, x, s = out[0], out[1], pair[0], pair[1]
    eps = eps[:, None]
    if kind is _MIXED:
        ideal = np.isinf(eps)
        eps = np.where(ideal, 1.0, eps)
    # eps-1 in full: a (rows, 1) operand costs numpy a loop per row; every
    # ufunc here and in _mode_kernel takes its out positionally, the cheaper
    # way, an in-place one the same view as operand and out, which numpy
    # need not check for overlap, and a constant operand as a 0-d array,
    # which it need not convert
    np.subtract(eps, _ONE, em1)
    np.sqrt(np.add(em1, pp, s), s)
    np.add(np.multiply(eps, p, x), s, x)  # eps*p + s
    np.add(s, p, s)
    np.multiply(em1, np.subtract(p, np.divide(_ONE, s, tm), tm), tm)  # (eps-1)*(p - 1/(s+p))
    np.multiply(s, s, s)  # (s+p)^2
    np.divide(out, pair, out)
    if kind is _MIXED:
        np.copyto(out, 1.0, where=ideal)
    return out


# Nodes at y >= _NEAR_ONE_Y > ln(2)/2 have x <= e^{-2y} < 1/2, with room
# for rounding; a block whose lower limits all reach it has no near-one node.
_NEAR_ONE_Y = 0.35


def _one_minus(prod, e2y, em, out):
    """1-x = e^{-2y}(1-prod) - expm1(-2y) into ``out``, which may be prod."""
    return np.subtract(np.multiply(e2y, np.subtract(_ONE, prod, out), out), em, out)


def _mode_kernel(y, work: _Workspace, free_energy: bool, kinds, A, eps1, eps3=None):
    """Integrand of a block of Matsubara modes on a (mode x node) array.

    Row i of ``y`` holds nodes y >= A[i] = m*gamma, the lower limit of mode
    i (A ascending), whose permittivities at zeta_m are eps1[i] and eps3[i],
    and ``kinds`` the kind of each side (_kernel_sides); a side ideal at
    every mode is not read.  One kind and no eps3 means that eps1 serves
    both sides.  Gives the pressure integrand
    y^2 * [x_TM/(1-x_TM) + x_TE/(1-x_TE)], x = delta1*delta2*e^{-2y}, or,
    with ``free_energy``, y * [ln(1-x_TM) + ln(1-x_TE)], in a view into
    ``work`` valid until the next call; ``integrate_adaptive``, which takes
    one mode as a one-row ``y``, reduces each call's values before the next.

    Both deltas lie in [0, 1], so x <= e^{-2y}: only nodes with
    y < ln(2)/2 ~ 0.347 can have x > 1/2.  The rows whose lower limit
    reaches _NEAR_ONE_Y have none, and take 1-x and log1p(-x) as they are.
    The rows below it, which come first since A ascends, assemble 1-x as
    e^{-2y}(1-delta1*delta2) - expm1(-2y), a sum of nonnegative terms, so no
    precision is lost when both factors approach 1: the pressure divides by
    it at every node of those rows, and the free energy takes its log at
    their nodes with x > 1/2, where log1p(-x) would inherit the rounding of
    x.  Each row's value thus depends on its own mode alone.
    """
    f = work.arrays(y.shape)
    p, pp, pair = f[0], f[1], f[2:4]
    np.multiply(np.divide(y, A[:, None], p), p, pp)
    # TM and TE side by side in one (2,) + y.shape array, or 1 for an ideal side
    d1 = _reflections(kinds[0], eps1, p, pp, pair, f[4:6])
    d3 = d1 if len(kinds) == 1 else _reflections(kinds[1], eps3, p, pp, pair, f[6:8])
    e2y = np.exp(np.multiply(_MINUS_TWO, y, p), pp)
    # the rows below _NEAR_ONE_Y, which come first as A ascends
    k = 0 if A[0] >= _NEAR_ONE_Y else int(A.searchsorted(_NEAR_ONE_Y))
    em = np.expm1(p[:k], p[:k]) if k and not free_energy else None  # e^{-2y} - 1
    prod = np.multiply(d1, d3, pair)
    x = np.multiply(prod, e2y, f[4:6])
    if k:
        near_x, near_prod = x[:, :k], prod[:, :k]
    if free_energy:
        mask = work.mask[:near_x.size].reshape(near_x.shape) if k else None
        near_one = k and _count_nonzero(np.greater(near_x, 0.5, mask))
        np.log1p(np.negative(x, x), x)
        if near_one:
            em = np.expm1(p[:k], p[:k])
            np.log(_one_minus(near_prod, e2y[:k], em, near_prod), out=near_x, where=mask)
    else:  # 1-x assembled in the first k rows, as it is past them
        far_x, far_prod = (x[:, k:], prod[:, k:]) if k else (x, prod)
        if k:
            np.divide(near_x, _one_minus(near_prod, e2y[:k], em, near_prod), near_x)
        np.divide(far_x, np.subtract(_ONE, far_x, far_prod), far_x)
    total = np.add.reduce(x, 0, None, f[2], False, _ZERO)  # (0.0 + TM) + TE: -0.0 reads 0.0
    return np.multiply(y if free_energy else np.multiply(y, y, f[3]), total, f[3])


# First breaks of every mode integral, as offsets from its lower limit.
_BREAK_OFFSETS = np.array([0.0, 0.75, 2.0, 4.0, 7.0, 11.0, 16.0])


def _rule(n_panel, n_tail, panels):
    """Rule of a mode integral as (offsets from A, weights): n_panel-node
    Gauss-Legendre on each panel between the offsets ``panels`` (none if
    there is one offset), then n_tail-node Gauss-Laguerre past the last, on
    node sets every rule shares.  y = A + panels[-1] + t/2 maps that tail to
    1/2 int_0^inf e^{-t} [e^t f] dt, so its weights carry 1/2 e^t."""
    t, wt = GAUSS_LAGUERRE[n_tail]
    y, w = panels[-1] + 0.5 * t, 0.5 * wt * np.exp(t)
    if panels.size == 1:
        return y, w
    (x, wx), h = GAUSS_LEGENDRE[n_panel], 0.5 * np.diff(panels)[:, None]
    return np.append(panels[:-1, None] + h + h * x, y), np.append(h * wx, w)


def _rule_pair(n_value, n_check, panels):
    """(offsets, weights) of one row of nodes holding two rules, weights[0]
    with 12-node panels and an n_value-node tail and weights[1] with 8-node
    panels and an n_check-node tail, each weighing the other's nodes by 0."""
    (y1, w1), (y2, w2) = _rule(12, n_value, panels), _rule(8, n_check, panels)
    return np.append(y1, y2), np.array([np.append(w1, 0.0 * w2), np.append(0.0 * w1, w2)])


# Fixed rule pairs as (lowest A, pair), ascending; the first rule gives the
# value, its distance from the second the error.  Each is the cheapest pair
# that certified every pressure mode tools/rule_scan.py scans from 3% below
# its lowest A: fewer Legendre panels as A grows, then Laguerre alone.  The
# pressure takes every rung; the free energy those from its cut in _SCALED,
# since below A = 0.45 they certify few of its modes.
_RUNGS = ((0.0022, _rule_pair(12, 8, np.array([0.0, 0.005, 0.02, 0.07, 0.25, 0.75, 2.0, 4.0]))),
          (0.0028, _rule_pair(12, 8, np.array([0.0, 0.01, 0.05, 0.2, 0.7, 2.0, 4.0]))),
          (0.025, _rule_pair(16, 12, np.array([0.0, 0.03, 0.1, 0.3, 0.75, 2.0]))),
          (0.053, _rule_pair(16, 12, np.array([0.0, 0.1, 0.3, 0.75, 2.0]))),
          (0.12, _rule_pair(16, 12, np.array([0.0, 0.2, 0.7, 2.0]))),
          (0.45, _rule_pair(16, 12, np.array([0.0, 0.5, 1.5]))),
          (1.2, _rule_pair(16, 12, np.array([0.0, 1.0]))),
          (2.7, _rule_pair(16, 12, np.zeros(1))),
          (6.4, _rule_pair(12, 8, np.zeros(1))))
# Farthest offset y - A of a rung's node; the A-scaled pairs below, whose
# last break and tails are the first rung's, reach no farther.
_RULE_REACH = max(float(pair[0].max()) for _, pair in _RUNGS)

# Below the rungs, the A-scaled panels: breaks at the offsets 0, A*2^j for
# j = 0, 1, ... while below 1, then 1, 2 and 4 from A, 12/8-node Legendre
# panels and a 12/8-node Laguerre tail, so the panels next to A grow with
# their distance from the near-singularity at y = 0.  They serve each
# integrand from its floor up to its cut, both printed by tools/rule_scan.py:
# the cut is the lowest rung from which the rungs cost fewer kernel nodes
# (a rejected mode counted with its adaptive nodes), and below the floor the
# panels missed a scanned mode, or were not scanned.  Keyed by free_energy:
# (floor, cut); a cut is a rung's lowest A.
_SCALED = {False: (2.4e-06, 0.0022), True: (1e-07, 0.45)}
# Per integrand, (lowest A, pair, kernel nodes per mode) ascending.  First an
# entry per panel count k of the A-scaled panels, whose modes have k breaks
# A*2^j below 1: from the floor, then from each A = 2^-k below the cut, its
# pair k for _scaled_rule(k) (built on first use), with k + 3 panels and a
# tail of 12 + 8 nodes each.  Then the rungs from the cut.
_LADDERS = {free: (*((max(floor, 2.0 ** -k), k, 20 * k + 80)
                     for k in range(1 - math.frexp(floor)[1], 0, -1) if 2.0 ** -k < cut),
                   *((low, pair, pair[0].size) for low, pair in _RUNGS if low >= cut))
            for free, (floor, cut) in _SCALED.items()}
# Their lowest A per integrand, for bisect.
_LADDER_LOWS = {free: tuple(entry[0] for entry in ladder) for free, ladder in _LADDERS.items()}


@functools.cache
def _scaled_rule(k):
    """The A-scaled pair of the modes with k breaks A*2^j below 1, as its
    (offsets, weights) at A = 0 and their slopes in A.  Every offset and
    weight is affine in A, so a mode's pair is the first plus A times the
    second; the pair of A = 2^-k, which has k such breaks, gives the
    slopes."""
    a = 2.0 ** -k
    (y0, w0), (y1, w1) = (_rule_pair(12, 8, np.concatenate(
        [[0.0], A * 2.0 ** np.arange(k), [1.0, 2.0, 4.0]])) for A in (0.0, a))
    return y0, (y1 - y0) / a, w0, (w1 - w0) / a


def _rungs(lower, free_energy: bool):
    """(start, runs) of the modes ``lower`` (ascending): lower[:start] lie
    below the integrand's floor, and each of the others takes the entry of
    its ladder (_LADDERS) last at or below its A, a run (lo, hi, pair,
    nodes) of them per entry: a rung's pair, or the panel count k of the
    A-scaled panels, whose runs come first.  Only the entries from the
    first mode's to the last mode's are looked at."""
    lows, ladder = _LADDER_LOWS[free_energy], _LADDERS[free_energy]
    i, j = bisect_right(lows, lower.item(0)), bisect_right(lows, lower.item(-1))
    cuts = [0] if i else []  # the first mode's entry i - 1 starts at 0; the floor's, if below
    cuts += [bisect_left(lower, low) for low in lows[i:j]]  # where the entries i..j-1 start
    cuts.append(lower.size)
    return cuts[0], [(lo, hi, pair, n) for (_, pair, n), lo, hi in
                     zip(ladder[i - 1 if i else 0:j], cuts, cuts[1:]) if lo < hi]


# Most modes in a sum's first block, whose kernel nodes each later block
# fills (_sum_steps).
_BLOCK_CAP = 128
# Fewest values of a block summed in array passes (_scan_arrays) rather than
# one by one (_scan_loop); both give the same bits.  The passes cost about
# 9 us whatever their length, the loop about 0.17 us per term: 7, 32, 48,
# 64 and 128 terms took the loop 1.4, 6.2, 8.2, 11.1 and 22.7 us and the
# passes 8.9, 9.4, 9.2, 9.7 and 10.1 us (one pinned core of a 2-vCPU
# x86-64 host), so they break even at about 52 terms.
_ARRAY_SCAN = 48
# Past mode _BLOCK_CAP a sum of two analytic sides interpolates (casimir.chebyshev)
# if the bound lets it run _PANEL_MIN modes more: the measured break-even.
_PANEL_MIN = 1024


def _log_bound(A: float, free_energy: bool) -> float:
    """ln of a bound on |t_m| at A = m*gamma > 0.  Both reflections lie in
    [0, 1], so x <= e^{-2y}, and x/(1-x) and -ln(1-x) are at most
    e^{-2y}/(1-e^{-2A}) on y >= A: |t_m| <= e^{-2A}(A^2 + A + 1/2)/(1-e^{-2A})
    for the pressure and e^{-2A}(A + 1/2)/(1-e^{-2A}) for the free energy."""
    poly = A + 0.5 if free_energy else (A + 1.0) * A + 0.5
    return math.log(poly) - 2.0 * A - math.log(-math.expm1(-2.0 * A))


def _bound_end(low: int, high: int, gamma: float, log_target: float, free_energy: bool) -> int:
    """The first m in [low, high] with _log_bound(m*gamma) <= ``log_target``,
    else high, by bisection: the bound never rises with A."""
    if low >= high or _log_bound(low * gamma, free_energy) <= log_target:
        return min(low, high)
    if _log_bound(high * gamma, free_energy) > log_target:
        return high
    while high - low > 1:  # the bound misses at low and meets it at high
        mid = (low + high) // 2
        if _log_bound(mid * gamma, free_energy) <= log_target:
            high = mid
        else:
            low = mid
    return high


def _plan(ms: np.ndarray, gamma, zeta1, model1: DielectricModel, model3: DielectricModel):
    """Lower limits m*gamma, zeta_m = m*zeta1 in eV and (model, eps(i zeta_m)) per distinct
    model object of the Matsubara indices ``ms``, one epsilon call each.  It only evaluates,
    raising TypeError if a model gives other than one permittivity per frequency; the block
    that takes a slice of it decides the rest (_mode_block)."""
    lower, zeta, sides = ms * gamma, ms * zeta1, []
    for model in (model1,) if model3 is model1 else (model1, model3):
        eps = np.asarray(model.epsilon(zeta), dtype=float)
        if eps.shape != zeta.shape:
            raise TypeError(f"{model!r}: epsilon gave shape {eps.shape} for zeta of shape "
                            f"{zeta.shape}; it must give one permittivity per frequency")
        sides.append((model, eps))
    return lower, zeta, sides


def _check_reach(model, eps, lower, zeta, reach):
    """Raise ValueError naming the first of the modes ``lower`` whose finite
    permittivity ``eps`` times y/A overflows at y = A + ``reach`` (inf/inf in
    the reflections); an inf is legitimate, an ideal metal's mode."""
    with np.errstate(over="ignore"):
        over = np.less(eps, _INF) & (eps * (1.0 + reach / lower) == _INF)
    if over.any():
        i = over.argmax()
        raise ValueError(f"{model!r}: epsilon = {eps[i]:.6g} at zeta = {zeta[i]:.6g} eV "
                         f"overflows the reflections")


def _mode_block(lower: np.ndarray, zeta: np.ndarray, sides, spec: QuadratureSpec,
                floor: float, free_energy: bool, work: _Workspace):
    """Mode integrals of a request, a slice of a _plan ascending in m >= 1.

    Each integral is certified to max(integral_rel_tol * |I_m|, floor), the
    kernel working in ``work``, on the free-energy integrand with
    ``free_energy``.  A mode takes the pair of the entry of the
    integrand's ladder (_LADDERS) last at or below its A: a rung of _RUNGS,
    or, from the floor to the cut of _SCALED, the A-scaled panels of its
    entry's panel count, built per mode.  The modes ascend, so each entry
    serves a slice of the block, and one kernel call takes every mode's
    nodes in a row; einsum, unlike BLAS, sums each row alike, so a value
    does not depend on its block.  Each mode below the floor or whose pair
    misses the target goes to ``integrate_adaptive`` alone, on its first
    breaks below y_max, then y_max.

    Every decision about the permittivities of these rows is made here: two
    sides equal over them are one interface, and each side is classified
    over them (_kernel_sides), so the kernel takes a side ideal at every
    mode as reflection 1 and one ideal at none without looking for ideal
    rows.  Only a side with a finite value above the largest float over the
    first mode's 1 + _RULE_REACH/A is checked mode by mode at its own pair's
    farthest node (_check_reach).  Raises ValueError naming the first mode
    of a side that overflows there, else the first below 1; the modes that
    go to the adaptive quadrature are checked likewise against y_max before
    it takes them.  Returns (values, errors, failed); a failed mode holds
    its uncertified estimate.
    """
    if len(sides) == 2 and not _count_nonzero(np.not_equal(sides[0][1], sides[1][1])):
        sides = sides[:1]  # equal over these rows: one interface serves both
    kinds = _kernel_sides(*[e for _, e in sides])
    start, rungs = _rungs(lower, free_energy)
    if rungs and type(rungs[0][2]) is int:  # A-scaled runs, which come first: a pair per mode
        for r, (lo, hi, count, n) in enumerate(rungs):
            if type(count) is int:
                y0, dy, w0, dw = _scaled_rule(count)
                A = lower[lo:hi, None]
                rungs[r] = lo, hi, (y0 + A * dy, w0 + A[..., None] * dw), n
    # no finite eps below this overflows at any rule's node, and an inf is above it
    limit = sys.float_info.max / (1.0 + _RULE_REACH / lower.item(0))
    for (model, e), kind in zip(sides, kinds):  # NaN passes both: such a mode fails to certify
        if kind is _IDEAL:  # inf at every mode
            continue
        # counts, not reductions such as any(), which cost more: one finds a side safe
        big = _count_nonzero(np.greater(e, limit))
        if big and big > (kind is _MIXED and _count_nonzero(np.equal(e, _INF))):
            reach = np.zeros(lower.size)  # each run its pair's; below the floor, none
            for lo, hi, (dy, _), _ in rungs:
                reach[lo:hi] = dy.max(axis=-1)
            _check_reach(model, e, lower, zeta, reach)
        if _count_nonzero(below := np.less(e, _ONE)):
            i = below.argmax()
            raise ValueError(f"{model!r}: epsilon = {e[i]:.6g} < 1 at zeta = {zeta[i]:.6g} eV")
    out = np.empty((2, lower.size))  # value and check of every mode
    if start:  # below the floor: adaptive
        out[0, :start], out[1, :start] = 0.0, np.inf
    if rungs:  # the node column: each mode's offsets from its A, then A added
        ends = [0]  # where each rung's nodes start and end in the column
        for lo, hi, _, n in rungs:
            ends.append(ends[-1] + (hi - lo) * n)
        y, counts = np.empty(ends[-1]), np.empty(lower.size - start, int)  # nodes per mode
        for (lo, hi, (dy, _), n), k, end in zip(rungs, ends, ends[1:]):
            y[k:end].reshape(hi - lo, n)[...] = dy
            counts[lo - start:hi - start] = n
        A = lower[start:].repeat(counts)  # a side ideal at every mode is not read
        eps = [e if kind is _IDEAL else e[start:].repeat(counts)
               for (_, e), kind in zip(sides, kinds)]
        fx = _mode_kernel(np.add(y, A, y)[:, None], work, free_energy, kinds, A, *eps)
        rows = out.T  # (value, check) per mode: a rung's rows[lo:hi] cost less than out[:, lo:hi]
        for (lo, hi, (dy, weights), n), k, end in zip(rungs, ends, ends[1:]):
            _einsum("rn,rkn->rk" if dy.ndim == 2 else "rn,kn->rk",  # a scaled pair: a row per mode
                    fx[k:end].reshape(hi - lo, n), weights, out=rows[lo:hi])
    values, check = out[0], out[1]
    np.subtract(values, check, check)
    magnitudes = np.abs(out)
    tol, errors = magnitudes[0], magnitudes[1]  # |value| and the error |value - check|
    np.maximum(np.multiply(tol, spec.integral_rel_tol, tol), floor, out=tol)
    failed = np.less_equal(errors, tol)
    np.logical_not(failed, failed)  # NaN fails
    if not _count_nonzero(failed):
        return values, errors, failed
    y_max, args = spec.y_max(lower), (lower, *(e for _, e in sides))
    rows = np.flatnonzero(failed)
    for model, e in sides:  # the adaptive quadrature's nodes reach y_max
        _check_reach(model, e[rows], lower[rows], zeta[rows], y_max[rows] - lower[rows])
    for i in rows:
        starts = lower[i] + _BREAK_OFFSETS
        row = [a[i:i + 1] for a in args]
        try:
            values[i], errors[i] = integrate_adaptive(
                lambda y: _mode_kernel(y[None], work, free_energy, kinds, *row)[0],
                np.append(starts[starts < y_max[i]], y_max[i]),
                rel_tol=spec.integral_rel_tol, abs_tol=floor)
            failed[i] = False
        except QuadratureError as exc:
            values[i], errors[i] = exc.estimate, exc.error
    return values, errors, failed


def _screen(eps):
    """Rows of ``eps`` (an array per side) to interpolate: eps >= 1, each side inf at all/none."""
    ok = True
    for e in eps:
        low = np.minimum.reduce(e, -1)
        ok = ok & (low >= 1.0) & ((low == np.inf) | (np.maximum.reduce(e, -1) < np.inf))
    return ok


def _sampled(plan, floor, ms):
    """Mode integrals at ``ms``, Chebyshev points a row per panel, from one _plan (``plan``:
    gamma, zeta1, both models): a generator that asks, as _sum_steps asks for a block, for
    the rows _screen passes, a request (lower, zeta, sides, ``floor``); NaN across the other
    rows and where a mode fails."""
    lower, zeta, sides = _plan(ms.ravel(), *plan)
    ok, out = _screen([e.reshape(ms.shape) for _, e in sides]), np.full(ms.shape, np.nan)
    if ok.any():
        keep = ok.repeat(ms.shape[1])
        values, _, failed = yield (
            lower[keep], zeta[keep], [(model, e[keep]) for model, e in sides], floor)
        out[ok] = np.where(failed, np.nan, values).reshape(-1, ms.shape[1])
    return out


def _mode_error(m: int, geom: Geometry, estimate: float, error: float) -> QuadratureError:
    return QuadratureError(
        f"mode integral m={m} not certified: quadrature error {error:.3e} "
        f"(a={geom.a_um} um, T={geom.T_K} K)", estimate, error)


def matsubara_term(m: int, geom: Geometry, model1: DielectricModel,
                   model3: DielectricModel, spec: QuadratureSpec | None = None) -> float:
    """Dimensionless m-th mode integral over y in [m*gamma, inf), m >= 1.

    Both models are taken at geom.T_K, their permittivities frozen at
    zeta_m across the y-integral.  It is the value of the fixed rule pair
    the pressure's ladder gives m*gamma (a rung of _RUNGS, or the A-scaled
    panels from the floor of _SCALED up to the first rung) if the pair's
    error meets max(``spec.integral_rel_tol`` * |I_m|, floor).  Else the
    range is cut at ``spec.y_max`` and integrated adaptively.  A
    QuadratureError carrying the partial estimate escapes if no certificate
    is met.  The floor, integral_rel_tol * sum_rel_tol * zeta(3)/8, is the
    sum's first block's, so the value equals the sum's first-block term,
    unless the bound puts mode 1 below that floor and the sum reports 0.  A
    later block's term equals it wherever that block's higher floor does not
    bind; one the sum takes from a certified interpolant (past m = 128,
    casimir.chebyshev) meets it to integral_rel_tol.  ``m`` must be an
    integer; a float raises TypeError.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("the static mode is analytic; matsubara_term needs m >= 1")
    spec = spec or _DEFAULT_SPEC
    floor = spec.integral_rel_tol * spec.sum_rel_tol * (zeta3() / 8.0)
    values, errors, failed = _mode_block(
        *_plan(np.array([m]), geom.gamma, geom.zeta1_eV, model1.at(geom.T_K), model3.at(geom.T_K)),
        spec, floor, False, _Workspace())
    if failed[0]:
        raise _mode_error(m, geom, float(values[0]), float(errors[0]))
    return float(values[0])


def _scan_loop(values: np.ndarray, acc: float, comp: float, first: int, min_terms: int,
               tail: float, rel_tol: float):
    """Neumaier's compensated sum of ``values``, the terms of the modes
    first, first + 1, ..., onto acc + comp (comp the compensation), up to
    the first m >= min_terms where the stop rule of _summed_modes fires:
    |t_m| * tail <= rel_tol * |acc + comp| after t_m is added.  Returns
    (acc, comp, terms added, whether the rule fired), term by term."""
    for m, t in enumerate(values.tolist(), first):
        new = acc + t
        if abs(acc) >= abs(t):
            comp += (acc - new) + t
        else:
            comp += (t - new) + acc
        acc = new
        if m >= min_terms and abs(t) * tail <= rel_tol * abs(acc + comp):
            return acc, comp, m - first + 1, True
    return acc, comp, values.size, False


def _scan_arrays(values: np.ndarray, acc: float, comp: float, first: int, min_terms: int,
                 tail: float, rel_tol: float):
    """_scan_loop in array passes, with its bits.  The running sums come
    from one sequential accumulate, as the loop adds; each addition's
    rounding error from TwoSum (Knuth), which is exact, as is the branch of
    Neumaier's that the loop takes, so the two agree; the compensations from
    a second accumulate; and the stop rule from one comparison."""
    run = np.add.accumulate(np.concatenate(([acc], values)))
    new = run[1:]
    bb = new - run[:-1]
    err = (run[:-1] - (new - bb)) + (values - bb)
    err[0] += comp
    comps = np.add.accumulate(err, out=err)
    skip = max(0, min_terms - first)  # the rule fires from m = min_terms
    if skip < values.size:
        stop = np.abs(values[skip:]) * tail <= rel_tol * np.abs(new[skip:] + comps[skip:])
        k = int(stop.argmax())
        if stop[k]:
            return float(new[skip + k]), float(comps[skip + k]), skip + k + 1, True
    return float(new[-1]), float(comps[-1]), values.size, False


def _sum_steps(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
               spec: QuadratureSpec, free_energy: bool):
    """Primed Matsubara sum of the pressure or the free energy, a generator
    holding one sum's state: it yields a request, (lower, zeta, sides,
    floor), for each block it integrates and each degree of Chebyshev
    samples (_sampled), and takes back _mode_block's answer.

    Every integral of a block is certified to max(integral_rel_tol * |I_m|,
    integral_rel_tol * sum_rel_tol * |S|), with S the running sum at the
    block's start.  Every term has the sign of the static term, so |S| only
    grows and that floor stays below the sum's own tolerance scale; it stops
    terms that underflow from refining forever.  A block runs up to the first
    m >= min_terms at which the unit-reflection bound of _log_bound, times
    max(1, r/(1-r)), falls to sum_rel_tol * |S|, where the stop rule below
    is certain to fire, and at max_terms at the latest.  A mode's value
    depends on its block only through the floor.

    The first block, S the static term, is a straight line before the block
    loop.  If the bound at m = 1 is at or below its floor, so is every
    mode's (|I_m| <= bound <= floor, a block's certificate): modes
    1..min_terms read 0 and the sum returns, with no plan or block.
    Otherwise one bisection (_bound_end) ends the block within _BLOCK_CAP
    modes, so a sum of up to _BLOCK_CAP terms takes one block, and the sum
    makes its one plan (_plan, a side per model, its values read only by
    the blocks that take them): that block's modes, or, if it fills _BLOCK_CAP,
    those up to the first m >= min_terms where a second bisection finds the
    bound meeting the same target, or max_terms.

    Each later block's extent is computed after the block before it, only
    if the sum goes on.  It holds as many modes as the nodes of the first
    block's rule pairs fill at its first mode's pair, whichever workspace
    answered that block, both counted from the nodes per mode of the
    ladder's entries (_LADDERS: a rung, or one panel count of the A-scaled
    panels); the adaptive calls of modes below the floor or not certified
    are not counted, and nodes per mode never rise with A, so no later
    block's kernel call is larger.  It holds at least _BLOCK_CAP modes, and
    its bound is rescaled through the last term t used: the target rises by
    shift = ln(bound/|t|) >= 0 there, so a long block does not run far past
    the stop.  |S| only grows and the shift is >= 0, so every later block
    and panel ends within the plan too; a block that reached past it would
    raise RuntimeError.

    Past mode _BLOCK_CAP, with two ``analytic`` sides and the bound's stop
    there _PANEL_MIN modes on, chebyshev._certify fits the panels from
    _BLOCK_CAP to that stop to the samples of _sampled; blocks end before
    each panel.  A certified panel is one block of chebyshev._interpolated
    terms unless the stop falls in it or _screen, as for the samples, finds
    a permittivity below 1, NaN or ideal at some modes only there; then it
    is integrated in blocks.  So a failure past the stop moves no value, nor
    does the block schedule.

    Every block, the first, a later one, a panel or a panel integrated
    instead, takes one body: its values, from a certified panel's
    interpolant or its request, are accumulated up to its first failed mode
    in increasing m with Neumaier compensation, one by one (_scan_loop) if
    there are fewer than _ARRAY_SCAN, else in array passes with the same
    bits (_scan_arrays).  The sum stops at the first m >= min_terms where the
    term and its estimated geometric tail |t_m| * r/(1-r), r = e^{-2*gamma}
    (1-r by expm1, positive however small gamma is), both fall below
    sum_rel_tol relative to the accumulated total; the tail estimate keeps
    the truncation bias itself at the tolerance level, which matters for
    temperature derivatives downstream.  Modes past the stop are discarded,
    whether or not their integrals were certified.

    Both sides are taken at geom.T_K (``DielectricModel.at``) first.
    Returns a FreeEnergyResult in J/m^2 with ``free_energy``, else a
    PressureResult in mPa; a vacuum side gives one of +0.0.  Raises
    SumConvergenceError carrying that result if max_terms is hit first,
    and a QuadratureError for a mode that is not certified.
    """
    result, unit = ((FreeEnergyResult, geom.free_energy_scale_J_m2) if free_energy
                    else (PressureResult, -geom.pressure_scale_mPa))
    model1, model3 = model1.at(geom.T_K), model3.at(geom.T_K)
    if model1.is_vacuum or model3.is_vacuum:
        return result(0.0, 0.0, np.zeros(0), 0, True)
    # closed-form static TM mode with half weight; the log integrand of F is negative
    zero_coeff = -zeta3() / 8.0 if free_energy else zeta3() / 8.0
    gamma, zeta1 = geom.gamma, geom.zeta1_eV
    # the stop rule's factor on |t_m|: the term itself, or its geometric tail
    tail = max(1.0, math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma))
    # ln of the stop rule's threshold on the bound, relative to |S|
    log_tol = math.log(spec.sum_rel_tol) - math.log(tail)
    acc, comp, n_terms, converged = zero_coeff, 0.0, 0, False
    min_terms, max_terms, sum_rel_tol = spec.min_terms, spec.max_terms, spec.sum_rel_tol
    int_rel_tol = spec.integral_rel_tol
    floor = int_rel_tol * sum_rel_tol * abs(zero_coeff)  # the first block's
    if floor and _log_bound(gamma, free_energy) <= math.log(floor):  # so is every mode's bound
        return result(zero_coeff * unit, zero_coeff * unit, np.zeros(min_terms) * unit,
                      min_terms, True)
    target = log_tol + math.log(abs(zero_coeff))  # ln of the bound where the stop rule fires
    hi = _bound_end(min_terms, min(_BLOCK_CAP, max_terms), gamma, target, free_energy)
    # the one plan: to the first block's end, or on to the bound's stop if it fills _BLOCK_CAP
    planned = hi if hi < _BLOCK_CAP else _bound_end(max(hi, min_terms), max_terms, gamma,
                                                     target, free_energy)
    plan = gamma, zeta1, model1, model3  # _plan's arguments past the modes
    lower, zeta, sides = _plan(np.arange(1, planned + 1), *plan)
    # a slice of each block's values; the first block: no interpolant, its nodes not counted
    terms, first, coeffs, fill = [], 1, None, None
    # {first mode: (last mode, coefficients or None)} of the panels; for analytic sides
    # {_BLOCK_CAP + 1: None} until the sum reaches that mode
    panels = {_BLOCK_CAP + 1: None} if model1.analytic and model3.analytic else {}
    while True:  # the block of modes first..hi, then the next one's extent
        part, n_ok = slice(first - 1, hi), hi - first + 1  # values before a failure
        if coeffs is not None:  # a panel's values come from its interpolant
            values = chebyshev._interpolated(coeffs, first, hi, gamma)
        else:  # the request: the block's slice of the plan, and its floor
            values, errors, failed = yield (
                lower[part], zeta[part], [(model, e[part]) for model, e in sides], floor)
            if _count_nonzero(failed):
                n_ok = int(failed.argmax())
        scan = _scan_arrays if n_ok >= _ARRAY_SCAN else _scan_loop
        scanned = scan(values[:n_ok], acc, comp, first, min_terms, tail, sum_rel_tol)
        if coeffs is not None and (scanned[3] or not _screen([e[part] for _, e in sides])):
            panels[first] = hi, None  # the stop or a bad permittivity is in it: integrated
        else:
            acc, comp, used, converged = scanned
            terms.append(values[:used])
            n_terms += used
            if not converged and first + n_ok <= hi:  # a failure the stop rule did not discard
                raise _mode_error(first + n_ok, geom, float(values[n_ok]), float(errors[n_ok]))
            if converged or n_terms >= max_terms:
                break
        # the next block: the modes whose nodes fill the first's, a rescaled bound
        first, total = n_terms + 1, abs(acc + comp)
        floor, target = int_rel_tol * sum_rel_tol * total, log_tol + math.log(total)
        last = abs(float(terms[-1][-1]))
        i = bisect_right(_LADDER_LOWS[free_energy], first * gamma) - 1  # -1 below the floor
        if fill is None:  # the first block's kernel nodes (modes 1..n_terms of the plan),
            fill = sum((hi - lo) * n  # whoever answered it
                       for lo, hi, _, n in _rungs(lower[:n_terms], free_energy)[1])
        cap = _BLOCK_CAP if i < 0 else max(  # the nodes of its first mode's pair
            fill // _LADDERS[free_energy][i][2], _BLOCK_CAP)
        # the bound exceeds the last term by e^shift: take it through that term
        shift = last and max(0.0, _log_bound(n_terms * gamma, free_energy) - math.log(last))
        if panels.get(first, ()) is None:  # at mode _BLOCK_CAP + 1: panels to the stop
            stop, panels = _bound_end(max(_BLOCK_CAP + _PANEL_MIN, min_terms), max_terms,
                                      gamma, target, free_energy), {}
            if stop > _BLOCK_CAP + _PANEL_MIN:
                from . import chebyshev  # here: most processes never load it
                sample = functools.partial(_sampled, plan, floor)
                panels = yield from chebyshev._certify(
                    chebyshev._panels(_BLOCK_CAP, stop, gamma), gamma, sample, int_rel_tol, floor)
        hi, coeffs = panels.get(first) or (0, None)  # then each panel is one block
        if coeffs is None:  # a block, to its last mode hi, ending before the next panel
            hi = min([_bound_end(max(first, min_terms), min(first + cap - 1, max_terms), gamma,
                                 target + shift, free_energy),
                      *(lo - 1 for lo in panels if lo > first)])
        if hi > planned:  # |S| only grows and shift >= 0, so no block ends past the plan
            raise RuntimeError(f"modes {first}-{hi} reach past the plan's {planned}")
    terms = terms[0] if len(terms) == 1 else np.concatenate(terms)
    out = result((acc + comp) * unit, zero_coeff * unit, terms * unit, n_terms, converged)
    if not converged:
        what = "free-energy" if free_energy else "frequency"
        raise SumConvergenceError(f"{what} sum not converged after {n_terms} terms "
                                  f"(a={geom.a_um} um, T={geom.T_K} K)", out)
    return out


def _summed_modes(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                  spec: QuadratureSpec | None, free_energy: bool):
    """_sum_steps' result under spec or the default; one _mode_block call answers each request."""
    work, out, spec = _Workspace(), None, spec or _DEFAULT_SPEC
    steps = _sum_steps(geom, model1, model3, spec, free_energy)
    try:
        while True:
            lower, zeta, sides, floor = steps.send(out)
            out = _mode_block(lower, zeta, sides, spec, floor, free_energy, work)
    except StopIteration as done:
        return done.value


def casimir_pressure(geom: Geometry, model1: DielectricModel,
                     model3: DielectricModel,
                     spec: QuadratureSpec | None = None) -> PressureResult:
    """Total pressure between the half-spaces in mPa (negative = attraction).

    The static mode enters analytically with half weight; the m >= 1 modes
    are integrated and summed to the requested tolerances.  Raises
    SumConvergenceError (carrying the partial result) if max_terms is hit
    before the stop rule fires.
    """
    return _summed_modes(geom, model1, model3, spec, False)
