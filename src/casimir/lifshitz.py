"""Core mode sum: the primed Matsubara sum of semi-infinite y-integrals
over TE/TM reflection products, with the analytic static (m=0) term.

The modes are integrated in blocks: one kernel evaluates the pressure or
free-energy integrand of a whole block at once.  Pressure modes take fixed
rule pairs, a value and a coarser rule for its error, graded by the lower
limit A: Gauss-Legendre panels next to A with a Gauss-Laguerre tail for
small A, pure Gauss-Laguerre rules of fewer nodes as A grows (_RUNGS).
Free-energy modes, and the few pressure modes a pair does not certify, take
one batched adaptive quadrature; each mode is certified alone.
A block ends where a bound that holds for any reflections in [0, 1] shows
the sum must stop, so a short sum takes one block.

All mode arithmetic is dimensionless; SI conversion happens once at the
end through :func:`casimir.quantities.pressure_to_si`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .dielectric import DielectricModel
from .quadrature import QuadratureError, integrate_adaptive
from .quantities import (
    Geometry,
    matsubara_frequency,
    pressure_to_si,
    reduced_temperature,
)

__all__ = [
    "QuadratureSpec",
    "PressureResult",
    "SumConvergenceError",
    "lifshitz_variables",
    "reflection_te",
    "reflection_tm",
    "matsubara_term",
    "zeta3",
    "zero_mode_pressure",
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
        if not (0 < self.integral_rel_tol < math.inf and 0 < self.sum_rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
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


@dataclass(frozen=True)
class PressureResult:
    """Signed pressure (negative = attraction) plus per-mode diagnostics."""

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


class SumConvergenceError(RuntimeError):
    """Frequency sum hit max_terms first; ``partial`` holds the result so far."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


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


def zero_mode_pressure(geom: Geometry) -> float:
    """Static-mode pressure in mPa: -zeta(3)*k_B*T/(8*pi*a^3).

    Valid for two metallic half-spaces: the static TM reflection saturates
    to the ideal-metal value while the static TE mode contributes nothing
    for any finite relaxation frequency.  The half weight of the m=0 term
    is already included.
    """
    return pressure_to_si(-zeta3() / 8.0, geom)


class _Workspace:
    """Scratch storage of the mode kernel, reused by every block of one sum.
    ``arrays(shape)`` views it as eight float arrays and a bool array (grown
    if need be) that its next call overwrites."""

    size, floats, mask = 0, np.empty(0), np.empty(0, dtype=bool)

    def arrays(self, shape):
        n = shape[0] * shape[1]
        if self.size < n:
            self.size, self.floats, self.mask = n, np.empty(8 * n), np.empty(n, dtype=bool)
        return (*self.floats[:8 * n].reshape((8,) + shape), self.mask[:n].reshape(shape))


def _reflections(eps, p, pp, s, x, tm, te):
    """(TM, TE) reflections of one interface into tm and te; pp = p*p, s, x
    scratch; rows with eps = inf give 1.  TM is computed as in reflection_tm,
    TE as (eps-1)/(s+p)^2, equal to reflection_te's (s-p)/(s+p) without its
    cancellation as eps -> 1."""
    ideal = np.isinf(eps)
    if ideal.all():
        return 1.0, 1.0
    mixed = ideal.any()
    if mixed:  # computed as vacuum, then set to 1; never inf/inf
        eps = np.where(ideal, 1.0, eps)
    em1 = tm  # eps-1 in full: a (rows, 1) operand costs numpy a loop per row
    np.copyto(em1, eps - 1.0)
    np.sqrt(np.add(em1, pp, out=s), out=s)
    np.add(s, p, out=te)
    np.add(np.multiply(eps, p, out=x), s, out=x)
    np.multiply(em1, np.subtract(p, np.divide(1.0, te, out=s), out=s), out=s)
    np.divide(em1, np.multiply(te, te, out=te), out=te)
    np.divide(s, x, out=tm)
    if mixed:
        np.copyto(tm, 1.0, where=ideal)
        np.copyto(te, 1.0, where=ideal)
    return tm, te


# Nodes at y >= _NEAR_ONE_Y > ln(2)/2 have x <= e^{-2y} < 1/2, with room
# for rounding; a block whose lower limits all reach it has no near-one node.
_NEAR_ONE_Y = 0.35


def _one_minus(prod, e2y, em, out):
    """1-x = e^{-2y}(1-prod) - expm1(-2y) into ``out``, which may be prod."""
    return np.subtract(np.multiply(e2y, np.subtract(1.0, prod, out=out), out=out), em, out=out)


def _mode_kernel(y, work: _Workspace, free_energy: bool, A, eps1, eps3=None):
    """Integrand of a block of Matsubara modes on a (mode x node) array.

    Row i of ``y`` holds nodes y >= A[i] = m*gamma, the lower limit of mode
    i, whose permittivities at zeta_m are eps1[i] and eps3[i] (inf for an
    ideal metal; no eps3 means eps3 = eps1).  Gives the pressure integrand
    y^2 * [x_TM/(1-x_TM) + x_TE/(1-x_TE)], x = delta1*delta2*e^{-2y}, or,
    with ``free_energy``, y * [ln(1-x_TM) + ln(1-x_TE)], in a view into
    ``work`` valid until the next call; ``integrate_adaptive`` copies each
    integrand value before it calls the integrand again.

    1-x is assembled as e^{-2y}(1-delta1*delta2) - expm1(-2y), a sum of
    nonnegative terms, so no precision is lost when both factors approach 1.
    The pressure divides by it at every node.  The free energy takes
    log1p(-x) at every node, and the log of the assembled 1-x instead at the
    nodes with x > 1/2, where log1p(-x) would inherit the rounding of x.
    Both deltas lie in [0, 1], so x <= e^{-2y}: only nodes with
    y < ln(2)/2 ~ 0.347 can take that branch.  A call whose lower limits all
    reach _NEAR_ONE_Y (most calls of a sum) does not look for such nodes,
    and a call without any never assembles 1-x.
    """
    p, pp, s, x, b1, b2, b3, b4, mask = work.arrays(y.shape)
    np.divide(y, A[:, None], out=p)
    np.multiply(p, p, out=pp)
    tm1, te1 = _reflections(eps1[:, None], p, pp, s, x, b1, b2)
    tm3, te3 = (tm1, te1) if eps3 is None else _reflections(eps3[:, None], p, pp, s, x, b3, b4)
    e2y = np.exp(np.multiply(-2.0, y, out=p), out=pp)
    em = None if free_energy else np.expm1(p, out=p)  # e^{-2y} - 1, from -2y when needed
    near = free_energy and A.min() < _NEAR_ONE_Y
    total = 0.0
    for d1, d3 in ((tm1, tm3), (te1, te3)):
        prod = np.multiply(d1, d3, out=s)
        np.multiply(prod, e2y, out=x)
        if free_energy:
            near_one = near and np.greater(x, 0.5, out=mask).any()
            np.log1p(np.negative(x, out=x), out=x)
            if near_one:
                em = np.expm1(p, out=p) if em is None else em
                np.log(_one_minus(prod, e2y, em, s), out=x, where=mask)
        else:
            np.divide(x, _one_minus(prod, e2y, em, s), out=x)
        total = np.add(total, x, out=b1)  # tm1's storage, consumed above
    return np.multiply(y if free_energy else np.multiply(y, y, out=x), total, out=x)


# First breaks of every mode integral, as offsets from its lower limit.
_BREAK_OFFSETS = np.array([0.0, 0.75, 2.0, 4.0, 7.0, 11.0, 16.0])


@functools.cache
def _gauss(family, n):
    """laggauss(n) or leggauss(n), about 0.5 ms each, once per process."""
    return family(n)


def _rule(n_panel, n_tail, panels):
    """Rule of a mode integral as (offsets from A, weights): n_panel-node
    Gauss-Legendre on each panel between the offsets ``panels`` (none if
    there is one offset), then n_tail-node Gauss-Laguerre past the last, on
    node sets every rule shares.  y = A + panels[-1] + t/2 maps that tail to
    1/2 int_0^inf e^{-t} [e^t f] dt, so its weights carry 1/2 e^t."""
    t, wt = _gauss(laggauss, n_tail)
    y, w = panels[-1] + 0.5 * t, 0.5 * wt * np.exp(t)
    if panels.size == 1:
        return y, w
    (x, wx), h = _gauss(leggauss, n_panel), 0.5 * np.diff(panels)[:, None]
    return np.append(panels[:-1, None] + h + h * x, y), np.append(h * wx, w)


def _rule_pair(n_value, n_check, panels):
    """(offsets, weights) of one row of nodes holding two rules, weights[0]
    with 12-node panels and an n_value-node tail and weights[1] with 8-node
    panels and an n_check-node tail, each weighing the other's nodes by 0."""
    (y1, w1), (y2, w2) = _rule(12, n_value, panels), _rule(8, n_check, panels)
    return np.append(y1, y2), np.array([np.append(w1, 0.0 * w2), np.append(0.0 * w1, w2)])


# Fixed rule pairs of the pressure modes as (lowest A, pair), ascending; the
# first rule gives the value, its distance from the second the error.  Each is
# the cheapest pair that certified every mode tools/rule_scan.py scans from 3%
# below its lowest A: fewer Legendre panels as A grows, then Laguerre alone.
_RUNGS = ((0.0022, _rule_pair(12, 8, np.array([0.0, 0.005, 0.02, 0.07, 0.25, 0.75, 2.0, 4.0]))),
          (0.0028, _rule_pair(12, 8, np.array([0.0, 0.01, 0.05, 0.2, 0.7, 2.0, 4.0]))),
          (0.025, _rule_pair(16, 12, np.array([0.0, 0.03, 0.1, 0.3, 0.75, 2.0]))),
          (0.053, _rule_pair(16, 12, np.array([0.0, 0.1, 0.3, 0.75, 2.0]))),
          (0.12, _rule_pair(16, 12, np.array([0.0, 0.2, 0.7, 2.0]))),
          (0.45, _rule_pair(16, 12, np.array([0.0, 0.5, 1.5]))),
          (1.2, _rule_pair(16, 12, np.array([0.0, 1.0]))),
          (2.7, _rule_pair(16, 12, np.zeros(1))),
          (6.4, _rule_pair(12, 8, np.zeros(1))))

# Largest number of modes evaluated in one block.  The block's arrays grow
# with it; past about a hundred modes the per-call overhead is already
# amortised and only the peak memory keeps growing.
_BLOCK_CAP = 128


def _log_bound(A: float, free_energy: bool) -> float:
    """ln of a bound on |t_m| at A = m*gamma > 0.  Both reflections lie in
    [0, 1], so x <= e^{-2y}, and x/(1-x) and -ln(1-x) are at most
    e^{-2y}/(1-e^{-2A}) on y >= A: |t_m| <= e^{-2A}(A^2 + A + 1/2)/(1-e^{-2A})
    for the pressure and e^{-2A}(A + 1/2)/(1-e^{-2A}) for the free energy."""
    poly = A + 0.5 if free_energy else (A + 1.0) * A + 0.5
    return math.log(poly) - 2.0 * A - math.log(-math.expm1(-2.0 * A))


def _block_size(first: int, gamma: float, log_target: float, free_energy: bool,
                min_terms: int) -> int:
    """Modes from ``first`` to the first m >= min_terms with
    _log_bound(m*gamma) <= ``log_target``, at most _BLOCK_CAP.  The bound
    falls with A, so a bisection over the block's modes finds that m."""
    low, high = max(first, min_terms), first + _BLOCK_CAP - 1
    if low >= high or _log_bound(low * gamma, free_energy) <= log_target:
        return min(low - first + 1, _BLOCK_CAP)
    if _log_bound(high * gamma, free_energy) > log_target:
        return _BLOCK_CAP
    while high - low > 1:  # the bound misses at low and meets it at high
        mid = (low + high) // 2
        if _log_bound(mid * gamma, free_energy) <= log_target:
            high = mid
        else:
            low = mid
    return high - first + 1


def _mode_block(ms: np.ndarray, geom: Geometry, model1: DielectricModel,
                model3: DielectricModel, spec: QuadratureSpec, floor: float,
                free_energy: bool, integrate, work: _Workspace):
    """Mode integrals of the Matsubara indices ``ms`` (>= 1) in one batch.

    Each integral is certified to max(integral_rel_tol * |I_m|, floor), the
    kernel working in ``work``.  A pressure mode takes the pair of the last
    rung of _RUNGS at or below its A; ``ms`` ascends, so a rung serves a
    slice of the block, and one kernel call takes every mode's nodes in a
    row.  Free-energy modes, and pressure modes without a rung or whose pair
    misses the target, go to ``integrate`` (the module's
    ``integrate_adaptive``).  A model passed as both sides is evaluated
    once.  Returns (values, errors, failed); a failed mode holds its
    uncertified estimate.
    """
    gamma = reduced_temperature(geom)
    lower = ms * gamma
    zeta = ms * matsubara_frequency(1, geom.T_K)
    models = (model1,) if model3 is model1 else (model1, model3)
    eps = [np.asarray(model.epsilon(zeta), dtype=float) for model in models]
    for model, e in zip(models, eps):
        i = np.argmax(e < 1.0)  # NaN is not below 1; such a mode fails to certify
        if e[i] < 1.0:
            raise ValueError(f"{model!r}: epsilon = {e[i]:.6g} < 1 at zeta = {zeta[i]:.6g} eV")
    args = (lower, *eps) if len(eps) == 2 and (eps[0] != eps[1]).any() else (lower, eps[0])
    values, errors, failed = np.zeros(ms.size), np.full(ms.size, np.inf), np.zeros(ms.size, bool)
    # free energies stay adaptive: entropy differences two, and a fixed rule's ulps in F would
    # show; so do modes below the first rung, where no pair's certificate can be trusted
    cuts = [*np.searchsorted(lower, [a for a, _ in _RUNGS]).tolist(), ms.size]
    rungs = [(lo, hi, pair) for lo, hi, (_, pair) in zip(cuts, cuts[1:], _RUNGS) if lo < hi]
    if rungs and not free_energy:
        y = np.concatenate([(lower[lo:hi, None] + dy).ravel() for lo, hi, (dy, _) in rungs])
        rows = np.concatenate([np.repeat(np.arange(lo, hi), dy.size) for lo, hi, (dy, _) in rungs])
        fx = _mode_kernel(y[:, None], work, False, *(a[rows] for a in args))
        for lo, hi, (dy, weights) in rungs:  # einsum, unlike BLAS, sums each row alike
            f, fx = fx[:(hi - lo) * dy.size].reshape(hi - lo, dy.size), fx[(hi - lo) * dy.size:]
            value, check = np.einsum("rn,kn->kr", f, weights)
            values[lo:hi], errors[lo:hi] = value, np.abs(value - check)
    todo = ~(errors <= np.maximum(spec.integral_rel_tol * np.abs(values), floor))
    if not todo.any():
        return values, errors, failed
    args = tuple(a[todo] for a in args)
    lower = args[0]
    y_max = spec.y_max(lower)
    # the first breaks below y_max, then y_max and NaN padding; every mode
    # has all of them unless the tolerances are loose
    starts = lower[:, None] + _BREAK_OFFSETS
    k = (starts < y_max[:, None]).sum(axis=1)
    breaks = np.append(starts, y_max[:, None], axis=1)[:, :k.max() + 1]
    breaks[np.arange(breaks.shape[1]) > k[:, None]] = np.nan
    breaks[np.arange(lower.size), k] = y_max

    def f(y):
        live = ~np.isnan(y[:, 0])
        if live.all():
            return _mode_kernel(y, work, free_energy, *args)
        out = np.full(y.shape, np.nan)
        out[live] = _mode_kernel(y[live], work, free_energy, *(a[live] for a in args))
        return out

    try:
        values[todo], errors[todo] = integrate(f, breaks, rel_tol=spec.integral_rel_tol,
                                               abs_tol=floor)
    except QuadratureError as exc:
        values[todo], errors[todo], failed[todo] = exc.estimate, exc.error, exc.failed
    return values, errors, failed


def _mode_error(m: int, geom: Geometry, estimate: float, error: float) -> QuadratureError:
    return QuadratureError(
        f"mode integral m={m} not certified: quadrature error {error:.3e} "
        f"(a={geom.a_um} um, T={geom.T_K} K)", estimate, error)


def _sides_at(geom: Geometry, model1: DielectricModel, model3: DielectricModel):
    """Both sides at geom.T_K; a model passed as both sides stays one object."""
    model1 = model1.at(geom.T_K)
    return model1, model1 if model3 is model1 else model3.at(geom.T_K)


def matsubara_term(m: int, geom: Geometry, model1: DielectricModel,
                   model3: DielectricModel, spec: QuadratureSpec | None = None) -> float:
    """Dimensionless m-th mode integral over y in [m*gamma, inf), m >= 1.

    Both models are taken at geom.T_K, their permittivities frozen at
    zeta_m across the y-integral.  It is the value of the fixed rule pair
    that _RUNGS gives m*gamma if the pair's error meets
    ``spec.integral_rel_tol``.  Else the range is cut at ``spec.y_max`` and
    integrated adaptively.  A QuadratureError carrying the partial estimate
    escapes if no certificate is met.  This is a one-mode block of the sum
    driver, so it equals the term the sum uses wherever the sum's floor does
    not bind.  ``m`` must be an integer; a float raises TypeError.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("the static mode is analytic; matsubara_term needs m >= 1")
    spec = spec or QuadratureSpec()
    values, errors, failed = _mode_block(
        np.array([m]), geom, *_sides_at(geom, model1, model3), spec, 0.0, False,
        integrate_adaptive, _Workspace())
    if failed[0]:
        raise _mode_error(m, geom, float(values[0]), float(errors[0]))
    return float(values[0])


def _summed_modes(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                  spec: QuadratureSpec, free_energy: bool, integrate, unit: float, result):
    """Primed Matsubara sum driver shared by pressure and free energy.

    Modes are integrated in blocks; every integral of a block is certified
    to max(integral_rel_tol * |I_m|, integral_rel_tol * sum_rel_tol * |S|),
    with S the running sum at the block's start.  Every term has the sign
    of the static term, so |S| only grows and that floor stays below the
    sum's own tolerance scale; it stops terms that underflow from refining
    forever.  A block runs up to the first m >= min_terms at which the
    unit-reflection bound of _log_bound, times max(1, r/(1-r)), falls to
    sum_rel_tol * |S|, where the stop rule below is certain to fire, and
    holds at most _BLOCK_CAP modes: a sum of up to _BLOCK_CAP terms takes
    one block.  A mode's value depends on its block only through the floor.

    The block values are then accumulated in increasing m with Neumaier
    compensation.  The sum stops at the first m >= min_terms where the term
    and its estimated geometric tail |t_m| * r/(1-r), r = e^{-2*gamma}
    (1-r computed by expm1, so it stays positive however small gamma is),
    both fall below sum_rel_tol relative to the accumulated total; the tail
    estimate keeps the truncation bias itself at the tolerance level, which
    matters for temperature derivatives downstream.  Modes past the stop
    are discarded, whether or not their integrals were certified.

    Both sides are taken at geom.T_K (``DielectricModel.at``) first.
    Returns ``result(total, static term, terms, n_terms_used, converged)``,
    the sums times ``unit``; a vacuum side gives an unscaled all-zero
    result.  Raises SumConvergenceError carrying that result if max_terms
    is hit first, and a QuadratureError for a mode that is not certified.
    """
    model1, model3 = _sides_at(geom, model1, model3)
    if model1.is_vacuum or model3.is_vacuum:
        return result(0.0, 0.0, np.zeros(0), 0, True)
    # closed-form static TM mode with half weight; the log integrand of F is negative
    zero_coeff = -zeta3() / 8.0 if free_energy else zeta3() / 8.0
    gamma = reduced_temperature(geom)
    # the stop rule's factor on |t_m|: the term itself, or its geometric tail
    tail = max(1.0, math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma))
    # ln of the stop rule's threshold on the bound, relative to |S|
    log_tol = math.log(spec.sum_rel_tol) - math.log(tail)
    acc = zero_coeff
    comp = 0.0
    terms: list[float] = []
    converged = False
    work = _Workspace()
    while not converged and len(terms) < spec.max_terms:
        first, total = len(terms) + 1, abs(acc + comp)
        size = _block_size(first, gamma, log_tol + math.log(total), free_energy, spec.min_terms)
        ms = np.arange(first, min(first + size, spec.max_terms + 1))
        floor = spec.integral_rel_tol * spec.sum_rel_tol * total
        values, errors, failed = _mode_block(
            ms, geom, model1, model3, spec, floor, free_energy, integrate, work)
        for m, t, bad, err in zip(ms.tolist(), values.tolist(), failed.tolist(),
                                  errors.tolist()):
            if bad:
                raise _mode_error(m, geom, t, err)
            new = acc + t
            if abs(acc) >= abs(t):
                comp += (acc - new) + t
            else:
                comp += (t - new) + acc
            acc = new
            terms.append(t)
            if m >= spec.min_terms and abs(t) * tail <= spec.sum_rel_tol * abs(acc + comp):
                converged = True
                break
    out = result((acc + comp) * unit, zero_coeff * unit, np.asarray(terms) * unit,
                 len(terms), converged)
    if not converged:
        what = "free-energy" if free_energy else "frequency"
        raise SumConvergenceError(
            f"{what} sum not converged after {len(terms)} terms "
            f"(a={geom.a_um} um, T={geom.T_K} K)", out)
    return out


def casimir_pressure(geom: Geometry, model1: DielectricModel,
                     model3: DielectricModel,
                     spec: QuadratureSpec | None = None) -> PressureResult:
    """Total pressure between the half-spaces in mPa (negative = attraction).

    The static mode enters analytically with half weight; the m >= 1 modes
    are integrated and summed to the requested tolerances.  Raises
    SumConvergenceError (carrying the partial result) if max_terms is hit
    before the stop rule fires.
    """
    return _summed_modes(geom, model1, model3, spec or QuadratureSpec(), False,
                         integrate_adaptive, -pressure_to_si(1.0, geom), PressureResult)
