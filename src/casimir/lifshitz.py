"""Core mode sum: the primed Matsubara sum of semi-infinite y-integrals
over TE/TM reflection products, with the analytic static (m=0) term.

The modes are integrated in blocks: one kernel evaluates the pressure or
free-energy integrand of a whole block on a (mode x node) array.  Pressure
modes with A >= 2 take a Gauss-Laguerre pair (24 nodes, 16 for the error),
all others one batched adaptive quadrature; each mode is certified alone.

All mode arithmetic is dimensionless; SI conversion happens once at the
end through :func:`casimir.quantities.pressure_to_si`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

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
    """Error control for the y-integrals and the frequency sum."""

    integral_rel_tol: float = 1e-12
    sum_rel_tol: float = 1e-8
    max_terms: int = 200_000
    min_terms: int = 5

    def __post_init__(self) -> None:
        if not (0 < self.integral_rel_tol < math.inf and 0 < self.sum_rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_terms < 1 or self.min_terms < 1:
            raise ValueError("term counts must be >= 1")

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

    def __init__(self, rows: int):  # room for the first round of `rows` modes
        self.size = 0
        self.arrays((rows, 15 * _BREAK_OFFSETS.size))

    def arrays(self, shape):
        n = shape[0] * shape[1]
        if self.size < n:
            self.size, self.floats, self.mask = n, np.empty(8 * n), np.empty(n, dtype=bool)
        return (*self.floats[:8 * n].reshape((8,) + shape), self.mask[:n].reshape(shape))


def _reflections(eps, p, pp, s, x, tm, te):
    """(TM, TE) reflections of one interface into tm and te; pp = p*p, s, x
    scratch; eps = inf gives 1.  TM is computed as in reflection_tm, TE as
    (eps-1)/(s+p)^2, equal to reflection_te's (s-p)/(s+p) without its
    cancellation as eps -> 1."""
    if np.all(np.isinf(eps)):
        return 1.0, 1.0
    em1 = eps - 1.0
    np.sqrt(np.add(em1, pp, out=s), out=s)
    np.add(s, p, out=te)
    np.subtract(p, np.divide(1.0, te, out=tm), out=tm)
    np.multiply(em1, tm, out=tm)
    np.divide(tm, np.add(np.multiply(eps, p, out=x), s, out=x), out=tm)
    np.divide(em1, np.multiply(te, te, out=te), out=te)
    return tm, te


def _mode_kernel(y, work: _Workspace, free_energy: bool, A, eps1, eps3=None):
    """Integrand of a block of Matsubara modes on a (mode x node) array.

    Row i of ``y`` holds nodes of mode i, whose lower limit is A[i] = m*gamma
    and whose permittivities at zeta_m are eps1[i] and eps3[i] (inf for an
    ideal metal; no eps3 means eps3 = eps1).  Gives the pressure integrand
    y^2 * [x_TM/(1-x_TM) + x_TE/(1-x_TE)], x = delta1*delta2*e^{-2y} < 1,
    or, with ``free_energy``, y * [ln(1-x_TM) + ln(1-x_TE)], in a view into
    ``work`` valid until the next call; ``integrate_adaptive`` copies each
    integrand value before it calls the integrand again.

    1-x is assembled as (1-e^{-2y}) + e^{-2y}(1-delta1*delta2), a sum of
    nonnegative terms, so no precision is lost when both factors approach 1.
    """
    p, pp, s, x, b1, b2, b3, b4, mask = work.arrays(y.shape)
    np.divide(y, A[:, None], out=p)
    np.multiply(p, p, out=pp)
    tm1, te1 = _reflections(eps1[:, None], p, pp, s, x, b1, b2)
    tm3, te3 = (tm1, te1) if eps3 is None else _reflections(eps3[:, None], p, pp, s, x, b3, b4)
    if not free_energy and np.less_equal(y, 0, out=mask).any():
        raise ValueError("y must be positive")
    em = np.negative(np.expm1(np.multiply(-2.0, y, out=p), out=pp), out=pp)
    e2y = np.exp(p, out=p)
    total = 0.0
    for d1, d3 in ((tm1, tm3), (te1, te3)):
        prod = np.multiply(d1, d3, out=s)
        np.multiply(prod, e2y, out=x)
        if not free_energy and np.greater_equal(x, 1.0, out=mask).any():
            raise ValueError("delta1*delta2*e^{-2y} must stay below 1")
        one_minus = np.add(em, np.multiply(e2y, np.subtract(1.0, prod, out=s), out=s), out=s)
        if free_energy:
            # ln(1-x): log of the assembled 1-x when x is near 1, log1p
            # for small x where that assembly would round away
            np.greater(x, 0.5, out=mask)
            np.log1p(np.negative(x, out=x), out=x)
            np.copyto(x, np.log(one_minus, out=s), where=mask)
        else:
            np.divide(x, one_minus, out=x)
        total = np.add(total, x, out=b1)  # tm1's storage, consumed above
    return np.multiply(y if free_energy else np.multiply(y, y, out=x), total, out=x)


# First breaks of every mode integral, as offsets from its lower limit.
_BREAK_OFFSETS = np.array([0.0, 0.75, 2.0, 4.0, 7.0, 11.0, 16.0])

# Gauss-Laguerre pair for pressure modes with A >= _GL_MIN: y = A + t/2 maps
# a mode integral to 1/2 int_0^inf e^{-t} [e^t f] dt, so the weights carry
# 1/2 e^t.  One row of 40 nodes holds both rules; each weighs the other's by 0.
_GL_MIN = 2.0
(_T24, _W24), (_T16, _W16) = laggauss(24), laggauss(16)
_GL_Y = 0.5 * np.concatenate([_T24, _T16])
_GL_W24 = np.concatenate([0.5 * _W24 * np.exp(_T24), np.zeros(16)])
_GL_W16 = np.concatenate([np.zeros(24), 0.5 * _W16 * np.exp(_T16)])

# Largest number of modes evaluated in one block.  The block's arrays grow
# with it; past about a hundred modes the per-call overhead is already
# amortised and only the peak memory keeps growing.
_BLOCK_CAP = 128


def _mode_block(ms: np.ndarray, geom: Geometry, model1: DielectricModel,
                model3: DielectricModel, spec: QuadratureSpec, floor: float,
                free_energy: bool, integrate, work: _Workspace):
    """Mode integrals of the Matsubara indices ``ms`` (>= 1) in one batch.

    Each integral is certified to max(integral_rel_tol * |I_m|, floor), the
    kernel working in ``work``: a pressure mode with A >= _GL_MIN by
    |GL24 - GL16| (value GL24), free-energy modes and the rest by
    ``integrate`` (the module's ``integrate_adaptive``).  Returns (values,
    errors, failed); a failed mode holds its uncertified estimate.
    """
    gamma = reduced_temperature(geom)
    lower = ms * gamma
    zeta = ms * matsubara_frequency(1, geom.T_K)
    eps1 = np.asarray(model1.epsilon(zeta), dtype=float)
    eps3 = np.asarray(model3.epsilon(zeta), dtype=float)
    same = (eps1 == eps3).all()  # then one interface serves both sides
    args = (lower, eps1) + (() if same else (eps3,))
    values, errors, failed = np.empty(ms.size), np.empty(ms.size), np.zeros(ms.size, bool)
    # free energies stay adaptive: entropy differences two, and GL's ulps in F would show
    todo = (lower < _GL_MIN) | free_energy
    if not todo.all():
        gl = ~todo
        fx = _mode_kernel(lower[gl, None] + _GL_Y, work, False, *(a[gl] for a in args))
        value = np.einsum("...n,n->...", fx, _GL_W24)  # per row, unlike BLAS
        error = np.abs(value - np.einsum("...n,n->...", fx, _GL_W16))
        values[gl], errors[gl] = value, error
        todo[gl] = ~(error <= np.maximum(spec.integral_rel_tol * np.abs(value), floor))
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


def matsubara_term(m: int, geom: Geometry, model1: DielectricModel,
                   model3: DielectricModel, spec: QuadratureSpec | None = None) -> float:
    """Dimensionless m-th mode integral over y in [m*gamma, inf), m >= 1.

    The permittivities are frozen at zeta_m across the y-integral.  With
    m*gamma >= 2 it is a 24-node Gauss-Laguerre value if its distance from
    the 16-node one meets ``spec.integral_rel_tol``; else the range is cut at
    ``spec.y_max`` and integrated adaptively.  A QuadratureError carrying the
    partial estimate escapes if no certificate is met.  This is a one-mode
    block of the sum driver, so it equals the term the sum uses wherever the
    sum's floor does not bind.
    """
    if m < 1:
        raise ValueError("the static mode is analytic; matsubara_term needs m >= 1")
    spec = spec or QuadratureSpec()
    values, errors, failed = _mode_block(
        np.array([m]), geom, model1, model3, spec, 0.0, False, integrate_adaptive,
        _Workspace(1))
    if failed[0]:
        raise _mode_error(m, geom, float(values[0]), float(errors[0]))
    return float(values[0])


def _summed_modes(geom: Geometry, model1: DielectricModel, model3: DielectricModel,
                  spec: QuadratureSpec, free_energy: bool, integrate, unit: float, result):
    """Primed Matsubara sum driver shared by pressure and free energy.

    Modes are integrated in blocks of min_terms, then twice as many each
    time, up to _BLOCK_CAP modes; every integral of a block is certified to
    max(integral_rel_tol * |I_m|, integral_rel_tol * sum_rel_tol * |S|),
    with S the running sum at the block's start.  Every term has the sign
    of the static term, so that floor stays below the sum's own tolerance
    scale; it stops terms that underflow from refining forever.

    The block values are then accumulated in increasing m with Neumaier
    compensation.  The sum stops at the first m >= min_terms where the term
    and its estimated geometric tail |t_m| * r/(1-r), r = e^{-2*gamma}
    (1-r computed by expm1, so it stays positive however small gamma is),
    both fall below sum_rel_tol relative to the accumulated total; the tail
    estimate keeps the truncation bias itself at the tolerance level, which
    matters for temperature derivatives downstream.  Modes past the stop
    are discarded, whether or not their integrals were certified.

    Returns ``result(total, static term, terms, n_terms_used, converged)``,
    the sums times ``unit``; a vacuum side gives an unscaled all-zero
    result.  Raises SumConvergenceError carrying that result if max_terms
    is hit first, and a QuadratureError for a mode that is not certified.
    """
    if model1.is_vacuum or model3.is_vacuum:
        return result(0.0, 0.0, np.zeros(0), 0, True)
    # closed-form static TM mode with half weight; the log integrand of F is negative
    zero_coeff = -zeta3() / 8.0 if free_energy else zeta3() / 8.0
    gamma = reduced_temperature(geom)
    r = math.exp(-2.0 * gamma)
    tail_factor = r / -math.expm1(-2.0 * gamma)
    acc = zero_coeff
    comp = 0.0
    terms: list[float] = []
    converged = False
    size = min(spec.min_terms, _BLOCK_CAP)
    work = _Workspace(min(spec.max_terms, _BLOCK_CAP))
    while not converged and len(terms) < spec.max_terms:
        first = len(terms) + 1
        ms = np.arange(first, min(first + size, spec.max_terms + 1))
        floor = spec.integral_rel_tol * spec.sum_rel_tol * abs(acc + comp)
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
            if m >= spec.min_terms:
                scale = spec.sum_rel_tol * abs(acc + comp)
                if abs(t) <= scale and abs(t) * tail_factor <= scale:
                    converged = True
                    break
        size = min(2 * size, _BLOCK_CAP)
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
