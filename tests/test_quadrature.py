import math
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from casimir import quadrature
from casimir.quadrature import (
    GAUSS_LAGUERRE,
    GAUSS_LEGENDRE,
    QuadratureError,
    _WEIGHTS_G,
    _WEIGHTS_K,
    integrate_adaptive,
)


def test_rule_weights_sum_to_interval():
    assert _WEIGHTS_K.sum() == pytest.approx(2.0, abs=1e-14)
    assert _WEIGHTS_G.sum() == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_gauss_tables_are_numpys_rules(n):
    for table, rule in ((GAUSS_LEGENDRE, leggauss), (GAUSS_LAGUERRE, laggauss)):
        assert [a.tobytes() for a in table[n]] == [a.tobytes() for a in rule(n)]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_gauss_tables_integrate_monomials_exactly(n):
    # x^k up to k = 2n - 1: 2/(k + 1) or 0 on [-1, 1], and k! under e^{-t}
    (x, w), (t, wt) = GAUSS_LEGENDRE[n], GAUSS_LAGUERRE[n]
    for k in range(2 * n):
        assert abs(math.fsum(w * x**k) - (0.0 if k % 2 else 2.0 / (k + 1))) <= 1e-14
        assert math.fsum(wt * t**k) == pytest.approx(math.factorial(k), rel=1e-13)


def test_polynomial_exact():
    val, err = integrate_adaptive(lambda x: x**5, np.array([0.0, 1.0]))
    assert type(val) is float and type(err) is float
    assert val == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert err < 1e-13


def test_exponential_tail_value():
    # int_0^inf y^2 e^{-2y} dy = 1/4; truncation at 40 leaves < 1e-30
    val, _ = integrate_adaptive(lambda y: y * y * np.exp(-2.0 * y), [0.0, 1.0, 4.0, 10.0, 40.0])
    assert val == pytest.approx(0.25, rel=1e-12)


def peak(centre):
    """A Lorentzian of half-width 1/20 centred at ``centre``."""
    def f(x):
        return 1.0 / (1.0 + (x - centre) ** 2 * 400.0)
    return f


def test_matches_quadpack_on_peaked_integrand():
    val, _ = integrate_adaptive(peak(3.0), [0.0, 10.0], rel_tol=1e-12)
    ref, _ = quad(lambda x: float(peak(3.0)(np.asarray(x))), 0.0, 10.0,
                  epsabs=0.0, epsrel=1e-13, limit=500)
    assert val == pytest.approx(ref, rel=1e-11)


def test_zero_integrand_converges():
    val, err = integrate_adaptive(lambda x: np.zeros_like(x), [0.0, 5.0])
    assert val == 0.0
    assert err == 0.0


def test_budget_exhaustion_carries_partial_estimate():
    def needle(x):
        return 1.0 / (1e-12 + (x - 0.5) ** 2)

    with mock.patch.object(quadrature, "_MAX_PANELS", 4), \
            pytest.raises(QuadratureError, match="after 4 panels") as excinfo:
        integrate_adaptive(needle, [0.0, 1.0], rel_tol=1e-12)
    estimate, error = excinfo.value.estimate, excinfo.value.error
    assert type(estimate) is float and type(error) is float
    assert estimate != 0.0 and error > 0.0


@pytest.mark.parametrize("breaks", [[1.0], [1.0, 0.5], [0.0, 1.0, 1.0], [np.nan, 1.0],
                                    [0.0, np.nan, 2.0], 1.0, [[0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]]],
                         ids=["one-break", "decreasing", "repeated", "nan-first", "nan-inside",
                              "scalar", "2-d", "2-d-batch"])
def test_breaks_validation(breaks):
    with pytest.raises(ValueError, match="breaks"):
        integrate_adaptive(lambda x: x, breaks)


@pytest.mark.parametrize("rel_tol, abs_tol", [
    (float("nan"), 0.0),
    (1e-12, float("nan")),
], ids=["rel_tol", "abs_tol"])
def test_nan_tolerance_is_rejected_before_f_is_called(rel_tol, abs_tol):
    # a NaN target could never certify, and no panel would count as carrying
    # more than its share of it
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="NaN"):
        integrate_adaptive(f, [0.0, 1.0], rel_tol=rel_tol, abs_tol=abs_tol)


def test_nan_target_fails_without_further_rounds():
    # finite values whose panel sums overflow to +inf and -inf: the total is
    # NaN, so its target is NaN and it can never certify, and no panel
    # counts as over budget; the integral must fail without another round
    shapes = []

    def f(x):
        shapes.append(x.shape)
        panels = x.reshape(-1, 15)
        out = np.zeros_like(panels)
        # only at the Kronrod-only nodes, so the Gauss sums stay 0
        out[:, ::2] = 1e308 * np.sign(panels[:, ::2])
        return out.reshape(x.shape)

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureError):
        integrate_adaptive(f, [-10.0, 0.0, 10.0])
    assert shapes == [(30,)]


def test_absolute_floor():
    # tiny integral against an absolute floor converges immediately
    val, err = integrate_adaptive(lambda x: 1e-30 * np.ones_like(x), [0.0, 1.0], rel_tol=1e-12,
                                  abs_tol=1e-20)
    assert val == pytest.approx(1e-30, rel=1e-12, abs=0.0)


def test_integrand_may_reuse_its_output_buffer():
    # the mode kernel returns a view of scratch storage that its next call
    # overwrites; each value must be taken before the integrand runs again
    breaks = [0.0, 2.0, 5.0, 10.0]
    fresh = peak(7.77)
    storage = np.empty(10_000)
    calls = []

    def reused(x):
        calls.append(x.shape)
        out = storage[:x.size].reshape(x.shape)
        out[...] = fresh(x)
        return out

    got = integrate_adaptive(reused, breaks, rel_tol=1e-12)
    want = integrate_adaptive(fresh, breaks, rel_tol=1e-12)
    assert len(calls) > 2
    assert got == want


def test_caller_breaks_are_left_unchanged():
    # bisected panels are written in place; panels kept as views of the
    # caller's array would write to it
    breaks = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    before = breaks.copy()
    nodes = []

    def f(x):
        nodes.append(x.size)
        return 1.0 / (1.0 + (x - 3.0) ** 2 * 1e6)

    integrate_adaptive(f, breaks, rel_tol=1e-12)
    assert sum(nodes) // 15 > 2 * breaks.size  # many bisections
    assert breaks.dtype == np.float64 and breaks.tobytes() == before.tobytes()
