from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from casimir import quadrature
from casimir.quadrature import (
    QuadratureError,
    _WEIGHTS_G,
    _WEIGHTS_K,
    integrate_adaptive,
)


def one(f, row, **kwargs):
    """(value, error) of one integral over ``row``, a batch of one row."""
    val, err = integrate_adaptive(f, [row], **kwargs)
    return float(val[0]), float(err[0])


def test_rule_weights_sum_to_interval():
    assert _WEIGHTS_K.sum() == pytest.approx(2.0, abs=1e-14)
    assert _WEIGHTS_G.sum() == pytest.approx(2.0, abs=1e-14)


def test_polynomial_exact():
    val, err = one(lambda x: x**5, [0.0, 1.0])
    assert val == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert err < 1e-13


def test_exponential_tail_value():
    # int_0^inf y^2 e^{-2y} dy = 1/4; truncation at 40 leaves < 1e-30
    val, _ = one(lambda y: y * y * np.exp(-2.0 * y), [0.0, 1.0, 4.0, 10.0, 40.0])
    assert val == pytest.approx(0.25, rel=1e-12)


def test_matches_quadpack_on_peaked_integrand():
    def f(x):
        return 1.0 / (1.0 + (x - 3.0) ** 2 * 400.0)

    val, _ = one(f, [0.0, 10.0], rel_tol=1e-12)
    ref, _ = quad(lambda x: float(f(np.asarray(x))), 0.0, 10.0,
                  epsabs=0.0, epsrel=1e-13, limit=500)
    assert val == pytest.approx(ref, rel=1e-11)


def test_zero_integrand_converges():
    val, err = one(lambda x: np.zeros_like(x), [0.0, 5.0])
    assert val == 0.0
    assert err == 0.0


def test_budget_exhaustion_carries_partial_estimate():
    def needle(x):
        return 1.0 / (1e-12 + (x - 0.5) ** 2)

    with mock.patch.object(quadrature, "_MAX_PANELS", 4), \
            pytest.raises(QuadratureError) as excinfo:
        one(needle, [0.0, 1.0], rel_tol=1e-12)
    assert excinfo.value.estimate[0] != 0.0
    assert excinfo.value.error[0] > 0.0


def test_breaks_validation():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, [[1.0]])
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, [[1.0, 0.5]])
    for not_2d in ([0.0, 1.0], 1.0, [[[0.0, 1.0]]]):
        with pytest.raises(ValueError, match="breaks"):
            integrate_adaptive(lambda x: x, not_2d)


@pytest.mark.parametrize("rel_tol, abs_tol", [
    (float("nan"), 0.0),
    (1e-12, float("nan")),
    (1e-12, np.array([0.0, float("nan")])),
], ids=["rel_tol", "scalar-abs_tol", "per-row-abs_tol"])
def test_nan_tolerance_is_rejected_before_f_is_called(rel_tol, abs_tol):
    # a NaN target could never certify, and no panel would count as carrying
    # more than its share of it
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="NaN"):
        integrate_adaptive(f, [[0.0, 1.0], [0.0, 2.0]], rel_tol=rel_tol, abs_tol=abs_tol)


def test_nan_target_fails_without_further_rounds():
    # finite values whose panel sums overflow to +inf and -inf: the row total
    # is NaN, so its target is NaN and it can never certify, and no panel
    # counts as over budget; the row must fail without another round
    shapes = []

    def f(x):
        shapes.append(x.shape)
        panels = x.reshape(x.shape[0], -1, 15)
        out = np.zeros_like(panels)
        # only at the Kronrod-only nodes, so the Gauss sums stay 0
        out[..., ::2] = 1e308 * np.sign(panels[..., ::2])
        return out.reshape(x.shape)

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureError):
        integrate_adaptive(f, [[-10.0, 0.0, 10.0]])
    assert shapes == [(1, 30)]


def test_absolute_floor():
    # tiny integral against an absolute floor converges immediately
    val, err = one(lambda x: 1e-30 * np.ones_like(x), [0.0, 1.0], rel_tol=1e-12, abs_tol=1e-20)
    assert val == pytest.approx(1e-30, rel=1e-12, abs=0.0)


def peaks(centres):
    """One Lorentzian per row, centred at centres[i]; NaN rows stay NaN."""
    c = np.asarray(centres, dtype=float)[:, None]

    def f(x):
        return 1.0 / (1.0 + (x - c) ** 2 * 400.0)
    return f


def test_batch_equals_single_integrals():
    centres = [0.3, 3.0, 7.77, 9.9, 5.0]
    breaks = np.array([[0.0, 2.0, 5.0, 10.0]] * len(centres))
    val, err = integrate_adaptive(peaks(centres), breaks, rel_tol=1e-12)
    assert val.shape == err.shape == (len(centres),)
    for i, c in enumerate(centres):
        v1, e1 = one(peaks([c]), breaks[i], rel_tol=1e-12)
        assert val[i] == v1
        assert err[i] == e1


def test_batch_absolute_floor_per_row():
    breaks = np.array([[0.0, 1.0], [0.0, 1.0]])
    val, _ = integrate_adaptive(lambda x: 1e-30 * np.ones_like(x), breaks,
                                rel_tol=1e-12, abs_tol=np.array([1e-20, 0.0]))
    assert val == pytest.approx([1e-30, 1e-30], rel=1e-12, abs=0.0)


def test_batch_failure_marks_rows_and_keeps_the_rest():
    def f(x):
        out = 1.0 / (1e-12 + (x - 0.5) ** 2)
        out[0] = np.cos(x[0])
        return out

    breaks = np.array([[0.0, 1.0], [0.0, 1.0]])
    with mock.patch.object(quadrature, "_MAX_PANELS", 4), \
            pytest.raises(QuadratureError) as excinfo:
        integrate_adaptive(f, breaks, rel_tol=1e-12)
    exc = excinfo.value
    assert exc.failed.tolist() == [False, True]
    assert exc.estimate[0] == pytest.approx(np.sin(1.0), rel=1e-12)
    assert exc.error[1] > 0.0


def test_integrand_may_reuse_its_output_buffer():
    # the mode kernel returns a view of scratch storage that its next call
    # overwrites; each value must be taken before the integrand runs again
    centres = [0.3, 3.0, 7.77, 9.9, 5.0]
    breaks = np.array([[0.0, 2.0, 5.0, 10.0]] * len(centres))
    fresh = peaks(centres)
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
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def ragged(rows):
    """2-D breaks from rows of different lengths, NaN-padded at the end."""
    out = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def test_ragged_rows_equal_single_integrals():
    centres = [0.3, 3.0, 7.77, 9.9]
    rows = [[0.0, 10.0], [0.0, 2.0, 5.0, 10.0], [0.0, 5.0, 7.0, 8.0, 9.0, 10.0], [0.0, 9.5]]
    val, err = integrate_adaptive(peaks(centres), ragged(rows), rel_tol=1e-12)
    for i, c in enumerate(centres):
        assert (val[i], err[i]) == one(peaks([c]), rows[i], rel_tol=1e-12)
    assert val[3] == pytest.approx(
        quad(lambda x: 1.0 / (1.0 + (x - 9.9) ** 2 * 400.0), 0.0, 9.5, epsabs=0.0,
             epsrel=1e-13, limit=500)[0], rel=1e-11)


@pytest.mark.parametrize("row", [[np.nan, 1.0, 2.0], [0.0, np.nan, 2.0], [0.0, np.nan, 2.0, np.nan],
                                 [0.0, 1.0, np.nan, 3.0]],
                         ids=["nan-first", "nan-second", "nan-second-padded", "number-after-nan"])
def test_malformed_padding_is_rejected(row):
    breaks = np.array([[0.0, 1.0, 2.0, 3.0][:len(row)], row])
    with pytest.raises(ValueError, match="NaN"):
        integrate_adaptive(lambda x: x, breaks)


def test_row_growing_past_the_initial_width_equals_single_integral():
    # the sharp peak needs far more panels than the 3 slots every row starts with
    nodes = []

    def sharp(x):
        nodes.append(np.count_nonzero(~np.isnan(x)))
        return 1.0 / (1.0 + (x - 0.5) ** 2 * 1e8)

    single = one(sharp, [0.0, 1.0], rel_tol=1e-12)
    assert sum(nodes) // 15 > 20

    def batch(x):
        out = peaks([3.0, 0.5, 7.0])(x)
        out[1] = sharp(x[1])
        return out

    breaks = ragged([[0.0, 2.0, 5.0, 10.0], [0.0, 1.0], [0.0, 2.0, 5.0, 10.0]])
    val, err = integrate_adaptive(batch, breaks, rel_tol=1e-12)
    assert (val[1], err[1]) == single


def test_caller_breaks_are_left_unchanged():
    # panels are bisected in place; row 1's first bisections fit the initial
    # width, so panels kept as views of the caller's array would write to it
    breaks = ragged([[0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 10.0]])
    before = breaks.copy()
    nodes = []

    def f(x):
        nodes.append(np.count_nonzero(~np.isnan(x[1])))
        return np.array([[0.0], [1.0]]) / (1.0 + (x - 3.0) ** 2 * 1e6)

    integrate_adaptive(f, breaks, rel_tol=1e-12)
    panels = (sum(nodes) // 15 + 1) // 2  # one initial panel, two per bisection
    assert panels > breaks.shape[1]  # row 1 grew past the initial width
    assert breaks.dtype == np.float64 and breaks.tobytes() == before.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.0, 12.0), st.floats(1.0, 1e8),
                          st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
                          st.sampled_from([0.0, 1e-14, 1e-9])),
                min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_row_result_is_independent_of_the_batch(specs, rnd):
    """Permuting a batch or taking a subset leaves every row's (value, error)
    bit-identical: rows are ragged, peaks of any sharpness, floors differ."""
    centre = np.array([s[0] for s in specs])
    sharp = np.array([s[1] for s in specs])
    floor = np.array([s[3] for s in specs])
    breaks = ragged([np.cumsum([0.0] + s[2]) * 10.0 / sum(s[2]) for s in specs])

    def run(idx):
        c, k = centre[idx, None], sharp[idx, None]
        try:
            return integrate_adaptive(lambda x: 1.0 / (1.0 + k * (x - c) ** 2),
                                      breaks[idx], rel_tol=1e-12, abs_tol=floor[idx])
        except QuadratureError as exc:
            return exc.estimate, exc.error

    # a small panel budget, so that some rows fail; a function-scoped
    # fixture would trip Hypothesis's health check
    with mock.patch.object(quadrature, "_MAX_PANELS", 64):
        full = run(np.arange(len(specs)))
        perm = np.array(rnd.sample(range(len(specs)), len(specs)))
        subset = perm[:rnd.randint(1, len(specs))]
        for idx in (perm, subset):
            val, err = run(idx)
            assert full[0][idx].tobytes() == val.tobytes()
            assert full[1][idx].tobytes() == err.tobytes()
