"""Globally adaptive Gauss-Kronrod quadrature for vectorised integrands.

The integrands in this package are smooth and exponentially decaying, so a
15-point Kronrod rule with panel bisection certifies very tight tolerances
in a handful of refinement rounds.

One call integrates a batch of integrals, one row of breaks each, and the
integrand evaluates every row at once, so a refinement round costs a few
numpy calls for the whole batch.  Rows may be ragged and stay at their
index for the whole call: a finished row is masked out of bisection, not
moved.  Each row keeps its own panels, error budget and certificate, and
its result is independent of the batch by construction: a panel's sums
reduce its own 15 values, a row's panels stay in the order of its own
bisections, and its totals add them from the left, where the zero padding
of shorter rows changes nothing.  A row integrated in a batch equals the
same row integrated alone, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadratureError", "integrate_adaptive"]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (QUADPACK abscissae and weights, nonnegative half).
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # ascending, 15 nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_MAX_ROUNDS = 64  # bisection rounds before an integral counts as failed
_MAX_PANELS = 2048  # panels of one integral past which it is not bisected


class QuadratureError(RuntimeError):
    """Error target not certified within budget; carries the partial result.

    From ``integrate_adaptive``, ``estimate`` and ``error`` are arrays over
    the rows, and ``failed`` marks the rows that were not certified; the
    other rows hold their certified values.  The mode sum raises it for one
    mode (``lifshitz._mode_error``), with floats and no ``failed``.
    """

    def __init__(self, message: str, estimate, error, failed=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.failed = failed


def _row_sums(a):
    """Sum of each row, added column by column from the left."""
    return np.add.accumulate(a, axis=1)[:, -1]


def _panel_rule(f, lo, hi):
    """Kronrod values and |K-G| error estimates of a batch of panels.

    Row i holds panels of integral i, NaN-padded; an empty slot gives 0, and
    the integrand gets NaN nodes there.  einsum, unlike BLAS, reduces each
    panel's 15 values the same way whatever the shape around them.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[..., None] + h[..., None] * _NODES).reshape(lo.shape[0], -1)
    fx = np.asarray(f(x), dtype=float).reshape(lo.shape + (15,))
    k = h * np.einsum("...n,n->...", fx, _WEIGHTS_K)
    g = h * np.einsum("...n,n->...", fx, _WEIGHTS_G)
    empty = np.isnan(h)
    return np.where(empty, 0.0, k), np.where(empty, 0.0, np.abs(k - g))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[Sequence[float]] | np.ndarray,
    rel_tol: float = 1e-12,
    abs_tol=0.0,
):
    """Integrate ``f`` over each row of ``breaks``; returns (values, errors).

    ``breaks`` is a 2-D array, one row of initial panel breaks per
    integral, each row ending at its last number before any NaN padding;
    the two returned arrays hold one entry per row and do not depend on the
    batch's shape.  ``f`` maps an array of nodes with one row per integral
    to values of the same shape; nodes with nothing to evaluate are NaN and
    their values are ignored.  ``f`` may return a view of storage that its
    next call overwrites.  Panels carrying more than their share of an
    integral's error budget are bisected until its summed Kronrod-Gauss
    estimate certifies ``rel_tol`` (or ``abs_tol``, a scalar or one value
    per row, if larger); a certified or spent row is left as it is.  A NaN
    tolerance raises ValueError before ``f`` is called.  Integrals not
    certified within _MAX_PANELS panels raise QuadratureError, carrying
    arrays, once the whole batch is done.
    """
    pts = np.asarray(breaks, dtype=float)
    pad = np.isnan(pts)
    if (pts.ndim != 2 or pts.shape[1] < 2 or pad[:, :2].any()
            or (pad[:, :-1] & ~pad[:, 1:]).any() or np.any(np.diff(pts, axis=1) <= 0)):
        raise ValueError("breaks must be strictly increasing sequences, NaN-padded at the end")
    n = pts.shape[0]
    floor = np.broadcast_to(np.asarray(abs_tol, dtype=float), (n,))
    if np.isnan(rel_tol) or np.isnan(abs_tol).any():
        raise ValueError(f"tolerances must not be NaN, got rel_tol={rel_tol}, abs_tol={abs_tol}")
    # copies: as views of pts, bisected in place, they would overlap
    lo, hi = pts[:, :-1].copy(), pts[:, 1:].copy()
    count = (~pad[:, 1:]).sum(axis=1)
    val, err = _panel_rule(f, lo, hi)
    for rounds in range(_MAX_ROUNDS + 1):
        total = _row_sums(val)
        total_err = _row_sums(err)
        target = np.maximum(rel_tol * np.abs(total), floor)
        done = total_err <= target
        # a NaN error or target never certifies, however the panels are cut
        live = ~done & (count < _MAX_PANELS) & ~np.isnan(total_err + target)
        if rounds == _MAX_ROUNDS or not live.any():
            break

        # a live row's panel errors sum past its target, so one of them exceeds
        # target/(2 count) even after rounding; an empty slot's error 0 never does
        bad = (err > (target / (2.0 * count))[:, None]) & live[:, None]
        n_bad = bad.sum(axis=1)
        # the left half of a bisected panel takes its slot, the right half
        # goes to the end of the row
        rb, cb = np.nonzero(bad)
        j = (np.cumsum(bad, axis=1) - 1)[rb, cb]
        right = j + n_bad[rb]
        mid = 0.5 * (lo[rb, cb] + hi[rb, cb])
        new_lo = np.full((n, 2 * n_bad.max()), np.nan)
        new_hi = new_lo.copy()
        new_lo[rb, j], new_hi[rb, j] = lo[rb, cb], mid
        new_lo[rb, right], new_hi[rb, right] = mid, hi[rb, cb]
        new_val, new_err = _panel_rule(f, new_lo, new_hi)

        grow = (count + n_bad).max() - lo.shape[1]
        if grow > 0:  # room for the right halves
            nan, zero = np.full((n, grow), np.nan), np.zeros((n, grow))
            lo, hi, val, err = (np.concatenate(pair, axis=1) for pair in (
                (lo, nan), (hi, nan), (val, zero), (err, zero)))
        for old, new in ((lo, new_lo), (hi, new_hi), (val, new_val), (err, new_err)):
            old[rb, cb] = new[rb, j]
            old[rb, count[rb] + j] = new[rb, right]
        count = count + n_bad

    failed = ~done
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise QuadratureError(
            f"{int(failed.sum())} of {n} integrals not certified; row {i}: quadrature error "
            f"{total_err[i]:.3e} above target {target[i]:.3e} after {count[i]} panels",
            total, total_err, failed)
    return total, total_err
