"""Globally adaptive Gauss-Kronrod quadrature of one integral.

The integrands in this package are smooth and exponentially decaying, so a
15-point Kronrod rule with panel bisection certifies very tight tolerances
in a handful of refinement rounds.  One call integrates one integral, the
QUADPACK design (Piessens et al., 1983); the mode sums reach it only for
the few modes their fixed rules miss, one call per mode.  A refinement
round bisects every panel carrying more than its share of the error budget
and evaluates all the new panels in one integrand call.
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
    """Error target not certified within budget; carries the partial
    ``estimate`` and its ``error`` as floats."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _panel_rule(f, lo, hi):
    """Kronrod values and |K-G| error estimates of the panels [lo, hi].

    einsum, unlike BLAS, reduces each panel's 15 values the same way
    whatever the number of panels.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fx = np.asarray(f((c[:, None] + h[:, None] * _NODES).ravel()), dtype=float).reshape(-1, 15)
    k = h * np.einsum("pn,n->p", fx, _WEIGHTS_K)
    g = h * np.einsum("pn,n->p", fx, _WEIGHTS_G)
    return k, np.abs(k - g)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[float] | np.ndarray,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
) -> tuple[float, float]:
    """Integrate ``f`` over the panels between ``breaks``; returns (value, error).

    ``breaks`` is a strictly increasing 1-D sequence of at least two
    numbers.  ``f`` maps a 1-D array of nodes to values of the same shape,
    and may return a view of storage that its next call overwrites.  Panels
    carrying more than their share of the error budget are bisected until
    the summed Kronrod-Gauss estimate certifies ``rel_tol`` (or ``abs_tol``,
    if larger): the left half of a panel takes its place, the right half is
    appended, and the panels are summed from the left.  A NaN tolerance
    raises ValueError before ``f`` is called.  An integral not certified
    within _MAX_ROUNDS rounds and _MAX_PANELS panels raises QuadratureError
    carrying the partial estimate.
    """
    pts = np.asarray(breaks, dtype=float)
    if pts.ndim != 1 or pts.size < 2 or not (np.diff(pts) > 0).all():  # NaN fails it too
        raise ValueError("breaks must be a strictly increasing 1-D sequence")
    if np.isnan(rel_tol) or np.isnan(abs_tol):
        raise ValueError(f"tolerances must not be NaN, got rel_tol={rel_tol}, abs_tol={abs_tol}")
    lo, hi = pts[:-1], pts[1:]  # never written: each round makes new arrays
    val, err = _panel_rule(f, lo, hi)
    for rounds in range(_MAX_ROUNDS + 1):
        total = np.add.accumulate(val)[-1]  # from the left; np.sum would add pairwise
        total_err = np.add.accumulate(err)[-1]
        target = np.maximum(rel_tol * np.abs(total), abs_tol)
        # a NaN error or target never certifies, however the panels are cut
        if (total_err <= target or rounds == _MAX_ROUNDS or lo.size >= _MAX_PANELS
                or np.isnan(total_err + target)):
            break
        # the panel errors sum past the target, so one of them exceeds
        # target/(2 panels) even after rounding
        bad = np.flatnonzero(err > target / (2.0 * lo.size))
        mid = 0.5 * (lo[bad] + hi[bad])
        new_val, new_err = _panel_rule(f, np.append(lo[bad], mid), np.append(mid, hi[bad]))
        lo, hi = np.append(lo, mid), np.append(hi, hi[bad])
        hi[bad] = mid
        val, err = np.append(val, new_val[bad.size:]), np.append(err, new_err[bad.size:])
        val[bad], err[bad] = new_val[:bad.size], new_err[:bad.size]

    if not total_err <= target:
        raise QuadratureError(
            f"quadrature error {total_err:.3e} above target {target:.3e} after {lo.size} panels",
            float(total), float(total_err))
    return float(total), float(total_err)
