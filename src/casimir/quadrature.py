"""Globally adaptive Gauss-Kronrod quadrature of one integral.

The integrands in this package are smooth and exponentially decaying, so a
15-point Kronrod rule with panel bisection certifies very tight tolerances
in a handful of refinement rounds.  One call integrates one integral, the
QUADPACK design (Piessens et al., 1983); the mode sums reach it only for
the few modes their fixed rules miss, one call per mode.  A refinement
round bisects every panel carrying more than its share of the error budget
and evaluates all the new panels in one integrand call.

The Gauss-Legendre rules of 8 and 12 nodes and the Gauss-Laguerre rules of
8, 12 and 16 nodes that the fixed mode rules (casimir.lifshitz) and the
Kramers-Kronig transform (casimir.dielectric) take live here too:
numpy.polynomial's ``leggauss(n)`` and ``laggauss(n)`` printed to
round-trip precision, so no module imports numpy.polynomial.
tests/test_quadrature.py pins them to numpy's bits and to exact moments.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["GAUSS_LAGUERRE", "GAUSS_LEGENDRE", "QuadratureError", "integrate_adaptive"]

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

# Gauss-Legendre rules on [-1, 1] as n: (nodes, weights), nonnegative half
# as _XK and _WK, and Gauss-Laguerre rules on [0, inf) under e^{-t}.
_LEGENDRE_HALF = {
    8: ((0.9602898564975362, 0.7966664774136267, 0.525532409916329, 0.18343464249564978),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166)),
    12: ((0.9815606342467192, 0.9041172563704748, 0.7699026741943047, 0.5873179542866175,
          0.3678314989981802, 0.1252334085114689),
         (0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
          0.2334925365383546, 0.2491470458134027)),
}
_LAGUERRE = {
    8: ((0.17027963230510093, 0.90370177679938, 2.251086629866131, 4.266700170287659,
         7.0459054023934655, 10.758516010180996, 15.740678641278004, 22.863131736889265),
        (0.36918858934163495, 0.4187867808143447, 0.17579498663717255, 0.033343492261215794,
         0.0027945362352256834, 9.076508773358139e-05, 8.48574671627257e-07,
         1.0480011748715153e-09)),
    12: ((0.1157221173580205, 0.6117574845151308, 1.512610269776419, 2.833751337743507,
          4.5992276394183484, 6.844525453115177, 9.621316842456867, 13.006054993306348,
          17.116855187462257, 22.151090379397004, 28.487967250984, 37.09912104446692),
         (0.26473137105543654, 0.3777592758731421, 0.24408201131987906, 0.09044922221168182,
          0.020102381154634218, 0.0026639735418653335, 0.0002032315926630013,
          8.365055856819926e-06, 1.6684938765409212e-07, 1.342391030515004e-09,
          3.0616016350351023e-12, 8.148077467426094e-16)),
    16: ((0.08764941047892776, 0.4626963289150804, 1.1410577748312265, 2.1292836450983805,
          3.4370866338932067, 5.078018614549768, 7.070338535048234, 9.438314336391938,
          12.21422336886616, 15.441527368781617, 19.180156856753136, 23.515905693991908,
          28.57872974288214, 34.58339870228662, 41.94045264768833, 51.70116033954332),
         (0.2061517149578049, 0.3310578549508783, 0.2657957776442144, 0.13629693429637874,
          0.04732892869412563, 0.011299900080339598, 0.0018490709435263271, 0.0002042719153082809,
          1.4844586873981502e-05, 6.828319330871331e-07, 1.8810248410797222e-08,
          2.862350242973897e-10, 2.1270790332241214e-12, 6.29796700251788e-15,
          5.050473700035608e-18, 4.161462370372851e-22)),
}
# n: (nodes, weights), ascending as numpy.polynomial gives them
GAUSS_LEGENDRE = {n: (np.array([*(-v for v in x), *x[::-1]]), np.array(w + w[::-1]))
                  for n, (x, w) in _LEGENDRE_HALF.items()}
GAUSS_LAGUERRE = {n: (np.array(t), np.array(w)) for n, (t, w) in _LAGUERRE.items()}

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
