"""Chebyshev interpolants in m of the Matsubara terms I_m = I(m*gamma, eps(i m zeta_1)),
analytic in m where both permittivities are analytic in zeta > 0: fitted to samples from
the sum driver (casimir.lifshitz), certified by their coefficient tails (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013) and evaluated by Clenshaw."""

import functools

import numpy as np

_DEGREES, _SHORTEST = (16, 32, 64), 64  # sample degrees in turn; modes of the shortest panel


@functools.cache
def _chebyshev(n):
    """Points -cos(pi*i/n), i = 0..n, and the matrix to Chebyshev coefficients."""
    i = np.arange(n + 1)
    to_coeffs = np.cos(np.pi * np.outer(i, n - i) / n) * (2.0 / n)
    to_coeffs[:, [0, n]] *= 0.5
    to_coeffs[[0, n]] *= 0.5
    return -np.cos(np.pi * i / n), to_coeffs


def _panels(start: int, end: int, gamma: float):
    """The panels (lo, hi) from mode start + 1 toward ``end``, each as long
    as the modes before it, at most half of those left and at least _SHORTEST."""
    edges = [start]
    while (step := min(edges[-1], (end - edges[-1]) // 2)) >= _SHORTEST:
        edges.append(edges[-1] + step)
    return [(a + 1, b) for a, b in zip(edges, edges[1:]) if gamma * (b - a) < 300.0]


def _certify(panels, gamma: float, sample, rel_tol: float, floor: float):
    """A generator returning {lo: (hi, Chebyshev coefficients or None)} of the panels (lo,
    hi): each degree takes ``yield from sample(ms)``, the mode integrals at a row of points ms
    per live panel (NaN where a mode fails or its row may not be interpolated), as g(m) = I_m
    * e^{2 gamma (m-lo)}, and certifies the panels whose last four coefficients sum to at most
    max(rel_tol * min|g|, floor).  A NaN sample ends its panel."""
    lo, hi = np.array(panels, dtype=float).reshape(-1, 2).T
    g, out = None, {a: (b, None) for a, b in panels}
    for n in _DEGREES:
        x, to_coeffs = _chebyshev(n)
        x = x if g is None else x[1::2]  # the new points; the last degree's are every other one
        ms = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x
        new = (yield from sample(ms)) * np.exp(np.outer(gamma * (hi - lo), 1.0 + x))
        if g is None:
            g = new
        else:
            g, old = np.empty((lo.size, n + 1)), g
            g[:, ::2], g[:, 1::2] = old, new
        coeffs = np.einsum("pi,ki->pk", g, to_coeffs)
        tol = np.maximum(rel_tol * np.abs(g).min(1), floor)
        done = np.abs(coeffs[:, -4:]).sum(1) <= tol  # never for NaN
        out.update((int(a), (int(b), c)) for a, b, c in zip(lo[done], hi[done], coeffs[done]))
        live = ~done & ~np.isnan(g).any(1)
        lo, hi, g = lo[live], hi[live], g[live]
        if not lo.size:
            break
    return out


def _interpolated(coeffs, lo: int, hi: int, gamma: float):
    """The terms of the modes lo..hi from their panel's coefficients (Clenshaw)."""
    j, out = np.arange(hi - lo + 1, dtype=float), np.empty(hi - lo + 1)
    t2, b1, b2 = np.empty((3, j.size))
    np.subtract(np.multiply(j, 4.0 / (hi - lo), out=t2), 2.0, out=t2)  # 2t, t in [-1, 1]
    b1.fill(coeffs[-1])
    b2.fill(0.0)
    for c in coeffs[-2:0:-1].tolist():  # b_k = c_k + 2t b_{k+1} - b_{k+2}, into b2
        np.add(np.subtract(np.multiply(t2, b1, out=out), b2, out=b2), c, out=b2)
        b1, b2 = b2, b1
    np.subtract(np.multiply(np.multiply(t2, 0.5, out=t2), b1, out=out), b2, out=out)
    np.add(out, coeffs[0], out=out)  # g(m) = c_0 + t b_1 - b_2
    return np.multiply(out, np.exp(np.multiply(j, -2.0 * gamma, out=j), out=j), out=out)
