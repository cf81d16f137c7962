"""Dielectric response epsilon(i*zeta) on the imaginary frequency axis.

Metals are described by the Drude form, by a table of epsilon(i*zeta)
samples (for example produced from measured absorption data through the
Kramers-Kronig transform), or by the limiting models used in oracle tests
(vacuum, ideal metal).  On the imaginary axis the permittivity of any
passive medium is real, at least 1, and non-increasing in frequency.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .quadrature import GAUSS_LEGENDRE, _count_nonzero, integrate_adaptive
from .quantities import CODATA

__all__ = [
    "DrudeParams",
    "MaterialDatabase",
    "UnknownMaterialError",
    "BlochGruneisenParams",
    "NuRangeError",
    "PermittivityTable",
    "DielectricModel",
    "DrudeModel",
    "TabulatedModel",
    "Vacuum",
    "IdealMetal",
    "drude_epsilon",
    "bloch_gruneisen_nu",
    "kramers_kronig_transform",
    "read_optical_csv",
]


@dataclass(frozen=True)
class DrudeParams:
    """Plasma frequency and relaxation frequency, both in eV.

    A vanishing relaxation frequency is rejected at construction: real
    samples keep nu > 0 down to T=0 through impurity scattering, and the
    analytic treatment of the static TE mode relies on that.
    """

    omega_p_eV: float
    nu_eV: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (0 < self.omega_p_eV and self.omega_p_eV * self.omega_p_eV < math.inf):
            raise ValueError(f"plasma frequency must be positive with a finite square, "
                             f"got {self.omega_p_eV}")
        if not 0 < self.nu_eV < math.inf:
            raise ValueError(f"relaxation frequency must be positive and finite, "
                             f"got {self.nu_eV}")


_ZERO = np.array(0.0)  # a 0-d operand, which a ufunc need not convert
# For omega_p and nu below _QUIET and zeta above _ZETA_QUIET (eV), the excess
# omega_p^2/(zeta*(zeta+nu)) stays below 1e300, and zeta*(zeta+nu) overflows
# only past zeta = 1e154 eV, far above the modes of any valid Geometry (its
# first Matsubara frequency is below 1e85 eV): drude_epsilon needs no
# np.errstate, which costs more than the rest of the call.
_QUIET, _ZETA_QUIET = 1e50, np.array(1e-100)


def drude_epsilon(params: DrudeParams, zeta_eV):
    """Drude permittivity 1 + omega_p^2/(zeta*(zeta+nu)) for zeta > 0 (eV).

    Strictly decreasing in zeta.  The zeta=0 limit diverges for a metal and
    is never evaluated numerically; the static Matsubara mode has its own
    analytic path.  Where the excess overflows, eps is inf, an ideal
    metal's, without a warning.
    """
    z = np.asarray(zeta_eV, dtype=float)
    w2, nu = params.omega_p_eV**2, params.nu_eV
    # counts, not min(), which costs twice as much; NaN fails both
    if (params.omega_p_eV < _QUIET and nu < _QUIET
            and _count_nonzero(np.greater(z, _ZETA_QUIET)) == z.size):
        out = 1.0 + w2 / (z * (z + nu))
    elif _count_nonzero(np.greater(z, _ZERO)) < z.size:
        raise ValueError("zeta must be positive; the static mode is handled analytically")
    else:
        with np.errstate(over="ignore", divide="ignore"):
            out = 1.0 + w2 / (z * (z + nu))
    return float(out) if out.ndim == 0 else out


_BUILTIN_MATERIALS = (
    DrudeParams(omega_p_eV=9.03, nu_eV=34.5e-3, label="Au"),
    DrudeParams(omega_p_eV=8.97, nu_eV=29.5e-3, label="Cu"),
    DrudeParams(omega_p_eV=11.5, nu_eV=50.6e-3, label="Al"),
)


class UnknownMaterialError(KeyError):
    """Material label not present in the database."""

    def __str__(self) -> str:  # KeyError's would quote the message
        return str(self.args[0])


class MaterialDatabase:
    """Immutable, case-insensitive label -> DrudeParams lookup; of entries
    whose labels differ only in case, the last one wins."""

    def __init__(self, entries: Iterable[DrudeParams]):
        table = {}
        for p in entries:
            if not p.label:
                raise ValueError("database entries need a nonempty label")
            table[p.label.lower()] = p
        self._entries = MappingProxyType(table)

    @classmethod
    def builtin(cls) -> "MaterialDatabase":
        return cls(_BUILTIN_MATERIALS)

    @classmethod
    def from_json(cls, path) -> "MaterialDatabase":
        """Load a JSON array of {label, omega_p_eV, nu_eV}, merged over the
        built-in entries (file entries win on label collision)."""
        import json  # here, so a process that reads no database file never loads it

        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a JSON array of material objects")
        parsed = []
        for item in raw:
            try:
                label = item["label"]
                omega_p, nu = item["omega_p_eV"], item["nu_eV"]
                if not (isinstance(label, str) and label) or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in (omega_p, nu)):
                    raise ValueError("need a nonempty string label and JSON numbers, "
                                     "not booleans or strings")
                parsed.append(DrudeParams(omega_p_eV=float(omega_p), nu_eV=float(nu),
                                          label=label))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: malformed material entry {item!r} ({exc})") from exc
        return cls([*_BUILTIN_MATERIALS, *parsed])

    def get(self, label: str) -> DrudeParams:
        try:
            return self._entries[label.lower()]
        except KeyError:
            known = ", ".join(sorted(p.label for p in self._entries.values()))
            raise UnknownMaterialError(f"unknown material {label!r} (known: {known})") from None


@dataclass(frozen=True)
class BlochGruneisenParams:
    """Phonon-scattering model constants; theta defaults to gold's 175 K."""

    theta_K: float = 175.0
    prefactor_eV: float = 0.0847

    def __post_init__(self) -> None:
        if not 0 < self.theta_K < math.inf:
            raise ValueError(f"theta must be positive and finite, got {self.theta_K}")
        if not 0 < self.prefactor_eV < math.inf:
            raise ValueError(f"prefactor must be positive and finite, got {self.prefactor_eV}")


def _bg_integrand(x):
    # x^5 e^x/(e^x-1)^2 == x^5/(4 sinh^2(x/2)); behaves as x^3 near 0.
    # Kronrod nodes are interior, so x = 0 itself is never evaluated.
    return x**5 / (4.0 * np.sinh(0.5 * x) ** 2)


# Panel breaks of the Bloch-Grueneisen integral below its cut: the integrand
# peaks near x = 5 and decays as x^5 e^{-x}, so octaves resolve it at once.
_BG_BREAKS = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])


class NuRangeError(ValueError):
    """nu(T) underflows to 0, or (T/theta)^5 overflows."""


def bloch_gruneisen_nu(params: BlochGruneisenParams, T_K: float) -> float:
    """Temperature-dependent relaxation frequency in eV.

    nu(T) = prefactor * (T/theta)^5 * int_0^{theta/T} x^5 e^x/(e^x-1)^2 dx,
    evaluated by adaptive Gauss-Kronrod quadrature of the sinh form to 1e-12
    relative.  nu -> 0 as T -> 0 (as T^5); a physical sample additionally
    keeps a finite impurity floor, which this model deliberately ignores: a
    T where nu underflows to 0 or (T/theta)^5 overflows raises NuRangeError.
    """
    if not T_K > 0:  # NaN fails it too
        raise ValueError(f"temperature must be positive, got {T_K}")
    try:
        scale = (T_K / params.theta_K) ** 5
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise NuRangeError(f"(T/theta)^5 overflows at T = {T_K} K, theta = {params.theta_K} K")
    upper = params.theta_K / T_K
    # beyond x ~ 200 the integrand is < 1e-70; capping also avoids sinh overflow
    cut = min(upper, 200.0)
    breaks = np.append(_BG_BREAKS[_BG_BREAKS < cut], cut)
    val, _ = integrate_adaptive(_bg_integrand, breaks, rel_tol=1e-12)
    nu = params.prefactor_eV * scale * val
    if nu == 0.0:
        raise NuRangeError(f"relaxation frequency nu(T) underflows to 0 at T = {T_K} K")
    return nu


def _samples(x, y, names: tuple[str, str], y_low: float, y_rule: str):
    """Samples (x, y) named ``names`` as float arrays: at least two of equal
    length, x positive, finite and strictly increasing, y finite and at least
    ``y_low``, else ValueError, stating ``y_rule`` for y."""
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if x.size < 2 or y.shape != x.shape:
        raise ValueError(f"need at least two ({names[0]}, {names[1]}) samples of equal length")
    # written so that NaN fails each test; diff only sees finite values
    if not (np.all((x > 0) & (x < np.inf)) and np.all(np.diff(x) > 0)):
        raise ValueError(f"{names[0]} samples must be positive, finite and strictly increasing")
    if not np.all((y >= y_low) & (y < np.inf)):
        raise ValueError(y_rule)
    return x, y


@dataclass(frozen=True)
class PermittivityTable:
    """Samples of epsilon(i*zeta) with zeta strictly increasing (internally eV).

    ``TabulatedModel`` interpolates it log-log linearly in (zeta, eps-1):
    the permittivity of a metal spans many decades and is power-law-like on
    the imaginary axis.
    """

    zeta_eV: np.ndarray
    eps: np.ndarray

    def __post_init__(self) -> None:
        z, e = _samples(self.zeta_eV, self.eps, ("zeta", "eps"), 1.0,
                        "epsilon(i*zeta) must be finite and >= 1 everywhere")
        if np.any(np.diff(e) > 1e-9 * e[:-1]):
            raise ValueError("epsilon(i*zeta) must be non-increasing in zeta")
        object.__setattr__(self, "zeta_eV", z)
        object.__setattr__(self, "eps", e)

    @property
    def zeta_min_eV(self) -> float:
        return float(self.zeta_eV[0])

    @property
    def zeta_max_eV(self) -> float:
        return float(self.zeta_eV[-1])

    @classmethod
    def from_csv(cls, path) -> "PermittivityTable":
        """Read the CSV format ``zeta_rad_s,eps_izeta`` (frequencies rad/s)."""
        zeta_rad_s, eps = _read_two_column_csv(path, ("zeta_rad_s", "eps_izeta"))
        return cls(zeta_eV=zeta_rad_s / CODATA.eV_to_rad_per_s, eps=eps)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["zeta_rad_s", "eps_izeta"])
            for z, e in zip(self.zeta_eV * CODATA.eV_to_rad_per_s, self.eps):
                writer.writerow([f"{z:.12g}", f"{e:.12g}"])


class DielectricModel:
    """Evaluable permittivity on the imaginary frequency axis.

    ``epsilon`` maps zeta in eV (a scalar or an array) to real values >= 1,
    as for any passive medium, or to ``inf`` at frequencies where it
    reflects perfectly; the mode sum raises ValueError for a value below 1.
    NaN marks missing data: a mode integral that meets it is not certified,
    and the sum raises QuadratureError.

    ``is_vacuum`` marks the one model whose static mode vanishes entirely;
    every metallic model diverges as zeta -> 0, so its static TM reflection
    saturates to the ideal-metal value.  The sums evaluate ``at(T_K)``.
    ``analytic`` marks an epsilon analytic in zeta > 0, so a sum may
    interpolate in m; a subclass that defines ``epsilon`` is not, unless it
    sets ``analytic`` itself.
    """

    is_vacuum = analytic = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.analytic = vars(cls).get("analytic", "epsilon" not in vars(cls) and cls.analytic)

    def epsilon(self, zeta_eV):
        raise NotImplementedError

    def at(self, T_K: float) -> "DielectricModel":
        """The model at T_K: the model itself unless a parameter depends on T,
        else one object per model and T_K while it is cached: m.at(T) is m.at(T)."""
        return self


class DrudeModel(DielectricModel):
    """Drude permittivity of ``params``.  With ``bloch_gruneisen``, ``at(T_K)``
    is the fixed model with nu = bloch_gruneisen_nu(bloch_gruneisen, T_K):
    one object per model and T_K while _drude_at caches it, among the 64
    last used; ``epsilon`` of the model itself keeps ``params.nu_eV``."""

    analytic = True

    def __init__(self, params: DrudeParams, bloch_gruneisen: BlochGruneisenParams | None = None):
        self.params = params
        self.bloch_gruneisen = bloch_gruneisen

    def epsilon(self, zeta_eV):
        return drude_epsilon(self.params, zeta_eV)

    def at(self, T_K: float) -> "DrudeModel":
        return self if self.bloch_gruneisen is None else _drude_at(self, T_K)

    def __repr__(self) -> str:
        p = self.params
        return f"DrudeModel({p.label or '?'}: omega_p={p.omega_p_eV} eV, nu={p.nu_eV} eV)"


class TabulatedModel(DielectricModel):
    """Tabulated permittivity with mandatory Drude continuation below the table.

    Measured data never reach the static limit, so below the lowest sample
    the Drude model ``low_freq`` takes over (at T_K in ``at(T_K)``); ``repr``
    shows the jump of eps there, |eps_Drude/eps_table - 1| at
    ``table.zeta_min_eV``.  Above the highest sample a free-electron
    (zeta_top/zeta)^2 falloff of eps-1 is assumed; whether an evaluation
    ever needed that extrapolation can be checked against ``table.zeta_max_eV``.
    """

    def __init__(self, table: PermittivityTable, low_freq: DrudeModel):
        self.table = table
        self.low_freq = low_freq
        self._log_zeta = np.log(table.zeta_eV)
        self._log_eps = np.log(np.maximum(table.eps - 1.0, 1e-300))

    def epsilon(self, zeta_eV):
        z = np.atleast_1d(np.asarray(zeta_eV, dtype=float))
        if not np.all(z > 0):  # NaN fails it too
            raise ValueError("zeta must be positive")
        # np.interp holds the end values outside the window; both sides are overwritten
        out = 1.0 + np.exp(np.interp(np.log(z), self._log_zeta, self._log_eps))
        below = z < self.table.zeta_min_eV
        if below.any():
            out[below] = drude_epsilon(self.low_freq.params, z[below])
        above = z > self.table.zeta_max_eV
        if above.any():
            top = self.table.zeta_max_eV
            eps_top = float(self.table.eps[-1])
            out[above] = 1.0 + (eps_top - 1.0) * (top / z[above]) ** 2
        return float(out[0]) if np.ndim(zeta_eV) == 0 else out

    def at(self, T_K: float) -> "TabulatedModel":
        low = self.low_freq.at(T_K)
        return self if low is self.low_freq else _tabulated_at(self, low)

    def __repr__(self) -> str:
        t, p = self.table, self.low_freq.params
        jump = abs(drude_epsilon(p, t.zeta_min_eV) / t.eps[0] - 1.0)
        return (f"TabulatedModel({t.zeta_eV.size} samples, "
                f"{t.zeta_min_eV:.3g}..{t.zeta_max_eV:.3g} eV, "
                f"tail={p.label or '?'}, jump={jump:.3g})")


# models at T, keyed by the model object: an entropy takes two T, a Nernst ladder eight
@functools.lru_cache(maxsize=64)
def _drude_at(model: DrudeModel, T_K: float) -> DrudeModel:
    nu = bloch_gruneisen_nu(model.bloch_gruneisen, T_K)
    return DrudeModel(DrudeParams(model.params.omega_p_eV, nu, model.params.label))


@functools.lru_cache(maxsize=64)
def _tabulated_at(model: TabulatedModel, low_freq: DrudeModel) -> TabulatedModel:
    out = copy.copy(model)  # shares the table and its log arrays
    out.low_freq = low_freq
    return out


class Vacuum(DielectricModel):
    """eps == 1 identically; both reflection coefficients vanish."""

    is_vacuum = True

    def epsilon(self, zeta_eV):
        out = np.ones_like(np.asarray(zeta_eV, dtype=float))
        return float(out) if out.ndim == 0 else out


class IdealMetal(DielectricModel):
    """Perfect reflector: unit reflection for every mode (oracle model)."""

    analytic = True

    def epsilon(self, zeta_eV):
        out = np.full_like(np.asarray(zeta_eV, dtype=float), np.inf)
        return float(out) if out.ndim == 0 else out


def _read_two_column_csv(path, expected_header: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header != list(expected_header):
            raise ValueError(
                f"{path}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}")
        col0, col1 = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                x, y = row  # exactly two fields
                col0.append(float(x))
                col1.append(float(y))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
    if not col0:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(col0), np.asarray(col1)


def read_optical_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read raw absorption data ``omega_rad_s,eps_imag`` for the KK transform,
    checked as it checks them."""
    omega, eps2 = _read_two_column_csv(path, ("omega_rad_s", "eps_imag"))
    try:
        return _samples(omega, eps2, ("omega", "eps''"), 0.0,
                        "eps'' samples must be finite and nonnegative")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_GL_NODES, _GL_WEIGHTS = GAUSS_LEGENDRE[8]


# Width h of the KK transform's panels in ln w and in ln eps'', and the
# (frequency x Gauss node) pairs of one block of its work array (1 MB): the
# panels per interval follow the data, so the block is sized in nodes.
_KK_PANEL = 0.5
_KK_NODES = 1 << 17


@np.errstate(all="ignore")  # what over- or underflows shows in the result, checked at the end
def kramers_kronig_transform(
    omega_rad_s: Sequence[float],
    eps_imag: Sequence[float],
    zeta_rad_s,
):
    """epsilon(i*zeta) from absorption data:

        eps(i*zeta) = 1 + (2/pi) * int_0^inf w*eps''(w)/(w^2 + zeta^2) dw.

    On the imaginary axis the integrand is regular (no principal value).
    The data cover [w_0, w_N]; below w_0 the free-carrier form eps'' ~ 1/w
    gives eps''_0 rho arctan(rho), rho = w_0/zeta, and above w_N an w^-3
    falloff eps''_N (u - arctan u)/u^3, u = zeta/w_N (its series below
    u = 0.1, where this cancels).  Inside, eps'' is interpolated between
    samples (log-log when strictly positive, else linear in w) and
    integrated in t = ln(w/2^e), 2^e the power of two halfway between the
    binary exponents of w_0 and w_N, raised so that w_N/2^e stays below
    2^1020 (only spans past about 2^2040 need it), as the sum of
    c/(1 + (zeta/w)^2), c = eps'' times the node weight.

    Each sample interval is cut into ceil(max(dt, |d ln eps''|)/h) equal
    panels, h = 1/2 (dt alone where eps'' is linear in w), with 8
    Gauss-Legendre nodes on each; every zeta shares them, and the interval
    holding zeta is not split there.  The kernel 1/(1 + (zeta/w)^2) has its
    poles pi/2 off the real t axis, so on half-unit panels the rule
    converges like 12.6^-16, about 1e-17, wherever zeta falls; the
    |d ln eps''| bound keeps the interpolant's growth per panel within
    e^(1/2).  Dense data, such as 30 samples a decade, keep one panel per
    interval.  No power of a frequency is formed, and scaling every
    frequency by 2^k changes no bit while all stay normal floats.

    ``zeta_rad_s`` may be a scalar (returns a float) or an array of
    frequencies (returns an array of the same shape); the data are checked
    and interpolated once for all of them.  Raises ValueError, without a
    warning, naming the first zeta whose value is not finite.
    """
    w, e2 = _samples(omega_rad_s, eps_imag, ("omega", "eps''"), 0.0,
                     "eps'' samples must be finite and nonnegative")
    zeta = np.asarray(zeta_rad_s, dtype=float)
    if not np.all(zeta > 0):  # NaN fails it too
        raise ValueError("zeta must be positive")
    z = zeta.ravel()

    e0, eN = math.frexp(w[0])[1], math.frexp(w[-1])[1]
    e = max((e0 + eN) // 2, eN - 1020)  # w_N/2^e finite, even from a subnormal w_0
    x, y = np.ldexp(w, -e), np.ldexp(z, -e)  # w/2^e and zeta/2^e, exact
    t = np.log(x)
    dt = np.diff(t)
    log_e2 = np.log(e2) if np.all(e2 > 0) else None
    step = dt if log_e2 is None else np.maximum(dt, np.abs(np.diff(log_e2)))

    # n panels on each interval: interval k of each panel, and its place j in it
    n = np.ceil(step / _KK_PANEL).astype(np.intp)
    k = np.repeat(np.arange(n.size), n)
    j = np.arange(k.size) - np.repeat(np.cumsum(n) - n, n)
    edges = np.append(t[k] + j / n[k] * dt[k], t[-1])
    half = 0.5 * np.diff(edges)
    tq = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _GL_NODES
    e2q = np.interp(np.exp(tq), x, e2) if log_e2 is None else np.exp(np.interp(tq, t, log_e2))
    # 2^e/w at the nodes, and eps''(w) times the node weight (dw/w = dt)
    inv_x, c = np.exp(-tq), half[:, None] * _GL_WEIGHTS * e2q

    rows = max(1, _KK_NODES // c.size)
    interior = np.empty(z.size)
    work = np.empty((min(z.size, rows), *c.shape))
    for i in range(0, z.size, rows):  # the sum of c/(1 + r^2), r = zeta/w, in work's memory
        r = np.multiply(y[i:i + rows, None, None], inv_x, out=work[:z.size - i])
        np.square(r, out=r)
        r += 1.0
        interior[i:i + rows] = np.divide(c, r, out=r).sum(axis=-1).sum(axis=-1)

    rho = w[0] / z  # eps'' ~ eps''_0 w_0/w below the window
    low = e2[0] * rho * np.arctan(rho) if e2[0] else 0.0  # not 0 * inf
    u = z / w[-1]  # eps'' ~ eps''_N (w_N/w)^3 above it
    high = e2[-1] * np.where(u < 0.1, 1.0 / 3.0 - u * u / 5.0 + u**4 / 7.0 - u**6 / 9.0,
                             (1.0 - np.arctan(u) / u) / u / u)

    out = 1.0 + (2.0 / math.pi) * (low + interior + high)
    if not (finite := np.isfinite(out)).all():
        raise ValueError(f"epsilon(i*zeta) is not finite at zeta = {z[finite.argmin()]:.6g} "
                         f"rad/s: the transform over- or underflows there")
    out = out.reshape(zeta.shape)
    return float(out) if out.ndim == 0 else out
