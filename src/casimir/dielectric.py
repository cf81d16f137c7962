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


def drude_epsilon(params: DrudeParams, zeta_eV):
    """Drude permittivity 1 + omega_p^2/(zeta*(zeta+nu)) for zeta > 0 (eV).

    Strictly decreasing in zeta.  The zeta=0 limit diverges for a metal and
    is never evaluated numerically; the static Matsubara mode has its own
    analytic path.
    """
    z = np.asarray(zeta_eV, dtype=float)
    if _count_nonzero(np.greater(z, _ZERO)) < z.size:  # NaN fails it too; min() costs twice as much
        raise ValueError("zeta must be positive; the static mode is handled analytically")
    out = 1.0 + params.omega_p_eV**2 / (z * (z + params.nu_eV))
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
        z = np.atleast_1d(np.asarray(self.zeta_eV, dtype=float))
        e = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if z.size < 2 or e.shape != z.shape:
            raise ValueError("need at least two (zeta, eps) samples of equal length")
        # written so that NaN fails each test; diff only sees finite values
        if not (np.all((z > 0) & (z < np.inf)) and np.all(np.diff(z) > 0)):
            raise ValueError("zeta samples must be positive, finite and strictly increasing")
        if not np.all((e >= 1.0) & (e < np.inf)):
            raise ValueError("epsilon(i*zeta) must be finite and >= 1 everywhere")
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
        return _absorption_samples(omega, eps2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_GL_NODES, _GL_WEIGHTS = GAUSS_LEGENDRE[8]


# Frequencies per block of the vectorised KK transform; a block's work
# arrays hold this many rows of (sample intervals x Gauss nodes).
_KK_BLOCK = 64


def _absorption_samples(omega_rad_s, eps_imag) -> tuple[np.ndarray, np.ndarray]:
    """Absorption samples as float arrays, checked as the KK transform needs them."""
    w, e2 = np.asarray(omega_rad_s, dtype=float), np.asarray(eps_imag, dtype=float)
    if w.size < 2 or e2.shape != w.shape:
        raise ValueError("need at least two (omega, eps'') samples of equal length")
    # written so that NaN fails each test; diff only sees finite values
    if not (np.all((w > 0) & (w < np.inf)) and np.all(np.diff(w) > 0)):
        raise ValueError("omega samples must be positive, finite and strictly increasing")
    if not np.all((e2 >= 0) & (e2 < np.inf)):
        raise ValueError("eps'' samples must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # the high tail's amplitude, as below
        if not (w[-1] ** 3 * e2[-1] < np.inf and w[-1] * w[-1] < np.inf):
            raise ValueError(f"the last sample, omega = {w[-1]:.6g} rad/s and eps'' = "
                             f"{e2[-1]:.6g}, overflows the transform: omega^2 and "
                             f"omega^3*eps'' must be finite")
    return w, e2


def kramers_kronig_transform(
    omega_rad_s: Sequence[float],
    eps_imag: Sequence[float],
    zeta_rad_s,
):
    """epsilon(i*zeta) from absorption data:

        eps(i*zeta) = 1 + (2/pi) * int_0^inf w*eps''(w)/(w^2 + zeta^2) dw.

    On the imaginary axis the integrand is regular (no principal value).
    The data cover [w_0, w_N]; below w_0 the free-carrier form eps'' ~ A/w
    (matched at w_0) integrates in closed form, above w_N an w^-3 falloff
    (matched at w_N) does too.  Inside the window eps'' is interpolated
    between samples (log-log when strictly positive) and integrated with
    Gauss-Legendre nodes in log-frequency, the sample interval holding
    w = zeta split there so the rational factor is well resolved.

    ``zeta_rad_s`` may be a scalar (returns a float) or an array of
    frequencies (returns an array of the same shape); the data are checked
    (``_absorption_samples``) and interpolated once for all of them.
    """
    w, e2 = _absorption_samples(omega_rad_s, eps_imag)
    zeta = np.asarray(zeta_rad_s, dtype=float)
    if not np.all(zeta > 0):  # NaN fails it too
        raise ValueError("zeta must be positive")
    z = zeta.ravel()

    t = np.log(w)
    if np.all(e2 > 0):
        log_e2 = np.log(e2)

        def e2_of(tq):
            return np.exp(np.interp(tq, t, log_e2))
    else:

        def e2_of(tq):
            return np.interp(np.exp(tq), w, e2)

    def weighted(t0, t1):
        # Gauss nodes of [t0, t1] and w^2 eps''(w) times the node weight
        # (dw = w dt included); the integral is sum(c / (w^2 + zeta^2))
        half = 0.5 * (t1 - t0)
        tq = 0.5 * (t0 + t1)[..., None] + half[..., None] * _GL_NODES
        w2 = np.exp(2.0 * tq)
        return w2, half[..., None] * _GL_WEIGHTS * w2 * e2_of(tq)

    # sample intervals, shared by every zeta; the interval holding zeta is
    # replaced by its two halves split at zeta
    w2, c = weighted(t[:-1], t[1:])
    log_z = np.log(z)
    k = np.clip(np.searchsorted(t, log_z) - 1, 0, t.size - 2)
    split = (w[0] < z) & (z < w[-1])
    interior = np.empty(z.size)
    for i in range(0, z.size, _KK_BLOCK):
        b = slice(i, i + _KK_BLOCK)
        z2 = (z[b] * z[b])[:, None]
        per_interval = (c / (w2 + z2[:, :, None])).sum(axis=-1)
        rows = np.flatnonzero(split[b])
        kr, log_zr, z2r = k[b][rows], log_z[b][rows], z2[rows]
        left_w2, left_c = weighted(t[kr], log_zr)
        right_w2, right_c = weighted(log_zr, t[kr + 1])
        per_interval[rows, kr] = ((left_c / (left_w2 + z2r)).sum(axis=-1)
                                  + (right_c / (right_w2 + z2r)).sum(axis=-1))
        interior[i:i + _KK_BLOCK] = per_interval.sum(axis=-1)

    low_amp = w[0] * e2[0]  # eps'' ~ A/w below the window
    low = (low_amp / z) * np.arctan(w[0] / z)

    high_amp, u = w[-1] ** 3 * e2[-1], z / w[-1]  # eps'' ~ B/w^3 above the window
    near, high = u < 0.1, np.empty(z.size)  # the series there, where the closed form cancels
    v, zf = u[near], z[~near]  # and, far below w_N, divides by a zeta^2 that underflows
    high[near] = (high_amp / w[-1] ** 3) * (1.0 / 3.0 - v * v / 5.0 + v**4 / 7.0 - v**6 / 9.0)
    high[~near] = (high_amp / zf**2) * (1.0 / w[-1] - np.arctan(u[~near]) / zf)

    out = (1.0 + (2.0 / math.pi) * (low + interior + high)).reshape(zeta.shape)
    return float(out) if out.ndim == 0 else out
