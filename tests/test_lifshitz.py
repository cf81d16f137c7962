import contextlib
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import zeta as scipy_zeta

from casimir.chebyshev import _DEGREES, _certify, _interpolated
from casimir.dielectric import (
    BlochGruneisenParams,
    DielectricModel,
    DrudeModel,
    DrudeParams,
    IdealMetal,
    MaterialDatabase,
    NuRangeError,
    PermittivityTable,
    TabulatedModel,
    Vacuum,
    drude_epsilon,
)
from casimir.golden import TABLES, cell_tolerance
from casimir.lifshitz import (
    PressureResult,
    QuadratureSpec,
    _ARRAY_SCAN,
    _BLOCK_CAP,
    _BREAK_OFFSETS,
    _ENTROPY_SPEC,
    _FINITE,
    _IDEAL,
    _MIXED,
    _NEAR_ONE_Y,
    _PANEL_MIN,
    _LADDERS,
    _RULE_REACH,
    _RUNGS,
    _SCALED,
    _Workspace,
    _bound_end,
    _kernel_sides,
    _log_bound,
    _mode_block,
    _mode_kernel,
    _plan,
    _reflections,
    _rungs,
    _scaled_rule,
    _scan_arrays,
    _scan_loop,
    _sum_steps,
    SumConvergenceError,
    casimir_pressure,
    lifshitz_variables,
    matsubara_term,
    reflection_te,
    reflection_tm,
    zeta3,
)
from casimir.quadrature import QuadratureError, integrate_adaptive
from casimir.quantities import (
    CODATA,
    _GAMMA_MIN,
    Geometry,
    free_energy_to_si,
    matsubara_frequency,
    pressure_to_si,
    reduced_temperature,
)
from casimir.thermo import entropy, free_energy

DB = MaterialDatabase.builtin()
AU = DrudeModel(DB.get("Au"))
CU = DrudeModel(DB.get("Cu"))
# The floor of a sum's first block at the default spec.
FIRST_FLOOR = QuadratureSpec().integral_rel_tol * QuadratureSpec().sum_rel_tol * zeta3() / 8.0


def ideal_metal_term_oracle(lower: float) -> float:
    """Closed-form mode integral for unit reflection, both polarizations.

    Expanding x/(1-x) in the geometric series and integrating termwise:
        2 * sum_{n>=1} e^{-2nA} (2(nA)^2 + 2nA + 1) / (4n^3).
    """
    n_max = max(200, int(18.0 / (2.0 * lower)) + 1)
    n = np.arange(1, n_max + 1, dtype=float)
    na = n * lower
    terms = np.exp(-2.0 * na) * (2.0 * na**2 + 2.0 * na + 1.0) / (4.0 * n**3)
    return 2.0 * math.fsum(terms.tolist())


class TestLifshitzVariables:
    def test_vacuum(self):
        s1, s3 = lifshitz_variables(1.0, 1.0, 3.0)
        assert s1 == 3.0 and s3 == 3.0

    def test_direct_substitution(self):
        s1, _ = lifshitz_variables(2.0, 1.0, 1.0)
        assert s1 == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_composed_with_drude(self):
        eps = 1.99619
        s1, _ = lifshitz_variables(eps, 1.0, 1.0)
        assert s1 == pytest.approx(1.41287, rel=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lifshitz_variables(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            lifshitz_variables(1.0, 1.0, 0.5)


class TestReflections:
    def test_te_vacuum(self):
        assert reflection_te(2.0, 2.0) == 0.0

    def test_te_ideal_limit(self):
        assert reflection_te(1e12, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_te_hand_value(self):
        got = reflection_te(math.sqrt(2.0), 1.0)
        assert got == pytest.approx((math.sqrt(2) - 1) / (math.sqrt(2) + 1), rel=1e-15)
        assert got == pytest.approx(0.171573, rel=1e-6)

    def test_tm_vacuum(self):
        assert reflection_tm(1.0, 1.0, 1.0) == 0.0

    def test_tm_ideal_limit(self):
        eps = 1e12
        s = math.sqrt(eps - 1 + 1)
        assert reflection_tm(eps, s, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_tm_hand_value(self):
        got = reflection_tm(2.0, math.sqrt(2.0), 1.0)
        assert got == pytest.approx((2 - math.sqrt(2)) / (2 + math.sqrt(2)), rel=1e-14)
        assert got == pytest.approx(0.171573, rel=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(min_value=1.0, max_value=1e10),
        p=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_bounds(self, eps, p):
        s1, _ = lifshitz_variables(eps, 1.0, p)
        dte = reflection_te(s1, p)
        dtm = reflection_tm(eps, s1, p)
        assert 0.0 <= dte < 1.0
        assert 0.0 <= dtm < 1.0


class TestZeta3:
    def test_twelve_significant_digits(self):
        assert abs(zeta3() - 1.2020569031595943) < 1e-13
        # independent cross-check
        assert zeta3() == pytest.approx(float(scipy_zeta(3.0)), abs=1e-13)

    def test_zero_mode_constant(self):
        assert zeta3() / 8.0 == pytest.approx(0.1502571129, abs=5e-11)

    def test_partial_sums_monotone(self):
        partial = np.cumsum(1.0 / np.arange(1, 50, dtype=float) ** 3)
        assert np.all(np.diff(partial) > 0)
        assert np.all(partial < zeta3())


class TestZeroModePressure:
    def test_room_temperature_micron(self):
        zm = casimir_pressure(Geometry(1.0, 300.0), AU, AU).zero_mode_mPa
        assert zm == pytest.approx(-0.19810, rel=1e-4)

    def test_linear_in_temperature(self):
        p300 = casimir_pressure(Geometry(1.0, 300.0), AU, AU).zero_mode_mPa
        p3 = casimir_pressure(Geometry(1.0, 3.0), AU, AU).zero_mode_mPa
        assert p3 == pytest.approx(p300 / 100.0, rel=1e-12)

    def test_large_gap_below_total(self):
        # static piece alone must stay below the full pressure magnitude
        zm = abs(casimir_pressure(Geometry(4.0, 300.0), AU, AU).zero_mode_mPa)
        assert zm == pytest.approx(3.0953e-3, rel=1e-4)
        assert zm < 3.481e-3


class TestMatsubaraTerm:
    def test_vacuum_zero(self):
        geom = Geometry(1.0, 300.0)
        assert matsubara_term(1, geom, Vacuum(), AU) == 0.0
        assert matsubara_term(1, geom, Vacuum(), Vacuum()) == 0.0

    def test_static_mode_rejected(self):
        with pytest.raises(ValueError):
            matsubara_term(0, Geometry(1.0, 300.0), AU, AU)

    def test_index_must_be_an_integer(self):
        geom = Geometry(1.0, 300.0)
        with pytest.raises(TypeError):
            matsubara_term(2.5, geom, AU, CU)
        with pytest.raises(TypeError):
            matsubara_term(3.0, geom, AU, CU)
        got, ref = matsubara_term(np.int64(3), geom, AU, CU), matsubara_term(3, geom, AU, CU)
        assert got.hex() == ref.hex()

    def test_models_are_taken_at_the_temperature(self):
        bg_au = DrudeModel(DB.get("Au"), BlochGruneisenParams())
        for T_K in (30.0, 300.0):
            geom = Geometry(1.0, T_K)
            got = matsubara_term(1, geom, bg_au, CU)
            assert got == matsubara_term(1, geom, bg_au.at(T_K), CU)
            assert got != matsubara_term(1, geom, AU, CU)

    @pytest.mark.parametrize("m,a_um,T_K", [
        (1, 1.0, 300.0),
        (3, 1.0, 300.0),
        (1, 0.5, 10.0),
        (40, 2.0, 77.0),
    ])
    def test_ideal_metal_matches_series_oracle(self, m, a_um, T_K):
        geom = Geometry(a_um, T_K)
        lower = m * reduced_temperature(geom)
        got = matsubara_term(m, geom, IdealMetal(), IdealMetal())
        assert got == pytest.approx(ideal_metal_term_oracle(lower), rel=1e-10)

    def test_against_quadpack(self):
        # independent integrator over the same integrand
        geom = Geometry(1.0, 300.0)
        m = 2
        gamma = reduced_temperature(geom)
        zeta = matsubara_frequency(m, geom.T_K)
        eps = AU.epsilon(zeta)

        def f(y):
            p = y / (m * gamma)
            s = math.sqrt(eps - 1.0 + p * p)
            dte = (s - p) / (s + p)
            dtm = (eps * p - s) / (eps * p + s)
            e2 = math.exp(-2.0 * y)
            xtm = dtm * dtm * e2
            xte = dte * dte * e2
            return y * y * (xtm / (1 - xtm) + xte / (1 - xte))

        ref, _ = quad(f, m * gamma, m * gamma + 40.0, epsabs=0.0, epsrel=1e-13, limit=500)
        assert matsubara_term(m, geom, AU, AU) == pytest.approx(ref, rel=1e-10)

    def test_an_underflowing_term_certifies_against_the_sums_floor(self):
        # about 1e-319: a purely relative target could not certify it
        geom = Geometry(88.0, 300.0)
        got = matsubara_term(5, geom, AU, CU)
        assert 0.0 <= got <= FIRST_FLOOR
        assert got <= unit_reflection_bound(5 * reduced_temperature(geom), False)

    def test_terms_decay_for_large_m(self):
        geom = Geometry(1.0, 300.0)
        t5 = matsubara_term(5, geom, AU, AU)
        t10 = matsubara_term(10, geom, AU, AU)
        t20 = matsubara_term(20, geom, AU, AU)
        assert t20 < t10 < t5


class TestCasimirPressure:
    def test_vacuum_either_side(self):
        geom = Geometry(1.0, 300.0)
        for pair in ((Vacuum(), AU), (AU, Vacuum()), (Vacuum(), Vacuum())):
            res = casimir_pressure(geom, *pair)
            assert math.copysign(1.0, res.pressure_mPa) == 1.0  # +0.0, not the scaled -0.0
            assert res.pressure_mPa == res.zero_mode_mPa == 0.0
            assert res.converged
            assert res.n_terms_used == 0

    def test_attractive_and_bookkeeping(self):
        res = casimir_pressure(Geometry(1.0, 300.0), AU, AU)
        assert res.pressure_mPa < 0
        assert res.converged
        assert res.n_terms_used >= 5  # minimum term count before stopping
        assert res.zero_mode_mPa == pytest.approx(-0.19810, rel=1e-4)
        # the result decomposes into the recorded pieces
        total = res.zero_mode_mPa + res.terms_mPa.sum()
        assert res.pressure_mPa == pytest.approx(total, rel=1e-12)
        assert 0 < res.zero_mode_share < 1

    def test_pair_symmetry_is_exact(self):
        geom = Geometry(0.7, 300.0)
        res_13 = casimir_pressure(geom, AU, CU)
        res_31 = casimir_pressure(geom, CU, AU)
        assert res_13.pressure_mPa == res_31.pressure_mPa
        assert res_13.n_terms_used == res_31.n_terms_used

    def test_ideal_metal_low_temperature(self):
        # closed-form zero-temperature oracle -pi^2 hbar c/(240 a^4)
        geom = Geometry(1.0, 1.0)
        res = casimir_pressure(geom, IdealMetal(), IdealMetal())
        hbar_c = CODATA.hbar_J_s * 2.99792458e8
        ideal = -math.pi**2 * hbar_c / (240.0 * (1e-6) ** 4) * 1e3  # mPa
        assert res.pressure_mPa == pytest.approx(ideal, rel=5e-3)

    def test_stronger_plasma_means_stronger_attraction(self):
        geom = Geometry(1.0, 300.0)
        al = DrudeModel(DB.get("Al"))
        assert abs(casimir_pressure(geom, al, al).pressure_mPa) > \
            abs(casimir_pressure(geom, AU, AU).pressure_mPa)

    def test_magnitude_decreases_with_gap(self):
        p1 = casimir_pressure(Geometry(1.0, 300.0), AU, AU).pressure_mPa
        p2 = casimir_pressure(Geometry(2.0, 300.0), AU, AU).pressure_mPa
        assert abs(p2) < abs(p1)

    def test_max_terms_exhaustion_carries_partial(self):
        spec = QuadratureSpec(max_terms=6)
        with pytest.raises(SumConvergenceError) as excinfo:
            casimir_pressure(Geometry(1.0, 1.0), AU, AU, spec)
        partial = excinfo.value.partial
        assert isinstance(partial, PressureResult)
        assert not partial.converged
        assert partial.n_terms_used == 6
        assert partial.pressure_mPa < 0

    def test_drude_aluminium_against_quadpack_sum(self):
        # Independent Lifshitz sum for the Al-Al reference cell at 0.16 um
        # and 300 K: closed-form Drude eps, QUADPACK mode integrals and a
        # static TM term by quadrature.  Agreement to 1e-7 pins the ~6%
        # deviation from the measured-data table on the Drude surrogate,
        # not on the numerics.
        params = DB.get("Al")
        a_um, T_K = 0.16, 300.0
        kT = CODATA.k_B_eV_per_K * T_K
        gamma = 2.0 * math.pi * kT * a_um / CODATA.hbar_c_eV_um

        def integrand(y, eps, lower):
            p = y / lower
            s = math.sqrt(eps - 1.0 + p * p)
            out = 0.0
            for d in ((eps * p - s) / (eps * p + s), (s - p) / (s + p)):
                x = d * d * math.exp(-2.0 * y)
                out += x / (1.0 - x)
            return y * y * out

        total = 0.5 * quad(lambda y: y * y * math.exp(-2.0 * y) / -math.expm1(-2.0 * y),
                           0.0, 40.0, epsabs=0.0, epsrel=1e-13)[0]
        m = 0
        while True:
            m += 1
            zeta = 2.0 * math.pi * m * kT
            eps = 1.0 + params.omega_p_eV**2 / (zeta * (zeta + params.nu_eV))
            lower = m * gamma
            t = quad(integrand, lower, lower + 40.0, args=(eps, lower),
                     epsabs=0.0, epsrel=1e-13, limit=200)[0]
            total += t
            if t < 1e-13 * total:
                break
        a_m = a_um * 1e-6
        ref_mPa = -total * CODATA.k_B_J_per_K * T_K / (math.pi * a_m**3) * 1e3
        al = DrudeModel(params)
        got = casimir_pressure(Geometry(a_um, T_K), al, al).pressure_mPa
        assert got == pytest.approx(ref_mPa, rel=1e-7)
        # so the independent sum misses the measured-data table as well
        table_mPa, _ = TABLES[3].reference(a_um, T_K)
        assert abs(abs(ref_mPa) - table_mPa) / table_mPa > cell_tolerance(a_um)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(integral_rel_tol=0.0)
        # y_max takes log(1/integral_rel_tol), which a subnormal tolerance makes inf
        with pytest.raises(ValueError, match="reciprocal of integral_rel_tol"):
            QuadratureSpec(integral_rel_tol=1e-320)
        assert QuadratureSpec(integral_rel_tol=1e-308).integral_rel_tol == 1e-308
        assert QuadratureSpec(sum_rel_tol=1e-320).sum_rel_tol == 1e-320
        with pytest.raises(ValueError):
            QuadratureSpec(max_terms=0)
        # the stop rule needs min_terms terms, so it could never fire
        with pytest.raises(ValueError, match=r"min_terms \(5\).*max_terms \(3\)"):
            QuadratureSpec(max_terms=3)
        assert QuadratureSpec(min_terms=3, max_terms=3).max_terms == 3

    @pytest.mark.parametrize("counts", [{"max_terms": 50.5}, {"max_terms": math.inf},
                                        {"min_terms": 2.5}, {"min_terms": 5.0}],
                             ids=["fractional-max", "infinite-max", "fractional-min",
                                  "integral-float-min"])
    def test_term_counts_must_be_integers(self, counts):
        # an infinite max_terms would let a sum that cannot converge loop forever
        with pytest.raises(TypeError):
            QuadratureSpec(**counts)

    def test_numpy_integer_term_counts_are_stored_as_int(self):
        spec = QuadratureSpec(max_terms=np.int64(40), min_terms=np.int32(3))
        assert (spec.max_terms, spec.min_terms) == (40, 3)
        assert type(spec.max_terms) is int and type(spec.min_terms) is int


class NanAbove(DrudeModel):
    """Drude model whose permittivity is NaN above a frequency, so every
    mode integral there fails to certify.  Declared analytic, so that a long
    sum takes the interpolation and its fallback."""

    analytic = True

    def __init__(self, params, zeta_eV):
        super().__init__(params)
        self.zeta_eV = zeta_eV

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        return np.where(np.asarray(zeta_eV) > self.zeta_eV, np.nan, eps)


class IdealBelow(DrudeModel):
    """Drude model that reflects perfectly (epsilon = inf) below a frequency,
    declared analytic as NanAbove is."""

    analytic = True

    def __init__(self, params, zeta_eV):
        super().__init__(params)
        self.zeta_eV = zeta_eV

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        return np.where(np.asarray(zeta_eV) < self.zeta_eV, np.inf, eps)


class TestIdealRows:
    # epsilon = inf is allowed value by value; a block with inf and finite
    # rows once took inf/inf = NaN and failed to certify mode 1
    @pytest.mark.parametrize("free", [False, True], ids=["pressure", "free_energy"])
    def test_terms_equal_the_one_sided_modes(self, free):
        geom = Geometry(1.0, 30.0)
        mixed = IdealBelow(DB.get("Au"), 0.02)
        if free:
            res = free_energy(geom, mixed, AU)
            terms, unit = res.terms_J_per_m2, free_energy_to_si(1.0, geom)
        else:
            res = casimir_pressure(geom, mixed, AU)
            terms, unit = res.terms_mPa, -pressure_to_si(1.0, geom)
        ms = np.arange(1, res.n_terms_used + 1)
        below = ms * matsubara_frequency(1, geom.T_K) < mixed.zeta_eV
        assert below.tolist()[:2] == [True, False] and res.converged
        for pair, rows in (((IdealMetal(), AU), below), ((AU, AU), ~below)):
            if free:
                (values, _, failed), _ = block(ms[rows], geom, pair, free_energy=True)
                assert not failed.any()
            else:
                values = np.array([matsubara_term(m, geom, *pair) for m in ms[rows].tolist()])
            assert same_bits(terms[rows], values * unit)

    # a side is classified per block: ideal at every mode of 1 um and 30 K
    # (136 terms up to 2.2 eV), at none, or at mode 1 only, across the
    # first block; the sums are pinned from a node-by-node ideal check
    @pytest.mark.parametrize("zeta_eV, same_as, pressure_mPa, free_J_per_m2", [
        (1e3, IdealMetal(), -1.2008267912956718, -4.0304340025287447e-10),
        (0.01, AU, -1.129398405587063, -3.8430438208574623e-10),
        (0.02, None, -1.1331047201037465, -3.8562145494061425e-10),
    ], ids=["wholly-below", "wholly-above", "across"])
    def test_blocks_below_above_and_across_the_threshold(self, zeta_eV, same_as, pressure_mPa,
                                                         free_J_per_m2):
        geom = Geometry(1.0, 30.0)
        side = IdealBelow(DB.get("Au"), zeta_eV)
        res = casimir_pressure(geom, side, AU), free_energy(geom, side, AU)
        assert res[0].pressure_mPa == pressure_mPa
        assert res[1].free_energy_J_per_m2 == free_J_per_m2
        if same_as is not None:
            for got, ref in zip(res, (casimir_pressure(geom, same_as, AU),
                                      free_energy(geom, same_as, AU))):
                assert all(same_bits(np.asarray(value), np.asarray(vars(got)[name]))
                           for name, value in vars(ref).items())


class TestBlockDriver:
    # Values recorded from the one-mode-at-a-time driver.
    @pytest.mark.parametrize("a_um,T_K,n_terms,pressure_mPa", [
        (2.5, 300.0, 6, -0.021759861535672498),
        (0.95, 300.0, 15, -1.2110995379203673),
        (0.85, 300.0, 16, -1.896084880347681),
        (1.3, 20.0, 156, -0.40645489235415855),     # in the second block
        (3.65, 4.0, 283, -0.006959357918267075),
        (2.5, 4.0, 411, -0.031207448276329198),     # in the third block
    ])
    def test_stop_at_block_edges(self, a_um, T_K, n_terms, pressure_mPa):
        res = casimir_pressure(Geometry(a_um, T_K), AU, CU)
        assert res.n_terms_used == n_terms
        assert res.pressure_mPa == pytest.approx(pressure_mPa, rel=1e-12)

    @pytest.mark.parametrize("a_um,T_K,n_terms,calls", [
        (5.0, 300.0, 5, 1),     # the median cell of a warm grid
        (1.16, 166.0, 22, 1),
        (88.0, 300.0, 5, 0),    # the bound puts mode 1 below the floor
    ])
    def test_a_short_sum_makes_one_plan_block_and_kernel_call(self, a_um, T_K, n_terms, calls,
                                                              monkeypatch):
        from casimir import lifshitz

        counts = dict.fromkeys(("_bound_end", "_plan", "_mode_block", "_rungs", "_mode_kernel"), 0)
        for name in counts:
            def spy(*args, name=name, fn=getattr(lifshitz, name)):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(lifshitz, name, spy)
        assert casimir_pressure(Geometry(a_um, T_K), AU, AU).n_terms_used == n_terms
        assert counts == dict.fromkeys(counts, calls)

    def test_stop_at_first_mode(self):
        res = casimir_pressure(Geometry(100.0, 300.0), AU, AU, QuadratureSpec(min_terms=1))
        assert res.n_terms_used == 1
        assert res.pressure_mPa == pytest.approx(-1.981023851906023e-07, rel=1e-12)

    @pytest.mark.parametrize("max_terms", [12, 40, 300])
    def test_max_terms_inside_a_block(self, max_terms, monkeypatch):
        spec, geom = QuadratureSpec(max_terms=max_terms), Geometry(1.0, 1.0)
        blocks, plans = [], []  # each block's modes; each plan's

        def spy(lower, *args):
            blocks.append(np.rint(lower / reduced_temperature(geom)).astype(int))
            return _mode_block(lower, *args)
        monkeypatch.setattr("casimir.lifshitz._mode_block", spy)
        monkeypatch.setattr("casimir.lifshitz._plan",
                            lambda ms, *args: plans.append(ms) or _plan(ms, *args))
        with pytest.raises(SumConvergenceError) as excinfo:
            casimir_pressure(geom, AU, AU, spec)
        partial = excinfo.value.partial
        assert partial.n_terms_used == max_terms
        assert partial.terms_mPa.size == max_terms
        # the blocks are cut at max_terms, and so is the one plan they slice
        assert np.concatenate(blocks).tolist() == list(range(1, max_terms + 1))
        assert len(plans) == 1 and plans[0][-1] == max_terms
        assert not partial.converged
        assert str(excinfo.value).startswith("frequency sum not converged")

    def test_tiny_reduced_temperature_runs_out_of_terms(self):
        # r = e^{-2 gamma} rounds to 1 at gamma ~ 3e-24; the tail factor stays finite
        with pytest.raises(SumConvergenceError) as excinfo:
            casimir_pressure(Geometry(1.0, 1e-20), AU, AU, QuadratureSpec(max_terms=50))
        assert excinfo.value.partial.n_terms_used == 50

    def test_failure_past_the_stop_is_discarded(self):
        geom = Geometry(0.85, 300.0)  # stops at m = 16 in a block of modes 1-19
        ref = casimir_pressure(geom, AU, CU)
        broken = NanAbove(DB.get("Au"), matsubara_frequency(16, geom.T_K) * 1.0001)
        res = casimir_pressure(geom, broken, CU)
        assert res.n_terms_used == ref.n_terms_used == 16
        assert res.pressure_mPa == ref.pressure_mPa

    def test_failure_before_the_stop_raises(self):
        geom = Geometry(0.85, 300.0)
        broken = NanAbove(DB.get("Au"), matsubara_frequency(15, geom.T_K) * 1.0001)
        with pytest.raises(QuadratureError, match="m=16"):
            casimir_pressure(geom, broken, CU)
        with pytest.raises(QuadratureError):
            matsubara_term(16, geom, broken, CU)

    def test_cold_pair_symmetry_is_exact(self):
        geom = Geometry(0.5, 2.0)  # thousands of terms over many blocks
        res_13 = casimir_pressure(geom, AU, CU)
        res_31 = casimir_pressure(geom, CU, AU)
        assert res_13.n_terms_used == res_31.n_terms_used > 10 * _BLOCK_CAP
        assert res_13.pressure_mPa == res_31.pressure_mPa
        assert np.array_equal(res_13.terms_mPa, res_31.terms_mPa)

    @pytest.mark.parametrize("geom,evaluate", [
        (Geometry(0.5, 2.0), casimir_pressure),  # thousands of terms over many blocks
        (Geometry(1.3, 20.0), free_energy),      # two blocks
    ], ids=["pressure", "free-energy"])
    def test_one_model_on_both_sides_is_evaluated_once(self, geom, evaluate):
        # once: one plan for the whole sum
        calls = []

        class Spy(DrudeModel):
            def epsilon(self, zeta_eV):
                calls.append(self)
                return super().epsilon(zeta_eV)
        spy, results = Spy(DB.get("Au")), []
        # one object as both sides: one call; equal but distinct objects: two,
        # the same terms
        for sides in ((spy, spy), (Spy(DB.get("Au")), Spy(DB.get("Au")))):
            calls.clear()
            with plans_and_blocks() as events:
                results.append(evaluate(geom, *sides))
            plans, sizes = blocks_in_plans(events)
            assert len(sizes) > 1 and len(plans) == 1
            assert calls == list(dict.fromkeys(sides))
        for other in results[1:]:
            assert all(same_bits(np.asarray(value), np.asarray(vars(other)[name]))
                       for name, value in vars(results[0]).items())

    def test_matsubara_term_equals_block_value(self):
        # at 1 K the terms decay slowly, so the floor never binds here.  An
        # integrated term has matsubara_term's bits: modes 1-128, and those
        # from the panel that holds the stop on; a term of a panel before it
        # comes from the panel's interpolant and meets matsubara_term to
        # 1e-13.  The first and last mode of every block and panel, the last
        # block reaching past the stop
        geom = Geometry(1.0, 1.0)
        with certified_panels() as panels:
            res = casimir_pressure(geom, AU, CU)
        (asked, got), = panels
        n = res.n_terms_used
        interpolated = [(lo, hi) for lo, hi in asked if lo in got and hi < n]
        assert len(interpolated) > 5 and interpolated[0][0] == _BLOCK_CAP + 1
        first = block_firsts(casimir_pressure, geom, (AU, CU))
        assert first[-1] > n + 1
        si = pressure_to_si(1.0, geom)
        for m in sorted({1, 5, 6, *first[1:-1].tolist(), *(first[1:-1] - 1).tolist(), n,
                         *(m for panel in interpolated for m in panel)}):
            direct = -matsubara_term(m, geom, AU, CU) * si
            if any(lo <= m <= hi for lo, hi in interpolated):
                assert abs(res.terms_mPa[m - 1] - direct) <= 1e-13 * abs(direct)
            else:
                assert res.terms_mPa[m - 1] == direct

    def test_loose_tolerance_mixes_panel_layouts(self):
        # at integral_rel_tol 1e-9 the break at lower + 16 falls inside the
        # range only for lower limits below ~0.36: free-energy modes up to
        # m = 109 start with 7 panels here, later ones with 6, and blocks
        # straddle the edge
        spec = QuadratureSpec(integral_rel_tol=1e-9)
        geom = Geometry(0.3, 4.0)
        res = free_energy(geom, AU, CU, spec)
        assert res.n_terms_used == 2790
        assert res.free_energy_J_per_m2 == pytest.approx(-1.2150878738398224e-08, rel=1e-12)
        unit = free_energy_to_si(1.0, geom)
        for m in (108, 109, 110, 111):
            (values, _, _), _ = block([m], geom, (AU, CU), spec, free_energy=True)
            assert values[0] * unit == res.terms_J_per_m2[m - 1]

    def test_loose_tolerance_pressure_meets_a_tight_reference(self):
        # the fixed rule pairs certify far more than a 1e-9 target asks.
        # The pinned number is the same sum with every mode integrated by
        # integrate_adaptive at integral_rel_tol 1e-14, so it also checks
        # the rule pairs against values they did not produce
        geom = Geometry(0.3, 4.0)
        res = casimir_pressure(geom, AU, CU, QuadratureSpec(integral_rel_tol=1e-9))
        ref = casimir_pressure(geom, AU, CU, QuadratureSpec(integral_rel_tol=1e-14))
        assert res.n_terms_used == 3080
        assert res.pressure_mPa == pytest.approx(ref.pressure_mPa, rel=1e-12)
        assert res.pressure_mPa == pytest.approx(-112.12918478281021, rel=1e-12)

    def test_underflowing_terms_stop_refining(self):
        # the fifth term underflows to ~1e-316; a purely relative target
        # made its integral bisect to the panel budget and raise
        res = casimir_pressure(Geometry(88.0, 300.0), AU, AU)
        assert res.converged
        assert math.isfinite(res.pressure_mPa)
        assert res.pressure_mPa == pytest.approx(res.zero_mode_mPa, rel=1e-12)


def finish(steps, out, spec, free_energy, work, block=_mode_block):
    """The result of the sum ``steps`` (_sum_steps), given ``out``, the
    answer to the request it yielded last, each later request answered as
    _summed_modes answers it, by ``block``."""
    try:
        while True:
            lower, zeta, sides, floor = steps.send(out)
            out = block(lower, zeta, sides, spec, floor, free_energy, work)
    except StopIteration as done:
        return done.value


AL_BG = DrudeModel(DB.get("Al"), BlochGruneisenParams())


class TestBlockRequests:
    # a sum asks for every block it integrates, its first one included, so
    # one _mode_block call can serve the first blocks of several sums, as a
    # grid evaluator would, and each sum keeps the bits it has alone: a
    # request is modes, frequencies, sides and a floor, and the block
    # decides on the permittivities of the rows it takes

    @pytest.mark.parametrize("what, cells, pair, spec", [
        ("pressure", [(5.0, 300.0), (2.0, 318.0)], (AU, AU), QuadratureSpec()),
        # the two free energies of an entropy at 4 K
        ("free-energy", [(0.618, 3.5), (0.618, 4.5)], (AL_BG, AL_BG), _ENTROPY_SPEC),
        # and at 2 K with two sides, each side's permittivities merged
        ("free-energy", [(1.0, 1.5), (1.0, 2.5)], (AU, DrudeModel(DB.get("Al"))), _ENTROPY_SPEC),
        # two sums whose first requests classify a side differently: Au
        # ideal above 1 eV (Above), finite at every mode of the first cell's
        # (up to 0.81 eV) and ideal at some of the second's (up to 1.38 eV)
        ("pressure", [(5.0, 300.0), (2.0, 318.0)], None, QuadratureSpec()),
    ])
    def test_one_call_answers_the_first_blocks_of_two_sums(self, what, cells, pair, spec,
                                                           monkeypatch):
        from casimir import lifshitz

        pair = pair or (Above((1.0, np.inf)), AU)
        free, geoms = what == "free-energy", [Geometry(a_um, T_K) for a_um, T_K in cells]
        alone = [EVALUATE[what](geom, *pair, spec) for geom in geoms]
        callers = []  # of _mode_block inside the sums: none, the samples are requests too

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return _mode_block(*args)
        monkeypatch.setattr(lifshitz, "_mode_block", spy)
        works = [_Workspace() for _ in geoms]
        steps = [_sum_steps(geom, *pair, spec, free) for geom in geoms]
        (la, za, sa, floor), (lb, zb, sb, fb) = (next(s) for s in steps)
        assert floor == fb == spec.integral_rel_tol * spec.sum_rel_tol * zeta3() / 8.0
        assert len(sa) == len(sb) == len({id(model) for model in pair})
        kinds = [_kernel_sides(*[e for _, e in sides]) for sides in (sa, sb)]
        assert (kinds[0] != kinds[1]) == isinstance(pair[0], Above)
        # the rows of both merged and sorted by A, which the rule ladder needs,
        # their values unsorted afterwards
        lower = np.concatenate([la, lb])
        order = np.argsort(lower, kind="stable")
        assert (order[:la.size] != np.arange(la.size)).any()  # the two sums' modes interleave
        merged = _mode_block(lower[order], np.concatenate([za, zb])[order],
                             [(model, np.concatenate([ea, eb])[order])
                              for (model, ea), (_, eb) in zip(sa, sb)],
                             spec, floor, free, _Workspace())
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        answers = [tuple(out[back][part] for out in merged)
                   for part in (slice(0, la.size), slice(la.size, None))]
        results = [finish(s, answer, spec, free, work)
                   for s, answer, work in zip(steps, answers, works)]
        for res, ref in zip(results, alone):
            assert all(same_bits(np.asarray(value), np.asarray(vars(ref)[name]))
                       for name, value in vars(res).items())
        assert set(callers) == set()
        assert not free or results[0].n_terms_used > _BLOCK_CAP + _PANEL_MIN

    @pytest.mark.parametrize("a_um, schedule", [(2.5, [128, 243, 40]), (3.65, [128, 157])])
    def test_a_first_block_answered_elsewhere_keeps_the_schedule(self, a_um, schedule,
                                                                 monkeypatch):
        # a sum's later blocks are sized by the nodes of its own first block,
        # not by the workspace that answered it: the first request answered
        # in another workspace, as a grid evaluator would, the sum keeps the
        # blocks and bits it has alone (in the sum's own, still empty
        # workspace they were cut at _BLOCK_CAP modes: 128, 128 and 157)
        from casimir import lifshitz

        geom, spec, sizes = Geometry(a_um, 4.0), QuadratureSpec(), []

        def counted(lower, *args):
            sizes.append(lower.size)
            return _mode_block(lower, *args)
        monkeypatch.setattr(lifshitz, "_mode_block", counted)
        alone = casimir_pressure(geom, AU, CU)
        assert sizes == schedule
        work = _Workspace()
        steps = _sum_steps(geom, AU, CU, spec, False)
        lower, zeta, sides, floor = next(steps)
        answer = _mode_block(lower, zeta, sides, spec, floor, False, _Workspace())
        del sizes[:]
        res = finish(steps, answer, spec, False, work, counted)
        assert [lower.size, *sizes] == schedule
        assert all(same_bits(np.asarray(value), np.asarray(vars(alone)[name]))
                   for name, value in vars(res).items())

    @pytest.mark.parametrize("what, geom, pair, spec", [
        ("pressure", Geometry(0.16, 1.0), (AU, AU), QuadratureSpec()),
        ("free-energy", Geometry(1.0, 1.5), (AU, DrudeModel(DB.get("Al"))), _ENTROPY_SPEC),
    ])
    def test_halved_requests_keep_the_bits_of_a_long_sum(self, what, geom, pair, spec,
                                                         monkeypatch):
        # every mode integral of a sum is a request, the Chebyshev samples'
        # included: a pump that answers each request of two or more rows
        # with one _mode_block call per half of its rows keeps every bit,
        # and no _mode_block call is made inside the sum
        from casimir import lifshitz

        free, callers, requests = what == "free-energy", [], []
        alone = EVALUATE[what](geom, *pair, spec)

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return _mode_block(*args)

        def halves(lower, zeta, sides, *args):
            requests.append(lower / geom.gamma)  # the modes asked for
            if lower.size < 2:
                return _mode_block(lower, zeta, sides, *args)
            parts = [_mode_block(lower[i], zeta[i], [(model, e[i]) for model, e in sides], *args)
                     for i in (slice(0, lower.size // 2), slice(lower.size // 2, None))]
            return tuple(np.concatenate(half) for half in zip(*parts))
        monkeypatch.setattr(lifshitz, "_mode_block", spy)
        res = finish(_sum_steps(geom, *pair, spec, free), None, spec, free, _Workspace(), halves)
        assert all(same_bits(np.asarray(value), np.asarray(vars(alone)[name]))
                   for name, value in vars(res).items())
        assert callers == [] and res.n_terms_used > _BLOCK_CAP + _PANEL_MIN
        # the Chebyshev samples asked too, at points between the modes
        assert any((np.abs(ms - np.round(ms)) > 0.01).any() for ms in requests)


# Magnitudes of the scanned terms: zeros, subnormals and 600 decades of normals.
MAGNITUDES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308),
                       st.floats(1e-300, 1e300), st.floats(0.5, 2.0))


@st.composite
def term_blocks(draw):
    """(values, acc, comp, first, min_terms, tail, rel_tol) of one block of
    up to 2,048 values, as long as the blocks of a cold sum: terms of one
    sign, random or decaying geometrically, onto a running sum of either
    sign whose compensation is below its last unit.  Past _BLOCK_CAP random
    values are picked from a drawn pool by a drawn seed, which keeps the
    example within Hypothesis's buffer."""
    n = draw(st.sampled_from([1, _ARRAY_SCAN - 1, _ARRAY_SCAN, _BLOCK_CAP, 1024])
             | st.integers(1, 2048))
    if draw(st.booleans()):
        if n <= _BLOCK_CAP:
            values = np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
        else:
            pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=32))
            values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, n)
    else:
        values = draw(MAGNITUDES) * draw(st.floats(0.0, 1.0)) ** np.arange(n)
    sign = draw(st.sampled_from([1.0, -1.0]))
    acc = draw(st.sampled_from([1.0, -1.0])) * draw(MAGNITUDES)
    comp = acc * draw(st.floats(-1.1e-16, 1.1e-16))
    first = draw(st.integers(1, 400))
    min_terms = first + draw(st.integers(-first + 1, n + 5))  # before, inside or after
    return (sign * values, acc, comp, first, min_terms, draw(st.floats(1.0, 1e6)),
            draw(st.sampled_from([1e-10, 1e-8, 1e-3, 1.0])))


class TestScan:
    # the array pass sums a block's values with the loop's bits: TwoSum and
    # Neumaier's ordered branch both give an addition's exact rounding error
    @settings(max_examples=400, deadline=None)
    @given(block=term_blocks())
    @example(block=(np.array([1e300, 1e-300, 3.0]), 1e-300, 0.0, 1, 1, 1.0, 1e-8))
    @example(block=(np.array([0.0, 5e-324, 0.0, 1e-310]), -0.0, 0.0, 5, 1, 2.0, 1.0))
    @example(block=(-np.geomspace(1e300, 1e-300, _BLOCK_CAP), -1e-300, 0.0, 1, 200, 1.0, 1e-8))
    @example(block=(np.array([3.0, 1.0]), 1.0, 0.0, 1, 1, 1.0, 0.75))  # 3 <= 0.75 * 4: a tie
    # a long cold block: 1,167 slowly decaying terms after a first block
    @example(block=(-np.geomspace(2e-2, 1e-14, 1167), -0.36, 1e-17, 129, 5, 1.0, 1e-10))
    def test_array_pass_equals_the_loop(self, block):
        loop, arrays = _scan_loop(*block), _scan_arrays(*block)
        assert same_bits(np.array(loop[:2]), np.array(arrays[:2])), (loop, arrays)
        assert loop[2:] == arrays[2:]

    def test_sum_does_not_depend_on_the_path(self, monkeypatch):
        # long blocks take the array pass; with _ARRAY_SCAN at inf every
        # block takes the loop.  Also when max_terms is hit inside a block
        # summed in array passes
        geom = Geometry(1.0, 2.0)
        runs = [(casimir_pressure, None), (free_energy, None),
                (casimir_pressure, QuadratureSpec(max_terms=2000))]
        arrays = [outcome(evaluate, geom, (AU, CU), spec) for evaluate, spec in runs]
        monkeypatch.setattr("casimir.lifshitz._ARRAY_SCAN", math.inf)
        assert [outcome(evaluate, geom, (AU, CU), spec) for evaluate, spec in runs] == arrays
        assert arrays[2][:2] == (SumConvergenceError, "frequency sum not converged after 2000 "
                                 "terms (a=1.0 um, T=2.0 K)")

    # Au-Cu at 1 um and 2 K stops at m = 2003, in a block of modes 1852-2011
    def test_failure_past_the_stop_in_a_long_block_is_discarded(self):
        geom = Geometry(1.0, 2.0)
        ref = casimir_pressure(geom, AU, CU)
        first = block_firsts(casimir_pressure, geom, (AU, CU))
        assert ref.n_terms_used == 2003 and 2003 - first[first <= 2003][-1] >= _ARRAY_SCAN
        broken = NanAbove(DB.get("Au"), matsubara_frequency(2003, geom.T_K) * 1.0001)
        res = casimir_pressure(geom, broken, CU)
        assert same_bits(res.terms_mPa, ref.terms_mPa)
        assert res.pressure_mPa == ref.pressure_mPa

    def test_failure_inside_a_long_block_raises(self):
        geom = Geometry(1.0, 2.0)
        m = block_firsts(casimir_pressure, geom, (AU, CU))[-2] + _ARRAY_SCAN
        broken = NanAbove(DB.get("Au"), matsubara_frequency(m - 1, geom.T_K) * 1.0001)
        with pytest.raises(QuadratureError, match=f"m={m} "):
            casimir_pressure(geom, broken, CU)


# A small tabulated model: Drude Al samples over 0.01-100 eV, Au below.
TABLE_ZETA_EV = np.logspace(-2, 2, 9)
TAB = TabulatedModel(PermittivityTable(TABLE_ZETA_EV, drude_epsilon(DB.get("Al"), TABLE_ZETA_EV)),
                     low_freq=DrudeModel(DB.get("Au")))


def reference_kernel(y, A, eps1, eps3, free_energy):
    """The pressure integrand y^2 * [x_TM/(1-x_TM) + x_TE/(1-x_TE)] and the
    free-energy integrand y * [ln(1-x_TM) + ln(1-x_TE)] from the public
    reflection_tm and TE as (eps-1)/(s+p)^2, one expression per array, in
    the kernel's operation order."""
    p = y / A[:, None]

    def reflections(eps):
        eps = eps[:, None]
        if np.all(np.isinf(eps)):
            return 1.0, 1.0
        s = np.sqrt(eps - 1.0 + p * p)
        return reflection_tm(eps, s, p), (eps - 1.0) / ((s + p) * (s + p))

    (tm1, te1), (tm3, te3) = reflections(eps1), reflections(eps3)
    e2y = np.exp(-2.0 * y)
    em = -np.expm1(-2.0 * y)  # 1 - e^{-2y}
    out = 0.0
    for d1, d3 in ((tm1, tm3), (te1, te3)):
        prod = d1 * d3
        x = prod * e2y
        if free_energy:
            out = out + np.where(x > 0.5, np.log(em + e2y * (1.0 - prod)), np.log1p(-x))
        else:  # 1-x as it is where no node of the row can have x > 1/2
            out = out + np.where(A[:, None] >= _NEAR_ONE_Y, x / (1.0 - x),
                                 x / (em + e2y * (1.0 - prod)))
    return y * out if free_energy else y * y * out


def kernel_inputs(rows, nodes, pair=(AU, CU), T_K=2.0, a_um=0.3, first=1):
    """Nodes from each mode's lower limit out to lower + 25, as the sum uses them."""
    gamma = reduced_temperature(Geometry(a_um, T_K))
    ms = np.arange(first, first + rows)
    A = ms * gamma
    zeta = ms * matsubara_frequency(1, T_K)
    eps1, eps3 = (np.asarray(m.epsilon(zeta), dtype=float) for m in pair)
    y = A[:, None] + np.geomspace(1e-6, 25.0, nodes)
    return y, A, eps1, eps3


def run_kernel(y, work, free_energy, A, *eps):
    """_mode_kernel on one or two sides' permittivities per mode (inf for
    an ideal metal), classified as a plan of the sum classifies them."""
    return _mode_kernel(y, work, free_energy, _kernel_sides(*eps), A, *eps)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Pressure integrand at y = 1 by hand: 2 e^-2/(1 - e^-2) = 0.313035 for unit
# reflection, 0 for vacuum; None where no closed form is checked.
UNIT_AT_Y1 = 2.0 * math.exp(-2) / (1 - math.exp(-2))


class Constant(DielectricModel):
    """epsilon(i*zeta) = value at every frequency."""

    def __init__(self, value):
        self.value = value

    def epsilon(self, zeta_eV):
        return np.full_like(np.asarray(zeta_eV, dtype=float), self.value)

    def __repr__(self):
        return f"Constant({self.value})"


class TestModeKernel:
    @pytest.mark.parametrize("free_energy", [False, True])
    @pytest.mark.parametrize("pair, at_y1", [((AU, AU), None), ((AU, CU), None),
                                             ((AU, IdealMetal()), None),
                                             ((IdealMetal(), IdealMetal()), UNIT_AT_Y1),
                                             ((Vacuum(), Vacuum()), 0.0)],
                             ids=["similar", "dissimilar", "drude-ideal", "ideal-ideal",
                                  "vacuum"])
    def test_bit_identical_to_public_functions(self, pair, at_y1, free_energy):
        y, A, eps1, eps3 = kernel_inputs(40, 105, pair)
        ref = reference_kernel(y, A, eps1, eps3, free_energy)
        got = run_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
        assert same_bits(got, ref)
        if np.array_equal(eps1, eps3):  # one interface serves both sides
            assert same_bits(run_kernel(y, _Workspace(), free_energy, A, eps1), ref)
        if at_y1 is not None and not free_energy:
            one = run_kernel(np.ones((1, 1)), _Workspace(), False, A[:1], eps1[:1], eps3[:1])
            assert one[0, 0] == pytest.approx(at_y1, rel=1e-14)

    def test_log_select_covers_both_branches(self):
        y, A, eps1, eps3 = kernel_inputs(10, 105, (AU, AU), T_K=1.0, a_um=0.1)
        p = y / A[:, None]
        s = np.sqrt(eps1[:, None] - 1.0 + p * p)
        x = reflection_tm(eps1[:, None], s, p) ** 2 * np.exp(-2.0 * y)
        assert (x > 0.5).any() and (x <= 0.5).any()
        ref = reference_kernel(y, A, eps1, eps3, True)
        assert same_bits(run_kernel(y, _Workspace(), True, A, eps1), ref)

    # lower limits of blocks around the near-one branch, which only nodes
    # with y < ln(2)/2 can take; Constant(1.001) reflects too little for any
    # node to take it however low its mode starts
    NEAR_ONE_BLOCKS = {
        "straddling": (np.geomspace(0.01, 3.0, 48), (AU, CU)),
        "all-above": (np.linspace(0.35, 3.0, 48), (AU, CU)),
        "no-node-near-one": (np.geomspace(0.01, 3.0, 48), (Constant(1.001), CU)),
        "all-below": (np.geomspace(0.005, 0.34, 48), (AU, AU)),
        "edge": (np.linspace(0.3, 0.4, 48), (AU, IdealMetal())),
        "drude-ideal": (np.geomspace(0.01, 3.0, 48), (AU, IdealMetal())),
    }

    @staticmethod
    def near_one_inputs(A, pair, nodes=105):
        """Nodes from just above each lower limit A out to A + 25, with the
        permittivities of the modes at A for a = 0.5 um."""
        zeta = A * CODATA.hbar_c_eV_um / 0.5
        eps1, eps3 = (np.asarray(m.epsilon(zeta), dtype=float) for m in pair)
        return A[:, None] + np.geomspace(1e-6, 25.0, nodes), eps1, eps3

    @pytest.mark.parametrize("free_energy", [False, True])
    def test_near_one_branch_blocks(self, free_energy):
        work = _Workspace()
        x_max = {}
        for name, (A, pair) in self.NEAR_ONE_BLOCKS.items():
            y, eps1, eps3 = self.near_one_inputs(A, pair)
            ref = reference_kernel(y, A, eps1, eps3, free_energy)
            fresh = run_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
            assert same_bits(fresh, ref), name
            assert same_bits(run_kernel(y, work, free_energy, A, eps1, eps3), ref), name
            if np.array_equal(eps1, eps3):
                assert same_bits(run_kernel(y, work, free_energy, A, eps1), ref), name
            # the largest x_TM per row (TM reflects more than TE), from the
            # public reflection_tm
            p = y / A[:, None]
            x = np.exp(-2.0 * y)
            for eps in (eps1, eps3):
                if np.isfinite(eps).all():
                    s = np.sqrt(eps[:, None] - 1.0 + p * p)
                    x = x * reflection_tm(eps[:, None], s, p)
            x_max[name] = x.max(axis=1)
        # which rows have nodes on the near-one branch, per block
        near = {name: rows > 0.5 for name, rows in x_max.items()}
        assert near["straddling"].any() and not near["straddling"].all()
        assert not near["all-above"].any() and not near["no-node-near-one"].any()
        assert near["all-below"][:40].all() and near["drude-ideal"].any()
        assert near["edge"].any() and not near["edge"].all()

    def test_cold_free_energy_modes_meet_a_tight_reference(self):
        # Au-Cu at 0.5 um and 1 K: modes whose lower limits straddle ln(2)/2
        geom = Geometry(0.5, 1.0)
        ms = np.arange(*modes_at(geom, [0.3, 0.4]))
        A = ms * reduced_temperature(geom)
        assert A.min() < math.log(2.0) / 2.0 < A.max()
        assert not check_block(ms, geom, (AU, CU), free_energy=True).all()

    @pytest.mark.parametrize("free_energy", [False, True])
    def test_reused_workspace_equals_fresh_one(self, free_energy):
        # blocks grow and then shrink in rows and nodes; every value is
        # taken before the next call, as integrate_adaptive takes it
        work = _Workspace()
        for rows, nodes, pair in ((3, 15, (AU, CU)), (20, 105, (AU, AU)), (128, 105, (CU, AU)),
                                  (40, 210, (AU, IdealMetal())), (7, 30, (AU, CU)),
                                  (1, 15, (AU, AU))):
            y, A, eps1, eps3 = kernel_inputs(rows, nodes, pair, first=rows)
            shared = run_kernel(y, work, free_energy, A, eps1, eps3).copy()
            fresh = run_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
            assert same_bits(shared, fresh)
            assert same_bits(shared, reference_kernel(y, A, eps1, eps3, free_energy))

    def test_returns_a_view_the_next_call_overwrites(self):
        work = _Workspace()
        y, A, eps1, eps3 = kernel_inputs(4, 15)
        first = run_kernel(y, work, False, A, eps1, eps3)
        kept = first.copy()
        run_kernel(y + 1.0, work, False, A, eps1, eps3)
        assert not np.array_equal(first, kept)

    def test_sides_are_classified_over_the_plan(self):
        # NaN is not ideal: a NaN mode is computed, gives NaN and fails to
        # certify
        kinds = _kernel_sides(np.full(3, np.inf), np.array([2.0, 3.0]), np.array([np.inf, 2.0]),
                              np.array([np.inf, np.nan]), np.array([2.0, np.nan]))
        assert kinds == (_IDEAL, _FINITE, _MIXED, _MIXED, _FINITE)

    @pytest.mark.parametrize("free_energy", [False, True])
    def test_a_mixed_side_gives_its_ideal_and_finite_rows_their_own_bits(self, free_energy):
        # a block takes each side's kind over its own rows, so rows that run
        # as _MIXED in a block of many sums' requests, ideal at every mode
        # or at none, keep the bits they have alone; one side serving both,
        # or against a finite side
        y, A, eps1, eps3 = kernel_inputs(4, 15)
        for eps in (np.full(4, np.inf), eps1):
            for others in ((), (eps3,)):
                own = run_kernel(y, _Workspace(), free_energy, A, eps, *others).copy()
                kinds = (_MIXED, *_kernel_sides(*others))
                mixed = _mode_kernel(y, _Workspace(), free_energy, kinds, A, eps, *others)
                assert same_bits(own, mixed)

    def test_te_equals_public_reflection_te(self):
        # TE lies in [0, 1); the public (s-p)/(s+p) keeps only absolute
        # precision as eps -> 1, which is why the kernel does not use it
        em1 = np.geomspace(1e-3, 1e6, 40)
        p = np.broadcast_to(np.geomspace(1.0, 1e3, 50), (40, 50)).copy()
        pair, out = np.empty((2, *p.shape)), np.empty((2, *p.shape))
        _, te = _reflections(_FINITE, 1.0 + em1, p, p * p, pair, out)
        public = reflection_te(np.sqrt((1.0 + em1[:, None]) - 1.0 + p * p), p)
        assert np.abs(te - public).max() <= 1e-14
        # near vacuum the kernel keeps its relative precision:
        # TE = (eps-1)/(4 p^2) to first order in eps-1
        eps = np.array([1.0 + 1e-12])
        _, te = _reflections(_FINITE, eps, p[:1], p[:1] ** 2, pair[:, :1], out[:, :1])
        assert te == pytest.approx((eps - 1.0) / (4.0 * p[:1] ** 2), rel=1e-11, abs=0.0)

    def test_tabulated_pair_symmetry_is_exact(self):
        geom = Geometry(0.4, 3.0)
        res_13 = casimir_pressure(geom, TAB, AU)
        res_31 = casimir_pressure(geom, AU, TAB)
        assert res_13.n_terms_used == res_31.n_terms_used > _BLOCK_CAP
        assert res_13.pressure_mPa == res_31.pressure_mPa
        assert np.array_equal(res_13.terms_mPa, res_31.terms_mPa)


class TestPermittivityBelowOne:
    # eps(i zeta) < 1 belongs to no passive medium, so no sum may take it
    @pytest.mark.parametrize("value", [0.9, 0.0])
    @pytest.mark.parametrize("sides", ["first", "second", "both", "against-ideal"])
    @pytest.mark.parametrize("quantity", ["pressure", "free_energy", "matsubara_term", "entropy"])
    def test_raises_value_error(self, value, sides, quantity):
        bad = Constant(value)
        pair = {"first": (bad, AU), "second": (AU, bad), "both": (bad, bad),
                "against-ideal": (bad, IdealMetal())}[sides]
        geom = Geometry(1.0, 300.0)
        evaluate = {"pressure": casimir_pressure, "free_energy": free_energy,
                    "matsubara_term": lambda *args: matsubara_term(1, *args),
                    "entropy": entropy}[quantity]
        # the first mode of the first sum: entropy starts at T - 0.5 K
        zeta = matsubara_frequency(1, geom.T_K - (0.5 if quantity == "entropy" else 0.0))
        with pytest.raises(ValueError, match=rf"^Constant\({value}\): epsilon = {value:.6g} < 1 "
                                             rf"at zeta = {zeta:.6g} eV$"):
            evaluate(geom, *pair)


@contextlib.contextmanager
def adaptive_calls():
    """A list of the (breaks, keywords) of each call to the adaptive
    quadrature that a sum or _mode_block makes while the context is open."""
    calls = []

    def spy(f, breaks, **kwargs):
        calls.append((breaks, kwargs))
        return integrate_adaptive(f, breaks, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("casimir.lifshitz.integrate_adaptive", spy)
        yield calls


def block(ms, geom, pair, spec=None, free_energy=False):
    """(values, errors, failed) of one _mode_block with floor 0, and a mask
    of the modes that reached the adaptive quadrature."""
    ms = np.asarray(ms)
    spec = spec or QuadratureSpec()
    plan = _plan(ms, reduced_temperature(geom), matsubara_frequency(1, geom.T_K), *pair)
    with adaptive_calls() as calls:
        out = _mode_block(*plan, spec, 0.0, free_energy, _Workspace())
    sent = [breaks[0] for breaks, _ in calls]  # a mode's breaks start at its lower limit
    return out, np.isin(ms * reduced_temperature(geom), sent)


def adaptive_modes(ms, geom, pair, spec=None, free_energy=False):
    """(values, errors) of mode integrals by integrate_adaptive alone, one
    call per mode on the kernel, the breaks and the inputs _mode_block
    gives it."""
    spec = spec or QuadratureSpec()
    ms = np.atleast_1d(ms)
    A = ms * reduced_temperature(geom)
    zeta = ms * matsubara_frequency(1, geom.T_K)
    eps1, eps3 = (np.asarray(model.epsilon(zeta), dtype=float) for model in pair)
    work, out = _Workspace(), np.empty((2, ms.size))
    for i, y_max in enumerate(spec.y_max(A)):
        starts = A[i] + _BREAK_OFFSETS
        row = [a[i:i + 1] for a in (A, eps1, eps3)]
        out[:, i] = integrate_adaptive(lambda y: run_kernel(y[None], work, free_energy, *row)[0],
                                       np.append(starts[starts < y_max], y_max),
                                       rel_tol=spec.integral_rel_tol)
    return out[0], out[1]


def adaptive_mode(m, geom, pair, spec=None, free_energy=False):
    """(value, error) of one mode integral by integrate_adaptive alone."""
    value, error = adaptive_modes(m, geom, pair, spec, free_energy)
    return float(value[0]), float(error[0])


def check_block(ms, geom, pair, free_energy):
    """Modes of one block: each that a fixed pair certifies lies within
    1e-13 of a tight adaptive reference, each it rejects equals the adaptive
    quadrature's (value, error) bit for bit.  Returns the mask of the
    rejected modes."""
    (values, errors, failed), adaptive = block(ms, geom, pair, free_energy=free_energy)
    assert not failed.any()
    ref, _ = adaptive_modes(ms, geom, pair, QuadratureSpec(integral_rel_tol=1e-14),
                            free_energy=free_energy)
    fixed = ~adaptive
    assert (np.abs(values[fixed] - ref[fixed]) <= 1e-13 * np.abs(ref[fixed])).all()
    assert (errors[fixed] <= 1e-12 * np.abs(values[fixed])).all()
    for m, value, error in zip(ms[adaptive], values[adaptive], errors[adaptive]):
        assert (value, error) == adaptive_mode(m, geom, pair, free_energy=free_energy)
    return adaptive


def modes_at(geom, lowers):
    """Matsubara indices whose lower limits m*gamma are nearest ``lowers``
    from above."""
    return np.ceil(np.asarray(lowers) / reduced_temperature(geom)).astype(int)


# Tables on which (s-p)/(s+p) cancelled: eps - 1 about 1e-12 throughout, and
# eps falling to 1 inside the window.  The TE integrand was rounding noise
# there, and mode integrals against Au never certified.
NEAR_ZETA_EV = np.logspace(-4, 2, 7)
NEAR_VACUUM = TabulatedModel(PermittivityTable(NEAR_ZETA_EV, np.full(7, 1.0 + 1e-12)),
                             low_freq=DrudeModel(DB.get("Au")))
FALLS_TO_ONE = TabulatedModel(
    PermittivityTable(NEAR_ZETA_EV, np.array([2.0, 1.8, 1.5, 1.2, 1.0, 1.0, 1.0])),
    low_freq=DrudeModel(DB.get("Au")))

NEAR_TABLES = {"near-vacuum": NEAR_VACUUM, "falls-to-one": FALLS_TO_ONE}

GL_PAIRS = {"similar": (AU, AU), "dissimilar": (AU, CU), "drude-ideal": (AU, IdealMetal()),
            "tabulated": (TAB, CU)}
RUNG_PAIRS = {**GL_PAIRS, "near-vacuum": (NEAR_VACUUM, AU)}

# Lowest A of every rung (modes below the first take the adaptive
# quadrature); past LAST_A every sum below has stopped.
RUNG_A = [a for a, _ in _RUNGS]
LAST_A = 30.0
# Modes with A < 2, where every rung has Gauss-Legendre panels: the costly ones.
LOW_A = 2.0


def rung_edges(geom):
    """Matsubara indices of the lowest and the highest mode of every rung:
    the first mode at or above the rung's lowest A and the last mode below
    the next rung's."""
    gamma = reduced_temperature(geom)
    lowest = modes_at(geom, RUNG_A)
    highest = np.append(modes_at(geom, RUNG_A[1:]) - 1, modes_at(geom, [LAST_A]))
    assert (highest[:-1] * gamma < RUNG_A[1:]).all() and (lowest <= highest).all()
    return np.unique(np.concatenate([lowest, highest]))


class TestRungs:
    @pytest.mark.parametrize("pair", sorted(RUNG_PAIRS))
    @pytest.mark.parametrize("a_um,T_K", [(0.16, 1.0), (2.0, 0.05)])
    def test_rung_edges_agree_with_a_tight_adaptive_reference(self, pair, a_um, T_K):
        # every edge is certified by its own rung's pair, not the fallback,
        # so a wrong rule weight shows here as a fallback or a wrong value
        geom = Geometry(a_um, T_K)
        ms = rung_edges(geom)
        (values, errors, failed), adaptive = block(ms, geom, RUNG_PAIRS[pair])
        assert not failed.any() and not adaptive.any()
        ref, _ = adaptive_modes(ms, geom, RUNG_PAIRS[pair], QuadratureSpec(integral_rel_tol=1e-14))
        assert (np.abs(values - ref) <= 1e-13 * np.abs(ref)).all()
        assert (errors <= 1e-12 * values).all()

    @pytest.mark.parametrize("pair", sorted(RUNG_PAIRS))
    @pytest.mark.parametrize("a_um,T_K", [(0.16, 1.0), (2.0, 0.05)])
    def test_free_energy_rung_edges_meet_a_tight_reference(self, pair, a_um, T_K):
        # free-energy modes below the free energy's cut take the A-scaled
        # panels; those a pair rejects fall back to the adaptive quadrature
        geom = Geometry(a_um, T_K)
        assert not check_block(rung_edges(geom), geom, RUNG_PAIRS[pair], free_energy=True).all()

    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_agrees_with_adaptive_quadrature(self, pair):
        geom = Geometry(1.0, 300.0)
        ms = modes_at(geom, [2.0, 2.5, 3.7, 6.0, 11.0, 25.0, 60.0, 140.0, 300.0])
        (values, errors, failed), adaptive = block(ms, geom, GL_PAIRS[pair])
        assert not adaptive.any() and not failed.any()
        for m, value, error in zip(ms, values, errors):
            ref, _ = adaptive_mode(m, geom, GL_PAIRS[pair])
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert error <= 1e-12 * value

    @pytest.mark.parametrize("free", [False, True], ids=["pressure", "free-energy"])
    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_value_is_independent_of_the_block(self, pair, free):
        # one block holding both sides of every rung boundary, of both
        # floors and of every change in the A-scaled panel count (at each
        # power of two), so of every ladder entry; modes below the floor,
        # and free-energy modes a pair rejects, take the adaptive quadrature
        # in either block
        geom = Geometry(0.5, 2e-5)
        gamma = reduced_temperature(geom)
        firsts = modes_at(geom, [*RUNG_A, *(f for f, _ in _SCALED.values()),
                                 *2.0 ** -np.arange(1, 24)])
        ms = np.unique(np.concatenate([firsts, firsts - 1]))
        assert ms.size <= _BLOCK_CAP
        lows = [entry[0] for entry in _LADDERS[free]]
        rung = np.searchsorted(lows, ms * gamma, side="right") - 1
        assert np.array_equal(np.unique(rung), np.arange(-1, len(lows)))
        # an A-scaled entry per panel count from the floor's to the cut's,
        # each holding the modes of its count (A*2^j < 1 for j < k)
        counts = [pair for _, pair, _ in _LADDERS[free] if type(pair) is int]
        assert len(counts) == np.ptp(np.frexp(_SCALED[free])[1]) + 1
        scaled = (rung >= 0) & (rung < len(counts))
        assert np.array_equal(1 - np.frexp(ms[scaled] * gamma)[1],
                              np.take(counts, rung[scaled]))
        (values, errors, failed), adaptive = block(ms, geom, GL_PAIRS[pair], free_energy=free)
        assert not failed.any() and adaptive[rung < 0].all()
        assert not adaptive[rung >= 0].all() and (free or not adaptive[rung >= 0].any())
        for i in range(ms.size):
            (one, one_error, _), _ = block(ms[i:i + 1], geom, GL_PAIRS[pair], free_energy=free)
            assert one[0] == values[i] and one_error[0] == errors[i]
        # a crafted plan whose lower limits are exactly every ladder's lows,
        # both floors among them: an edge takes the entry whose low it
        # equals, not the one below, in a block of them all as alone
        edges = np.unique([entry[0] for ladder in _LADDERS.values() for entry in ladder])
        assert set(edges) >= {floor for floor, _ in _SCALED.values()}
        spec, args = QuadratureSpec(), (0.0, free)
        _, zeta, sides = _plan(edges / gamma, gamma, matsubara_frequency(1, geom.T_K),
                               *GL_PAIRS[pair])
        values, errors, failed = _mode_block(edges, zeta, sides, spec, *args, _Workspace())
        for i, low in enumerate(edges.tolist()):
            part = slice(i, i + 1)
            one = _mode_block(edges[part], zeta[part], [(m, e[part]) for m, e in sides],
                              spec, *args, _Workspace())
            assert all(same_bits(a, b[part]) for a, b in zip(one, (values, errors, failed)))
            if low in lows:
                start, runs = _rungs(edges[part], free)
                assert start == 0 and runs == [(0, 1, *_LADDERS[free][lows.index(low)][1:])]

    @pytest.mark.parametrize("free", [False, True], ids=["pressure", "free-energy"])
    def test_ladder_entries_count_their_pairs_nodes(self, free):
        # a rung's pair or the A-scaled pair of a panel count, as many nodes
        # per mode as the entry says; the rungs from the cut follow
        floor, cut = _SCALED[free]
        ladder = _LADDERS[free]
        assert ladder[0][0] == floor and [entry[0] for entry in ladder] == sorted(
            {entry[0] for entry in ladder})
        for low, pair, n in ladder:
            offsets, weights = _scaled_rule(pair)[::2] if type(pair) is int else pair
            assert offsets.shape == (n,) and weights.shape == (2, n)
            assert (low < cut) == (type(pair) is int)
        assert [entry[1:] for entry in ladder if entry[0] >= cut] == [
            (pair, pair[0].size) for low, pair in _RUNGS if low >= cut]

    @pytest.mark.parametrize("pair", ["similar", "dissimilar"])
    def test_missed_target_falls_back_to_the_adaptive_value(self, pair):
        # the pair of the rung from A = 1.2 misses a 1e-14 target at its low end
        geom = Geometry(1.0, 3.0)
        spec = QuadratureSpec(integral_rel_tol=1e-14)
        ms = modes_at(geom, [1.2, 1.35, 1.5])
        (values, _, failed), adaptive = block(ms, geom, GL_PAIRS[pair], spec)
        assert adaptive.all() and not failed.any()
        for m, value in zip(ms, values):
            assert value == adaptive_mode(m, geom, GL_PAIRS[pair], spec)[0]


    @pytest.mark.parametrize("a_um", [0.16, 2.0])
    @pytest.mark.parametrize("free", [False, True], ids=["pressure", "free-energy"])
    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_scaled_modes_meet_a_tight_reference(self, pair, free, a_um):
        # from the floor of the A-scaled panels up to the last mode below
        # the cut, where the integrand's rungs take over
        floor, cut = _SCALED[free]
        geom = Geometry(a_um, 0.5 * floor / reduced_temperature(Geometry(a_um, 1.0)))
        ms = modes_at(geom, np.geomspace(floor, cut, 40))
        ms[-1] = modes_at(geom, [cut])[0] - 1
        A = ms * reduced_temperature(geom)
        assert floor <= A[0] < 1.5 * floor and A[-1] < cut
        assert not check_block(ms, geom, GL_PAIRS[pair], free).any()

    @pytest.mark.parametrize("free", [False, True], ids=["pressure", "free-energy"])
    def test_scaled_modes_missing_the_target_fall_back(self, free):
        # the A-scaled pairs miss a 1e-14 target on these modes
        floor, cut = _SCALED[free]
        geom = Geometry(1.0, 0.5 * floor / reduced_temperature(Geometry(1.0, 1.0)))
        ms = modes_at(geom, np.geomspace(floor, cut, 12))
        spec = QuadratureSpec(integral_rel_tol=1e-14)
        (values, errors, failed), adaptive = block(ms, geom, (AU, CU), spec, free_energy=free)
        assert adaptive.all() and not failed.any()
        for m, value, error in zip(ms, values, errors):
            assert (value, error) == adaptive_mode(m, geom, (AU, CU), spec, free_energy=free)

# Cold cells with many modes below LOW_A.
COMPOSITE_CELLS = {"Au-Au": (0.16, 1.0, (AU, AU)),
                   "Au-Al": (0.5, 1.0, (AU, DrudeModel(DB.get("Al")))),
                   "Au-ideal": (1.0, 1.0, (AU, IdealMetal())),
                   "tabulated": (0.4, 3.0, (TAB, CU))}


def fallback(ms, geom, floor):
    """(values, errors, failed) of one Au-Au pressure _mode_block with
    ``floor``, and the abs_tol of each adaptive call it made."""
    plan = _plan(np.asarray(ms), reduced_temperature(geom), matsubara_frequency(1, geom.T_K),
                 AU, AU)
    with adaptive_calls() as calls:
        out = _mode_block(*plan, QuadratureSpec(), floor, False, _Workspace())
    return out, [kwargs["abs_tol"] for _, kwargs in calls]


class TestAdaptiveFallback:
    # gamma = 2.7e-12: modes 1 and 2 lie below the pressure's scaled floor
    # (A = 2.4e-6) and take the adaptive rule, one call each; mode 10**6
    # takes the A-scaled panels
    GEOM = Geometry(1.0, 1e-9)
    MS = [1, 2, 10**6]

    def test_each_mode_is_certified_to_the_block_floor(self):
        (values, errors, failed), floors = fallback(self.MS, self.GEOM, 0.0)
        floor = 1e-9 * abs(values[0])
        (_, loose_errors, loose_failed), loose_floors = fallback(self.MS, self.GEOM, floor)
        assert floors == [0.0, 0.0] and loose_floors == [floor, floor]
        assert not failed.any() and not loose_failed.any()
        assert (loose_errors[:2] <= floor).all() and (loose_errors[:2] > errors[:2]).all()

    def test_a_failed_mode_keeps_its_estimate_and_the_rest_their_values(self, monkeypatch):
        (values, errors, _), _ = fallback(self.MS, self.GEOM, 0.0)
        # no bisection: a mode's first panels are its budget
        monkeypatch.setattr("casimir.quadrature._MAX_PANELS", _BREAK_OFFSETS.size)
        (cut, cut_errors, failed), _ = fallback(self.MS, self.GEOM, 0.0)
        assert failed.tolist() == [True, True, False]
        assert (cut[2], cut_errors[2]) == (values[2], errors[2])
        for i, m in enumerate(self.MS[:2]):
            with pytest.raises(QuadratureError) as excinfo:
                adaptive_mode(m, self.GEOM, (AU, AU))
            assert (cut[i], cut_errors[i]) == (excinfo.value.estimate, excinfo.value.error)


def composite_modes(cell):
    """Geometry, pair, every mode with A < LOW_A and its (values, errors,
    failed) in blocks of _BLOCK_CAP, and the mask of modes sent to the
    adaptive quadrature."""
    a_um, T_K, pair = COMPOSITE_CELLS[cell]
    geom = Geometry(a_um, T_K)
    ms = np.arange(1, modes_at(geom, [LOW_A])[0])
    assert ms[-1] * reduced_temperature(geom) < LOW_A <= (ms[-1] + 1) * reduced_temperature(geom)
    parts = [block(ms[i:i + _BLOCK_CAP], geom, pair) for i in range(0, ms.size, _BLOCK_CAP)]
    values, errors, failed = (np.concatenate(column) for column in zip(*(out for out, _ in parts)))
    return geom, pair, ms, (values, errors, failed), np.concatenate([sent for _, sent in parts])


class TestCompositeModes:
    @pytest.mark.parametrize("cell", sorted(COMPOSITE_CELLS))
    def test_certified_modes_agree_with_a_tight_adaptive_reference(self, cell):
        geom, pair, ms, (values, errors, failed), adaptive = composite_modes(cell)
        assert not failed.any() and adaptive.mean() < 0.01
        certified = ms[~adaptive]
        ref = np.concatenate([
            adaptive_modes(certified[i:i + _BLOCK_CAP], geom, pair,
                           QuadratureSpec(integral_rel_tol=1e-14))[0]
            for i in range(0, certified.size, _BLOCK_CAP)])
        assert (np.abs(values[~adaptive] - ref) <= 1e-13 * np.abs(ref)).all()
        assert (errors <= 1e-12 * values).all()

    def test_rejected_modes_take_the_adaptive_value(self):
        # the first modes at 0.1 um and 4 mK lie below the floor of the
        # pressure's A-scaled panels, the next ones above it
        geom, pair = Geometry(0.1, 4e-3), (AU, AU)
        ms = np.arange(1, 9)
        (values, errors, _), adaptive = block(ms, geom, pair)
        assert np.array_equal(adaptive, ms * reduced_temperature(geom) < _SCALED[False][0])
        assert adaptive.any() and not adaptive.all()
        for m, value, error in zip(ms[adaptive], values[adaptive], errors[adaptive]):
            assert (value, error) == adaptive_mode(m, geom, pair)

    @pytest.mark.parametrize("a_um,T_K,pair,ms", [
        (1.0, 1.0, (AU, CU), [1, 2, 300, 728]),
        (2.0, 300.0, (AU, IdealMetal()), [1]),
        (0.4, 3.0, (TAB, AU), [1, 2, 607]),
    ], ids=["cold-dissimilar", "warm-drude-ideal", "tabulated"])
    def test_matsubara_term_equals_the_sums_term(self, a_um, T_K, pair, ms):
        geom = Geometry(a_um, T_K)
        ms = np.array(ms)
        assert (ms * reduced_temperature(geom) < LOW_A).all()
        (values, _, _), adaptive = block(ms, geom, pair)
        assert not adaptive.all()  # the rule pairs' own values, and fallbacks
        terms = casimir_pressure(geom, *pair).terms_mPa
        si = pressure_to_si(1.0, geom)
        for m, value in zip(ms.tolist(), values.tolist()):
            direct = -matsubara_term(m, geom, *pair) * si
            assert direct == -value * si
            if m <= _BLOCK_CAP or pair[0] is TAB:  # integrated; else a certified interpolant's
                assert terms[m - 1] == direct
            else:
                assert abs(terms[m - 1] - direct) <= 1e-13 * abs(direct)

    @pytest.mark.parametrize("a_um,T_K,pair,free,share,nodes", [
        (0.16, 1.0, (AU, AU), False, 0.0, 7),
        (2.0, 300.0, (AU, IdealMetal()), False, 0.0, None),
        (0.16, 1.0, (AU, AU), True, 0.0005, 6),
    ], ids=["cold", "warm", "cold-free-energy"])
    def test_few_modes_reach_the_adaptive_quadrature(self, a_um, T_K, pair, free, share, nodes,
                                                      monkeypatch):
        # counted, not timed: a sum sends the modes its fixed rules miss,
        # and takes few kernel nodes per term, since past mode 128 it
        # integrates the samples of its interpolants and the panel holding
        # the stop (measured: 6.33 nodes per term for the cold pressure,
        # 5.51 for the free energy, with 5,617 and 3,538 modes integrated
        # for 21,461 and 19,408 terms).  The cold pressure sends none, its
        # first modes taking the A-scaled panels; the free energy sends one
        # sample that the Laguerre 16/12 rung misses, of the 4,555 modes
        # below A = 2
        kernel_nodes = []

        def kernel(y, work, free_energy, kinds, A, *eps):
            kernel_nodes.append(y.size)
            return _mode_kernel(y, work, free_energy, kinds, A, *eps)
        monkeypatch.setattr("casimir.lifshitz._mode_kernel", kernel)
        geom = Geometry(a_um, T_K)
        with adaptive_calls() as sent:  # one call per mode
            res = (free_energy if free else casimir_pressure)(geom, *pair)
        assert sent or not share  # the spy sees the sum's fallback rows
        below = int((np.arange(1, res.n_terms_used + 1) * reduced_temperature(geom)
                     < LOW_A).sum())
        assert below >= 1
        if share:
            assert len(sent) < share * below
        else:
            assert len(sent) == 0
        if nodes:
            assert sum(kernel_nodes) < nodes * res.n_terms_used

ROBUST_MODELS = {"Au": AU, "Cu": CU, "Al": DrudeModel(DB.get("Al")), "ideal": IdealMetal(),
                 "vacuum": Vacuum(), "tabulated": TAB}


class TestRobustness:
    @settings(max_examples=150, deadline=None)
    @given(a_um=st.floats(math.log(0.05), math.log(1000.0)).map(math.exp),
           T_K=st.floats(0.0, math.log(1000.0)).map(math.exp),
           side1=st.sampled_from(sorted(ROBUST_MODELS)),
           side3=st.sampled_from(sorted(ROBUST_MODELS)))
    def test_converges_or_raises_a_typed_error(self, a_um, T_K, side1, side3):
        spec = QuadratureSpec(max_terms=2000)
        try:
            res = casimir_pressure(Geometry(a_um, T_K), ROBUST_MODELS[side1],
                                   ROBUST_MODELS[side3], spec)
        except (SumConvergenceError, QuadratureError):
            return
        assert res.converged
        assert math.isfinite(res.pressure_mPa) and math.isfinite(res.zero_mode_mPa)
        assert np.isfinite(res.terms_mPa).all()
        assert res.n_terms_used <= 2000

    @settings(max_examples=40, deadline=None)
    @given(a_um=st.floats(math.log(0.05), math.log(1000.0)).map(math.exp),
           T_K=st.floats(0.0, math.log(1000.0)).map(math.exp),
           table=st.sampled_from(sorted(NEAR_TABLES)),
           other=st.sampled_from(["Au", "Cu", "same"]))
    @example(a_um=1.0969, T_K=18.62, table="near-vacuum", other="Au")
    @example(a_um=11.5555, T_K=1.21, table="near-vacuum", other="Au")
    @example(a_um=0.161, T_K=12.045, table="falls-to-one", other="Au")
    @example(a_um=0.8691, T_K=1.964, table="falls-to-one", other="Au")
    def test_near_vacuum_tables_converge(self, a_um, T_K, table, other):
        model = NEAR_TABLES[table]
        res = casimir_pressure(Geometry(a_um, T_K), model,
                               model if other == "same" else ROBUST_MODELS[other],
                               QuadratureSpec(max_terms=2000))
        assert res.converged
        assert np.isfinite(res.terms_mPa).all()


def unit_reflection_bound(A, free_energy):
    """Bound on |t_m| at A = m*gamma from x <= e^{-2y}: e^{-2A}(A^2 + A + 1/2)
    / (1 - e^{-2A}) for the pressure, e^{-2A}(A + 1/2) / (1 - e^{-2A}) for
    the free energy."""
    poly = A + 0.5 if free_energy else A * A + A + 0.5
    return math.exp(-2.0 * A) * poly / -math.expm1(-2.0 * A)


BOUND_PAIRS = {"equal": (AU, AU), "unequal": (AU, CU), "drude-ideal": (AU, IdealMetal()),
               "ideal-ideal": (IdealMetal(), IdealMetal()), "tabulated": (TAB, CU),
               "near-vacuum": (NEAR_VACUUM, AU),
               "bloch-gruneisen": (DrudeModel(DB.get("Au"), BlochGruneisenParams()), CU)}


class TestReducedTemperatureLimit:
    # below _GAMMA_MIN the kernel's (y/gamma)^2 and eps*y/gamma once
    # overflowed (from gamma ~ 3e-153) and the sum would need ~10/gamma terms
    @pytest.mark.parametrize("a_um", [1e-3, 1.0, 1e3, 1e9])
    @pytest.mark.parametrize("pair", sorted(BOUND_PAIRS) + ["vacuum"])
    def test_refused_below_and_typed_above(self, pair, a_um):
        T_K = _GAMMA_MIN * CODATA.hbar_c_eV_um / (a_um * matsubara_frequency(1, 1.0))
        with pytest.raises(ValueError, match=rf"^a={a_um} um, T=.* K: a\*T too small"):
            Geometry(a_um, T_K * 0.999)
        geom = Geometry(a_um, T_K * 1.001)
        sides = (Vacuum(), AU) if pair == "vacuum" else BOUND_PAIRS[pair]
        raised = {"vacuum": None, "bloch-gruneisen": NuRangeError}.get(pair, SumConvergenceError)
        for evaluate in EVALUATE.values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if raised is None:
                    assert evaluate(geom, *sides, QuadratureSpec(max_terms=20)).n_terms_used == 0
                    continue
                with pytest.raises(raised):
                    evaluate(geom, *sides, QuadratureSpec(max_terms=20))


class Above(DrudeModel):
    """Au Drude permittivity, replaced by ``value`` above ``zeta_eV`` for each
    (zeta_eV, value) of ``steps`` in turn, declared analytic as NanAbove is."""

    analytic = True

    def __init__(self, *steps):
        super().__init__(DB.get("Au"))
        self.steps = steps

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        for zeta, value in self.steps:
            eps = np.where(np.asarray(zeta_eV) > zeta, value, eps)
        return eps

    def __repr__(self):
        return "Above"


# (a_um, T_K, pair, free_energy, sum_rel_tol or None for the default)
SCHEDULE_CELLS = {
    "warm-equal": (1.0, 300.0, (AU, AU), False, None),
    "warm-unequal": (0.2, 350.0, (AU, CU), False, None),
    # the bound puts modes 4 and 5, and 2 to 5, below the first block's floor,
    # but not mode 1: each sum integrates its whole first block
    "five-terms": (10.0, 300.0, (AU, CU), False, None),
    "one-mode": (20.0, 300.0, (AU, CU), False, None),
    "drude-ideal": (1.0, 300.0, (AU, IdealMetal()), False, None),
    "ideal-ideal": (2.0, 77.0, (IdealMetal(), IdealMetal()), False, None),
    "mixed-ideal": (1.0, 30.0, (IdealBelow(DB.get("Au"), 0.02), AU), False, None),
    "cold-two-blocks": (1.3, 20.0, (AU, CU), False, None),
    "cold-four-blocks": (2.5, 4.0, (AU, CU), False, None),
    # gamma = 1.1e-3: modes 1 and 2 take the A-scaled panels of 10 and 9
    # breaks in the first block; a tabulated side is never interpolated
    "scaled-first": (0.2, 2.0, (TAB, AU), False, None),
    "free-warm": (1.0, 300.0, (AU, CU), True, 1e-10),
    "free-mixed-ideal": (1.0, 30.0, (IdealBelow(DB.get("Au"), 0.02), AU), True, None),
    "free-cold": (0.7, 8.0, (AU, CU), True, 1e-10),
    # ideal above mode 130: the terms after the first block fall slower than
    # the last one, so the rescaled bound ends the second block early
    "rising-reflection": (1.3, 20.0, (Above((matsubara_frequency(130, 20.0), 1e30)), CU), False,
                          None),
}


def schedule_sum(cell):
    """(total, terms, n_terms_used) of one SCHEDULE_CELLS sum."""
    a_um, T_K, pair, free, sum_rel_tol = SCHEDULE_CELLS[cell]
    spec = QuadratureSpec() if sum_rel_tol is None else QuadratureSpec(sum_rel_tol=sum_rel_tol)
    if free:
        res = free_energy(Geometry(a_um, T_K), *pair, spec)
        return res.free_energy_J_per_m2, res.terms_J_per_m2, res.n_terms_used
    res = casimir_pressure(Geometry(a_um, T_K), *pair, spec)
    return res.pressure_mPa, res.terms_mPa, res.n_terms_used


def bound_stop(cell):
    """First m >= min_terms at which the unit-reflection bound meets the stop
    rule against the static term alone: bound(m*gamma) * max(1, r/(1-r))
    <= sum_rel_tol * zeta(3)/8."""
    a_um, T_K, _, free, sum_rel_tol = SCHEDULE_CELLS[cell]
    spec = QuadratureSpec() if sum_rel_tol is None else QuadratureSpec(sum_rel_tol=sum_rel_tol)
    gamma = reduced_temperature(Geometry(a_um, T_K))
    grow = max(1.0, math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma))
    m = spec.min_terms
    while unit_reflection_bound(m * gamma, free) * grow > spec.sum_rel_tol * zeta3() / 8.0:
        m += 1
    return m


class TestBlockSchedule:
    @settings(max_examples=80, deadline=None)
    @given(gamma=st.floats(math.log(1e-4), math.log(50.0)).map(math.exp),
           T_K=st.floats(0.0, math.log(400.0)).map(math.exp),
           pair=st.sampled_from(sorted(BOUND_PAIRS)), free=st.booleans())
    def test_unit_reflection_bound_holds(self, gamma, T_K, pair, free):
        geom = Geometry(gamma * CODATA.hbar_c_eV_um / matsubara_frequency(1, T_K), T_K)
        gamma = reduced_temperature(geom)
        lowers = np.array([gamma, 0.01, 0.1, 0.35, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 30.0])
        ms = np.unique(modes_at(geom, lowers))
        pair = tuple(model.at(T_K) for model in BOUND_PAIRS[pair])
        (values, _, failed), _ = block(ms, geom, pair, free_energy=free)
        assert not failed.all()
        for m, value, bad in zip(ms.tolist(), values.tolist(), failed.tolist()):
            bound = unit_reflection_bound(m * gamma, free)
            assert math.exp(_log_bound(m * gamma, free)) == pytest.approx(bound, rel=1e-12)
            assert bad or abs(value) <= bound * (1.0 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(first=st.integers(1, 5000),
           gamma=st.floats(math.log(1e-4), math.log(50.0)).map(math.exp),
           log_target=st.floats(-60.0, 2.0), free=st.booleans(),
           min_terms=st.sampled_from([1, 5, 200]),
           cap=st.sampled_from([_BLOCK_CAP, 1000, 30_000]))
    def test_size_reaches_the_first_mode_within_the_bound(self, first, gamma, log_target, free,
                                                          min_terms, cap):
        m = max(first, min_terms)  # the reference: walk the modes one by one
        while m < first + cap and _log_bound(m * gamma, free) > log_target:
            m += 1
        end = _bound_end(max(first, min_terms), first + cap - 1, gamma, log_target, free)
        assert end - first + 1 == min(m - first + 1, cap)

    @settings(max_examples=300, deadline=None)
    @given(low=st.integers(1, 2000),
           width=st.floats(0.0, math.log(300_000)).map(lambda u: int(math.exp(u))),
           gamma=st.floats(math.log(1e-8), math.log(1e3)).map(math.exp),
           at=st.floats(0.0, 1.0), free=st.booleans())
    @example(low=200, width=0, gamma=0.1, at=0.5, free=False)  # brackets no wider than a mode
    @example(low=200, width=-72, gamma=0.1, at=0.5, free=True)
    def test_bound_end_is_where_a_bisection_ends(self, low, width, gamma, at, free):
        # targets the bound meets inside the bracket: the first mode within
        # the bound, or the bracket's end if none is
        high = low + width
        log_target = _log_bound((low + at * width) * gamma, free)
        m = _bound_end(low, high, gamma, log_target, free)
        if low >= high:
            assert m == min(low, high)
            return
        assert low <= m <= high
        assert m == high or _log_bound(m * gamma, free) <= log_target
        assert m == low or _log_bound((m - 1) * gamma, free) > log_target

    @settings(max_examples=500, deadline=None)
    @given(gamma=st.floats(math.log(1e-140), math.log(1e12)).map(math.exp),
           m=st.integers(1, 200_000), free=st.booleans())
    def test_the_bound_never_rises_with_a(self, gamma, m, free):
        # what a bisection of the bound, and the stop of every block, rest on
        assert _log_bound((m + 1) * gamma, free) <= _log_bound(m * gamma, free)

    @pytest.mark.parametrize("size", [1, 7, _BLOCK_CAP])
    @pytest.mark.parametrize("cell", sorted(SCHEDULE_CELLS))
    def test_block_sizes_do_not_change_results(self, cell, size, monkeypatch):
        total, terms, n_terms = schedule_sum(cell)
        blocks_of_at_most(size, monkeypatch)
        other_total, other_terms, other_n_terms = schedule_sum(cell)
        assert other_total == total and other_n_terms == n_terms
        assert same_bits(other_terms, terms)

    @pytest.mark.parametrize("cell", sorted(SCHEDULE_CELLS))
    def test_blocks_end_where_the_bound_says(self, cell, monkeypatch):
        # the first block holds at most _BLOCK_CAP modes; a later one as many
        # as the workspace holds nodes for at its first mode's rule, or up to
        # where the bound, rescaled through the last term, meets the target
        # against the sum so far
        blocks = []  # (size, lower limit of the first mode, workspace nodes, values)

        def counted(lower, *args):
            capacity = args[-1].size
            out = _mode_block(lower, *args)
            blocks.append((lower.size, float(lower[0]), capacity, out[0]))
            return out
        monkeypatch.setattr("casimir.lifshitz._mode_block", counted)
        _, _, n_terms = schedule_sum(cell)
        stop, sizes = bound_stop(cell), [size for size, *_ in blocks]
        _, _, _, free, tol = SCHEDULE_CELLS[cell]
        spec = QuadratureSpec() if tol is None else QuadratureSpec(sum_rel_tol=tol)
        assert n_terms <= sum(sizes) <= stop
        gamma = blocks[0][1]
        log_tol = math.log(spec.sum_rel_tol) - math.log(
            max(1.0, math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma)))
        summed = [-zeta3() / 8.0 if free else zeta3() / 8.0]
        for i, (size, A, capacity, values) in enumerate(blocks[:-1]):
            if i == 0:
                assert size == _BLOCK_CAP
            else:
                first, last = len(summed), summed[-1]
                cap = capacity // ladder_nodes(A, free)
                shift = max(0.0, _log_bound((first - 1) * gamma, free) - math.log(abs(last)))
                target = log_tol + math.log(abs(math.fsum(summed))) + shift
                end = _bound_end(max(first, spec.min_terms), first + cap - 1, gamma, target, free)
                assert size == cap or size == end - first + 1 < cap
            summed += values.tolist()
        if stop <= _BLOCK_CAP:
            assert sizes == [stop]
        if n_terms <= _BLOCK_CAP:
            assert len(sizes) == 1

    @pytest.mark.parametrize("cell", ["cold-two-blocks", "cold-four-blocks", "free-cold"])
    def test_workspace_does_not_grow_after_the_first_block(self, cell, monkeypatch):
        sizes, grow = [], _Workspace.arrays  # per block, the nodes after each kernel call

        def arrays(self, shape):
            out = grow(self, shape)
            sizes[-1].append(self.size)
            return out

        def counted(lower, *args):
            sizes.append([])
            return _mode_block(lower, *args)
        monkeypatch.setattr("casimir.lifshitz._Workspace.arrays", arrays)
        monkeypatch.setattr("casimir.lifshitz._mode_block", counted)
        schedule_sum(cell)
        assert len(sizes) > 1 and all(sizes)
        assert {size for block in sizes[1:] for size in block} == {sizes[0][-1]}

    @pytest.mark.parametrize("n", [4097, 13816, 23341])
    def test_a_large_workspace_starts_on_a_cache_line(self, n):
        # vector stores that split 64-byte lines slowed long kernel calls by
        # up to a quarter; the size stays the nodes asked for
        work = _Workspace()
        arrays = work.arrays((n, 1))
        assert arrays.shape == (8, n, 1) and arrays.ctypes.data % 64 == 0
        assert work.size == n and np.shares_memory(arrays, work.floats)
        assert work.arrays((n - 1, 1)).ctypes.data == arrays.ctypes.data and work.size == n

    @pytest.mark.parametrize("cell", ["cold-four-blocks", "free-cold"])
    def test_later_blocks_take_fewer_kernel_calls(self, cell, monkeypatch):
        calls = []

        def kernel(y, *args):
            calls.append(y.size)
            return _mode_kernel(y, *args)
        monkeypatch.setattr("casimir.lifshitz._mode_kernel", kernel)
        _, _, n_terms = schedule_sum(cell)
        # blocks of _BLOCK_CAP modes would take at least one call per 128 terms
        assert 1 < len(calls) < math.ceil(n_terms / _BLOCK_CAP)


def ladder_nodes(A, free_energy):
    """Kernel nodes of the rule pair a mode at A takes: its rung's, or the
    A-scaled pair's 20 per panel and 20 for the tail, with k breaks A*2^j
    below 1 and the breaks 1, 2 and 4: 20k + 80."""
    floor, cut = _SCALED[free_energy]
    assert A >= floor
    for low, (offsets, _) in reversed(_RUNGS):
        if A >= low >= cut:
            return offsets.size
    return 20 * sum(1 for j in range(64) if A * 2.0 ** j < 1.0) + 80


def blocks_of_at_most(size, monkeypatch, max_terms=QuadratureSpec().max_terms):
    """End the sums' later blocks at most ``size`` modes from the first mode
    the stop rule may end them at.  The first block, which ends at mode
    _BLOCK_CAP at the latest and sets how far the plan reaches, and the
    ends of the plan and of the panels, at ``max_terms`` at the latest,
    stay as they are."""
    keep = (_BLOCK_CAP, max_terms)

    def bound_end(low, high, *args):
        end = _bound_end(low, high, *args)
        return end if high in keep else min(end, low + size - 1)
    monkeypatch.setattr("casimir.lifshitz._bound_end", bound_end)


@contextlib.contextmanager
def plans_and_blocks():
    """Record in order each _plan's Matsubara indices and lower limits and
    each block's lower limits."""
    events = []

    def planned(ms, *args):
        out = _plan(ms, *args)
        events.append((ms, out[0]))
        return out

    def counted(lower, *args):
        events.append((None, lower))
        return _mode_block(lower, *args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("casimir.lifshitz._plan", planned)
        patch.setattr("casimir.lifshitz._mode_block", counted)
        yield events


@contextlib.contextmanager
def certified_panels():
    """Record each _certify call of a sum as (the panels it was given, the
    last mode of each panel it certified by first mode)."""
    calls = []

    def spy(panels, *args):
        out = yield from _certify(panels, *args)
        calls.append((list(panels), {lo: hi for lo, (hi, c) in out.items() if c is not None}))
        return out
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("casimir.chebyshev._certify", spy)
        yield calls


def block_firsts(evaluate, geom, pair):
    """The first mode of each block of a sum, then one past its last block."""
    with plans_and_blocks() as events:
        evaluate(geom, *pair)
    return np.cumsum([1, *blocks_in_plans(events)[1]])


def blocks_in_plans(events):
    """(plans as (first, last) mode, block sizes) of a recorded sum.  Asserts
    that the blocks take the modes 1, 2, ... in turn, each a slice of the
    last plan made before it, and that a plan starts at its block's mode.
    The Chebyshev samples of a sum (non-integer modes) and their blocks are
    skipped, and the modes a sum takes from certified interpolants, which
    make no block, count as one block where the next plan or block starts
    past them."""
    first, plans, sizes = 1, [], []
    for ms, lower in events:
        if ms is not None and (ms != np.round(ms)).any() or ms is None and not np.shares_memory(
                lower, planned):  # samples: their plan, their block (a copy of some of it)
            continue
        if ms is not None:
            if ms[0] > first:
                sizes.append(int(ms[0]) - first)
                first = int(ms[0])
            assert ms[0] == first and np.array_equal(ms, np.arange(first, first + ms.size))
            plans.append((first, int(ms[-1])))
            planned = lower
            continue
        i = first - plans[-1][0]
        if planned[i] < lower[0]:
            skip = int(planned.searchsorted(lower[0])) - i
            sizes.append(skip)
            first, i = first + skip, i + skip
        assert 0 <= i and i + lower.size <= planned.size
        assert np.shares_memory(lower, planned) and same_bits(lower, planned[i:i + lower.size])
        first += lower.size
        sizes.append(lower.size)
    return plans, sizes


def outcome(evaluate, geom, pair, spec=None):
    """The bytes of every field of a sum's result, or the type and message
    of its error with the partial result if it carries one."""
    def fields(res):
        return {name: np.asarray(value).tobytes() for name, value in vars(res).items()}
    try:
        return fields(evaluate(geom, *pair, spec))
    except SumConvergenceError as exc:
        return type(exc), str(exc), fields(exc.partial)
    except (QuadratureError, ValueError) as exc:
        return type(exc), str(exc)


EVALUATE = {"pressure": casimir_pressure, "free-energy": free_energy}


class TestPlans:
    @settings(max_examples=60, deadline=None)
    @given(a_um=st.floats(math.log(0.05), math.log(100.0)).map(math.exp),
           T_K=st.floats(math.log(0.5), math.log(400.0)).map(math.exp),
           pair=st.sampled_from(sorted(BOUND_PAIRS)), what=st.sampled_from(sorted(EVALUATE)),
           min_terms=st.sampled_from([1, 5, 200]), extra=st.integers(0, 400))
    def test_no_block_reads_past_its_plan(self, a_um, T_K, pair, what, min_terms, extra):
        # one plan covers the sum, up to max_terms: a block that starts later
        # ends no further than the first.  A sum whose every mode lies below
        # the first block's floor plans none
        args = (EVALUATE[what], Geometry(a_um, T_K), BOUND_PAIRS[pair],
                QuadratureSpec(min_terms=min_terms, max_terms=min_terms + extra))
        with plans_and_blocks() as events:
            ref = outcome(*args)
        plans, sizes = blocks_in_plans(events)
        if not sizes:
            assert not plans and isinstance(ref, dict)
            return
        assert len(plans) == 1 and plans[0][1] <= min_terms + extra

    @pytest.mark.parametrize("chunk", ["largest-block", "ragged"])
    @pytest.mark.parametrize("cell", sorted(SCHEDULE_CELLS) + ["tiny-gamma"])
    def test_one_plan_gives_the_same_bits(self, cell, chunk, monkeypatch):
        # the first block plans every mode up to where the bound stops the
        # sum against the static term, or max_terms; later blocks cut to the
        # largest block keep the schedule, cut to 72 modes they end at other
        # modes, and either way read slices of that one plan with the same bits
        if cell == "tiny-gamma":  # the bound never stops this sum
            spec = QuadratureSpec(max_terms=700)
            args, stop = (casimir_pressure, Geometry(1.0, 1e-20), (AU, AU), spec), 700
        else:
            a_um, T_K, pair, free, tol = SCHEDULE_CELLS[cell]
            spec = QuadratureSpec() if tol is None else QuadratureSpec(sum_rel_tol=tol)
            args = (free_energy if free else casimir_pressure, Geometry(a_um, T_K), pair, spec)
            stop = bound_stop(cell)
        with plans_and_blocks() as events:
            ref = outcome(*args)
        plans, sizes = blocks_in_plans(events)
        assert plans == [(1, stop)]
        blocks_of_at_most(max(sizes) if chunk == "largest-block" else 72, monkeypatch,
                          spec.max_terms)
        with plans_and_blocks() as events:
            assert outcome(*args) == ref
        chunked, chunked_sizes = blocks_in_plans(events)
        assert chunked == plans
        if chunk == "largest-block":
            assert chunked_sizes == sizes

    def test_a_tabulated_model_as_both_sides_is_evaluated_once_per_plan(self, monkeypatch):
        # with a Bloch-Grueneisen continuation at(T) is a copy, one per T;
        # passed as both sides, the model is one side
        from casimir import lifshitz

        def tab():
            return TabulatedModel(TAB.table, low_freq=DrudeModel(DB.get("Au"),
                                                                 BlochGruneisenParams()))
        model, geom = tab(), Geometry(0.5, 300.0)
        assert model.at(geom.T_K) is model.at(geom.T_K) is not model
        calls, plans, epsilon = [], [], TabulatedModel.epsilon
        monkeypatch.setattr(TabulatedModel, "epsilon",
                            lambda self, zeta: calls.append(self) or epsilon(self, zeta))
        monkeypatch.setattr(lifshitz, "_plan", lambda ms, *args: plans.append(ms) or _plan(ms, *args))
        res = casimir_pressure(geom, model, model)
        assert len(plans) == len(calls) == 1
        matsubara_term(3, geom, model, model)
        assert len(plans) == len(calls) == 2
        other = casimir_pressure(geom, model, tab())  # two objects: two sides, then one
        assert len(plans) == 3 and len(calls) == 4
        assert all(same_bits(np.asarray(value), np.asarray(vars(other)[name]))
                   for name, value in vars(res).items())

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_epsilon_below_one_inside_the_sum_raises(self, what):
        # below 1 from a mode of the second block on: the first block passes
        geom = Geometry(1.3, 20.0)
        with plans_and_blocks() as events:
            EVALUATE[what](geom, AU, AU)
        (plan,), sizes = blocks_in_plans(events)
        assert len(sizes) > 1
        m = sizes[0] + 3
        zeta = matsubara_frequency(1, geom.T_K)
        bad = Above((zeta * (m - 0.5), 0.5))
        with pytest.raises(ValueError, match=rf"^Above: epsilon = 0.5 < 1 at zeta = "
                                             rf"{zeta * m:.6g} eV$"):
            EVALUATE[what](geom, bad, AU)

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_epsilon_that_overflows_past_ideal_modes_raises(self, what):
        # inf at the first modes is an ideal metal's; every finite eps of
        # the block, not the first mode's alone, is checked against the reach
        geom = Geometry(1.3, 20.0)
        zeta = matsubara_frequency(1, geom.T_K)
        with pytest.raises(ValueError, match=rf"^Above: epsilon = 1e\+308 at zeta = "
                                             rf"{zeta * 3:.6g} eV overflows the reflections$"):
            EVALUATE[what](geom, Above((0.0, np.inf), (zeta * 2.5, 1e308)), AU)
        # a mixed side with ordinary finite modes is not rejected
        res = EVALUATE[what](geom, Above((0.0, np.inf), (zeta * 2.5, 20.0)), AU)
        assert res.converged

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_each_mode_is_checked_at_its_own_lower_limit(self, what):
        # at gamma 24.7 the modes take the last rung, whose farthest node lies
        # 18.5 past A: the largest float over 1.6 overflows at mode 1's, 1 +
        # reach/A = 1.75 times eps, but not at mode 2's, 1.38 times
        geom = Geometry(30.0, 300.0)
        zeta = matsubara_frequency(1, geom.T_K)
        big = np.finfo(float).max / 1.6
        with pytest.raises(ValueError, match=rf"^Above: epsilon = 1.12356e\+308 at zeta = "
                                             rf"{zeta:.6g} eV overflows the reflections$"):
            EVALUATE[what](geom, Above((0.0, big)), AU)
        assert EVALUATE[what](geom, Above((0.0, np.inf), (zeta * 1.5, big)), AU).converged

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_each_mode_is_checked_at_its_own_rules_reach(self, what):
        # half the largest float overflows at mode 1 only past the farthest
        # node of another rule, 27.85 past A (2.13 times eps): the sum takes it
        geom = Geometry(30.0, 300.0)
        half = 0.5 * np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert EVALUATE[what](geom, Above((0.0, half)), AU).converged

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_a_mode_for_the_adaptive_quadrature_is_checked_at_y_max(self, what):
        # at integral_rel_tol 1e-30 no pair certifies mode 1, and the adaptive
        # quadrature reaches y_max = A + 39.5, where eps = max/2.2 overflows
        # (2.6 times eps), though at the rung's nodes (1.75 times) it did not
        geom, spec = Geometry(30.0, 300.0), QuadratureSpec(integral_rel_tol=1e-30)
        zeta = matsubara_frequency(1, geom.T_K)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"^Above: epsilon = 8.17133e\+307 at zeta = "
                                                 rf"{zeta:.6g} eV overflows the reflections$"):
                EVALUATE[what](geom, Above((0.0, np.finfo(float).max / 2.2)), AU, spec)

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_epsilon_below_one_past_the_last_block_is_not_read(self, what):
        # the plan reaches modes no block integrates; eps below 1 there
        # changes nothing
        geom = Geometry(1.3, 20.0)
        with plans_and_blocks() as events:
            ref = outcome(EVALUATE[what], geom, (AU, CU))
        ((_, last),), sizes = blocks_in_plans(events)
        assert sum(sizes) < last
        bad = Above((matsubara_frequency(1, geom.T_K) * (sum(sizes) + 0.5), 0.5))
        assert outcome(EVALUATE[what], geom, (bad, CU)) == ref

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_overflow_past_the_last_block_is_not_read(self, what):
        # eps that overflows the reflections only at planned modes no block
        # integrates changes nothing either
        geom = Geometry(1.3, 20.0)
        with plans_and_blocks() as events:
            ref = outcome(EVALUATE[what], geom, (AU, CU))
        ((_, last),), sizes = blocks_in_plans(events)
        assert sum(sizes) < last
        huge = Above((matsubara_frequency(1, geom.T_K) * (sum(sizes) + 0.5), 1e308))
        assert outcome(EVALUATE[what], geom, (huge, CU)) == ref

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_nan_inside_the_sum_fails_to_certify(self, what):
        # NaN from a mode of the second block on; below 1 a few modes later,
        # in the same block, still raises ValueError behind the NaN
        geom = Geometry(1.3, 20.0)
        with plans_and_blocks() as events:
            EVALUATE[what](geom, AU, AU)
        _, sizes = blocks_in_plans(events)
        m, zeta = sizes[0] + 3, matsubara_frequency(1, geom.T_K)
        with pytest.raises(QuadratureError, match=rf"^mode integral m={m} not certified"):
            EVALUATE[what](geom, Above((zeta * (m - 0.5), np.nan)), CU)
        with pytest.raises(ValueError, match=rf"^Above: epsilon = 0.5 < 1 at zeta = "
                                             rf"{zeta * (m + 2):.6g} eV$"):
            EVALUATE[what](geom, Above((zeta * (m - 0.5), np.nan), (zeta * (m + 1.5), 0.5)), CU)

    def test_a_block_past_the_plan_raises(self, monkeypatch):
        # a later block ending where no bound can end it, past the one plan;
        # a tabulated side makes no Chebyshev panels
        def bound_end(low, high, *args):
            return 10**9 if low > _BLOCK_CAP else _bound_end(low, high, *args)
        monkeypatch.setattr("casimir.lifshitz._bound_end", bound_end)
        with pytest.raises(RuntimeError, match=r"^modes 129-1000000000 reach past the plan's "
                                               r"\d+$"):
            casimir_pressure(Geometry(0.2, 2.0), TAB, AU)

    @pytest.mark.parametrize("evaluate", [casimir_pressure, free_energy, matsubara_term])
    def test_one_permittivity_for_many_modes_raises_type_error(self, evaluate):
        # a model whose epsilon gives one float for an array crashed every
        # sum with an IndexError where it sliced its plan
        class Flat(DrudeModel):
            def epsilon(self, zeta_eV):
                return 2.0

            def __repr__(self):
                return "Flat"
        args = (3,) if evaluate is matsubara_term else ()
        with pytest.raises(TypeError, match=r"^Flat: epsilon gave shape \(\) for zeta of "
                                            r"shape \(\d+,\); it must give one"):
            evaluate(*args, Geometry(1.0, 300.0), AU, Flat(DB.get("Au")))

    def test_the_reach_covers_every_node(self):
        # a block screens eps*y/A at its modes against the farthest node of
        # any rule, A-scaled ones included; the adaptive fallback's nodes are
        # checked at y_max (test_a_mode_for_the_adaptive_quadrature_is_checked_at_y_max)
        scaled = [_scaled_rule(k) for k in range(1, 25)]
        assert _RULE_REACH >= max(float((y0 + 2.0 ** -k * dy).max())
                                  for k, (y0, dy, _, _) in enumerate(scaled, 1))


class TestNegligibleModes:
    # where the unit-reflection bound puts mode 1 below the first block's
    # floor, every mode up to min_terms reads 0 and none is planned, blocked
    # or integrated; any other sum integrates its whole first block

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_a_sum_below_the_floor_makes_no_block(self, what, monkeypatch):
        # Au-Au at 88 um and 300 K: the bound at m = 1 is below the floor
        calls = []
        for name in ("_plan", "_mode_block", "_mode_kernel"):
            monkeypatch.setattr(f"casimir.lifshitz.{name}",
                                lambda *args, name=name: calls.append(name))
        res = EVALUATE[what](Geometry(88.0, 300.0), AU, AU)
        total, static, terms, n_terms, converged = vars(res).values()
        assert calls == []
        assert total.hex() == static.hex()
        assert terms.size == 5 and (terms == 0.0).all()
        # -0.0 for the pressure, whose unit is negative, and +0.0 for the free energy
        assert (np.signbit(terms) == (what == "pressure")).all()
        assert n_terms == 5 and converged

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(math.log(2.0), math.log(500.0)).map(math.exp),
           T_K=st.floats(0.0, math.log(400.0)).map(math.exp),
           pair=st.sampled_from(sorted(BOUND_PAIRS)))
    @example(gamma=8.23, T_K=300.0, pair="unequal")  # modes 4 and 5 lie below the floor
    @example(gamma=72.4, T_K=300.0, pair="ideal-ideal")  # every mode reads 0
    def test_zero_terms_lie_below_the_floor(self, gamma, T_K, pair):
        # a short sum is one block: every term reads 0 if the bound puts mode
        # 1 below the floor, and every term is matsubara_term's otherwise
        geom = Geometry(gamma * CODATA.hbar_c_eV_um / matsubara_frequency(1, T_K), T_K)
        res = casimir_pressure(geom, *BOUND_PAIRS[pair])
        assert res.converged and res.n_terms_used <= _BLOCK_CAP
        blockless = _log_bound(reduced_temperature(geom), False) <= math.log(FIRST_FLOOR)
        si = pressure_to_si(1.0, geom)
        for m, term in enumerate(res.terms_mPa.tolist(), 1):
            direct = matsubara_term(m, geom, *BOUND_PAIRS[pair])
            if blockless:
                assert term == 0.0 and abs(direct) <= FIRST_FLOOR
            else:
                assert term == -direct * si


def direct_sum(evaluate, geom, pair, spec=None):
    """(total, terms, n_terms_used) of the sum ``evaluate`` makes with every
    mode integrated: the block helper over the modes in turn, 512 at a time,
    scanned with the stop rule from the static term as the driver scans."""
    spec, free = spec or QuadratureSpec(), evaluate is free_energy
    pair = tuple(model.at(geom.T_K) for model in pair)
    gamma = reduced_temperature(geom)
    tail = max(1.0, math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma))
    acc, comp, first, done, terms = (-1.0 if free else 1.0) * zeta3() / 8.0, 0.0, 1, False, []
    while not done:
        (values, _, failed), _ = block(np.arange(first, first + 512), geom, pair, spec, free)
        assert not failed.any()
        acc, comp, used, done = _scan_arrays(values, acc, comp, first, spec.min_terms, tail,
                                             spec.sum_rel_tol)
        terms.append(values[:used])
        first += used
    unit = free_energy_to_si(1.0, geom) if free else -pressure_to_si(1.0, geom)
    return (acc + comp) * unit, np.concatenate(terms) * unit, first - 1


def fields(res):
    """(total, terms, n_terms_used) of a result."""
    total, _, terms, n_terms, _ = vars(res).values()
    return total, terms, n_terms


class DipAt(DrudeModel):
    """Au Drude permittivity, but ``value`` at the one Matsubara mode m of T_K,
    declared analytic as NanAbove is."""

    analytic = True

    def __init__(self, m, T_K, value):
        super().__init__(DB.get("Au"))
        self.zeta, self.value = matsubara_frequency(m, T_K), value

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        return np.where(np.isclose(zeta_eV, self.zeta, rtol=1e-12, atol=0.0), self.value, eps)

    def __repr__(self):
        return "DipAt"


INTERPOLATED_PAIRS = {"Au-Au": (AU, AU), "Au-Cu": (AU, CU),
                      "Al-Al": (DrudeModel(DB.get("Al")), DrudeModel(DB.get("Al"))),
                      "drude-ideal": (AU, IdealMetal()),
                      "ideal-ideal": (IdealMetal(), IdealMetal()),
                      "bloch-gruneisen": (DrudeModel(DB.get("Au"), BlochGruneisenParams()), CU)}
# Au-Cu at 1 um and 2 K stops at m = 2003, in the last of the panels 129-256,
# 257-512, 513-1024 and 1025-2171
COLD = Geometry(1.0, 2.0)
# The sums a change to the mode sum must leave bit for bit: their totals
# (hex), term counts and the first 16 hex digits of the SHA-256 of their
# terms' bytes, from before the sums interpolated.  None of them does: they
# stop within 128 terms or within _PANEL_MIN modes past mode 128, or they
# have a tabulated side.
UNCHANGED_SUMS = {
    "warm": ("pressure", 0.85, 300.0, "Au-Cu", None, "-0x1.e565d197888d0p+0", 16,
             "ba0b04ef16c15167"),
    "two-blocks": ("pressure", 1.3, 20.0, "Au-Cu", None, "-0x1.a035b617d75e7p-2", 156,
                   "eb4762b375e34a54"),
    "free-cold": ("free-energy", 0.7, 8.0, "Au-Cu", 1e-10, "-0x1.2e67725486a58p-30", 785,
                  "3b3ad00e77f5e66d"),
    "below-the-span": ("pressure", 1.0, 4.0, "Au-Cu", None, "-0x1.2440438ad758fp+0", 1002,
                       "a4f5c0fea119e595"),
    "tabulated": ("pressure", 0.5, 2.0, "tabulated-Cu", None, "-0x1.0cd51242a5f7ap+4", 3890,
                  "c11d7d098601cdd7"),
    "tabulated-free": ("free-energy", 0.5, 2.0, "tabulated-Cu", None, "-0x1.9392e22ff9673p-29",
                       3524, "5aa77c601e677c0b"),
}


class TestInterpolation:
    # past mode 128 a long sum of two analytic sides takes its terms from
    # certified Chebyshev interpolants in m; they must meet the mode
    # integrals as a sum that integrates every mode sees them, wherever the
    # panels end: at the bound's stop, or laid to 0.85 or 1.15 times it
    @pytest.mark.parametrize("end", [1.0, 0.85, 1.15])
    @pytest.mark.parametrize("what", sorted(EVALUATE))
    @pytest.mark.parametrize("pair", sorted(INTERPOLATED_PAIRS))
    def test_terms_meet_an_all_direct_sum(self, pair, what, end, monkeypatch):
        from casimir import chebyshev

        panels_to = chebyshev._panels
        monkeypatch.setattr(chebyshev, "_panels", lambda start, stop, gamma: panels_to(
            start, round(end * stop), gamma))
        geom = Geometry(0.5, 2.0)
        with certified_panels() as panels:
            total, terms, n_terms = fields(EVALUATE[what](geom, *INTERPOLATED_PAIRS[pair]))
        (asked, got), = panels
        assert len(asked) >= 4 and sorted(got) == [lo for lo, _ in asked]
        ref_total, ref_terms, ref_n_terms = direct_sum(EVALUATE[what], geom,
                                                       INTERPOLATED_PAIRS[pair])
        assert n_terms == ref_n_terms > _BLOCK_CAP + _PANEL_MIN
        assert same_bits(terms[:_BLOCK_CAP], ref_terms[:_BLOCK_CAP])
        assert (np.abs(terms - ref_terms) <= 1e-13 * np.abs(ref_terms)).all()
        assert abs(total - ref_total) <= 1e-14 * abs(ref_total)

    @pytest.mark.parametrize("cell", sorted(UNCHANGED_SUMS))
    def test_sums_that_do_not_interpolate_keep_their_bits(self, cell):
        what, a_um, T_K, pair, tol, total, n_terms, digest = UNCHANGED_SUMS[cell]
        pair = {"Au-Cu": (AU, CU), "tabulated-Cu": (TAB, CU)}[pair]
        spec = QuadratureSpec() if tol is None else QuadratureSpec(sum_rel_tol=tol)
        with certified_panels() as panels:  # no samples taken
            got = fields(EVALUATE[what](Geometry(a_um, T_K), *pair, spec))
        assert not panels
        assert (got[0].hex(), got[2]) == (total, n_terms)
        assert hashlib.sha256(got[1].tobytes()).hexdigest()[:16] == digest

    def test_nan_past_the_stop_moves_no_bit(self):
        # TestScan's failure past the stop, for the free energy: the NaN from
        # the mode after the stop on meets the samples of the panel that
        # holds the stop and of those after it, but that panel is integrated
        # anyway, and the panels before it keep their samples
        with certified_panels() as panels:
            ref = free_energy(COLD, AU, CU)
        (asked, got), = panels
        n = ref.n_terms_used
        assert sum(hi < n for hi in got.values()) >= 4 and asked[-1][1] > n
        broken = NanAbove(DB.get("Au"), matsubara_frequency(n, COLD.T_K) * 1.0001)
        with certified_panels() as panels:
            res = free_energy(COLD, broken, CU)
        (_, got_broken), = panels
        assert got_broken == {lo: hi for lo, hi in got.items() if hi < n}
        assert all(same_bits(np.asarray(value), np.asarray(vars(res)[name]))
                   for name, value in vars(ref).items())

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_nan_before_the_stop_inside_a_panel_raises(self, what):
        broken = NanAbove(DB.get("Au"), matsubara_frequency(1499, COLD.T_K) * 1.0001)
        with pytest.raises(QuadratureError, match=r"^mode integral m=1500 not certified"):
            EVALUATE[what](COLD, broken, CU)

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_epsilon_below_one_inside_a_panel_raises(self, what):
        zeta = matsubara_frequency(1, COLD.T_K)
        with pytest.raises(ValueError, match=rf"^Above: epsilon = 0.9 < 1 at zeta = "
                                             rf"{zeta * 1500:.6g} eV$"):
            EVALUATE[what](COLD, Above((zeta * 1499.5, 0.9)), CU)

    @pytest.mark.parametrize("value,error,message", [
        (0.9, ValueError, "DipAt: epsilon = 0.9 < 1 at zeta = "),
        (np.nan, QuadratureError, "mode integral m=1500 not certified"),
    ], ids=["below-one", "nan"])
    def test_a_bad_mode_between_samples_still_fails(self, value, error, message):
        # no sample of the panel 1025-1597 meets mode 1500, so the panel is
        # certified; its permittivities are checked mode by mode before use
        with certified_panels() as panels, pytest.raises(error, match=f"^{message}"):
            casimir_pressure(COLD, DipAt(1500, COLD.T_K, value), CU)
        (asked, got), = panels
        assert (1025, 1597) in asked and sorted(got) == [lo for lo, _ in asked]

    def test_an_ideal_mode_between_samples_is_integrated(self):
        # the panel 1025-1597 is certified, but ideal at mode 1500 alone:
        # the screen that rejects a partly ideal sample row rejects the
        # panel, so its terms are integrated
        side = DipAt(1500, COLD.T_K, np.inf)
        with certified_panels() as panels:
            res = casimir_pressure(COLD, side, CU)
        (asked, got), = panels
        assert (1025, 1597) in asked and sorted(got) == [lo for lo, _ in asked]
        (values, _, _), _ = block(np.arange(1025, 1598), COLD, (side, CU))
        assert same_bits(res.terms_mPa[1024:1597], -values * pressure_to_si(1.0, COLD))

    @pytest.mark.parametrize("what,n_terms", [("pressure", 210), ("free-energy", 193)])
    def test_a_stop_inside_the_first_panel_is_integrated(self, what, n_terms, deadline):
        # a weak Drude metal stops inside the certified panel 129-256, so that
        # panel is integrated in blocks and the sum is a direct one; terms
        # move only below the floor, integral_rel_tol * sum_rel_tol * |S|
        pair = (DrudeModel(DrudeParams(0.0005, 0.05, "weak")),) * 2
        geom = Geometry(1.0, 1.0)
        with deadline(30), certified_panels() as panels:
            total, terms, got_n_terms = fields(EVALUATE[what](geom, *pair))
        (asked, got), = panels
        assert asked[0] == (129, 256) and got[129] == 256
        ref_total, ref_terms, ref_n_terms = direct_sum(EVALUATE[what], geom, pair)
        assert got_n_terms == ref_n_terms == n_terms
        assert total == ref_total
        assert np.abs(terms - ref_terms).max() <= 1e-20 * abs(total)

    def test_a_rejected_first_panel_is_integrated(self, deadline):
        # the panel 129-256 is certified, but ideal at mode 150 alone, so
        # the screen rejects it and its modes are integrated; the panels
        # after it are interpolated
        geom = Geometry(1.0, 1.0)
        side = DipAt(150, geom.T_K, np.inf)
        with deadline(30), certified_panels() as panels:
            res = casimir_pressure(geom, side, CU)
        (asked, got), = panels
        assert asked[0] == (129, 256) and sorted(got) == [lo for lo, _ in asked]
        assert res.n_terms_used == 4007
        (values, _, _), _ = block(np.arange(129, 257), geom, (side, CU))
        assert same_bits(res.terms_mPa[128:256], -values * pressure_to_si(1.0, geom))

    def test_ideal_below_a_frequency_inside_a_panel_falls_back(self):
        # ideal up to mode 1500: the panels below are ideal at every sample
        # and interpolated as against an ideal metal; the panel holding mode
        # 1500 is ideal at some samples only, so it is integrated, and the
        # panel after it is interpolated again
        side = IdealBelow(DB.get("Au"), matsubara_frequency(1500, COLD.T_K) * 1.0001)
        with certified_panels() as panels:
            res = casimir_pressure(COLD, side, CU)
        (asked, got), = panels
        lo, hi = next(panel for panel in asked if panel[0] <= 1500 <= panel[1])
        assert lo == 1025 and lo not in got and {129, 257, 513, hi + 1} <= set(got)
        ideal = casimir_pressure(COLD, IdealMetal(), CU)
        assert same_bits(res.terms_mPa[:1024], ideal.terms_mPa[:1024])
        (values, _, _), _ = block(np.arange(1025, hi + 1), COLD, (side, CU))
        assert same_bits(res.terms_mPa[1024:hi], -values * pressure_to_si(1.0, COLD))
        _, terms, n_terms = direct_sum(casimir_pressure, COLD, (side, CU))
        assert n_terms == res.n_terms_used
        assert (np.abs(res.terms_mPa - terms) <= 1e-13 * np.abs(terms)).all()

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_values_do_not_depend_on_the_schedule(self, what, monkeypatch):
        # nor on the sizes of the later blocks
        args = (EVALUATE[what], COLD, (AU, CU))
        ref = outcome(*args)
        for size in (1, 7, _BLOCK_CAP):
            blocks_of_at_most(size, monkeypatch)
            assert outcome(*args) == ref

    def test_samples_take_one_plan_and_block_per_degree(self):
        # one model as both sides is evaluated once per plan, the sample
        # plans included; two equal objects give the same terms
        calls, plans, blocks = [], [], []

        class Spy(DrudeModel):
            analytic = True

            def epsilon(self, zeta_eV):
                calls.append(self)
                return super().epsilon(zeta_eV)

        def planned(ms, *args):
            plans.append(ms)
            return _plan(ms, *args)

        def counted(lower, *args):
            blocks.append(lower)
            return _mode_block(lower, *args)
        spy = Spy(DB.get("Au"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("casimir.lifshitz._plan", planned)
            patch.setattr("casimir.lifshitz._mode_block", counted)
            res = casimir_pressure(COLD, spy, spy)
        samples = [ms for ms in plans if (ms != np.round(ms)).any()]
        assert 1 <= len(samples) <= len(_DEGREES) and len(calls) == len(plans)
        # modes 1-128, the samples, then the blocks of the panel holding the stop
        assert len(blocks) == 1 + len(samples) + sum(lower[0] > 1000 * reduced_temperature(COLD)
                                                     for lower in blocks[1 + len(samples):])
        other = casimir_pressure(COLD, Spy(DB.get("Au")), Spy(DB.get("Au")))
        assert all(same_bits(np.asarray(value), np.asarray(vars(other)[name]))
                   for name, value in vars(res).items())

    def test_certify_takes_its_samples_from_the_sampler(self):
        # a smooth panel certifies at degree 16; a NaN sample ends its own
        # panel alone, and only the panel left is sampled at degree 32
        gamma, shapes = 0.01, []

        def sample(ms):  # a request for the integrals at ms, as _sampled makes
            shapes.append(ms.shape)
            return (yield ms)

        def integrals(ms):
            out = np.exp(-2.0 * gamma * ms) * np.where(ms <= 256, 2.0 + ms / 256, 1.0 / ms)
            out[(ms[:, 0] > 256) & (ms[:, 0] <= 512), 3] = np.nan
            return out
        certify = _certify([(129, 256), (257, 512), (513, 1024)], gamma, sample, 1e-12, 0.0)
        out = None
        try:  # each request answered with the integrals it asks for
            while True:
                out = integrals(certify.send(out))
        except StopIteration as done:
            got = done.value
        assert shapes == [(3, 17), (1, 16)]
        assert got[257] == (512, None) and got[129][1].size == 17 and got[513][1].size == 33
        for lo, hi in ((129, 256), (513, 1024)):
            m = np.arange(lo, hi + 1)
            want = np.exp(-2.0 * gamma * m) * (2.0 + m / 256 if hi <= 256 else 1.0 / m)
            assert np.abs(_interpolated(got[lo][1], lo, hi, gamma) / want - 1.0).max() <= 1e-13

    def test_chebyshev_loads_no_sum(self):
        src = os.path.dirname(os.path.dirname(_certify.__code__.co_filename))
        script = "import sys, casimir.chebyshev; print('casimir.lifshitz' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    @pytest.mark.parametrize("what", sorted(EVALUATE))
    def test_sides_are_classified_once_per_request(self, what):
        # the sample requests included; each block classifies the two sides
        # of its request once, over that request's rows only, and no plan or
        # screen classifies
        calls = []

        def counted(lower, zeta, sides, *args):
            calls.append((lower / COLD.gamma, [e for _, e in sides]))
            return _mode_block(lower, zeta, sides, *args)

        def classified(*eps):
            calls.append(eps)
            return _kernel_sides(*eps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("casimir.lifshitz._mode_block", counted)
            patch.setattr("casimir.lifshitz._kernel_sides", classified)
            EVALUATE[what](COLD, AU, CU)
        requests, classes = calls[::2], calls[1::2]
        assert len(requests) == len(classes) > 2
        for (ms, sides), eps in zip(requests, classes):
            assert len(eps) == 2 and all(a is b for a, b in zip(sides, eps))
        # a sample request among them, at points between the modes
        assert any((np.abs(ms - np.round(ms)) > 0.01).any() for ms, _ in requests)


# Run in a fresh interpreter by test_numpy_1_fallbacks_give_the_same_bits:
# casimir imported while numpy lacks the C functions that numpy < 2 does not
# export, which are then put back (numpy's own count_nonzero calls its C one).
NUMPY_1_SCRIPT = """
import hashlib
import numpy as np
from numpy._core import multiarray
saved = {name: vars(multiarray).pop(name) for name in ("c_einsum", "count_nonzero")}
try:
    from casimir import dielectric, lifshitz, quadrature, thermo
finally:
    vars(multiarray).update(saved)
print(lifshitz._einsum is np.einsum, dielectric._count_nonzero is np.count_nonzero)
print(quadrature._einsum is np.einsum, quadrature._count_nonzero is np.count_nonzero,
      lifshitz._einsum is quadrature._einsum, lifshitz._count_nonzero is quadrature._count_nonzero,
      dielectric._count_nonzero is quadrature._count_nonzero)
au = dielectric.DrudeModel(dielectric.MaterialDatabase.builtin().get("Au"))
for res in (lifshitz.casimir_pressure(lifshitz.Geometry(0.16, 1.0), au, au),
            thermo.free_energy(lifshitz.Geometry(1.0, 300.0), au, au)):
    value, _, terms, n_terms, _ = vars(res).values()
    print(value.hex(), n_terms, hashlib.sha256(terms.tobytes()).hexdigest())
"""


def fallback_digests(*results):
    """The lines NUMPY_1_SCRIPT prints for its results."""
    lines = []
    for res in results:
        value, _, terms, n_terms, _ = vars(res).values()
        lines.append(f"{value.hex()} {n_terms} {hashlib.sha256(terms.tobytes()).hexdigest()}")
    return lines


def test_numpy_1_fallbacks_give_the_same_bits():
    # np.einsum and np.count_nonzero stand in for the C functions that
    # numpy < 2 does not export, bound once in quadrature for the modules that
    # call them; a sum at 1 K and one at 300 K keep every bit
    src = os.path.dirname(os.path.dirname(_certify.__code__.co_filename))
    proc = subprocess.run([sys.executable, "-c", NUMPY_1_SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    bound, shared, *digests = proc.stdout.splitlines()
    assert bound == "True True"
    assert shared == "True True True True True"
    assert digests == fallback_digests(casimir_pressure(Geometry(0.16, 1.0), AU, AU),
                                       free_energy(Geometry(1.0, 300.0), AU, AU))
