import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import zeta as scipy_zeta

from casimir.dielectric import (
    BlochGruneisenParams,
    DielectricModel,
    DrudeModel,
    IdealMetal,
    MaterialDatabase,
    PermittivityTable,
    TabulatedModel,
    Vacuum,
    drude_epsilon,
)
from casimir.golden import TABLES, cell_tolerance
from casimir.lifshitz import (
    PressureResult,
    QuadratureSpec,
    _BLOCK_CAP,
    _BREAK_OFFSETS,
    _RUNGS,
    _Workspace,
    _block_size,
    _log_bound,
    _mode_block,
    _mode_kernel,
    _reflections,
    SumConvergenceError,
    casimir_pressure,
    lifshitz_variables,
    matsubara_term,
    reflection_te,
    reflection_tm,
    zero_mode_pressure,
    zeta3,
)
from casimir.quadrature import QuadratureError, integrate_adaptive
from casimir.quantities import (
    CODATA,
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
        assert zero_mode_pressure(Geometry(1.0, 300.0)) == pytest.approx(-0.19810, rel=1e-4)

    def test_linear_in_temperature(self):
        p300 = zero_mode_pressure(Geometry(1.0, 300.0))
        p3 = zero_mode_pressure(Geometry(1.0, 3.0))
        assert p3 == pytest.approx(p300 / 100.0, rel=1e-12)

    def test_large_gap_below_total(self):
        # static piece alone must stay below the full pressure magnitude
        zm = abs(zero_mode_pressure(Geometry(4.0, 300.0)))
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
    mode integral there fails to certify."""

    def __init__(self, params, zeta_eV):
        super().__init__(params)
        self.zeta_eV = zeta_eV

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        return np.where(np.asarray(zeta_eV) > self.zeta_eV, np.nan, eps)


class IdealBelow(DrudeModel):
    """Drude model that reflects perfectly (epsilon = inf) below a frequency."""

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


class TestBlockDriver:
    # Values recorded from the one-mode-at-a-time driver.
    @pytest.mark.parametrize("a_um,T_K,n_terms,pressure_mPa", [
        (2.5, 300.0, 6, -0.021759861535672498),
        (0.95, 300.0, 15, -1.2110995379203673),
        (0.85, 300.0, 16, -1.896084880347681),
        (1.3, 20.0, 156, -0.40645489235415855),     # in the second block
        (3.65, 4.0, 283, -0.006959357918267075),
        (2.5, 4.0, 411, -0.031207448276329198),     # in the fourth block
    ])
    def test_stop_at_block_edges(self, a_um, T_K, n_terms, pressure_mPa):
        res = casimir_pressure(Geometry(a_um, T_K), AU, CU)
        assert res.n_terms_used == n_terms
        assert res.pressure_mPa == pytest.approx(pressure_mPa, rel=1e-12)

    def test_stop_at_first_mode(self):
        res = casimir_pressure(Geometry(100.0, 300.0), AU, AU, QuadratureSpec(min_terms=1))
        assert res.n_terms_used == 1
        assert res.pressure_mPa == pytest.approx(-1.981023851906023e-07, rel=1e-12)

    @pytest.mark.parametrize("max_terms", [12, 40, 300])
    def test_max_terms_inside_a_block(self, max_terms):
        spec = QuadratureSpec(max_terms=max_terms)
        with pytest.raises(SumConvergenceError) as excinfo:
            casimir_pressure(Geometry(1.0, 1.0), AU, AU, spec)
        partial = excinfo.value.partial
        assert partial.n_terms_used == max_terms
        assert partial.terms_mPa.size == max_terms
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
    def test_one_model_on_both_sides_is_evaluated_once(self, geom, evaluate, monkeypatch):
        calls, blocks = [], []

        class Spy(DrudeModel):
            def epsilon(self, zeta_eV):
                calls.append(self)
                return super().epsilon(zeta_eV)

        def counted(ms, *args):
            blocks.append(ms.size)
            return _mode_block(ms, *args)
        monkeypatch.setattr("casimir.lifshitz._mode_block", counted)
        spy = Spy(DB.get("Au"))
        res = evaluate(geom, spy, spy)
        assert len(blocks) > 1 and calls == [spy] * len(blocks)
        # equal but distinct objects: two calls per block, the same terms
        calls.clear(), blocks.clear()
        twin = evaluate(geom, Spy(DB.get("Au")), Spy(DB.get("Au")))
        assert len(calls) == 2 * len(blocks) > 2
        assert all(same_bits(np.asarray(value), np.asarray(vars(twin)[name]))
                   for name, value in vars(res).items())

    def test_matsubara_term_equals_block_value(self):
        # at 1 K the terms decay slowly, so the floor never binds here;
        # blocks of 128 modes, the last from 3969 to past the stop
        geom = Geometry(1.0, 1.0)
        res = casimir_pressure(geom, AU, CU)
        si = pressure_to_si(1.0, geom)
        for m in (1, 5, 6, 128, 129, 256, 257, 3968, 3969, res.n_terms_used):
            assert -matsubara_term(m, geom, AU, CU) * si == res.terms_mPa[m - 1]

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
        else:
            out = out + x / (em + e2y * (1.0 - prod))
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
        got = _mode_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
        assert same_bits(got, ref)
        if np.array_equal(eps1, eps3):  # one interface serves both sides
            assert same_bits(_mode_kernel(y, _Workspace(), free_energy, A, eps1), ref)
        if at_y1 is not None and not free_energy:
            one = _mode_kernel(np.ones((1, 1)), _Workspace(), False, A[:1], eps1[:1], eps3[:1])
            assert one[0, 0] == pytest.approx(at_y1, rel=1e-14)

    def test_log_select_covers_both_branches(self):
        y, A, eps1, eps3 = kernel_inputs(10, 105, (AU, AU), T_K=1.0, a_um=0.1)
        p = y / A[:, None]
        s = np.sqrt(eps1[:, None] - 1.0 + p * p)
        x = reflection_tm(eps1[:, None], s, p) ** 2 * np.exp(-2.0 * y)
        assert (x > 0.5).any() and (x <= 0.5).any()
        ref = reference_kernel(y, A, eps1, eps3, True)
        assert same_bits(_mode_kernel(y, _Workspace(), True, A, eps1), ref)

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
            fresh = _mode_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
            assert same_bits(fresh, ref), name
            assert same_bits(_mode_kernel(y, work, free_energy, A, eps1, eps3), ref), name
            if np.array_equal(eps1, eps3):
                assert same_bits(_mode_kernel(y, work, free_energy, A, eps1), ref), name
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

    def test_cold_free_energy_modes_equal_the_reference_quadrature(self):
        # Au-Cu at 0.5 um and 1 K: modes whose lower limits straddle ln(2)/2
        geom = Geometry(0.5, 1.0)
        ms = np.arange(*modes_at(geom, [0.3, 0.4]))
        (values, errors, failed), _ = block(ms, geom, (AU, CU), free_energy=True)
        assert not failed.any()
        spec = QuadratureSpec()
        A = ms * reduced_temperature(geom)
        assert A.min() < math.log(2.0) / 2.0 < A.max()
        zeta = ms * matsubara_frequency(1, geom.T_K)
        for i, (eps1, eps3) in enumerate(zip(AU.epsilon(zeta), CU.epsilon(zeta))):
            starts = A[i] + _BREAK_OFFSETS
            y_max = spec.y_max(A[i])
            ref, ref_error = integrate_adaptive(
                lambda y: reference_kernel(y, A[i:i + 1], np.array([eps1]), np.array([eps3]),
                                           True),
                [np.append(starts[starts < y_max], y_max)], rel_tol=spec.integral_rel_tol)
            assert (values[i], errors[i]) == (ref[0], ref_error[0])

    @pytest.mark.parametrize("free_energy", [False, True])
    def test_reused_workspace_equals_fresh_one(self, free_energy):
        # blocks grow and then shrink in rows and nodes; every value is
        # taken before the next call, as integrate_adaptive takes it
        work = _Workspace()
        for rows, nodes, pair in ((3, 15, (AU, CU)), (20, 105, (AU, AU)), (128, 105, (CU, AU)),
                                  (40, 210, (AU, IdealMetal())), (7, 30, (AU, CU)),
                                  (1, 15, (AU, AU))):
            y, A, eps1, eps3 = kernel_inputs(rows, nodes, pair, first=rows)
            shared = _mode_kernel(y, work, free_energy, A, eps1, eps3).copy()
            fresh = _mode_kernel(y, _Workspace(), free_energy, A, eps1, eps3)
            assert same_bits(shared, fresh)
            assert same_bits(shared, reference_kernel(y, A, eps1, eps3, free_energy))

    def test_returns_a_view_the_next_call_overwrites(self):
        work = _Workspace()
        y, A, eps1, eps3 = kernel_inputs(4, 15)
        first = _mode_kernel(y, work, False, A, eps1, eps3)
        kept = first.copy()
        _mode_kernel(y + 1.0, work, False, A, eps1, eps3)
        assert not np.array_equal(first, kept)

    def test_te_equals_public_reflection_te(self):
        # TE lies in [0, 1); the public (s-p)/(s+p) keeps only absolute
        # precision as eps -> 1, which is why the kernel does not use it
        em1 = np.geomspace(1e-3, 1e6, 40)[:, None]
        p = np.broadcast_to(np.geomspace(1.0, 1e3, 50), (40, 50)).copy()
        s, x, tm, te = (np.empty_like(p) for _ in range(4))
        _, te = _reflections(1.0 + em1, p, p * p, s, x, tm, te)
        public = reflection_te(np.sqrt((1.0 + em1) - 1.0 + p * p), p)
        assert np.abs(te - public).max() <= 1e-14
        # near vacuum the kernel keeps its relative precision:
        # TE = (eps-1)/(4 p^2) to first order in eps-1
        eps = np.array([[1.0 + 1e-12]])
        _, te = _reflections(eps, p[:1], p[:1] ** 2, s[:1], x[:1], tm[:1], te[:1])
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


def block(ms, geom, pair, spec=None, free_energy=False):
    """(values, errors, failed) of one _mode_block with floor 0, and a mask
    of the modes that reached the adaptive quadrature."""
    ms = np.asarray(ms)
    sent = [np.zeros(0)]

    def integrate(f, breaks, **kwargs):
        sent.append(breaks[:, 0])  # each row starts at its mode's lower limit
        return integrate_adaptive(f, breaks, **kwargs)
    out = _mode_block(ms, geom, *pair, spec or QuadratureSpec(), 0.0, free_energy,
                      integrate, _Workspace())
    return out, np.isin(ms * reduced_temperature(geom), np.concatenate(sent))


def adaptive_modes(ms, geom, pair, spec=None, free_energy=False):
    """(values, errors) of mode integrals by integrate_adaptive alone, on the
    kernel closure, the breaks and the inputs _mode_block gives it.  The
    rows do not interact: each equals its mode integrated alone."""
    spec = spec or QuadratureSpec()
    ms = np.atleast_1d(ms)
    A = ms * reduced_temperature(geom)
    zeta = ms * matsubara_frequency(1, geom.T_K)
    eps1, eps3 = (np.asarray(model.epsilon(zeta), dtype=float) for model in pair)
    breaks = np.full((ms.size, _BREAK_OFFSETS.size + 1), np.nan)
    for row, (start, y_max) in enumerate(zip(A, spec.y_max(A))):
        starts = start + _BREAK_OFFSETS
        starts = starts[starts < y_max]
        breaks[row, :starts.size + 1] = np.append(starts, y_max)
    work = _Workspace()
    return integrate_adaptive(lambda y: _mode_kernel(y, work, free_energy, A, eps1, eps3),
                              breaks, rel_tol=spec.integral_rel_tol)


def adaptive_mode(m, geom, pair, spec=None, free_energy=False):
    """(value, error) of one mode integral by integrate_adaptive alone."""
    value, error = adaptive_modes(m, geom, pair, spec, free_energy)
    return float(value[0]), float(error[0])


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

    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_value_is_independent_of_the_block(self, pair):
        # one block holding both sides of every rung boundary
        geom = Geometry(0.5, 1.0)
        firsts = modes_at(geom, RUNG_A)
        ms = np.unique(np.concatenate([firsts, firsts[1:] - 1]))
        assert ms.size <= _BLOCK_CAP
        rung = np.searchsorted(RUNG_A, ms * reduced_temperature(geom), side="right") - 1
        assert np.array_equal(np.unique(rung), np.arange(len(RUNG_A)))
        (values, errors, failed), adaptive = block(ms, geom, GL_PAIRS[pair])
        assert not failed.any() and not adaptive.any()
        for i in range(ms.size):
            (one, one_error, _), _ = block(ms[i:i + 1], geom, GL_PAIRS[pair])
            assert one[0] == values[i] and one_error[0] == errors[i]

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

    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_free_energy_stays_adaptive(self, pair, monkeypatch):
        geom = Geometry(1.0, 300.0)
        ms = modes_at(geom, [0.5, 2.0, 6.0, 60.0])
        (values, _, _), adaptive = block(ms, geom, GL_PAIRS[pair], free_energy=True)
        assert adaptive.all()
        for m, value in zip(ms, values):
            assert value == adaptive_mode(m, geom, GL_PAIRS[pair], free_energy=True)[0]
        # about 1,300 terms over every rung; with one rung, a fixed-rule
        # free energy would change
        default = free_energy(Geometry(0.7, 4.0), *GL_PAIRS[pair])
        monkeypatch.setattr("casimir.lifshitz._RUNGS", _RUNGS[:1])
        assert same_bits(default.terms_J_per_m2,
                         free_energy(Geometry(0.7, 4.0), *GL_PAIRS[pair]).terms_J_per_m2)


# Cold cells with many modes below LOW_A.
COMPOSITE_CELLS = {"Au-Au": (0.16, 1.0, (AU, AU)),
                   "Au-Al": (0.5, 1.0, (AU, DrudeModel(DB.get("Al")))),
                   "Au-ideal": (1.0, 1.0, (AU, IdealMetal())),
                   "tabulated": (0.4, 3.0, (TAB, CU))}


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
        # the first modes at 0.1 um and 1 K lie below every rung's reach
        geom, pair = Geometry(0.1, 1.0), (AU, AU)
        ms = np.arange(1, 9)
        (values, errors, _), adaptive = block(ms, geom, pair)
        assert adaptive.any()
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
            assert -matsubara_term(m, geom, *pair) * si == terms[m - 1] == -value * si

    @pytest.mark.parametrize("a_um,T_K,pair,share,nodes", [
        (0.16, 1.0, (AU, AU), 0.01, 45),
        (2.0, 300.0, (AU, IdealMetal()), 0.0, None),
    ], ids=["cold", "warm"])
    def test_few_modes_reach_the_adaptive_quadrature(self, a_um, T_K, pair, share, nodes,
                                                      monkeypatch):
        # counted, not timed: a sum sends the modes its fixed rules miss,
        # and its fixed rules take few kernel nodes per mode
        sent, kernel_nodes = [], []

        def counted(f, breaks, **kwargs):
            sent.append(len(breaks))
            return integrate_adaptive(f, breaks, **kwargs)

        def kernel(y, *args):
            kernel_nodes.append(y.size)
            return _mode_kernel(y, *args)
        monkeypatch.setattr("casimir.lifshitz.integrate_adaptive", counted)
        monkeypatch.setattr("casimir.lifshitz._mode_kernel", kernel)
        geom = Geometry(a_um, T_K)
        res = casimir_pressure(geom, *pair)
        below = int((np.arange(1, res.n_terms_used + 1) * reduced_temperature(geom)
                     < LOW_A).sum())
        assert below >= 1
        if share:
            assert sum(sent) < share * below
        else:
            assert sum(sent) == 0
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

# (a_um, T_K, pair, free_energy, sum_rel_tol or None for the default)
SCHEDULE_CELLS = {
    "warm-equal": (1.0, 300.0, (AU, AU), False, None),
    "warm-unequal": (0.2, 350.0, (AU, CU), False, None),
    "five-terms": (10.0, 300.0, (AU, CU), False, None),
    "underflowing": (88.0, 300.0, (AU, AU), False, None),
    "drude-ideal": (1.0, 300.0, (AU, IdealMetal()), False, None),
    "ideal-ideal": (2.0, 77.0, (IdealMetal(), IdealMetal()), False, None),
    "mixed-ideal": (1.0, 30.0, (IdealBelow(DB.get("Au"), 0.02), AU), False, None),
    "cold-two-blocks": (1.3, 20.0, (AU, CU), False, None),
    "cold-four-blocks": (2.5, 4.0, (AU, CU), False, None),
    "free-warm": (1.0, 300.0, (AU, CU), True, 1e-10),
    "free-mixed-ideal": (1.0, 30.0, (IdealBelow(DB.get("Au"), 0.02), AU), True, None),
    "free-cold": (0.7, 8.0, (AU, CU), True, 1e-10),
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
           min_terms=st.sampled_from([1, 5, 200]))
    def test_size_reaches_the_first_mode_within_the_bound(self, first, gamma, log_target, free,
                                                          min_terms):
        m = max(first, min_terms)  # walk the modes one by one
        while m < first + _BLOCK_CAP and _log_bound(m * gamma, free) > log_target:
            m += 1
        size = _block_size(first, gamma, log_target, free, min_terms)
        assert size == min(m - first + 1, _BLOCK_CAP)

    @pytest.mark.parametrize("size", [1, 7, _BLOCK_CAP])
    @pytest.mark.parametrize("cell", sorted(SCHEDULE_CELLS))
    def test_block_sizes_do_not_change_results(self, cell, size, monkeypatch):
        total, terms, n_terms = schedule_sum(cell)
        monkeypatch.setattr("casimir.lifshitz._block_size", lambda *args: size)
        other_total, other_terms, other_n_terms = schedule_sum(cell)
        assert other_total == total and other_n_terms == n_terms
        assert same_bits(other_terms, terms)

    @pytest.mark.parametrize("cell", sorted(SCHEDULE_CELLS))
    def test_blocks_end_where_the_bound_says(self, cell, monkeypatch):
        sizes = []

        def counted(ms, *args):
            sizes.append(ms.size)
            return _mode_block(ms, *args)
        monkeypatch.setattr("casimir.lifshitz._mode_block", counted)
        _, _, n_terms = schedule_sum(cell)
        stop = bound_stop(cell)
        assert n_terms <= sum(sizes) <= stop
        assert sizes[:-1] == [_BLOCK_CAP] * (len(sizes) - 1)
        if stop <= _BLOCK_CAP:
            assert sizes == [stop]
        if n_terms <= _BLOCK_CAP:
            assert len(sizes) == 1
        if cell == "five-terms":
            assert sizes == [5] and n_terms == 5
