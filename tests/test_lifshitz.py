import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import zeta as scipy_zeta

from casimir.dielectric import (
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
    _GL_MIN,
    _Workspace,
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
    matsubara_frequency,
    pressure_to_si,
    reduced_temperature,
)
from casimir.thermo import free_energy

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


class NanAbove(DrudeModel):
    """Drude model whose permittivity is NaN above a frequency, so every
    mode integral there fails to certify."""

    def __init__(self, params, zeta_eV):
        super().__init__(params)
        self.zeta_eV = zeta_eV

    def epsilon(self, zeta_eV):
        eps = np.asarray(super().epsilon(zeta_eV), dtype=float)
        return np.where(np.asarray(zeta_eV) > self.zeta_eV, np.nan, eps)


class TestBlockDriver:
    # Blocks hold modes 1-5, 6-15, 16-35, 36-75, 76-155, 156-283, then 128
    # each; values recorded from the one-mode-at-a-time driver.
    @pytest.mark.parametrize("a_um,T_K,n_terms,pressure_mPa", [
        (2.5, 300.0, 6, -0.021759861535672498),     # first mode of block 2
        (0.95, 300.0, 15, -1.2110995379203673),     # last mode of block 2
        (0.85, 300.0, 16, -1.896084880347681),      # first mode of block 3
        (1.3, 20.0, 156, -0.40645489235415855),     # first mode of block 6
        (3.65, 4.0, 283, -0.006959357918267075),    # last mode of block 6
        (2.5, 4.0, 411, -0.031207448276329198),     # last mode of a capped block
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
        geom = Geometry(0.85, 300.0)  # stops at m = 16, the first mode of a block
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

    def test_matsubara_term_equals_block_value(self):
        # at 1 K the terms decay slowly, so the floor never binds here
        geom = Geometry(1.0, 1.0)
        res = casimir_pressure(geom, AU, CU)
        si = pressure_to_si(1.0, geom)
        for m in (1, 5, 6, 15, 16, 35, 36, 200, 283, 284, res.n_terms_used):
            assert -matsubara_term(m, geom, AU, CU) * si == res.terms_mPa[m - 1]

    def test_loose_tolerance_mixes_panel_layouts(self):
        # at integral_rel_tol 1e-9 the break at lower + 16 falls inside the
        # range only for lower limits below ~0.36: modes up to m = 109 start
        # with 7 panels here, later ones with 6, and blocks straddle the edge
        spec = QuadratureSpec(integral_rel_tol=1e-9)
        geom = Geometry(0.3, 4.0)
        res = casimir_pressure(geom, AU, CU, spec)
        assert res.n_terms_used == 3080
        assert res.pressure_mPa == pytest.approx(-112.12918478255027, rel=1e-12)
        si = pressure_to_si(1.0, geom)
        for m in (108, 109, 110, 111):
            assert -matsubara_term(m, geom, AU, CU, spec) * si == res.terms_mPa[m - 1]

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
                     low_freq=DB.get("Au"))


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
        got = _mode_kernel(y, _Workspace(40), free_energy, A, eps1, eps3)
        assert same_bits(got, ref)
        if np.array_equal(eps1, eps3):  # one interface serves both sides
            assert same_bits(_mode_kernel(y, _Workspace(40), free_energy, A, eps1), ref)
        if at_y1 is not None and not free_energy:
            one = _mode_kernel(np.ones((1, 1)), _Workspace(1), False, A[:1], eps1[:1], eps3[:1])
            assert one[0, 0] == pytest.approx(at_y1, rel=1e-14)

    def test_log_select_covers_both_branches(self):
        y, A, eps1, eps3 = kernel_inputs(10, 105, (AU, AU), T_K=1.0, a_um=0.1)
        p = y / A[:, None]
        s = np.sqrt(eps1[:, None] - 1.0 + p * p)
        x = reflection_tm(eps1[:, None], s, p) ** 2 * np.exp(-2.0 * y)
        assert (x > 0.5).any() and (x <= 0.5).any()
        ref = reference_kernel(y, A, eps1, eps3, True)
        assert same_bits(_mode_kernel(y, _Workspace(10), True, A, eps1), ref)

    @pytest.mark.parametrize("free_energy", [False, True])
    def test_reused_workspace_equals_fresh_one(self, free_energy):
        # blocks grow and then shrink in rows and nodes; every value is
        # taken before the next call, as integrate_adaptive takes it
        work = _Workspace(2)
        for rows, nodes, pair in ((3, 15, (AU, CU)), (20, 105, (AU, AU)), (128, 105, (CU, AU)),
                                  (40, 210, (AU, IdealMetal())), (7, 30, (AU, CU)),
                                  (1, 15, (AU, AU))):
            y, A, eps1, eps3 = kernel_inputs(rows, nodes, pair, first=rows)
            shared = _mode_kernel(y, work, free_energy, A, eps1, eps3).copy()
            fresh = _mode_kernel(y, _Workspace(1), free_energy, A, eps1, eps3)
            assert same_bits(shared, fresh)
            assert same_bits(shared, reference_kernel(y, A, eps1, eps3, free_energy))

    def test_returns_a_view_the_next_call_overwrites(self):
        work = _Workspace(4)
        y, A, eps1, eps3 = kernel_inputs(4, 15)
        first = _mode_kernel(y, work, False, A, eps1, eps3)
        kept = first.copy()
        _mode_kernel(y + 1.0, work, False, A, eps1, eps3)
        assert not np.array_equal(first, kept)

    def test_domain_checks(self):
        y, A, eps1, eps3 = kernel_inputs(3, 15)
        y[1, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            _mode_kernel(y, _Workspace(3), False, A, eps1, eps3)
        # eps = -3 at p near 3 gives a TM reflection of about 1.7, so x > 1
        A = np.array([0.01])
        y = A[:, None] * np.linspace(2.5, 3.5, 15)
        with pytest.raises(ValueError, match="below 1"):
            _mode_kernel(y, _Workspace(1), False, A, np.array([-3.0]))

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


def block(ms, geom, pair, spec=None, free_energy=False):
    """(values, errors, failed) of one _mode_block with floor 0, and the
    number of modes that reached the adaptive quadrature."""
    adaptive = []

    def integrate(f, breaks, **kwargs):
        adaptive.append(len(breaks))
        return integrate_adaptive(f, breaks, **kwargs)
    out = _mode_block(np.asarray(ms), geom, *pair, spec or QuadratureSpec(), 0.0, free_energy,
                      integrate, _Workspace(len(ms)))
    return out, sum(adaptive)


def adaptive_mode(m, geom, pair, spec=None, free_energy=False):
    """Mode integral by integrate_adaptive alone, on the kernel closure, the
    breaks and the inputs _mode_block gives it."""
    spec = spec or QuadratureSpec()
    A = np.array([m]) * reduced_temperature(geom)
    zeta = np.array([m]) * matsubara_frequency(1, geom.T_K)
    eps1, eps3 = (np.asarray(model.epsilon(zeta), dtype=float) for model in pair)
    y_max = spec.y_max(A)[0]
    starts = A[0] + _BREAK_OFFSETS
    work = _Workspace(1)
    return integrate_adaptive(lambda y: _mode_kernel(y, work, free_energy, A, eps1, eps3),
                              np.append(starts[starts < y_max], y_max),
                              rel_tol=spec.integral_rel_tol)


def modes_at(geom, lowers):
    """Matsubara indices whose lower limits m*gamma are nearest ``lowers``
    from above."""
    return np.ceil(np.asarray(lowers) / reduced_temperature(geom)).astype(int)


GL_PAIRS = {"similar": (AU, AU), "dissimilar": (AU, CU), "drude-ideal": (AU, IdealMetal()),
            "tabulated": (TAB, CU)}


class TestLaguerreModes:
    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_agrees_with_adaptive_quadrature(self, pair):
        geom = Geometry(1.0, 300.0)
        ms = modes_at(geom, [2.0, 2.5, 3.7, 6.0, 11.0, 25.0, 60.0, 140.0, 300.0])
        assert ms[0] * reduced_temperature(geom) >= _GL_MIN
        (values, errors, failed), adaptive = block(ms, geom, GL_PAIRS[pair])
        assert adaptive == 0 and not failed.any()
        for m, value, error in zip(ms, values, errors):
            ref, _ = adaptive_mode(m, geom, GL_PAIRS[pair])
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert error <= 1e-12 * value

    @pytest.mark.parametrize("pair", ["similar", "dissimilar"])
    def test_missed_target_falls_back_to_the_adaptive_value(self, pair):
        # GL16 is good to about 4e-14 relative at lower limits near 2
        geom = Geometry(1.0, 3.0)
        spec = QuadratureSpec(integral_rel_tol=1e-14)
        ms = modes_at(geom, [2.0, 2.05, 2.1])
        (values, _, failed), adaptive = block(ms, geom, GL_PAIRS[pair], spec)
        assert adaptive == ms.size and not failed.any()
        for m, value in zip(ms, values):
            assert value == adaptive_mode(m, geom, GL_PAIRS[pair], spec)[0]

    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_value_is_independent_of_the_block(self, pair):
        geom = Geometry(0.5, 2.0)  # lower limits 2.0 to 2.35 across the block
        ms = modes_at(geom, [_GL_MIN])[0] + np.arange(_BLOCK_CAP)
        (values, errors, _), adaptive = block(ms, geom, GL_PAIRS[pair])
        assert adaptive == 0
        for i in (0, 1, 63, 127):
            (one, one_error, _), _ = block(ms[i:i + 1], geom, GL_PAIRS[pair])
            assert one[0] == values[i] and one_error[0] == errors[i]

    @pytest.mark.parametrize("pair", sorted(GL_PAIRS))
    def test_free_energy_stays_adaptive(self, pair, monkeypatch):
        geom = Geometry(1.0, 300.0)
        ms = modes_at(geom, [0.5, 2.0, 6.0, 60.0])
        (values, _, _), adaptive = block(ms, geom, GL_PAIRS[pair], free_energy=True)
        assert adaptive == ms.size
        for m, value in zip(ms, values):
            assert value == adaptive_mode(m, geom, GL_PAIRS[pair], free_energy=True)[0]
        # about 1,300 terms, four fifths of them with lower limits above 2
        default = free_energy(Geometry(0.7, 4.0), *GL_PAIRS[pair])
        monkeypatch.setattr("casimir.lifshitz._GL_MIN", math.inf)  # adaptive only
        assert same_bits(default.terms_J_per_m2,
                         free_energy(Geometry(0.7, 4.0), *GL_PAIRS[pair]).terms_J_per_m2)


# Tables on which (s-p)/(s+p) cancelled: eps - 1 about 1e-12 throughout, and
# eps falling to 1 inside the window.  The TE integrand was rounding noise
# there, and mode integrals against Au never certified.
NEAR_ZETA_EV = np.logspace(-4, 2, 7)
NEAR_VACUUM = TabulatedModel(PermittivityTable(NEAR_ZETA_EV, np.full(7, 1.0 + 1e-12)),
                             low_freq=DB.get("Au"))
FALLS_TO_ONE = TabulatedModel(
    PermittivityTable(NEAR_ZETA_EV, np.array([2.0, 1.8, 1.5, 1.2, 1.0, 1.0, 1.0])),
    low_freq=DB.get("Au"))

NEAR_TABLES = {"near-vacuum": NEAR_VACUUM, "falls-to-one": FALLS_TO_ONE}

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
