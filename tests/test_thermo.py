import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from casimir.dielectric import (
    BlochGruneisenParams,
    DrudeModel,
    DrudeParams,
    IdealMetal,
    MaterialDatabase,
    PermittivityTable,
    TabulatedModel,
    Vacuum,
    bloch_gruneisen_nu,
    drude_epsilon,
)
from casimir.lifshitz import QuadratureSpec, SumConvergenceError, casimir_pressure, zeta3
from casimir.quantities import CODATA, Geometry
from casimir.thermo import (
    BracketError,
    FreeEnergyResult,
    crossover_separation,
    entropy,
    free_energy,
    nernst_check,
)

DB = MaterialDatabase.builtin()
AU = DrudeModel(DB.get("Au"))
BG = BlochGruneisenParams()
BG_AU, BG_CU = (DrudeModel(DB.get(label), BG) for label in ("Au", "Cu"))
# Al samples from 0.5 eV, so the first Matsubara modes at 300 K (0.16 eV
# apart) take the Bloch-Grueneisen Au continuation below the window
TABLE_ZETA_EV = np.logspace(np.log10(0.5), 3, 60)
BG_TABLE = TabulatedModel(PermittivityTable(TABLE_ZETA_EV,
                                            drude_epsilon(DB.get("Al"), TABLE_ZETA_EV)), BG_AU)

TIGHT = QuadratureSpec(sum_rel_tol=1e-10)


class TestFreeEnergy:
    @pytest.mark.parametrize("a_um, T_K", [(1e6, 3.6e8), (1.0, 3.6e14)])
    def test_static_term_alone_near_the_reduced_temperature_bound(self, a_um, T_K):
        # gamma ~ 0.99e12, just inside Geometry's bound: every m >= 1 mode
        # underflows to 0, without an overflow on the way
        geom = Geometry(a_um, T_K)
        p = casimir_pressure(geom, AU, IdealMetal())
        f = free_energy(geom, AU, IdealMetal())
        assert p.converged and p.pressure_mPa == p.zero_mode_mPa < 0
        assert f.converged and f.free_energy_J_per_m2 == f.zero_mode_J_per_m2 < 0

    def test_vacuum(self):
        res = free_energy(Geometry(1.0, 300.0), Vacuum(), AU)
        assert math.copysign(1.0, res.free_energy_J_per_m2) == 1.0
        assert res.free_energy_J_per_m2 == res.zero_mode_J_per_m2 == 0.0
        assert res.converged

    def test_max_terms_raises_with_partial(self):
        with pytest.raises(SumConvergenceError) as excinfo:
            free_energy(Geometry(1.0, 1.0), AU, AU, QuadratureSpec(max_terms=40))
        partial = excinfo.value.partial
        assert isinstance(partial, FreeEnergyResult)
        assert partial.n_terms_used == partial.terms_J_per_m2.size == 40
        assert not partial.converged
        assert str(excinfo.value).startswith("free-energy sum not converged after 40 terms")

    def test_static_piece_closed_form(self):
        # -k_B T zeta(3)/(16 pi a^2) at a=1 um, T=300 K
        res = free_energy(Geometry(1.0, 300.0), AU, AU, TIGHT)
        expected = -CODATA.k_B_J_per_K * 300.0 * zeta3() / (16.0 * math.pi * 1e-12)
        assert res.zero_mode_J_per_m2 == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-9.9051e-11, rel=1e-4)

    def test_negative_and_decaying_with_gap(self):
        f1 = free_energy(Geometry(1.0, 300.0), AU, AU).free_energy_J_per_m2
        f2 = free_energy(Geometry(2.0, 300.0), AU, AU).free_energy_J_per_m2
        assert f1 < 0 and f2 < 0
        assert abs(f2) < abs(f1)

    def test_pressure_is_minus_gap_derivative(self):
        # central difference with h = 1 nm against the pressure oracle
        a, T, h = 1.0, 300.0, 1e-3
        fm = free_energy(Geometry(a - h, T), AU, AU, TIGHT).free_energy_J_per_m2
        fp = free_energy(Geometry(a + h, T), AU, AU, TIGHT).free_energy_J_per_m2
        fd_mPa = -(fp - fm) / (2.0 * h * 1e-6) * 1e3
        p = casimir_pressure(Geometry(a, T), AU, AU, TIGHT).pressure_mPa
        assert fd_mPa == pytest.approx(p, rel=1e-3)

    def test_pair_symmetry_is_exact(self):
        geom = Geometry(0.5, 2.0)
        cu = DrudeModel(DB.get("Cu"))
        f_13 = free_energy(geom, AU, cu, TIGHT)
        f_31 = free_energy(geom, cu, AU, TIGHT)
        assert f_13.n_terms_used == f_31.n_terms_used > 1000
        assert f_13.free_energy_J_per_m2 == f_31.free_energy_J_per_m2
        assert np.array_equal(f_13.terms_J_per_m2, f_31.terms_J_per_m2)

    def test_decomposes_into_terms(self):
        res = free_energy(Geometry(1.0, 300.0), AU, AU)
        total = res.zero_mode_J_per_m2 + res.terms_J_per_m2.sum()
        assert res.free_energy_J_per_m2 == pytest.approx(total, rel=1e-12)


class TestEntropy:
    def test_vacuum(self):
        res = entropy(Geometry(1.0, 300.0), Vacuum(), AU)
        assert res.entropy_J_per_m2_K == 0.0
        assert res.fd_step_K == 0.5

    def test_step_validation(self):
        with pytest.raises(ValueError):
            entropy(Geometry(1.0, 0.4), AU, AU, fd_step_K=0.5)
        with pytest.raises(ValueError):
            entropy(Geometry(1.0, 300.0), AU, AU, fd_step_K=0.0)
        with pytest.raises(ValueError, match="^fd step must be positive, got nan$"):
            entropy(Geometry(1.0, 300.0), AU, AU, fd_step_K=math.nan)

    def test_step_halving_richardson(self):
        geom = Geometry(1.0, 300.0)
        s_h = entropy(geom, AU, AU, fd_step_K=2.0).entropy_J_per_m2_K
        s_h2 = entropy(geom, AU, AU, fd_step_K=1.0).entropy_J_per_m2_K
        rich = (4.0 * s_h2 - s_h) / 3.0
        # the halved step sits much closer to the extrapolated slope
        assert abs(s_h2 - rich) <= abs(s_h - rich)
        assert s_h == pytest.approx(s_h2, rel=5e-3)

    def test_negative_at_room_temperature(self):
        # the TE mode deficit makes the metallic entropy negative here
        s = entropy(Geometry(1.0, 300.0), AU, AU).entropy_J_per_m2_K
        assert s < 0

    def test_temperature_dependent_relaxation_inside_derivative(self):
        geom = Geometry(2.0, 300.0)
        au_300 = BG_AU.at(300.0)
        fixed = entropy(geom, au_300, au_300, fd_step_K=5.0)
        varying = entropy(geom, BG_AU, BG_AU, fd_step_K=5.0)
        # dnu/dT is a small but nonzero extra contribution
        assert varying.entropy_J_per_m2_K != fixed.entropy_J_per_m2_K
        assert varying.entropy_J_per_m2_K == pytest.approx(
            fixed.entropy_J_per_m2_K, rel=0.2)


class TestNernstCheck:
    def test_vacuum_trivially_passes(self):
        report = nernst_check(Geometry(1.0, 300.0), Vacuum(), Vacuum())
        assert report.passed
        assert report.monotone
        assert all(s == 0.0 for s in report.entropies_J_per_m2_K)
        assert report.threshold_J_per_m2_K == 0.0

    def test_report_is_auditable(self):
        # the verdict must be recomputable from the raw values it carries
        report = nernst_check(Geometry(1.0, 300.0), AU, AU)
        assert report.temperatures_K == (300.0, 600.0, 1200.0, 2400.0)
        mags = [abs(s) for s in report.entropies_J_per_m2_K]
        monotone = all(mags[i] <= mags[i + 1] for i in range(len(mags) - 1))
        assert report.monotone == monotone
        # reference: the Nernst-violating limit -k_B zeta(3)/(16 pi a^2)
        s_nv = -CODATA.k_B_J_per_K * zeta3() / (16.0 * math.pi * 1e-12)
        assert report.reference_entropy_J_per_m2_K == pytest.approx(s_nv, rel=1e-12)
        assert report.threshold_J_per_m2_K == pytest.approx(
            0.5 * abs(report.reference_entropy_J_per_m2_K), rel=1e-15)
        assert report.passed == (monotone and mags[0] <= report.threshold_J_per_m2_K)
        # each rung is the central difference with step T/8
        for t, s in zip(report.temperatures_K, report.entropies_J_per_m2_K):
            assert s == entropy(Geometry(1.0, t), AU, AU,
                                fd_step_K=t / 8.0).entropy_J_per_m2_K

    @pytest.mark.parametrize("model", [AU, Vacuum()], ids=["Au-Au", "vacuum"])
    def test_reference_is_static_free_energy_over_T(self, model):
        geom = Geometry(1.0, 300.0)
        report = nernst_check(geom, model, model)
        static = free_energy(geom, model, model).zero_mode_J_per_m2
        assert report.reference_entropy_J_per_m2_K == static / geom.T_K

    def test_ideal_metal_violates(self):
        # unit reflection for every m >= 1 and no static TE mode: the
        # entropy keeps the Nernst-violating value S_NV down to T -> 0
        ideal = IdealMetal()
        report = nernst_check(Geometry(0.5, 2.0), ideal, ideal)
        assert report.temperatures_K == (2.0, 4.0, 8.0, 16.0)
        assert report.entropies_J_per_m2_K[0] == pytest.approx(
            report.reference_entropy_J_per_m2_K, rel=1e-3)
        assert report.passed is False


class TestCrossoverSeparation:
    def test_gold_room_temperature_crossover(self):
        a_star = crossover_separation(AU, AU, 300.0, 350.0)
        assert a_star == pytest.approx(2.8, abs=0.3)

    def test_consistent_with_grid_signs(self):
        # below the crossover the hotter plate pair attracts less, above more
        for a, expect_positive in ((2.5, False), (3.0, True)):
            hi = casimir_pressure(Geometry(a, 350.0), AU, AU).pressure_mPa
            lo = casimir_pressure(Geometry(a, 300.0), AU, AU).pressure_mPa
            assert ((abs(hi) - abs(lo)) > 0) == expect_positive

    def test_wider_bracket_same_root(self):
        a1 = crossover_separation(AU, AU, 300.0, 350.0, bracket_um=(1.0, 6.0))
        a2 = crossover_separation(AU, AU, 300.0, 350.0, bracket_um=(1.5, 8.0))
        assert abs(a1 - a2) <= 0.02

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError) as excinfo:
            crossover_separation(AU, AU, 300.0, 350.0, bracket_um=(1.0, 1.5))
        assert excinfo.value.g_low < 0
        assert excinfo.value.g_high < 0

    def test_temperature_order_validated(self):
        with pytest.raises(ValueError):
            crossover_separation(AU, AU, 350.0, 300.0)

    @staticmethod
    def _stub_g(monkeypatch, root_um, slope):
        """Stub the pressures so that g(a) = slope * (a - root), exactly 0 at
        the root; the bracket below is (1, 6) um."""
        def pressure(geom, model1, model3, spec):
            extra = slope * (geom.a_um - root_um) if geom.T_K == 350.0 else 0.0
            return SimpleNamespace(pressure_mPa=-(10.0 + extra))
        monkeypatch.setattr("casimir.thermo.casimir_pressure", pressure)

    @pytest.mark.parametrize("slope", [1.0, -1.0], ids=["rising", "falling"])
    @pytest.mark.parametrize("root_um", [1.0, 6.0, 3.5], ids=["low-end", "high-end", "midpoint"])
    def test_exact_zero_at_an_end_or_midpoint_is_found(self, monkeypatch, root_um, slope):
        self._stub_g(monkeypatch, root_um, slope)
        a_star = crossover_separation(AU, AU, 300.0, 350.0, bracket_um=(1.0, 6.0),
                                      resolution_um=0.01)
        assert abs(a_star - root_um) <= 0.01

    @pytest.mark.parametrize("kwargs, name", [
        ({"bracket_um": (6.0, 1.0)}, "bracket_um"),
        ({"bracket_um": (3.0, 3.0)}, "bracket_um"),
        ({"bracket_um": (0.0, 6.0)}, "bracket_um"),
        ({"bracket_um": (1.0, math.inf)}, "bracket_um"),
        ({"bracket_um": (math.nan, 6.0)}, "bracket_um"),
        ({"resolution_um": math.nan}, "resolution_um"),
        ({"resolution_um": 0.0}, "resolution_um"),
        ({"resolution_um": -0.01}, "resolution_um"),
        ({"resolution_um": math.inf}, "resolution_um"),
    ], ids=["reversed", "empty", "zero-low", "infinite-high", "nan-low", "nan-resolution",
            "zero-resolution", "negative-resolution", "infinite-resolution"])
    def test_bracket_and_resolution_are_checked_before_any_pressure(
            self, monkeypatch, kwargs, name):
        def pressure(*args):
            raise AssertionError("pressure computed")
        monkeypatch.setattr("casimir.thermo.casimir_pressure", pressure)
        with pytest.raises(ValueError, match=f"^{name} "):
            crossover_separation(AU, AU, 300.0, 350.0, **kwargs)

    def test_resolution_below_the_spacing_of_doubles_terminates(self, monkeypatch):
        # bisection stops once lo and hi are adjacent doubles
        self._stub_g(monkeypatch, 2.5, 1.0)
        a_star = crossover_separation(AU, AU, 300.0, 350.0, resolution_um=1e-300)
        assert a_star == pytest.approx(2.5, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("slope", [1.0, -1.0], ids=["both-negative", "both-positive"])
    def test_same_strict_sign_at_both_ends_raises(self, monkeypatch, slope):
        self._stub_g(monkeypatch, 7.0, slope)  # the root lies above the bracket
        with pytest.raises(BracketError) as excinfo:
            crossover_separation(AU, AU, 300.0, 350.0, bracket_um=(1.0, 6.0))
        assert excinfo.value.g_low * slope < 0 and excinfo.value.g_high * slope < 0


def worker_models_at(*sides):
    """T -> models, each side rebuilt at nu(T) by hand as perfbench/worker.py
    does; a side is (label, table or None)."""
    def models_at(T_K):
        nu = bloch_gruneisen_nu(BG, T_K)
        out = []
        for label, table in sides:
            drude = DrudeModel(DrudeParams(DB.get(label).omega_p_eV, nu, label))
            out.append(drude if table is None else TabulatedModel(table, drude))
        return tuple(out)
    return models_at


class TestModelsAtTemperature:
    """A model with nu(T) gives, bit for bit, the numbers of the models that a
    caller rebuilds at each temperature."""

    @pytest.mark.parametrize("pair, sides", [
        ((BG_AU, BG_AU), [("Au", None), ("Au", None)]),
        ((BG_AU, BG_CU), [("Au", None), ("Cu", None)]),
        ((BG_TABLE, BG_AU), [("Au", BG_TABLE.table), ("Au", None)]),
    ], ids=["drude-same-object", "drude-dissimilar", "tabulated"])
    def test_entropy_equals_a_models_at_closure(self, pair, sides):
        geom = Geometry(1.0, 300.0)
        want = entropy(geom, AU, AU, models_at=worker_models_at(*sides))
        got = entropy(geom, *pair)
        assert got.entropy_J_per_m2_K == want.entropy_J_per_m2_K
        fixed = entropy(geom, *(side.at(300.0) for side in pair))
        assert got.entropy_J_per_m2_K != fixed.entropy_J_per_m2_K  # dnu/dT entered

    @pytest.mark.parametrize("model", [BG_AU, BG_TABLE], ids=["drude", "tabulated"])
    @pytest.mark.parametrize("T_K", [30.0, 300.0])
    def test_sums_equal_the_same_sums_on_the_model_at_T(self, model, T_K):
        geom, fixed = Geometry(1.0, T_K), model.at(T_K)
        assert fixed is not model and fixed.at(T_K) is fixed
        for total in (casimir_pressure, free_energy):
            got, want = total(geom, model, model), total(geom, fixed, fixed)
            for field in dataclasses.fields(got):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
