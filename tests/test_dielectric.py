import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import casimir.dielectric
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
    UnknownMaterialError,
    Vacuum,
    bloch_gruneisen_nu,
    drude_epsilon,
    kramers_kronig_transform,
    read_optical_csv,
)
from casimir.quantities import CODATA

AU = DrudeParams(9.03, 34.5e-3, "Au")


class TestDrudeParams:
    def test_zero_relaxation_rejected(self):
        with pytest.raises(ValueError):
            DrudeParams(omega_p_eV=9.0, nu_eV=0.0)

    def test_negative_plasma_rejected(self):
        with pytest.raises(ValueError):
            DrudeParams(omega_p_eV=-1.0, nu_eV=0.01)

    def test_plasma_whose_square_overflows_rejected(self):
        # drude_epsilon squares omega_p, which overflows above sqrt(max float) ~ 1.34e154
        with pytest.raises(ValueError, match="finite square"):
            DrudeParams(1e300, 0.01)
        assert DrudeParams(1e154, 0.01).omega_p_eV == 1e154
        assert DrudeParams(1e-200, 0.01).omega_p_eV == 1e-200  # its square underflows to 0


class TestDrudeEpsilon:
    def test_at_plasma_frequency(self):
        # 1 + 9.03/(9.03 + 0.0345) by direct substitution
        assert drude_epsilon(AU, 9.03) == pytest.approx(1.99619, rel=1e-5)

    def test_high_frequency_transparency(self):
        assert drude_epsilon(AU, 1e9) == pytest.approx(1.0, abs=1e-15)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            drude_epsilon(AU, 0.0)
        with pytest.raises(ValueError):
            drude_epsilon(AU, np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="^zeta must be positive"):
            drude_epsilon(AU, np.array([1.0, np.nan]))

    def test_static_te_condition(self):
        # zeta^2 (eps - 1) = omega_p^2 zeta/(zeta + nu) -> 0 with bound
        # omega_p^2 * zeta/nu
        for zeta in (1e-4, 1e-6, 1e-8):
            value = zeta**2 * (drude_epsilon(AU, zeta) - 1.0)
            assert value <= AU.omega_p_eV**2 * zeta / AU.nu_eV * (1 + 1e-12)
        z = np.array([1e-4, 1e-6, 1e-8])
        vals = z**2 * (drude_epsilon(AU, z) - 1.0)
        assert np.all(np.diff(vals) < 0)  # decreasing toward 0

    @given(
        omega_p=st.floats(min_value=0.1, max_value=100.0),
        nu=st.floats(min_value=1e-4, max_value=1.0),
        zeta=st.floats(min_value=1e-8, max_value=1e6),
    )
    def test_at_least_unity_and_decreasing(self, omega_p, nu, zeta):
        params = DrudeParams(omega_p, nu)
        eps = drude_epsilon(params, zeta)
        assert eps >= 1.0
        assert drude_epsilon(params, zeta * 1.5) <= eps


class TestPlasmaWavelength:
    # each built-in omega_p next to the reference plasma wavelength in nm
    # it reproduces, 2 pi hbar c/omega_p
    @pytest.mark.parametrize("label,omega_p,reference_nm", [
        ("Au", 9.03, 137.4),
        ("Cu", 8.97, 138.3),
        ("Al", 11.5, 107.9),
    ])
    def test_matches_reference_values(self, label, omega_p, reference_nm):
        params = MaterialDatabase.builtin().get(label)
        assert params.omega_p_eV == omega_p


class TestMaterialDatabase:
    def test_builtin_values(self):
        db = MaterialDatabase.builtin()
        assert db.get("Au") == DrudeParams(9.03, 34.5e-3, "Au")
        assert db.get("Cu") == DrudeParams(8.97, 29.5e-3, "Cu")
        assert db.get("Al") == DrudeParams(11.5, 50.6e-3, "Al")

    def test_case_insensitive(self):
        db = MaterialDatabase.builtin()
        assert db.get("au") == db.get("AU") == db.get("Au")

    def test_unknown_label(self):
        with pytest.raises(UnknownMaterialError):
            MaterialDatabase.builtin().get("unobtanium")

    def test_from_json(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps([
            {"label": "Nb", "omega_p_eV": 7.0, "nu_eV": 0.02},
            {"label": "Au", "omega_p_eV": 9.10, "nu_eV": 0.03},
        ]))
        db = MaterialDatabase.from_json(path)
        assert db.get("Nb").omega_p_eV == 7.0
        assert db.get("Au").omega_p_eV == 9.10  # file overrides builtin
        assert db.get("Cu").omega_p_eV == 8.97  # builtin kept

    def test_an_empty_label_is_rejected(self):
        with pytest.raises(ValueError, match="^database entries need a nonempty label$"):
            MaterialDatabase([AU, DrudeParams(7.0, 0.02)])

    @pytest.mark.parametrize("raw", [{"label": "X", "omega_p_eV": 7.0, "nu_eV": 0.02}, "Au", 3])
    def test_from_json_needs_an_array(self, tmp_path, raw):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a JSON array "
                                             "of material objects$"):
            MaterialDatabase.from_json(path)

    def test_from_json_malformed(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps([{"label": "X"}]))
        with pytest.raises(ValueError):
            MaterialDatabase.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("omega_p_eV", True), ("nu_eV", True), ("omega_p_eV", False),
        ("label", True), ("label", False), ("label", None), ("label", 5), ("label", ""),
        ("omega_p_eV", "9.03"), ("nu_eV", "0.0345"), ("nu_eV", "inf"), ("omega_p_eV", 10**400),
    ])
    def test_from_json_rejects_booleans_and_non_string_labels(self, tmp_path, key, value):
        # float(True) is 1.0, float("9.03") is 9.03 and str(None) is 'None':
        # none may pass as data; an integer past the double range neither
        path = tmp_path / "materials.json"
        entry = {"label": "X", "omega_p_eV": 9.0, "nu_eV": 0.03, key: value}
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match="malformed material entry") as excinfo:
            MaterialDatabase.from_json(path)
        assert str(path) in str(excinfo.value) and repr(entry) in str(excinfo.value)


class TestBlochGruneisen:
    def test_at_theta(self):
        # 0.0847 * integral over [0, 1]; oracle below uses an independent
        # quadrature of the exponential form of the integrand
        oracle, _ = quad(lambda x: x**5 * math.exp(x) / math.expm1(x) ** 2, 1e-12, 1.0)
        nu = bloch_gruneisen_nu(BlochGruneisenParams(), 175.0)
        assert oracle == pytest.approx(0.23663, rel=2e-4)
        assert nu == pytest.approx(0.0847 * oracle, rel=1e-8)
        assert nu == pytest.approx(0.02004, rel=1e-3)

    def test_room_temperature_near_drude_value(self):
        nu = bloch_gruneisen_nu(BlochGruneisenParams(), 300.0)
        assert nu == pytest.approx(0.0356, rel=2e-3)
        # within ~5% of the fixed Drude relaxation frequency for gold
        assert abs(nu - 34.5e-3) / 34.5e-3 < 0.05

    def test_vanishes_at_low_temperature(self):
        nu1 = bloch_gruneisen_nu(BlochGruneisenParams(), 1.0)
        nu4 = bloch_gruneisen_nu(BlochGruneisenParams(), 4.0)
        assert 0.0 < nu1 < nu4 < 1e-6
        # T^5 scaling once the integral saturates
        assert nu4 / nu1 == pytest.approx(4.0**5, rel=1e-3)

    @staticmethod
    def _quadpack_nu(params, T_K):
        cut = min(params.theta_K / T_K, 200.0)
        val, _ = quad(lambda x: x**5 / (4.0 * math.sinh(0.5 * x) ** 2), 0.0, cut,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return params.prefactor_eV * (T_K / params.theta_K) ** 5 * val

    @pytest.mark.parametrize("T_K", np.geomspace(0.05, 1000.0, 25))
    def test_matches_quadpack(self, T_K):
        params = BlochGruneisenParams()
        nu = bloch_gruneisen_nu(params, T_K)
        assert nu == pytest.approx(self._quadpack_nu(params, T_K), rel=1e-13)

    @pytest.mark.parametrize("T_K", [175.0, 200.0, 400.0, 5000.0])
    def test_matches_quadpack_above_theta(self, T_K):
        # theta/T <= 1: a single panel [0, theta/T], no interior breaks
        params = BlochGruneisenParams(theta_K=175.0, prefactor_eV=0.05)
        nu = bloch_gruneisen_nu(params, T_K)
        assert nu == pytest.approx(self._quadpack_nu(params, T_K), rel=1e-13)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            bloch_gruneisen_nu(BlochGruneisenParams(), 0.0)
        with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
            bloch_gruneisen_nu(BlochGruneisenParams(), math.nan)

    def test_underflow_names_the_temperature(self):
        # nu ~ T^5 leaves the double range below about 1e-63 K
        assert bloch_gruneisen_nu(BlochGruneisenParams(), 1e-60) > 0.0
        with pytest.raises(NuRangeError, match="T = 1e-70 K"):
            bloch_gruneisen_nu(BlochGruneisenParams(), 1e-70)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BlochGruneisenParams(theta_K=-1.0)
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^prefactor must be positive and finite, "
                                                 f"got {bad}$"):
                BlochGruneisenParams(prefactor_eV=bad)

    @pytest.mark.parametrize("T_K, theta_K", [(300.0, 1e-62), (1e64, 175.0),
                                              (300.0, 1e-300), (1e300, 1e-10)])
    def test_overflowing_ratio_names_T_and_theta(self, T_K, theta_K, monkeypatch):
        # (T/theta)^5 leaves the double range above T/theta ~ 4.5e61; the
        # last case has T/theta itself infinite
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated out of range")
        monkeypatch.setattr("casimir.dielectric.integrate_adaptive", no_integral)
        with pytest.raises(NuRangeError, match=re.escape(f"T = {T_K} K, theta = {theta_K} K")):
            bloch_gruneisen_nu(BlochGruneisenParams(theta_K=theta_K), T_K)

    def test_largest_ratio_stays_finite(self):
        # just inside the range nu is finite and positive, without a warning
        nu = bloch_gruneisen_nu(BlochGruneisenParams(theta_K=1.0), 4.4e61)
        assert 0.0 < nu < math.inf


def _drude_loss(params: DrudeParams, omega_eV):
    return params.omega_p_eV**2 * params.nu_eV / (omega_eV * (omega_eV**2 + params.nu_eV**2))


class TestKramersKronig:
    def _window(self, per_decade=80):
        w = np.logspace(np.log10(1.5e11), np.log10(1.5e18), int(7 * per_decade))
        eps2 = _drude_loss(AU, w / CODATA.eV_to_rad_per_s)
        return w, eps2

    def test_reproduces_drude(self):
        w, eps2 = self._window()
        zeta_eV = 1.0
        got = kramers_kronig_transform(w, eps2, zeta_eV * CODATA.eV_to_rad_per_s)
        assert got == pytest.approx(drude_epsilon(AU, zeta_eV), rel=5e-3)

    def test_vacuum(self):
        w, _ = self._window(per_decade=10)
        for z in (1e12, 1e14, 1e16):
            assert kramers_kronig_transform(w, np.zeros_like(w), z) == pytest.approx(1.0, abs=1e-15)

    def test_linearity(self):
        w, eps2 = self._window(per_decade=20)
        z = 5e14
        base = kramers_kronig_transform(w, eps2, z) - 1.0
        doubled = kramers_kronig_transform(w, 2.0 * eps2, z) - 1.0
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kramers_kronig_transform([], [], 1e14)
        w, eps2 = self._window(per_decade=5)
        with pytest.raises(ValueError):
            kramers_kronig_transform(w, eps2, -1.0)
        with pytest.raises(ValueError, match="^zeta must be positive$"):
            kramers_kronig_transform(w, eps2, [1e14, np.nan])
        with pytest.raises(ValueError):
            kramers_kronig_transform(w[::-1], eps2, 1e14)
        with pytest.raises(ValueError):
            kramers_kronig_transform(w, -eps2, 1e14)
        for column, bad in ((0, np.nan), (0, np.inf), (1, np.nan), (1, np.inf)):
            data = np.array([w, eps2])
            data[column, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                kramers_kronig_transform(*data, 1e14)

    def test_high_tail_far_below_the_last_sample(self):
        # the default grid of ``casimir kk`` on samples from 1e-160 to 1e10
        # rad/s: the high tail's closed form, taken at every zeta, divided by
        # zeta^2, which underflows there; only the series is taken below u = 0.1
        w = np.logspace(-160, 10, 35)
        zeta = np.logspace(-160, 10, 170 * 60 + 1)
        got = kramers_kronig_transform(w, np.ones_like(w), zeta)
        assert np.isfinite(got).all() and (got >= 1.0).all()
        assert got[-1] == kramers_kronig_transform(w, np.ones_like(w), zeta[-1:])[0]

    def test_memory_per_frequency_is_bounded(self):
        # the split sample intervals are built per block of frequencies;
        # built for every zeta at once they took about 480 bytes each
        w, eps2 = self._window(per_decade=30)
        peaks = []
        for n in (4_000, 40_000):
            zeta = np.geomspace(2e11, 1e18, n)
            tracemalloc.start()
            try:
                kramers_kronig_transform(w, eps2, zeta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 36_000 < 128  # bytes, 16 doubles per frequency


class TestPermittivityTable:
    def _drude_table(self, per_decade=50):
        z = np.logspace(-4, 3, int(7 * per_decade))
        return PermittivityTable(zeta_eV=z, eps=drude_epsilon(AU, z))

    def test_validation(self):
        with pytest.raises(ValueError):
            PermittivityTable(zeta_eV=np.array([1.0]), eps=np.array([2.0]))
        with pytest.raises(ValueError):
            PermittivityTable(zeta_eV=np.array([1.0, 1.0]), eps=np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            PermittivityTable(zeta_eV=np.array([1.0, 2.0]), eps=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            PermittivityTable(zeta_eV=np.array([1.0, 2.0]), eps=np.array([2.0, 3.0]))
        for zeta, eps in (([1.0, np.nan, 3.0], [3.0, 2.0, 1.5]), ([1.0, 2.0, np.inf], [3.0, 2.0, 1.5]),
                          ([1.0, 2.0, 3.0], [3.0, np.nan, 1.5]), ([1.0, 2.0, 3.0], [np.inf, 2.0, 1.5])):
            with pytest.raises(ValueError, match="finite"):
                PermittivityTable(zeta_eV=np.array(zeta), eps=np.array(eps))

    def test_interpolation_accuracy(self):
        table = self._drude_table(per_decade=50)
        model = TabulatedModel(table, low_freq=DrudeModel(AU))
        zq = np.logspace(-3.9, 2.9, 300)
        rel = np.abs(model.epsilon(zq) - drude_epsilon(AU, zq)) / drude_epsilon(AU, zq)
        assert rel.max() < 1e-3

    def test_nonpositive_or_nan_zeta_rejected(self):
        model = TabulatedModel(self._drude_table(), low_freq=DrudeModel(AU))
        for zeta in (0.0, -1.0, np.nan, [1.0, np.nan]):
            with pytest.raises(ValueError, match="^zeta must be positive$"):
                model.epsilon(zeta)

    def test_drude_tail_below_window(self):
        model = TabulatedModel(self._drude_table(), low_freq=DrudeModel(AU))
        assert model.epsilon(1e-6) == drude_epsilon(AU, 1e-6)

    def test_free_electron_tail_above_window(self):
        table = self._drude_table()
        model = TabulatedModel(table, low_freq=DrudeModel(AU))
        z = 5e3
        expected = 1.0 + (table.eps[-1] - 1.0) * (table.zeta_max_eV / z) ** 2
        assert model.epsilon(z) == pytest.approx(expected, rel=1e-14)

    def test_high_frequency_limit(self):
        model = TabulatedModel(self._drude_table(), low_freq=DrudeModel(AU))
        assert model.epsilon(1e12) == pytest.approx(1.0, abs=1e-12)

    def test_repr_shows_the_continuation_jump(self):
        table = self._drude_table(per_decade=5)
        assert repr(TabulatedModel(table, DrudeModel(AU))).endswith("tail=Au, jump=0)")
        cu = DrudeParams(8.97, 29.5e-3, "Cu")
        z = table.zeta_min_eV
        jump = abs(drude_epsilon(cu, z) / drude_epsilon(AU, z) - 1.0)
        assert jump > 0.1  # omega_p^2/nu differs by 15%
        assert repr(TabulatedModel(table, DrudeModel(cu))).endswith(f"tail=Cu, jump={jump:.3g})")

    def test_csv_round_trip(self, tmp_path):
        table = self._drude_table(per_decade=5)
        path = tmp_path / "eps.csv"
        table.to_csv(path)
        back = PermittivityTable.from_csv(path)
        np.testing.assert_allclose(back.zeta_eV, table.zeta_eV, rtol=1e-11)
        np.testing.assert_allclose(back.eps, table.eps, rtol=1e-11)

    def test_csv_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,epsilon\n1.0,2.0\n")
        with pytest.raises(ValueError):
            PermittivityTable.from_csv(path)

    def test_optical_csv_reader(self, tmp_path):
        path = tmp_path / "optical.csv"
        path.write_text("omega_rad_s,eps_imag\n1e12,5.0\n1e13,0.5\n")
        omega, eps2 = read_optical_csv(path)
        assert omega.tolist() == [1e12, 1e13]
        assert eps2.tolist() == [5.0, 0.5]
        empty = tmp_path / "empty.csv"
        empty.write_text("omega_rad_s,eps_imag\n")
        with pytest.raises(ValueError):
            read_optical_csv(empty)

    def test_an_empty_csv_file_names_itself(self, tmp_path):
        # no header line at all, for both readers
        path = tmp_path / "empty.csv"
        path.write_text("")
        for read in (read_optical_csv, PermittivityTable.from_csv):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
                read(path)

    def test_csv_reader_skips_blank_rows(self, tmp_path):
        path = tmp_path / "optical.csv"
        path.write_text("omega_rad_s,eps_imag\n\n1e12,5.0\n , \n1e13,0.5\n\n")
        omega, eps2 = read_optical_csv(path)
        assert omega.tolist() == [1e12, 1e13]
        assert eps2.tolist() == [5.0, 0.5]

    @pytest.mark.parametrize("row", ["1e12,5.0,99", "1e12,5.0,", "1e12"])
    def test_csv_reader_needs_exactly_two_fields(self, tmp_path, row):
        path = tmp_path / "optical.csv"
        path.write_text(f"omega_rad_s,eps_imag\n1e11,6.0\n{row}\n1e13,0.5\n")
        with pytest.raises(ValueError, match=f"{path}:3: malformed row"):
            read_optical_csv(path)


class TestModels:
    def test_vacuum_flag(self):
        assert Vacuum().is_vacuum
        assert not DrudeModel(AU).is_vacuum
        assert not IdealMetal().is_vacuum

    def test_a_drude_model_shows_its_label_and_frequencies(self):
        assert repr(DrudeModel(AU)) == "DrudeModel(Au: omega_p=9.03 eV, nu=0.0345 eV)"
        assert repr(DrudeModel(DrudeParams(1.5, 0.02))) == "DrudeModel(?: omega_p=1.5 eV, nu=0.02 eV)"

    def test_the_base_model_has_no_permittivity(self):
        with pytest.raises(NotImplementedError):
            DielectricModel().epsilon(1.0)

    def test_a_subclass_that_defines_epsilon_is_analytic_only_if_it_says_so(self):
        class Stepped(DrudeModel):
            def epsilon(self, zeta_eV):
                return super().epsilon(zeta_eV) + (np.asarray(zeta_eV) > 1.0)

        class Declared(Stepped):
            analytic = True

        class Renamed(DrudeModel):
            pass
        assert DrudeModel.analytic and IdealMetal.analytic and Renamed.analytic
        assert not (Vacuum.analytic or TabulatedModel.analytic or Stepped.analytic)
        assert Declared.analytic and not type("Again", (Declared,), {"epsilon": Stepped.epsilon}).analytic

    TABLE =PermittivityTable(np.logspace(-1, 2, 5), drude_epsilon(AU, np.logspace(-1, 2, 5)))

    def test_at_is_the_model_itself_without_nu_of_T(self):
        for model in (Vacuum(), IdealMetal(), DrudeModel(AU),
                      TabulatedModel(self.TABLE, DrudeModel(AU))):
            assert model.at(300.0) is model

    def test_at_takes_the_bloch_gruneisen_nu_of_T(self):
        bg = BlochGruneisenParams()
        model = DrudeModel(AU, bg)
        at = model.at(300.0)
        assert at.params == DrudeParams(AU.omega_p_eV, bloch_gruneisen_nu(bg, 300.0), "Au")
        assert at.at(4.0) is at and model.epsilon(1.0) == drude_epsilon(AU, 1.0)
        assert model.at(300.0) is at
        tab = TabulatedModel(self.TABLE, model).at(300.0)
        assert tab.table is self.TABLE and tab.low_freq.params == at.params
        assert tab.at(4.0) is tab
        with pytest.raises(NuRangeError, match="underflows"):
            model.at(1e-70)

    def test_a_tabulated_model_at_t_shares_its_tables_log_arrays(self):
        low = DrudeModel(AU, BlochGruneisenParams())
        model = TabulatedModel(self.TABLE, low)
        at = model.at(300.0)
        assert at._log_zeta is model._log_zeta and at._log_eps is model._log_eps
        assert at.low_freq is low.at(300.0) and model.low_freq is low
        zeta = np.logspace(-3, 3, 61)  # below, inside and above the table
        want = TabulatedModel(self.TABLE, low.at(300.0)).epsilon(zeta)
        assert at.epsilon(zeta).tobytes() == want.tobytes()

    def test_at_is_one_object_per_model_and_temperature(self):
        bg = DrudeModel(AU, BlochGruneisenParams())
        for model in (DrudeModel(AU), bg, TabulatedModel(self.TABLE, DrudeModel(AU)),
                      TabulatedModel(self.TABLE, bg), Vacuum(), IdealMetal()):
            for T_K in (4.0, 300.0):
                assert model.at(T_K) is model.at(T_K)

    def test_at_keeps_a_bounded_number_of_temperatures(self, monkeypatch):
        calls = []

        def spy(params, T_K):
            calls.append(T_K)
            return bloch_gruneisen_nu(params, T_K)
        monkeypatch.setattr(casimir.dielectric, "bloch_gruneisen_nu", spy)
        model = DrudeModel(AU, BlochGruneisenParams())
        bound = casimir.dielectric._drude_at.cache_parameters()["maxsize"]
        temperatures = [300.0 + k for k in range(bound + 1)]
        first = [model.at(T_K) for T_K in temperatures]
        assert all(model.at(T_K) is at for T_K, at in zip(temperatures[1:], first[1:]))
        assert calls == temperatures  # each once while it is remembered
        assert model.at(300.0) is not first[0] and model.at(300.0).params == first[0].params
        assert calls == temperatures + [300.0]

    @settings(max_examples=25, deadline=None)
    @given(zeta=st.floats(min_value=1e-6, max_value=1e4))
    def test_monotone_non_increasing_every_model(self, zeta):
        table = PermittivityTable(
            zeta_eV=np.logspace(-4, 3, 100),
            eps=drude_epsilon(AU, np.logspace(-4, 3, 100)))
        for model in (DrudeModel(AU), TabulatedModel(table, DrudeModel(AU))):
            lo = model.epsilon(zeta)
            hi = model.epsilon(zeta * 2.0)
            assert 1.0 <= hi <= lo * (1 + 1e-12)
