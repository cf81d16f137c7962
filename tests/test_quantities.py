import math
import re

import pytest
from hypothesis import given, strategies as st

from casimir.quantities import (
    CODATA,
    Geometry,
    PhysicalConstants,
    matsubara_frequency,
    pressure_to_si,
    reduced_temperature,
)


class TestConstants:
    def test_pinned_values(self):
        assert CODATA.hbar_c_eV_nm == 197.3269804
        assert CODATA.k_B_eV_per_K == 8.617333262e-5
        assert CODATA.e_charge_C == 1.602176634e-19
        assert CODATA.k_B_J_per_K == pytest.approx(1.380649e-23, rel=1e-9)

    def test_immutable(self):
        with pytest.raises(Exception):
            CODATA.hbar_c_eV_nm = 1.0  # frozen dataclass

    def test_ev_to_rad_per_s(self):
        # e/hbar, hand arithmetic
        assert CODATA.eV_to_rad_per_s == pytest.approx(
            1.602176634e-19 / 1.054571817e-34, rel=1e-12)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(a_um=0.0, T_K=300.0)
        with pytest.raises(ValueError):
            Geometry(a_um=1.0, T_K=-1.0)

    @pytest.mark.parametrize("a_um, T_K", [(1e-300, 300.0), (1e-323, 1.0)])
    def test_underflowing_scales_rejected(self, a_um, T_K):
        # a^3 in m^3, and at 1e-323 also gamma, underflow to 0
        with pytest.raises(ValueError, match=f"a={a_um} um, T={T_K} K"):
            Geometry(a_um, T_K)

    @pytest.mark.parametrize("a_um, T_K, cause", [
        (1e-100, 1e12, "scale"), (1e100, 3.6e-86, "scale"), (1e300, 300.0, "too large"),
        (1.0, 1e300, "too large"), (1e6, 3.7e8, "too large"), (math.inf, 1.0, "too large"),
    ])
    def test_overflowing_scales_rejected(self, a_um, T_K, cause):
        # k_B T/(pi a^3) overflows at the first pair and underflows at the
        # second; the others exceed the reduced-temperature bound 1e12
        with pytest.raises(ValueError, match=re.escape(f"a={a_um} um, T={T_K} K: ") + f".*{cause}"):
            Geometry(a_um, T_K)


class TestReducedTemperature:
    def test_room_temperature_micron_gap(self):
        # direct evaluation 2*pi*a*k_B*T/(hbar c) with the pinned constants
        expected = 2.0 * math.pi * 1.0 * (8.617333262e-5 * 300.0) / 0.1973269804
        gamma = reduced_temperature(Geometry(1.0, 300.0))
        assert gamma == pytest.approx(expected, rel=1e-12)
        assert gamma == pytest.approx(0.8232, rel=2e-4)

    def test_linear_in_gap(self):
        g1 = reduced_temperature(Geometry(1.0, 300.0))
        g2 = reduced_temperature(Geometry(2.0, 300.0))
        assert g2 == 2.0 * g1  # power-of-two scaling is exact

    def test_vanishes_with_gap(self):
        assert reduced_temperature(Geometry(1e-9, 300.0)) < 1e-9

    def test_consistency_with_matsubara(self):
        geom = Geometry(0.7, 150.0)
        expected = geom.a_um * matsubara_frequency(1, geom.T_K) / CODATA.hbar_c_eV_um
        assert reduced_temperature(geom) == expected


class TestMatsubaraFrequency:
    def test_zero_mode(self):
        assert matsubara_frequency(0, 300.0) == 0.0
        assert matsubara_frequency(0, 1.0) == 0.0

    def test_first_mode_room_temperature(self):
        # 2*pi*k_B*300, hand arithmetic
        assert matsubara_frequency(1, 300.0) == pytest.approx(0.16243, rel=1e-4)

    def test_rad_per_s_window(self):
        # the first room-temperature mode sits well inside the frequency
        # window of measured optical data (1.5e11 .. 1.5e18 rad/s)
        omega = matsubara_frequency(1, 300.0) * CODATA.eV_to_rad_per_s
        assert omega == pytest.approx(2.468e14, rel=1e-3)
        assert 1.5e11 < omega < 1.5e18

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            matsubara_frequency(-1, 300.0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_exactly_linear_in_m(self, m):
        first = matsubara_frequency(1, 300.0)
        assert matsubara_frequency(m, 300.0) == m * first


class TestPressureToSi:
    def test_zero_mode_coefficient(self):
        # k_B*T/(pi*a^3) * I0, hand arithmetic:
        # 1.380649e-23*300/(pi*1e-18)*1e3 mPa * 0.1502571129 = 0.198102 mPa
        geom = Geometry(1.0, 300.0)
        assert pressure_to_si(-0.1502571129, geom) == pytest.approx(-0.19810, rel=1e-4)

    def test_zero(self):
        assert pressure_to_si(0.0, Geometry(1.0, 300.0)) == 0.0

    def test_inverse_cube_scaling(self):
        # same coefficient at 4x the gap: exactly 1/64 of the pressure
        p1 = pressure_to_si(-0.1502571129, Geometry(1.0, 300.0))
        p4 = pressure_to_si(-0.1502571129, Geometry(4.0, 300.0))
        assert p4 == p1 / 64.0
        assert p4 == pytest.approx(-3.0953e-3, rel=1e-4)

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_linear_in_coefficient(self, c):
        geom = Geometry(0.5, 350.0)
        factor = pressure_to_si(1.0, geom)
        assert pressure_to_si(c, geom) == c * factor

    def test_scales_as_temperature(self):
        p300 = pressure_to_si(1.0, Geometry(1.0, 300.0))
        p150 = pressure_to_si(1.0, Geometry(1.0, 150.0))
        assert p300 == pytest.approx(2.0 * p150, rel=1e-14)
