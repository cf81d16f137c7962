import ast
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import casimir
import casimir.lifshitz
from casimir.cli import (
    EXIT_COMPUTE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TOLERANCE,
    build_parser,
    main,
)
from casimir import golden
from casimir.dielectric import (
    BlochGruneisenParams,
    DrudeModel,
    DrudeParams,
    MaterialDatabase,
    PermittivityTable,
    TabulatedModel,
    bloch_gruneisen_nu,
    drude_epsilon,
    kramers_kronig_transform,
    read_optical_csv,
)
from casimir.lifshitz import QuadratureSpec, casimir_pressure
from casimir.quantities import CODATA, Geometry
from casimir.thermo import _ENTROPY_SPEC, _ENTROPY_STEP_K, nernst_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def spoil(path, column, text):
    """Overwrite one cell in the middle of a two-column CSV file."""
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = text
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestPressureCommand:
    def test_gold_half_micron(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "0.5", "--T", "300", "--format", "csv")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 1
        p = float(rows[0]["pressure_mPa"])
        assert p == pytest.approx(-15.49, rel=0.02)
        assert rows[0]["converged"] == "true"

    def test_three_temperatures_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "0.5", "--T", "1,300,350", "--format", "csv")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [float(r["T_K"]) for r in rows] == [1.0, 300.0, 350.0]
        mags = [abs(float(r["pressure_mPa"])) for r in rows]
        assert mags[0] > mags[1] > mags[2]

    def test_vacuum_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--pair", "vacuum,Au",
                               "--a", "1", "--T", "300", "--format", "csv")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert float(rows[0]["pressure_mPa"]) == 0.0

    def test_unknown_material(self, capsys):
        # the message as given, without the quotes KeyError's str adds
        code, _, err = run_cli(capsys, "pressure", "--pair", "Au,Foo",
                               "--a", "1", "--T", "300")
        assert code == EXIT_INPUT
        assert err == "error: unknown material 'Foo' (known: Al, Au, Cu)\n"

    def test_bad_list(self, capsys):
        code, _, err = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "1,-2", "--T", "300")
        assert code == EXIT_INPUT

    def test_bloch_gruneisen_option(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "2", "--T", "300", "--format", "csv",
                               "--nu-model", "bloch-gruneisen")
        assert code == EXIT_OK
        code2, out2, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                                 "--a", "2", "--T", "300", "--format", "csv")
        p_bg = float(parse_csv(out)[0]["pressure_mPa"])
        p_fixed = float(parse_csv(out2)[0]["pressure_mPa"])
        # nu(300 K) ~ 35.6 meV vs 34.5 meV: a small but visible shift
        assert p_bg != p_fixed
        assert p_bg == pytest.approx(p_fixed, rel=1e-2)

    def test_underflowing_terms_converge(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--a", "88", "--T", "300",
                               "--format", "csv")
        assert code == EXIT_OK
        assert parse_csv(out)[0]["converged"] == "true"

    def test_a_sum_out_of_terms_prints_its_partial_row_and_exits_1(self, capsys):
        # e^{-2 gamma} rounds to 1: the sum runs out of terms before it stops
        code, out, err = run_cli(capsys, "pressure", "--a", "1", "--T", "1e-20",
                                 "--format", "csv")
        (row,) = parse_csv(out)
        assert code == EXIT_COMPUTE and err == ""
        assert row["converged"] == "false"
        assert int(row["n_terms"]) == QuadratureSpec().max_terms

    def test_quadrature_error_exits_1_without_traceback(self, capsys, monkeypatch):
        def nan_kernel(y, work, free_energy, kinds, A, *eps):
            # NaN fails the fixed rules' certificate and then the adaptive fallback
            return np.full(y.shape, np.nan)
        monkeypatch.setattr(casimir.lifshitz, "_mode_kernel", nan_kernel)
        code, out, err = run_cli(capsys, "pressure", "--a", "1", "--T", "300")
        assert code == EXIT_COMPUTE
        assert err.startswith("error: ")
        assert "m=1 " in err
        assert "Traceback" not in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "4", "--T", "300", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 1 and "pressure_mPa" in rows[0]


class TestSweepCommand:
    def test_grid_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--pair", "Au,Au",
                               "--a", "2,4", "--T", "300,350")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "a_um,T_K,pressure_mPa,zero_mode_mPa,n_terms,converged"
        assert len(lines) == 5  # header + 2x2 grid
        rows = parse_csv(out)
        assert [(float(r["a_um"]), float(r["T_K"])) for r in rows] == \
            [(2.0, 300.0), (2.0, 350.0), (4.0, 300.0), (4.0, 350.0)]

    def test_numbers_roundtrip_12_digits(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--pair", "Au,Au",
                            "--a", "2", "--T", "300")
        row = parse_csv(out)[0]
        value = float(row["pressure_mPa"])
        assert float(f"{value:.12g}") == pytest.approx(value, rel=1e-11)

    def test_crossover_sign_change_visible(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--pair", "Au,Au",
                            "--a", "2.5,3.0", "--T", "300,350")
        rows = parse_csv(out)
        by_cell = {(float(r["a_um"]), float(r["T_K"])): abs(float(r["pressure_mPa"]))
                   for r in rows}
        assert by_cell[(2.5, 350.0)] < by_cell[(2.5, 300.0)]
        assert by_cell[(3.0, 350.0)] > by_cell[(3.0, 300.0)]

    def test_single_point(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--pair", "Au,Au", "--a", "4", "--T", "350")
        assert len(parse_csv(out)) == 1

    def test_equals_pressure_csv_without_zero_mode_share(self, capsys):
        grid = ("--pair", "Au,Cu", "--a", "2,0.5", "--T", "350,300")
        code, sweep, _ = run_cli(capsys, "sweep", *grid)
        assert code == EXIT_OK
        code, pressure, _ = run_cli(capsys, "pressure", *grid, "--format", "csv")
        assert code == EXIT_OK
        lines = [line.split(",") for line in pressure.split("\r\n")]
        share = lines[0].index("zero_mode_share")
        dropped = "\r\n".join(",".join(f[:share] + f[share + 1:]) for f in lines)
        assert len(lines) == 6 and sweep == dropped  # header, 2 x 2 cells, final newline

    def test_sweep_computes_nu_once_per_side_and_temperature(self, capsys, monkeypatch):
        calls = []

        def spy(params, T_K):
            calls.append(T_K)
            return bloch_gruneisen_nu(params, T_K)
        monkeypatch.setattr(casimir.dielectric, "bloch_gruneisen_nu", spy)
        code, out, _ = run_cli(capsys, "sweep", "--pair", "Au,Cu", "--a", "1,2,3",
                               "--T", "350,300", "--nu-model", "bloch-gruneisen")
        assert code == EXIT_OK and len(parse_csv(out)) == 6
        assert sorted(calls) == [300.0, 300.0, 350.0, 350.0]


class TestTableCommand:
    def test_gold_table_passes(self, capsys):
        code, out, err = run_cli(capsys, "table", "1", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)  # the verdict goes to stderr
        assert len(rows) == 36 and all(r["status"] == "pass" for r in rows)
        assert err == "table 1 (Au-Au): all 36 cells within tolerance\n"

    def test_tightened_tolerance_fails_with_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "1", "--tol-long", "1e-4",
                                 "--tol-short", "1e-4", "--format", "csv")
        assert code == EXIT_TOLERANCE
        assert "out of tolerance" in err
        assert {r["tol"] for r in parse_csv(out)} == {"0.0001"}

    def test_one_tolerance_given_keeps_the_other_default(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1", "--tol-long", "1e-4", "--format", "json")
        short_default = golden.cell_tolerance(0.16)
        tols = {(r["a_um"] < golden.SHORT_RANGE_UM, r["tol"]) for r in json.loads(out)}
        assert code == EXIT_TOLERANCE and tols == {(True, short_default), (False, 1e-4)}

    def test_typo_corrected_cell_is_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "--format", "csv")
        rows = [r for r in parse_csv(out)
                if r["a_um"] == "0.2" and r["T_K"] == "350"]
        assert rows and rows[0]["note"] == "typo-corrected reference"
        assert float(rows[0]["reference_mPa"]) == 494.7

    def test_computational_failure_exits_1(self, capsys, monkeypatch):
        # a cell whose sum runs out of terms: every row is printed, then one line
        real = casimir.lifshitz.casimir_pressure

        def out_of_terms(geom, *args):
            res = real(geom, *args)
            if geom.T_K == golden.TEMPERATURES_K[0]:
                raise casimir.SumConvergenceError("forced", replace(res, converged=False))
            return res
        monkeypatch.setattr(casimir.lifshitz, "casimir_pressure", out_of_terms)
        code, out, err = run_cli(capsys, "table", "1", "--format", "csv")
        rows = parse_csv(out)
        assert code == EXIT_COMPUTE and len(rows) == 36
        assert {r["status"] for r in rows if r["T_K"] == f"{golden.TEMPERATURES_K[0]:g}"} == {
            "FAIL"}
        assert err == "table 1 (Au-Au): computational failure\n"

    def test_invalid_table_id(self, capsys):
        code, _, err = run_cli(capsys, "table", "9")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("flag, value", [
        ("--pair", "Cu,Cu"), ("--a", "0.5"), ("--eps1", "eps.csv"),
        ("--eps3", "eps.csv"), ("--nu-model", "bloch-gruneisen"), ("--theta", "200")])
    def test_fixed_flags_are_rejected(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "table", "1", flag, value)
        assert code == EXIT_INPUT
        assert flag in err and out == ""

    @pytest.mark.parametrize("key, value", [
        ("pair", "Cu,Cu"), ("a", "0.5"), ("T", "300"), ("eps1", "eps.csv"),
        ("eps3", "eps.csv"), ("nu_model", "bloch-gruneisen"), ("theta", 200.0)])
    def test_fixed_config_keys_are_rejected(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "table", "1", "--config", str(cfg))
        assert code == EXIT_INPUT
        assert "--" + key.replace("_", "-") in err and out == ""


class TestEntropyCommand:
    def test_vacuum_all_zero_and_nernst_pass(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--pair", "vacuum,vacuum",
                                 "--a", "1", "--T", "1,2,4,8", "--format", "csv")
        assert code == EXIT_OK
        rows = parse_csv(out)  # the verdict goes to stderr
        assert len(rows) == 4 and all(float(r["entropy_J_per_m2_K"]) == 0.0 for r in rows)
        assert err.startswith("nernst a=1.0 um: pass")

    def test_json_output_parses(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--pair", "vacuum,vacuum",
                                 "--a", "1,2", "--T", "4", "--format", "json")
        assert code == EXIT_OK
        assert [(r["a_um"], r["entropy_J_per_m2_K"]) for r in json.loads(out)] == [
            (1.0, 0.0), (2.0, 0.0)]
        assert [line.split(":")[0] for line in err.splitlines()] == [
            "nernst a=1.0 um", "nernst a=2.0 um"]

    def test_nernst_fail_exits_2(self, capsys):
        # unit reflection for every m >= 1 keeps S at the Nernst-violating limit
        code, out, err = run_cli(capsys, "entropy", "--pair", "ideal,ideal",
                                 "--a", "2", "--T", "2")
        assert code == EXIT_TOLERANCE
        assert err.startswith("nernst a=2.0 um: FAIL") and "nernst" not in out

    def test_entropy_computes_nu_once_per_side_and_temperature(self, capsys, monkeypatch):
        # the rows take T -/+ step and every verdict the ladder T (1, 2, 4, 8)
        # -/+ T/8, for every separation: each model keeps nu(T) per T
        calls = []

        def spy(params, T_K):
            calls.append(T_K)
            return bloch_gruneisen_nu(params, T_K)
        monkeypatch.setattr(casimir.dielectric, "bloch_gruneisen_nu", spy)
        code, out, _ = run_cli(capsys, "entropy", "--a", "1,1.5,2,2.5,3", "--T", "300",
                               "--nu-model", "bloch-gruneisen")
        assert code == EXIT_TOLERANCE and len(parse_csv(out)) == 5
        ladder = [t + d * t / 8 for t in (300.0, 600.0, 1200.0, 2400.0) for d in (-1, 1)]
        assert sorted(calls) == sorted(2 * [299.5, 300.5, *ladder])

    def test_bloch_gruneisen_verdict_follows_nu_of_each_rung(self, capsys):
        # the verdict's ladder, like the rows, rebuilds nu(T) at every T -/+ step
        code, out, err = run_cli(capsys, "entropy", "--pair", "Au,Au", "--a", "1",
                                 "--T", "40,30", "--nu-model", "bloch-gruneisen",
                                 "--format", "json")
        bg_au = DrudeModel(MaterialDatabase.builtin().get("Au"), BlochGruneisenParams())
        report = nernst_check(Geometry(1.0, 30.0), bg_au, bg_au, _ENTROPY_SPEC)
        au_30 = bg_au.at(30.0)
        fixed_nu = nernst_check(Geometry(1.0, 30.0), au_30, au_30, _ENTROPY_SPEC)
        assert report.entropies_J_per_m2_K != fixed_nu.entropies_J_per_m2_K
        verdict = "pass" if report.passed else "FAIL"
        assert code == (EXIT_OK if report.passed else EXIT_TOLERANCE)
        assert err == (
            f"nernst a=1.0 um: {verdict} "
            f"(|S(30K)|={abs(report.entropies_J_per_m2_K[0]):.3e}, "
            f"threshold |S_NV|/2={report.threshold_J_per_m2_K:.3e}, "
            f"monotone={str(report.monotone).lower()})\n")
        assert [r["T_K"] for r in json.loads(out)] == [30.0, 40.0]

    def test_step_halving_flag(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--pair", "vacuum,Au",
                               "--a", "1", "--T", "4", "--format", "csv",
                               "--check-step-halving")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert "richardson" in rows[0]

    def test_step_must_fit_below_temperature(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--pair", "vacuum,vacuum",
                               "--a", "1", "--T", "0.3", "--fd-step", "0.5")
        assert code != EXIT_OK


class TestKKCommand:
    def _write_drude_loss(self, path, per_decade=30, scale=1.0):
        au = DrudeParams(9.03, 34.5e-3, "Au")
        w = np.logspace(np.log10(1.5e11), np.log10(1.5e18), int(7 * per_decade))
        w_eV = w / CODATA.eV_to_rad_per_s
        eps2 = scale * au.omega_p_eV**2 * au.nu_eV / (w_eV * (w_eV**2 + au.nu_eV**2))
        with open(path, "w") as fh:
            fh.write("omega_rad_s,eps_imag\n")
            for wi, ei in zip(w, eps2):
                fh.write(f"{wi:.12g},{ei:.12g}\n")

    def test_synthetic_drude_matches_closed_form(self, tmp_path, capsys):
        src = tmp_path / "loss.csv"
        dst = tmp_path / "eps.csv"
        self._write_drude_loss(src)
        code, out, _ = run_cli(capsys, "kk", str(src), str(dst),
                               "--grid", "1.5e13,1.5e17,15")
        assert code == EXIT_OK
        au = DrudeParams(9.03, 34.5e-3, "Au")
        with open(dst) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            z_eV = float(row["zeta_rad_s"]) / CODATA.eV_to_rad_per_s
            want = drude_epsilon(au, z_eV)
            assert float(row["eps_izeta"]) == pytest.approx(want, rel=5e-3)

    @staticmethod
    def _kk_one_zeta(w, e2, z):
        """Window part of the transform at one zeta: Gauss-Legendre on each
        sample interval cut into ceil(max(dt, |d ln eps''|)/0.5) equal panels
        in t = ln w."""
        t, log_e2 = np.log(w), np.log(e2)
        n = np.ceil(np.maximum(np.diff(t), np.abs(np.diff(log_e2))) / 0.5).astype(int)
        bounds = np.append(np.concatenate([np.linspace(a, b, m + 1)[:-1]
                                           for a, b, m in zip(t[:-1], t[1:], n)]), t[-1])
        t0, t1 = bounds[:-1], bounds[1:]
        nodes, weights = np.polynomial.legendre.leggauss(8)
        tq = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * nodes
        wq = np.exp(tq)
        vals = wq * wq * np.exp(np.interp(tq, t, log_e2)) / (wq * wq + z * z)
        return float(((0.5 * (t1 - t0))[:, None] * vals * weights).sum())

    @pytest.mark.parametrize("per_decade", [30, 1])
    def test_array_zeta_matches_scalar_calls(self, tmp_path, per_decade):
        src = tmp_path / "loss.csv"
        self._write_drude_loss(src, per_decade=per_decade)
        omega, eps2 = read_optical_csv(src)
        # the command's grid, plus sample points and frequencies outside the window
        zeta = np.concatenate([np.logspace(13, np.log10(1.5e17), 62),
                               omega[[0, 1, -2, -1]], [1e9, 1e20]])
        got = kramers_kronig_transform(omega, eps2, zeta)
        want = np.array([kramers_kronig_transform(omega, eps2, z) for z in zeta])
        assert got.shape == zeta.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        grid = kramers_kronig_transform(omega, eps2, zeta.reshape(2, -1))
        np.testing.assert_array_equal(grid.ravel(), got)
        # against a per-zeta evaluation; with eps'' ~ 1e-300 at both ends the
        # closed-form tails fall far below the last digit of eps >= 1
        e2_window = eps2.copy()
        e2_window[[0, -1]] = 1e-300
        ref = np.array([self._kk_one_zeta(omega, e2_window, z) for z in zeta])
        np.testing.assert_allclose(kramers_kronig_transform(omega, e2_window, zeta),
                                   1.0 + (2.0 / np.pi) * ref, rtol=1e-14, atol=0.0)

    def test_linearity_of_output(self, tmp_path, capsys):
        src1, src2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dst1, dst2 = tmp_path / "a_out.csv", tmp_path / "b_out.csv"
        self._write_drude_loss(src1, per_decade=10)
        self._write_drude_loss(src2, per_decade=10, scale=2.0)
        run_cli(capsys, "kk", str(src1), str(dst1), "--grid", "1e14,1e15,3")
        run_cli(capsys, "kk", str(src2), str(dst2), "--grid", "1e14,1e15,3")
        with open(dst1) as fh:
            base = [float(r["eps_izeta"]) - 1.0 for r in csv.DictReader(fh)]
        with open(dst2) as fh:
            doubled = [float(r["eps_izeta"]) - 1.0 for r in csv.DictReader(fh)]
        for b, d in zip(base, doubled):
            # files carry 12 significant digits
            assert d == pytest.approx(2.0 * b, rel=1e-10)

    @pytest.mark.parametrize("grid", ["1,10,1e7", "1,1e6,200000", "1e-300,1e300,1e300"])
    def test_oversized_grid_exits_3(self, tmp_path, capsys, grid):
        # rejected before the grid is allocated: 1,10,1e12 would ask for 8 TB
        src, dst = tmp_path / "abs.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=10)
        code, out, err = run_cli(capsys, "kk", str(src), str(dst), "--grid", grid)
        assert code == EXIT_INPUT and out == "" and not dst.exists()
        assert err.startswith("error: --grid asks for") and "more than 1e+06" in err

    def test_default_grid_is_the_input_window_at_60_per_decade(self, tmp_path, capsys):
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=10)  # 1.5e11 to 1.5e18 rad/s
        code, out, _ = run_cli(capsys, "kk", str(src), str(dst))
        assert code == EXIT_OK and out == f"wrote 421 rows to {dst}\n"
        zeta = np.loadtxt(dst, delimiter=",", skiprows=1)[:, 0]
        assert zeta.size == 421
        assert zeta[[0, -1]] == pytest.approx([1.5e11, 1.5e18], rel=1e-11)
        assert np.diff(np.log10(zeta)) == pytest.approx(np.full(420, 1 / 60), rel=1e-9)

    @pytest.mark.parametrize("grid, message", [
        ("1e12,1e15", "--grid needs lo,hi,per_decade, got '1e12,1e15'"),
        ("1e12,1e15,x", "--grid needs lo,hi,per_decade, got '1e12,1e15,x'"),
        ("1e15,1e12,10", "--grid values out of range: '1e15,1e12,10'"),
        ("0,1e12,10", "--grid values out of range: '0,1e12,10'"),
        ("1e12,1e15,-1", "--grid values out of range: '1e12,1e15,-1'"),
    ], ids=["two-values", "text", "descending", "zero", "negative-density"])
    def test_malformed_or_out_of_range_grid_exits_3(self, tmp_path, capsys, grid, message):
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=5)
        code, out, err = run_cli(capsys, "kk", str(src), str(dst), "--grid", grid)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
        assert not dst.exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        src, dst = tmp_path / "loss.csv", tmp_path / "missing" / "out.csv"
        self._write_drude_loss(src, per_decade=5)
        code, out, err = run_cli(capsys, "kk", str(src), str(dst))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: cannot write {dst}: ") and "No such file" in err

    def test_three_sparse_samples_give_a_non_increasing_table(self, tmp_path, capsys):
        # Drude-like samples 102 decades apart: with 8 nodes on each interval
        # the table rose just past the middle sample, and kk exited 3
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        src.write_text("omega_rad_s,eps_imag\n6.12e-8,3.08e103\n3.19e94,29.5\n"
                       "1.66e196,4.17e-304\n")
        code, out, err = run_cli(capsys, "kk", str(src), str(dst),
                                 "--grid", "1.98e32,9.66e201,5.32")
        assert (code, out, err) == (EXIT_OK, f"wrote 904 rows to {dst}\n", "")
        eps = np.loadtxt(dst, delimiter=",", skiprows=1)[:, 1]
        assert eps.size == 904 and (np.diff(eps) <= 0.0).all()

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("omega_rad_s,eps_imag\n")
        code, _, err = run_cli(capsys, "kk", str(src), str(tmp_path / "out.csv"))
        assert code == EXIT_INPUT

    def test_bad_header(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("omega,eps\n1e12,1.0\n")
        code, _, err = run_cli(capsys, "kk", str(src), str(tmp_path / "out.csv"))
        assert code == EXIT_INPUT

    def test_extra_field_exits_3(self, tmp_path, capsys):
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=5)
        spoil(src, 1, "5,99")  # a third field on line 6
        code, out, err = run_cli(capsys, "kk", str(src), str(dst))
        assert code == EXIT_INPUT and out == "" and not dst.exists()
        assert err.startswith(f"error: {src}:6: malformed row ")

    @pytest.mark.parametrize("column", [0, 1], ids=["omega_rad_s", "eps_imag"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_exits_3(self, tmp_path, capsys, column, bad):
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=5)
        spoil(src, column, bad)
        code, out, err = run_cli(capsys, "kk", str(src), str(dst))
        assert code == EXIT_INPUT and out == "" and not dst.exists()
        assert err.startswith(f"error: {src}: ") and "finite" in err

    @pytest.mark.parametrize("grid", [None, "1e14,1e15,3"], ids=["default-grid", "grid"])
    @pytest.mark.parametrize("first", ["0", "-1e11"])
    def test_non_positive_first_frequency_exits_3(self, tmp_path, capsys, first, grid):
        # the samples are checked before the first one sets the default grid
        src, dst = tmp_path / "loss.csv", tmp_path / "out.csv"
        self._write_drude_loss(src, per_decade=5)
        lines = src.read_text().splitlines()
        lines[1] = f"{first},{lines[1].split(',')[1]}"
        src.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "kk", str(src), str(dst),
                                 *(["--grid", grid] if grid else []))
        assert code == EXIT_INPUT and out == "" and not dst.exists()
        assert err.startswith(f"error: {src}: omega samples must be positive")


class TestUsage:
    @pytest.mark.parametrize("argv, names", [
        (["pressure", "--format", "xml"], "--format"),
        (["pressure", "--int-tol", "abc"], "--int-tol"),
        (["table"], "table_id"),
        (["frobnicate"], "frobnicate"),
        (["sweep", "--format", "json"], "--format"),
        (["pressure", "--theta", "999"], "--theta"),
        (["sweep", "--theta", "200", "--nu-model", "fixed"], "--theta"),
        (["entropy", "--theta", "200"], "--theta"),
    ])
    def test_usage_errors_and_ignored_flags_exit_3(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and names in err and out == ""

    @pytest.mark.parametrize("argv, message", [
        (["pressure", "--a", ""], "expected at least one number in ''"),
        (["pressure", "--a", " , "], "expected at least one number in ' , '"),
        (["sweep", "--a", "1,x"], "expected a comma-separated list of numbers, got '1,x'"),
        (["entropy", "--T", "x"], "expected a comma-separated list of numbers, got 'x'"),
        (["pressure", "--pair", "Au"], "--pair needs two comma-separated labels, got 'Au'"),
        (["sweep", "--pair", "Au,"], "--pair needs two comma-separated labels, got 'Au,'"),
    ], ids=["empty-a", "blank-a", "text-in-a", "text-T", "one-label", "empty-label"])
    def test_bad_lists_exit_3_with_their_message(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_unreadable_or_non_object_config_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "pressure", "--config", str(missing))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: cannot read config {missing}: ") and "No such file" in err
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code, out, err = run_cli(capsys, "pressure", "--config", str(broken))
        assert code == EXIT_INPUT and err.startswith(f"error: cannot read config {broken}: ")
        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([{"a": 2.0}]))
        assert run_cli(capsys, "pressure", "--config", str(listed)) == (
            EXIT_INPUT, "", f"error: {listed}: config must be a JSON object\n")

    def test_theta_with_bloch_gruneisen_is_used(self, capsys):
        argv = ("pressure", "--a", "2", "--T", "300", "--format", "csv",
                "--nu-model", "bloch-gruneisen")
        code, out_200, _ = run_cli(capsys, *argv, "--theta", "200")
        assert code == EXIT_OK
        _, out_175, _ = run_cli(capsys, *argv)
        assert out_200 != out_175

    @pytest.mark.parametrize("argv, names", [
        (["pressure", "--int-tol", "-1"], "--int-tol"),
        (["pressure", "--int-tol", "inf"], "--int-tol"),
        (["sweep", "--sum-tol", "0"], "--sum-tol"),
        (["pressure", "--a", "nan"], "nan"),
        (["pressure", "--nu-model", "bloch-gruneisen", "--theta", "-5"], "--theta"),
        (["entropy", "--pair", "vacuum,Au", "--T", "2", "--fd-step", "5"], "--fd-step"),
        (["pressure", "--pair", "ideal,ideal", "--nu-model", "bloch-gruneisen"], "Drude"),
        (["entropy", "--pair", "vacuum,ideal", "--nu-model", "bloch-gruneisen"], "Drude"),
        (["pressure", "--nu-model", "bloch-gruneisen", "--theta", "inf"], "--theta"),
        (["table", "1", "--tol-short", "inf"], "--tol-short"),
        (["table", "1", "--tol-short", "nan"], "--tol-short"),
        (["table", "1", "--tol-long", "-1"], "--tol-long"),
    ])
    def test_bad_values_exit_3(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and names in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["pressure", "--T", "1e-70", "--a", "1"],
        ["entropy", "--T", "1e-70", "--a", "1", "--fd-step", "1e-71"],
    ], ids=["pressure", "entropy"])
    def test_underflowing_bloch_gruneisen_nu_exits_3(self, capsys, argv):
        # nu(T) ~ T^5 underflows to 0 below about 1e-63 K
        code, out, err = run_cli(capsys, *argv, "--nu-model", "bloch-gruneisen")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: --T/--theta: ") and "Traceback" not in err

    def test_underflow_at_t_minus_step_alone_exits_3(self, capsys):
        # nu(1e-62 K) is a positive subnormal; nu at T - step = 1e-64 K is 0,
        # a temperature that entropy derives, not one given on the command line
        assert bloch_gruneisen_nu(BlochGruneisenParams(), 1e-62) > 0.0
        code, out, err = run_cli(capsys, "entropy", "--a", "1", "--T", "1e-62",
                                 "--fd-step", "0.99e-62", "--nu-model", "bloch-gruneisen")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: --T/--theta: ") and "underflows" in err

    @pytest.mark.parametrize("argv", [
        ["--theta", "1e-62"],
        ["--a", "1e-60", "--T", "1e64"],
        ["--theta", "1e-300"],
    ], ids=["tiny-theta", "huge-T", "tiny-theta-nan-integrand"])
    def test_overflowing_bloch_gruneisen_ratio_exits_3(self, capsys, argv):
        # (T/theta)^5 overflows a double above T/theta ~ 4.5e61
        argv = ["pressure", "--a", "1", "--T", "300", *argv, "--nu-model", "bloch-gruneisen"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: --T/--theta: ") and "theta = " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["omega_p_eV", "nu_eV"])
    def test_infinite_material_parameter_exits_3(self, tmp_path, capsys, key):
        path = tmp_path / "materials.json"
        entry = {"label": "X", "omega_p_eV": 9.0, "nu_eV": 0.035, key: float("inf")}
        path.write_text(json.dumps([entry]))  # written as Infinity
        code, out, err = run_cli(capsys, "pressure", "--pair", "X,X",
                                 "--materials", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_material_whose_plasma_square_overflows_exits_3(self, tmp_path, capsys):
        # omega_p^2 overflowed in drude_epsilon: every sum ended in a traceback
        path = tmp_path / "materials.json"
        path.write_text('[{"label": "Y", "omega_p_eV": 1e300, "nu_eV": 0.01}]')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "pressure", "--materials", str(path),
                                     "--pair", "Y,Au", "--a", "1", "--T", "300")
        assert code == EXIT_INPUT and out == "" and [str(w.message) for w in caught] == []
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_subnormal_integral_tolerance_exits_3(self, capsys):
        # log(1/1e-320) is inf, which made the adaptive fallback's last break
        # inf: RuntimeWarnings, then a QuadratureError
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "pressure", "--a", "1", "--T", "300",
                                     "--int-tol", "1e-320")
        assert code == EXIT_INPUT and out == "" and [str(w.message) for w in caught] == []
        assert err.startswith("error: --int-tol/--sum-tol: ") and err.count("\n") == 1

    def test_boolean_or_non_string_label_material_exits_3(self, tmp_path, capsys):
        # read as float(True) == 1.0 and str(None) == 'None' it used to exit 0
        path = tmp_path / "materials.json"
        path.write_text('[{"label": null, "omega_p_eV": true, "nu_eV": 0.03}]')
        code, out, err = run_cli(capsys, "pressure", "--materials", str(path),
                                 "--pair", "None,None", "--a", "1", "--T", "300")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and str(path) in err and "malformed" in err

    def test_numeric_string_material_exits_3(self, tmp_path, capsys):
        # float("9.03") read the string as the Au plasma energy and exited 0
        path = tmp_path / "materials.json"
        path.write_text('[{"label": "X", "omega_p_eV": "9.03", "nu_eV": "0.0345"}]')
        code, out, err = run_cli(capsys, "pressure", "--materials", str(path), "--pair", "X,X")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and str(path) in err and "'9.03'" in err

    def test_underflowing_geometry_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "pressure", "--a", "1e-300", "--T", "300")
        assert code == EXIT_COMPUTE and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["pressure", "--a", "1e-100", "--T", "1e12"],
        ["pressure", "--a", "1e300", "--T", "300"],
        ["pressure", "--a", "1", "--T", "1e300"],
        ["entropy", "--a", "1e6", "--T", "1e12"],
        ["pressure", "--a", "1", "--T", "1e-160"],
    ], ids=["si-scale-overflow", "huge-a", "huge-T", "entropy-huge-aT", "tiny-aT"])
    def test_overflowing_geometry_exits_1(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would escape
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_COMPUTE and out == ""
        assert err.startswith(f"error: a={float(argv[2])} um, T={float(argv[4])} K: ")

    def test_value_error_in_the_numerics_exits_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("forced inside the sum")
        monkeypatch.setattr(casimir.lifshitz, "_mode_kernel", broken)
        code, out, err = run_cli(capsys, "pressure", "--a", "1", "--T", "300")
        assert code == EXIT_COMPUTE
        assert err == "error: forced inside the sum\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--help"])
        assert exc.value.code == 0
        assert "--pair" in capsys.readouterr().out

    SPEC, BG = QuadratureSpec(), BlochGruneisenParams()
    SHORT_TOL, LONG_TOL = golden.cell_tolerance(0.16), golden.cell_tolerance(4.0)
    PAIR = {"--pair": "Au,Au", "--a": "1.0", "--nu-model": "fixed",
            "--theta": f"{BG.theta_K:g} K", "--int-tol": f"{SPEC.integral_rel_tol:g}"}

    @pytest.mark.parametrize("command, defaults", [
        ("pressure", {**PAIR, "--T": "300", "--sum-tol": f"{SPEC.sum_rel_tol:g}",
                      "--format": "pretty"}),
        ("sweep", {**PAIR, "--T": "300", "--sum-tol": f"{SPEC.sum_rel_tol:g}"}),
        ("table", {"--int-tol": f"{SPEC.integral_rel_tol:g}",
                   "--sum-tol": f"{SPEC.sum_rel_tol:g}", "--format": "pretty",
                   "--tol-short": f"{SHORT_TOL:g}", "--tol-long": f"{LONG_TOL:g}"}),
        ("entropy", {**PAIR, "--T": "1,2,4,8", "--sum-tol": f"{_ENTROPY_SPEC.sum_rel_tol:g}",
                     "--format": "pretty", "--fd-step": f"{_ENTROPY_STEP_K:g}"}),
    ])
    def test_help_shows_each_owners_default(self, capsys, command, defaults):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        options = text.split(" options: ")[1]
        for flag, value in defaults.items():
            # the flag's own entry runs from its name up to the next flag
            entry = options.split(f" {flag} ")[1].split(" --")[0]
            assert f"(default {value})" in entry, (flag, entry)


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"pair": "Al,Al", "a": "4", "T": "300"}))
        _, out_conf, _ = run_cli(capsys, "pressure", "--config", str(conf),
                                 "--format", "csv")
        _, out_flag, _ = run_cli(capsys, "pressure", "--config", str(conf),
                                 "--pair", "Au,Au", "--format", "csv")
        _, out_au, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "4", "--T", "300", "--format", "csv")
        p_conf = float(parse_csv(out_conf)[0]["pressure_mPa"])
        p_flag = float(parse_csv(out_flag)[0]["pressure_mPa"])
        p_au = float(parse_csv(out_au)[0]["pressure_mPa"])
        assert p_flag == p_au  # flag wins over config
        assert p_conf != p_au  # config applied when flag absent

    def test_entropy_sum_tol_config_beats_default_and_flag_beats_config(
            self, tmp_path, capsys):
        argv = ["entropy", "--pair", "Au,Au", "--a", "1", "--T", "30", "--format", "json"]
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"sum_tol": 1e-4}))
        fallback = run_cli(capsys, *argv)
        explicit_fallback = run_cli(capsys, *argv, "--sum-tol", str(_ENTROPY_SPEC.sum_rel_tol))
        from_conf = run_cli(capsys, *argv, "--config", str(conf))
        from_flag = run_cli(capsys, *argv, "--sum-tol", "1e-4")
        flag_over_conf = run_cli(capsys, *argv, "--config", str(conf),
                                 "--sum-tol", str(_ENTROPY_SPEC.sum_rel_tol))
        assert from_conf == from_flag and from_conf[1] != fallback[1]
        assert flag_over_conf == explicit_fallback == fallback

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run_cli(capsys, "pressure", "--config", str(conf))
        assert code == EXIT_INPUT

    VACUUM_ENTROPY = ["entropy", "--pair", "vacuum,vacuum", "--a", "1", "--T", "4"]

    # flags: what the config must equal, each value away from its default;
    # None: the config must exit 3 and name the key
    @pytest.mark.parametrize("argv, conf, flags", [
        (["pressure"], {"a": 2.0, "T": 350}, ["--a", "2.0", "--T", "350"]),
        (["pressure"], {"format": "json", "sum_tol": 1e-4},
         ["--format", "json", "--sum-tol", "1e-4"]),
        (["sweep"], {"pair": "Au,Cu", "int_tol": "1e-9"}, ["--pair", "Au,Cu", "--int-tol", "1e-9"]),
        (VACUUM_ENTROPY, {"fd_step": 0.25}, ["--fd-step", "0.25"]),
        (["pressure"], {"a": [1.0, 2.0]}, None),
        (["pressure"], {"pair": ["Au", "Au"]}, None),
        (["pressure"], {"int_tol": [1]}, None),
        (["pressure"], {"int_tol": "abc"}, None),
        (["pressure"], {"int_tol": True}, None),
        (["pressure"], {"sum_tol": None}, None),
        (["pressure"], {"format": "xml"}, None),
        (["sweep"], {"format": "csv"}, None),
        (["pressure"], {"fd_step": 0.25}, None),
        (["pressure"], {"theta": 200.0}, None),
        (VACUUM_ENTROPY, {"check_step_halving": True}, None),
        (["pressure"], {"config": "other.json"}, None),
    ], ids=["a-T-numbers", "format-sum_tol", "sweep-pair-int_tol", "entropy-fd_step",
            "a-list", "pair-list", "int_tol-list", "int_tol-text", "int_tol-bool",
            "sum_tol-null", "format-xml", "sweep-format", "pressure-fd_step",
            "theta-without-bloch-gruneisen", "switch-key", "config-key"])
    def test_config_value_is_checked_like_its_flag(self, tmp_path, capsys, argv, conf, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(conf))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        if flags is None:
            (key,) = conf
            assert code == EXIT_INPUT and out == ""
            assert repr(key) in err or "--" + key.replace("_", "-") + " " in err
            return
        want = run_cli(capsys, *argv, *flags)
        assert (code, out, err) == want and code == EXIT_OK
        assert out != run_cli(capsys, *argv)[1]


class TestTabulatedInput:
    def test_eps_table_model(self, tmp_path, capsys):
        au = DrudeParams(9.03, 34.5e-3, "Au")
        z_eV = np.logspace(-4, 3, 7 * 40)
        with open(tmp_path / "eps.csv", "w") as fh:
            fh.write("zeta_rad_s,eps_izeta\n")
            for z, e in zip(z_eV * CODATA.eV_to_rad_per_s, drude_epsilon(au, z_eV)):
                fh.write(f"{z:.12g},{e:.12g}\n")
        code, out, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                               "--a", "2", "--T", "300", "--format", "csv",
                               "--eps1", str(tmp_path / "eps.csv"))
        assert code == EXIT_OK
        _, out_ref, _ = run_cli(capsys, "pressure", "--pair", "Au,Au",
                                "--a", "2", "--T", "300", "--format", "csv")
        p_tab = float(parse_csv(out)[0]["pressure_mPa"])
        p_drude = float(parse_csv(out_ref)[0]["pressure_mPa"])
        assert p_tab == pytest.approx(p_drude, rel=1e-3)

    @pytest.mark.parametrize("flag, column", [("--eps1", 0), ("--eps3", 1)],
                             ids=["eps1-zeta_rad_s", "eps3-eps_izeta"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_exits_3(self, tmp_path, capsys, flag, column, bad):
        z_eV = np.logspace(0, 3, 30)
        path = tmp_path / "eps.csv"
        PermittivityTable(z_eV, drude_epsilon(DrudeParams(9.03, 34.5e-3, "Au"), z_eV)).to_csv(path)
        spoil(path, column, bad)
        code, out, err = run_cli(capsys, "pressure", flag, str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and str(path) in err and "finite" in err

    def test_extra_field_exits_3(self, tmp_path, capsys):
        z_eV = np.logspace(0, 3, 30)
        path = tmp_path / "eps.csv"
        PermittivityTable(z_eV, drude_epsilon(DrudeParams(9.03, 34.5e-3, "Au"), z_eV)).to_csv(path)
        spoil(path, 1, "2.5,1")
        code, out, err = run_cli(capsys, "pressure", "--eps1", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and f"{path}:6: malformed row" in err

    @pytest.mark.parametrize("pair, flag", [("Au,ideal", "--eps3"), ("vacuum,Au", "--eps1")])
    def test_a_table_side_needs_a_drude_label(self, tmp_path, capsys, pair, flag):
        # the table's continuation below its window is the label's Drude model
        z_eV = np.logspace(0, 3, 30)
        path = tmp_path / "t.csv"
        PermittivityTable(z_eV, drude_epsilon(DrudeParams(9.03, 34.5e-3, "Au"), z_eV)).to_csv(path)
        label = pair.split(",")[0 if flag == "--eps1" else 1]
        assert run_cli(capsys, "pressure", "--pair", pair, flag, str(path)) == (
            EXIT_INPUT, "", f"error: {path}: a permittivity table needs a Drude material label "
                            f"for its continuation below the table, got {label!r}\n")

    def test_bloch_gruneisen_moves_the_drude_continuation(self, tmp_path, capsys):
        # the table starts at 1 eV, above the first Matsubara frequencies at
        # 300 K (0.16 eV apart), so those modes use its Drude continuation
        au = MaterialDatabase.builtin().get("Au")
        path = tmp_path / "eps.csv"
        PermittivityTable(np.logspace(0, 3, 120),
                          drude_epsilon(au, np.logspace(0, 3, 120))).to_csv(path)
        argv = ("pressure", "--pair", "Au,Au", "--eps1", str(path), "--eps3", str(path),
                "--a", "2", "--T", "300", "--format", "csv")
        code, out_bg, _ = run_cli(capsys, *argv, "--nu-model", "bloch-gruneisen")
        assert code == EXIT_OK
        _, out_fixed, _ = run_cli(capsys, *argv, "--nu-model", "fixed")
        assert out_bg != out_fixed
        table = PermittivityTable.from_csv(path)
        model = TabulatedModel(table, DrudeModel(au, BlochGruneisenParams()))
        nu = bloch_gruneisen_nu(BlochGruneisenParams(), 300.0)
        at_300 = TabulatedModel(table, DrudeModel(DrudeParams(au.omega_p_eV, nu, "Au")))
        want = casimir_pressure(Geometry(2.0, 300.0), model, model).pressure_mPa
        assert want == casimir_pressure(Geometry(2.0, 300.0), at_300, at_300).pressure_mPa
        assert float(parse_csv(out_bg)[0]["pressure_mPa"]) == pytest.approx(want, rel=1e-11)


def _process_env():
    """The environment of a child that imports this tree's casimir."""
    src_dir = os.path.dirname(os.path.dirname(casimir.lifshitz.__file__))
    return dict(os.environ, PYTHONPATH=src_dir)


def _loaded_by(script: str) -> list[str]:
    """The heavy or command-specific modules a fresh process running
    ``script`` has loaded: scipy, numpy.ma, numpy.polynomial, json and
    casimir's thermo, golden and lifshitz."""
    script += textwrap.dedent("""
        import sys
        heavy = ("scipy", "numpy.ma", "numpy.polynomial", "json",
                 "casimir.thermo", "casimir.golden", "casimir.lifshitz")
        print(sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy)))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_process_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_cli_runs_on_numpy_alone(tmp_path):
    """A kk run and a tabulated sweep, each a process of its own, load none
    of scipy, numpy.ma, numpy.polynomial, thermo, golden and json; kk does
    not load lifshitz either."""
    loss, eps = tmp_path / "loss.csv", str(tmp_path / "eps.csv")
    TestKKCommand()._write_drude_loss(loss, per_decade=10)
    for argv, loaded in ((["kk", str(loss), eps, "--grid", "1e12,1e17,10"], []),
                         (["sweep", "--pair", "Au,Au", "--eps1", eps, "--eps3", eps,
                           "--a", "2", "--T", "300"], ["casimir.lifshitz"])):
        script = f"import casimir.cli\nassert casimir.cli.main({argv!r}) == 0\n"
        assert _loaded_by(script) == loaded, argv[0]


@pytest.mark.parametrize("module", ["casimir.lifshitz", "casimir.dielectric"])
def test_the_numerics_load_no_numpy_polynomial(module):
    assert not any(m.startswith("numpy.polynomial") for m in _loaded_by(f"import {module}\n"))


# what README documents as the library surface; perfbench/worker.py reads
# the WORKER names
SURFACE = {
    "BlochGruneisenParams", "BracketError", "CODATA", "DrudeModel", "DrudeParams",
    "Geometry", "IdealMetal", "MaterialDatabase", "PermittivityTable", "QuadratureError",
    "QuadratureSpec", "SumConvergenceError", "TabulatedModel", "UnknownMaterialError",
    "Vacuum", "bloch_gruneisen_nu", "casimir_pressure", "crossover_separation", "entropy",
    "free_energy", "kramers_kronig_transform", "nernst_check", "zeta3",
}
WORKER = {"casimir_pressure", "Geometry", "BlochGruneisenParams", "zeta3", "IdealMetal",
          "DrudeModel", "MaterialDatabase", "CODATA", "entropy", "DrudeParams",
          "bloch_gruneisen_nu"}


def test_package_surface():
    assert len(casimir.__all__) == len(SURFACE)
    assert set(casimir.__all__) == SURFACE
    assert all(getattr(casimir, name) is not None for name in casimir.__all__)
    assert WORKER <= set(casimir.__all__)


def test_import_casimir_loads_no_submodule():
    script = ("import sys, casimir; print(sorted(m for m in sys.modules "
              "if m.startswith('casimir.') or m == 'numpy' or m.startswith('numpy.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_process_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_sums_error_resolves_without_loading_the_sum():
    # the CLI catches it by name, so a kk process never loads lifshitz for it
    script = ("import casimir\nerror = casimir.SumConvergenceError\n"
              "assert issubclass(error, RuntimeError)\n")
    assert _loaded_by(script) == []
    from casimir import lifshitz, quadrature

    assert casimir.SumConvergenceError is lifshitz.SumConvergenceError
    assert quadrature.SumConvergenceError is lifshitz.SumConvergenceError


def test_package_names_resolve_on_first_use():
    assert set(casimir.__all__) <= set(dir(casimir))
    star = {}
    exec("from casimir import *", star)
    assert all(star[name] is getattr(casimir, name) for name in casimir.__all__)
    assert casimir.entropy is casimir.thermo.entropy
    with pytest.raises(AttributeError, match="'no_such_name'"):
        casimir.no_such_name


class _Full:
    """A stream whose every write fails with ENOSPC, on a descriptor of its
    own opened onto ``path``."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


# commands that exit 0, 2 and 3 with a writable stderr
_STDERR_CASES = [(["table", "1", "--format", "csv"], EXIT_OK),
                 (["entropy", "--a", "1", "--T", "4,8", "--format", "csv"], EXIT_TOLERANCE),
                 (["pressure", "--a", "-1"], EXIT_INPUT)]


class TestProcess:
    """``python -m casimir.cli``, the path the ``casimir`` script takes."""

    @pytest.mark.parametrize("argv, code", [
        (["pressure", "--a", "1,2", "--T", "300,4", "--format", "pretty"], EXIT_OK),
        (["sweep", "--a", "1,1e300", "--T", "300"], EXIT_COMPUTE),  # a row, then an error
        (["pressure", "--format", "xml"], EXIT_INPUT),
    ])
    def test_output_and_exit_code_match_main(self, capsys, argv, code):
        in_process = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                              capture_output=True, env=_process_env(), timeout=120)
        assert in_process[0] == proc.returncode == code
        assert proc.stdout == in_process[1].encode()
        assert proc.stderr == in_process[2].encode()

    def test_tiny_reduced_temperature_exits_1_naming_a_and_t(self):
        # the kernel once overflowed here: numpy warnings, then an uncertified mode
        proc = subprocess.run([sys.executable, "-m", "casimir.cli", "pressure", "--a", "1",
                               "--T", "1e-160"], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert proc.returncode == EXIT_COMPUTE and proc.stdout == ""
        assert proc.stderr.startswith("error: a=1.0 um, T=1e-160 K: a*T too small")
        assert "Warning" not in proc.stderr

    def test_permittivity_too_large_for_the_reflections_exits_1(self, tmp_path):
        # eps*y/A overflowed in the reflections: RuntimeWarnings, then "mode
        # integral m=1 not certified: quadrature error nan"
        path = tmp_path / "materials.json"
        path.write_text('[{"label": "Y", "omega_p_eV": 1e150, "nu_eV": 0.0345}]')
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               "pressure", "--materials", str(path), "--pair", "Y,Au",
                               "--a", "0.16", "--T", "1"], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert proc.returncode == EXIT_COMPUTE and proc.stdout == ""
        assert proc.stderr.startswith("error: DrudeModel(Y: omega_p=1e+150 eV, nu=0.0345 eV): "
                                      "epsilon = 5.27") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(" eV overflows the reflections\n")

    def test_permittivity_too_large_past_ideal_modes_exits_1(self, tmp_path):
        # eps overflowed to inf at the first modes, which read as ideal, and
        # the first finite one overflowed the reflections: RuntimeWarnings,
        # then "quadrature error nan"
        path = tmp_path / "materials.json"
        path.write_text('[{"label": "Y", "omega_p_eV": 1e152, "nu_eV": 0.0345}]')
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               "pressure", "--materials", str(path), "--pair", "Y,Au",
                               "--a", "0.16", "--T", "1"], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_COMPUTE, "")
        assert proc.stderr == ("error: DrudeModel(Y: omega_p=1e+152 eV, nu=0.0345 eV): "
                               "epsilon = 1.70422e+308 at zeta = 0.00162433 eV "
                               "overflows the reflections\n")

    def test_permittivity_overflowing_past_the_last_block_exits_0(self, tmp_path):
        # eps overflows the reflections from mode 383 on, past the 347 terms
        # the sum adds: a check of every planned mode rejected the cell
        path = tmp_path / "materials.json"
        path.write_text('[{"label": "Y", "omega_p_eV": 3e153, "nu_eV": 0.0345}]')
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               "pressure", "--materials", str(path), "--pair", "Y,Au",
                               "--a", "12", "--T", "1"], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.splitlines()[1].split()[-2:] == ["347", "true"]

    @pytest.mark.parametrize("omega_p", ["3e153", "5e153"])
    def test_permittivity_within_its_own_rules_reach_exits_0(self, tmp_path, omega_p):
        # the modes take a rung that reaches about 18.6 past A, where eps*y/A
        # stays finite; a check at the farthest reach of any rule, 27.85,
        # rejected them as overflowing the reflections
        path = tmp_path / "materials.json"
        path.write_text(f'[{{"label": "Y", "omega_p_eV": {omega_p}, "nu_eV": 0.0345}}]')
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               "pressure", "--materials", str(path), "--pair", "Y,Au",
                               "--a", "12", "--T", "300"], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.splitlines()[1].split()[-2:] == ["5", "true"]

    @pytest.mark.parametrize("grid", [[], ["--grid", "1e-10,1e10,2"]], ids=["default", "given"])
    def test_kk_samples_whose_squares_overflow_exit_0(self, tmp_path, grid):
        # samples from 1e-300 to 1e300 rad/s: w^2 and w^3*eps'' overflow at the
        # last, and the transform in their powers rejected the file; only
        # 2^24 or 2^-24 keep every frequency a normal float
        src = tmp_path / "loss.csv"
        src.write_text("omega_rad_s,eps_imag\n" + "".join(
            f"{w:.12g},1\n" for w in np.logspace(-300, 300, 61)))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               "kk", str(src), str(tmp_path / "eps.csv"), *grid],
                              capture_output=True, text=True, env=_process_env(), timeout=120)
        rows = 41 if grid else 36001
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_OK, f"wrote {rows} rows to {tmp_path / 'eps.csv'}\n", "")
        _assert_scale_free_table(src, tmp_path / "eps.csv", (1e-10, 1e10) if grid else
                                 (1e-300, 1e300), (2.0 ** 24, 2.0 ** -24))

    def test_kk_default_grid_below_the_squares_exits_0(self, tmp_path, capsys):
        # from 1e-300 rad/s the default grid's zeta^2 and omega^2 read 0, which
        # the squared form could not divide: kk asked for a --grid
        src = tmp_path / "loss.csv"
        src.write_text("omega_rad_s,eps_imag\n" + "".join(
            f"{w:.12g},1\n" for w in np.logspace(-300, 10, 32)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "kk", str(src), str(tmp_path / "eps.csv"))
            assert (code, out, err) == (EXIT_OK, f"wrote 18601 rows to {tmp_path / 'eps.csv'}\n",
                                        "")
            _assert_scale_free_table(src, tmp_path / "eps.csv", (1e-300, 1e10), (2.0 ** 64,))
            code, out, _ = run_cli(capsys, "kk", str(src), str(tmp_path / "eps.csv"),
                                   "--grid", "1e-10,1e10,2")
        assert code == EXIT_OK and out.startswith("wrote 41 rows")

    @pytest.mark.parametrize("absorption", [
        (2.2e-250, 2e77, 20, "flat", 3.0, (2.9e-206, 2.1e174, 0.074)),
        (2.7e-162, 1e12, 3, "drude", 3.0, None)], ids=["squares-underflow", "subnormal-square"])
    def test_kk_where_the_squares_underflow_exits_0(self, absorption, tmp_path_factory):
        # 20 samples whose squares, and those of the grid's first zeta, read 0:
        # 0/0 and exit 3 "not finite"; 3 samples from 2.7e-162 rad/s, whose
        # subnormal squares lost the digits of the lowest values: exit 3 "must
        # be non-increasing"
        argv = _kk_argv(absorption, tmp_path_factory)
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "casimir.cli",
                               *argv], capture_output=True, text=True, env=_process_env(),
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        ends = absorption[5] or (absorption[0], absorption[0] * absorption[1])
        _assert_scale_free_table(argv[1], argv[2], ends[:2], (2.0 ** 64, 2.0 ** -64))

    def test_only_the_process_command_freezes_the_heap(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["pressure", "--a", "1", "--T", "300"]) == EXIT_OK
        assert gc.isenabled() and gc.get_freeze_count() == frozen
        script = ("import gc, sys, casimir.cli; sys.argv[1:] = ['pressure']; "
                  "casimir.cli.main(); print(gc.get_freeze_count() > 0, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert proc.stderr == "True\n"
        # run as __main__, the module turns the collector off for its imports
        # and main turns it on again
        script = textwrap.dedent("""
            import gc, runpy, sys
            sys.argv[1:] = ["pressure"]
            try:
                runpy.run_module("casimir.cli", run_name="__main__")
            except SystemExit:
                pass
            print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert proc.stderr == "True True\n"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_without_traceback(self, unbuffered):
        env = _process_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # every write to stdout then fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "casimir.cli", "sweep",
                                   "--a", "1,2,3,4,5", "--T", "300,310"],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_COMPUTE, b"")

    def test_a_stdout_that_cannot_be_written_exits_1_with_one_error_line(self, capsys,
                                                                         monkeypatch):
        # stdout's write fails with ENOSPC: one error line, exit 1, and stdout
        # pointed at devnull (here a descriptor of the test's own)
        full = _Full(os.devnull)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", full)
                code = main(["pressure", "--a", "1", "--T", "300"])
        finally:
            os.close(full.fd)
        assert (code, capsys.readouterr().err) == (
            EXIT_COMPUTE, "error: cannot write standard output: [Errno 28] No space left on "
                          "device\n")
        # an OSError raised elsewhere is not stdout's, and is not reported as it
        def fails(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(casimir.lifshitz, "casimir_pressure", fails)
        with pytest.raises(OSError, match="No space left on device"):
            main(["pressure", "--a", "1", "--T", "300"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, code", _STDERR_CASES, ids=["table", "entropy", "pressure"])
    def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(self, tmp_path, capsys,
                                                                 monkeypatch, argv, code):
        # stderr's write fails with ENOSPC: the command's own exit code and
        # stdout, and stderr's descriptor (here a file of the test's own)
        # pointed at devnull
        _, want_out, _ = run_cli(capsys, *argv)
        full = _Full(tmp_path / "stderr")
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stderr", full)
                got = main(argv)
            assert os.path.samestat(os.fstat(full.fd), os.stat(os.devnull))
        finally:
            os.close(full.fd)
        assert (got, capsys.readouterr().out) == (code, want_out)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, code", _STDERR_CASES, ids=["table", "entropy", "pressure"])
    def test_a_full_device_as_stderr_keeps_the_exit_code(self, argv, code):
        runs = []
        for stderr in ("/dev/full", os.devnull):
            with open(stderr, "wb") as err:
                proc = subprocess.run([sys.executable, "-m", "casimir.cli", *argv],
                                      stdout=subprocess.PIPE, stderr=err,
                                      env=_process_env(), timeout=120)
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1] and runs[0][0] == code

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["pressure", "sweep"])
    def test_a_full_device_as_stdout_exits_1_with_one_error_line(self, command):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "casimir.cli", command, "--a", "1",
                                   "--T", "300"], stdout=full, stderr=subprocess.PIPE,
                                  env=_process_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (
            EXIT_COMPUTE, b"error: cannot write standard output: [Errno 28] No space left on "
                          b"device\n")


def _assert_scale_free_table(src, table, ends, scales):
    """The eps column of the table ``kk`` wrote from ``src`` on a grid from
    ``ends``: finite, non-increasing and printed from the transform on that
    grid, which gives the same bits on the data scaled by each of ``scales``."""
    omega, eps2 = read_optical_csv(src)
    with open(table, newline="") as fh:
        printed = [row[1] for row in list(csv.reader(fh))[1:]]
    zeta = np.logspace(np.log10(ends[0]), np.log10(ends[1]), len(printed))
    eps = kramers_kronig_transform(omega, eps2, zeta)
    assert printed == [f"{e:.12g}" for e in eps]
    assert np.isfinite(eps).all() and (np.diff(eps) <= 0.0).all()
    for scale in scales:
        assert kramers_kronig_transform(omega * scale, eps2, zeta * scale).tobytes() == \
            eps.tobytes()


def test_parser_exists_for_all_subcommands():
    parser = build_parser()
    for cmd in ("pressure", "sweep", "table", "entropy", "kk"):
        assert cmd in parser.format_help()


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


LABELS = ("Au", "Cu", "Al", "vacuum", "ideal")


def _kk_argv(absorption, tmp_path_factory):
    """argv of a ``kk`` run on an absorption file drawn as (first sample, span
    last/first, sample count, shape of eps'', its level, --grid lo, hi and
    per_decade or None): eps'' flat, Drude-like (level/(x(1+x^2)), x = omega
    over the window's geometric centre) or flat then zero over the upper half."""
    first, span, n, shape, level, grid = absorption
    omega = np.array([first * span ** (k / (n - 1)) for k in range(n)])
    with np.errstate(all="ignore"):  # a last sample past the largest float reads inf
        if shape == "drude":
            log_x = np.log(omega) - 0.5 * (np.log(omega[0]) + np.log(omega[-1]))
            eps2 = np.exp(np.minimum(math.log(level) - log_x - np.logaddexp(0.0, 2.0 * log_x),
                                     700.0))
        else:
            eps2 = np.where((shape == "flat") | (np.arange(n) < n // 2), level, 0.0)
    path = tmp_path_factory.mktemp("absorption") / "loss.csv"
    path.write_text("omega_rad_s,eps_imag\n" + "".join(
        f"{w!r},{e!r}\n" for w, e in zip(omega.tolist(), eps2.tolist())))
    argv = ["kk", str(path), str(path.with_name("eps.csv"))]
    return argv + ([] if grid is None else ["--grid", ",".join(map(repr, grid))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(command=st.sampled_from(["pressure", "entropy"]), a=_log_uniform(1e-4, 1e5),
       T=_log_uniform(1e-6, 1e7), pair=st.tuples(*[st.sampled_from(LABELS)] * 2),
       int_tol=_log_uniform(1e-16, 3.0), sum_tol=_log_uniform(1e-16, 3.0),
       bloch_gruneisen=st.booleans(), theta=st.none() | _log_uniform(1e-3, 1e5),
       fd_step=st.none() | _log_uniform(1e-6, 1e3),
       drude=st.none() | st.tuples(_log_uniform(1e-6, 1.34e154), _log_uniform(1e-12, 1.79e308)),
       absorption=st.tuples(_log_uniform(1e-320, 1e100), _log_uniform(10.0, 1e300),
                            st.integers(2, 40), st.sampled_from(["flat", "drude", "zero-tail"]),
                            _log_uniform(1e-6, 1e6),
                            st.none() | st.tuples(*[_log_uniform(1e-320, 1e300)] * 2,
                                                  _log_uniform(1e-2, 10.0)).map(
                                lambda g: (*sorted(g[:2]), g[2]))))
# omega_p 1e152 eV overflowed eps to inf at the first modes and the
# reflections at the first finite one: RuntimeWarnings, then exit 1
@example(command="pressure", a=0.16, T=1.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=(1e152, 0.0345), absorption=None)
# nu 1e308 eV: zeta*(zeta+nu) overflowed from mode 12 on at 300 K
@example(command="pressure", a=0.16, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=(9.0, 1e308), absorption=None)
# kk: omega^3 of samples from 1e-300 rad/s underflowed, and the high tail's
# series coefficient warned 0/0 though no zeta took it
@example(command="pressure", a=1.0, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=None,
         absorption=(1e-300, 1e10, 40, "flat", 3.0, (1e-10, 1e10, 2.0)))
# kk: zeta^2 overflowed on a grid up to 1e300 rad/s, with warnings
@example(command="pressure", a=1.0, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=None,
         absorption=(1e-160, 1e170, 60, "flat", 3.0, (1e-300, 1e300, 1.0)))
# kk: zeta/omega_N overflowed for subnormal samples: warnings, then NaN and
# exit 1 with a message that named neither the file nor --grid
@example(command="pressure", a=1.0, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=None,
         absorption=(1e-320, 1e3, 10, "flat", 3.0, (1e-10, 1e10, 2.0)))
# kk: the squares of the samples and of the first zeta read 0, 0/0: exit 3
@example(command="pressure", a=1.0, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=None,
         absorption=(2.2e-250, 2e77, 20, "flat", 3.0, (2.9e-206, 2.1e174, 0.074)))
# kk: the subnormal squares of samples from 2.7e-162 rad/s lost the digits of
# the lowest values, which rose with zeta on the default grid: exit 3
@example(command="pressure", a=1.0, T=300.0, pair=("Au", "Au"), int_tol=1e-12, sum_tol=1e-8,
         bloch_gruneisen=False, theta=None, fd_step=None, drude=None,
         absorption=(2.7e-162, 1e12, 3, "drude", 3.0, None))
def test_every_input_in_the_domain_exits_with_a_documented_code(
        command, a, T, pair, int_tol, sum_tol, bloch_gruneisen, theta, fd_step, drude,
        absorption, tmp_path_factory):
    # a > 0 and T > 0 with any pair and tolerance, a JSON Drude material
    # (omega_p up to where its square overflows, nu > 0 and finite) on side 1 or not,
    # and then, unless ``absorption`` is None, kk on absorption samples from
    # 1e-320 rad/s on, over spans up to 1e300, with a --grid over that range or
    # without: a result or a typed error, never a traceback or a warning; a
    # warning raised as an error would be caught by main and hidden as exit 1,
    # so warnings are recorded instead
    argv = []
    if drude is not None:
        path = tmp_path_factory.mktemp("materials") / "materials.json"
        path.write_text(json.dumps([{"label": "Y", "omega_p_eV": drude[0], "nu_eV": drude[1]}]))
        argv, pair = ["--materials", str(path)], ("Y", pair[1])
    argv = [command, *argv, "--pair", ",".join(pair), "--a", repr(a), "--T", repr(T),
            "--int-tol", repr(int_tol), "--sum-tol", repr(sum_tol)]
    argv += ["--nu-model", "bloch-gruneisen"] if bloch_gruneisen else []
    argv += [] if theta is None else ["--theta", repr(theta)]
    argv += [] if fd_step is None or command != "entropy" else ["--fd-step", repr(fd_step)]
    for argv in [argv] + ([] if absorption is None else [_kk_argv(absorption, tmp_path_factory)]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_COMPUTE, EXIT_TOLERANCE, EXIT_INPUT), argv
        assert "Traceback" not in err.getvalue()
        if code == EXIT_INPUT:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert [str(w.message) for w in caught] == [], argv
        if argv[0] == "kk":  # finite rows, or exit 3 naming the file or --grid
            assert code in (EXIT_OK, EXIT_INPUT), argv
            if code == EXIT_OK:
                assert np.isfinite(np.loadtxt(argv[2], delimiter=",", skiprows=1)).all(), argv
            else:
                assert argv[1] in err.getvalue() or "--grid" in err.getvalue(), argv
