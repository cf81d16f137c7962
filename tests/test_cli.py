import csv
import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

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
        """Window part of the transform at one zeta: Gauss-Legendre over the
        sample intervals, with zeta inserted as one more break."""
        t = np.log(w)
        bounds = np.sort(np.append(t, np.log(z))) if w[0] < z < w[-1] else t
        t0, t1 = bounds[:-1], bounds[1:]
        nodes, weights = np.polynomial.legendre.leggauss(8)
        tq = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * nodes
        wq = np.exp(tq)
        vals = wq * wq * np.exp(np.interp(tq, t, np.log(e2))) / (wq * wq + z * z)
        return float(((0.5 * (t1 - t0))[:, None] * vals * weights).sum())

    # at one sample per decade the split at zeta moves eps by about 1e-8
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


def test_cli_runs_on_numpy_alone(tmp_path):
    """A tabulated sweep and a kk run load neither scipy nor numpy.ma, and
    neither thermo nor json."""
    loss = tmp_path / "loss.csv"
    TestKKCommand()._write_drude_loss(loss, per_decade=10)
    script = textwrap.dedent(f"""
        import sys
        import casimir.cli
        eps = {str(tmp_path / "eps.csv")!r}
        assert casimir.cli.main(["kk", {str(loss)!r}, eps, "--grid", "1e12,1e17,10"]) == 0
        assert casimir.cli.main(["sweep", "--pair", "Au,Au", "--eps1", eps, "--eps3", eps,
                                 "--a", "2", "--T", "300"]) == 0
        print(sorted(m for m in sys.modules
                     if m.startswith("scipy") or m == "numpy.ma" or m.startswith("numpy.ma.")
                     or m in ("casimir.thermo", "json")))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_process_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


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


def test_package_names_resolve_on_first_use():
    assert set(casimir.__all__) <= set(dir(casimir))
    star = {}
    exec("from casimir import *", star)
    assert all(star[name] is getattr(casimir, name) for name in casimir.__all__)
    assert casimir.entropy is casimir.thermo.entropy
    with pytest.raises(AttributeError, match="'no_such_name'"):
        casimir.no_such_name


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

    def test_only_the_process_command_freezes_the_heap(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["pressure", "--a", "1", "--T", "300"]) == EXIT_OK
        assert gc.get_freeze_count() == frozen
        script = ("import gc, sys, casimir.cli; sys.argv[1:] = ['pressure']; "
                  "casimir.cli.main(); print(gc.get_freeze_count() > 0, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_process_env(), timeout=120)
        assert proc.stderr == "True\n"

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


def test_parser_exists_for_all_subcommands():
    parser = build_parser()
    for cmd in ("pressure", "sweep", "table", "entropy", "kk"):
        assert cmd in parser.format_help()
