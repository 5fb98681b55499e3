"""End-to-end exercises of the command-line interface via run(argv)."""

import csv
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import scenarios
from casimir_plates.cli import (
    build_parser,
    parse_energy,
    parse_gaps,
    parse_length,
    parse_temperature,
    run,
)
from casimir_plates.constants import EV_RAD_PER_S
from casimir_plates.dispersion import DrudeParams, Material, load_permittivity_table, material_preset
from casimir_plates.lifshitz import PlateSystem, SolverOptions, ThermalState, casimir_pressure

VALID_TABLE = b"zeta_rad_per_s,eps\n1e12,1e6\n1e14,1e3\n1e16,2.0\n"


def _csv_data_rows(text: str) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]  # drop the header


class TestParsers:
    def test_lengths(self):
        assert parse_length("200nm") == 200e-9
        assert parse_length("500nm") == 5e-07
        assert parse_length("1um") == 1e-6
        assert parse_length("2.5e-7m") == 2.5e-7
        assert parse_length("50nm") == 50e-9
        assert parse_length(" 50 nm ") == 50e-9

    @settings(deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_integer_lengths_are_the_literal_doubles(self, n):
        """Dividing by the unit's power of ten rounds once, as the literal does."""
        assert parse_length(f"{n}nm") == float(f"{n}e-9")
        assert parse_length(f"{n}um") == float(f"{n}e-6")

    def test_temperatures(self):
        assert parse_temperature("300") == 300.0
        assert parse_temperature("300K") == 300.0
        assert parse_temperature(" 0.5K ") == 0.5
        assert parse_temperature("300 K") == 300.0

    def test_energies(self):
        assert parse_energy("9.0eV") == 9.0 * 1.519e15
        presets = (("Au", "9.0", "35"), ("Cu", "9.05", "30"), ("Al", "11.5", "50"))
        for name, omega_p_ev, nu_mev in presets:
            model = material_preset(name).model
            assert parse_energy(f"{omega_p_ev}eV") == model.omega_p
            assert parse_energy(f"{nu_mev}meV") == model.nu

    def test_gap_grids(self):
        assert parse_gaps("100nm,50nm") == [100e-9, 50e-9]
        grid = parse_gaps("50nm:200nm:log:3")
        assert grid == pytest.approx([50e-9, 100e-9, 200e-9], rel=1e-12)
        assert parse_gaps("50nm:3um:log:60") == list(np.geomspace(50e-9, 3e-6, 60))

    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--pair", "Au,Au", "--gap", "1um", "--temp", "300"],
            ["sweep", "--pairs", "all", "--gaps", "1um", "--temps", "300"],
            ["diff", "--pair", "Au,Au", "--gaps", "1um", "--temps", "300,350"],
        ],
    )
    def test_tol_defaults_to_the_solver_default(self, argv):
        assert build_parser().parse_args(argv).tol == SolverOptions().quad_tol


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["pressure", "--help"],
            ["sweep", "--help"],
            ["diff", "--help"],
            ["materials", "--help"],
            ["import-table", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run([]) == 1
        assert "error" in capsys.readouterr().err


class TestPressure:
    def test_text_output(self, capsys):
        code = run(["pressure", "--pair", "Au,Au", "--gap", "1um", "--temp", "300K"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair: Au-Au" in out
        assert "attractive" in out
        assert "mPa" in out

    def test_csv_matches_library(self, capsys, au):
        code = run(
            ["pressure", "--pair", "Au,Au", "--gap", "1um", "--temp", "300", "--format", "csv"]
        )
        assert code == 0
        rows = _csv_data_rows(capsys.readouterr().out)
        assert len(rows) == 1
        value = float(rows[0].split(",")[5])
        direct = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
        assert value == pytest.approx(direct.abs_pressure, rel=1e-11)
        assert value == pytest.approx(0.96e-3, rel=0.03)

    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--pair", "Au,Au", "--gap", "0nm", "--temp", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "200furlong", "--temp", "300"],
            ["pressure", "--pair", "Au", "--gap", "200nm", "--temp", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "-4"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "300", "--bogus"],
            ["pressure", "--gap", "200nm", "--temp", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "1e400nm", "--temp", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "nan"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "inf"],
            ["pressure", "--pair", "My,My", "--drude", "My:1e400eV:35meV", "--gap", "200nm", "--temp", "300"],
            ["sweep", "--pairs", "Au,Au", "--gaps", ",", "--temps", "300"],
            ["diff", "--pair", "Au,Au", "--gaps", ",", "--temps", "300,350"],
            ["sweep", "--pairs", ";", "--gaps", "200nm", "--temps", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "1e400"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "300C"],
            ["sweep", "--pairs", "Au,Au", "--gaps", "50nm:3um:log:x", "--temps", "300"],
            ["sweep", "--pairs", "Au,Au", "--gaps", "3um:50nm:log:5", "--temps", "300"],
            ["sweep", "--pairs", "Au,Au", "--gaps", "50nm:3um:cubic:5", "--temps", "300"],
            ["sweep", "--pairs", "Au,Au", "--gaps", "50nm:3um:log:0", "--temps", "300"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "300", "--table", "T"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "300", "--tol", "2"],
            ["pressure", "--pair", "Au,Au", "--gap", "200nm", "--temp", "300", "--m-max", "0"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert run(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_material_is_named(self, capsys):
        assert run(["pressure", "--pair", "Au,Ag", "--gap", "200nm", "--temp", "300"]) == 1
        err = capsys.readouterr().err
        assert "unknown material" in err
        assert "Ag" in err

    def test_unknown_material_lists_each_name_once(self, capsys):
        """A --drude or --table name replaces the preset it shadows in the list."""
        argv = ["pressure", "--pair", "Au,Ag", "--gap", "200nm", "--temp", "300", "--drude", "au:9eV:30meV",
                "--drude", "My:9eV:1meV"]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: unknown material 'Ag'; available: au, Cu, Al, My\n"

    def test_forced_low_ceiling_is_a_computation_error(self, capsys):
        code = run(
            ["pressure", "--pair", "Au,Au", "--gap", "1um", "--temp", "300", "--m-max", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ceiling" in err
        assert "sum_rel_tol" not in err  # the CLI has no flag for it

    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--pair", "Au,Au", "--gap", "100nm", "--temp", "0.01"],
            ["sweep", "--pairs", "Au,Au", "--gaps", "100nm", "--temps", "0.01,300", "--jobs", "2"],
        ],
    )
    def test_cell_over_the_term_budget_is_a_usage_error(self, argv, capsys):
        """100 nm at 10 mK expects 3.8e6 Matsubara terms, over the 2e6 budget;
        it is refused before its first batch, also from a worker process."""
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "budget" in err
        assert "--m-max" in err

    @pytest.mark.parametrize("gap", ["1e101m", "1e200m"])
    def test_pressure_lost_to_underflow_or_overflow_is_a_computation_error(self, gap, capsys):
        """At 1e101 m the pressure underflows to 0, which has no mode shares."""
        assert run(["pressure", "--pair", "Au,Au", "--gap", gap, "--temp", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cell failed: pair=Au-Au, a={float(gap[:-1]):g} m, T=300 K: ")
        assert captured.err.count("\n") == 1

    def test_large_gap_default_ceiling(self, capsys):
        """At 20 um and 300 K the default ceiling leaves room for the truncation rule."""
        assert run(["pressure", "--pair", "Au,Au", "--gap", "20um", "--temp", "300"]) == 0
        assert "matsubara terms: 3" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "cell.csv"
        code = run(
            [
                "pressure", "--pair", "Au,Au", "--gap", "500nm", "--temp", "300",
                "--format", "csv", "--output", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert len(_csv_data_rows(target.read_text())) == 1

    def test_custom_drude_matches_preset(self, capsys, au):
        code = run(
            [
                "pressure", "--pair", "MyAu,MyAu", "--gap", "200nm", "--temp", "300",
                "--format", "csv", "--drude", "MyAu:9.0eV:35meV",
            ]
        )
        assert code == 0
        value = float(_csv_data_rows(capsys.readouterr().out)[0].split(",")[5])
        custom = Material("MyAu", DrudeParams(parse_energy("9.0eV"), parse_energy("35meV")))
        assert custom.model == material_preset("Au").model
        direct = casimir_pressure(PlateSystem(au, au, gap=2e-7), ThermalState(300.0))
        assert value == float(f"{direct.abs_pressure:.12e}")

    def test_tabulated_material_tracks_preset(self, tmp_path, capsys, au):
        drude = material_preset("au").model
        zeta = np.geomspace(1e11, 1e19, 161)  # 20 samples per decade
        eps = 1.0 + drude.omega_p**2 / (zeta * (zeta + drude.nu))
        table = tmp_path / "au_like.csv"
        lines = ["zeta_rad_per_s,eps"] + [f"{z:.9e},{e:.9e}" for z, e in zip(zeta, eps)]
        table.write_text("\n".join(lines) + "\n")
        code = run(
            [
                "pressure", "--pair", "TabAu,TabAu", "--gap", "200nm", "--temp", "300",
                "--format", "csv", "--table", f"TabAu={table}",
            ]
        )
        assert code == 0
        value = float(_csv_data_rows(capsys.readouterr().out)[0].split(",")[5])
        direct = casimir_pressure(PlateSystem(au, au, gap=2e-7), ThermalState(300.0))
        assert value == pytest.approx(direct.abs_pressure, rel=2e-2)


class TestDiff:
    def test_csv_against_reference_difference(self, capsys):
        code = run(
            ["diff", "--pair", "Au,Au", "--gaps", "200nm", "--temps", "300,350", "--format", "csv"]
        )
        assert code == 0
        rows = _csv_data_rows(capsys.readouterr().out)
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert float(fields[4]) == 300.0
        assert float(fields[5]) == 350.0
        delta = float(fields[8])
        assert delta == pytest.approx(2.0e-3, rel=0.15)

    def test_temperature_order_is_normalized(self, capsys):
        run(["diff", "--pair", "Au,Au", "--gaps", "500nm", "--temps", "300,350", "--format", "csv"])
        first = capsys.readouterr().out
        run(["diff", "--pair", "Au,Au", "--gaps", "500nm", "--temps", "350,300", "--format", "csv"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("temps", ["300", "300,300", "1,300,350"])
    def test_needs_two_distinct_temperatures(self, temps, capsys):
        assert run(["diff", "--pair", "Au,Au", "--gaps", "500nm", "--temps", temps]) == 1
        assert "two distinct temperatures" in capsys.readouterr().err

    def test_failing_cell_is_named_as_sweep_names_it(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_bytes(b"zeta_rad_per_s,eps\n1e12,1e6\n1e13,1e3\n")  # ends below zeta_1
        common = ["--gaps", "200nm,500nm", "--temps", "300,350", "--table", f"T={table}"]
        assert run(["diff", "--pair", "T,Au"] + common) == 2
        diff_err = capsys.readouterr().err
        assert "cell failed: pair=T-Au, a=2e-07 m, T=300 K: material 'T' (mat1) failed at m=1" in diff_err
        assert run(["sweep", "--pairs", "T,Au"] + common) == 2
        assert capsys.readouterr().err == diff_err

    def test_zero_nu_is_the_plasma_model(self, capsys):
        code = run(
            [
                "diff", "--pair", "P,P", "--drude", "P:9.0eV:0meV", "--gaps", "1um",
                "--temps", "300,350", "--format", "csv",
            ]
        )
        assert code == 0
        (row,) = _csv_data_rows(capsys.readouterr().out)
        plasma = Material("P", DrudeParams(9.0 * EV_RAD_PER_S, 0.0))
        (ref,) = scenarios.relative_correction_curve(plasma, plasma, [1e-6], 300.0, 350.0)
        assert row.split(",")[8] == scenarios._fmt(ref.delta)
        assert ref.delta == pytest.approx(-2.092442e-6, rel=1e-6)  # plasma sign, as in 57d117f

    @pytest.mark.parametrize("spec", ["P:9.0eV:-1meV", "P:9.0eV:nanmeV", "P:0eV:0meV"])
    def test_bad_drude_parameters_are_usage_errors(self, spec, capsys):
        argv = ["diff", "--pair", "P,P", "--drude", spec, "--gaps", "1um", "--temps", "300,350"]
        assert run(argv) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_text_table(self, capsys):
        code = run(["diff", "--pair", "Au,Au", "--gaps", "500nm", "--temps", "300,350"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_%" in out
        assert "T_low = 300" in out


class TestSweep:
    def test_grid_ordering_and_count(self, capsys):
        code = run(
            [
                "sweep", "--pairs", "Au,Au;Cu,Cu", "--gaps", "500nm,200nm",
                "--temps", "300", "--format", "csv",
            ]
        )
        assert code == 0
        rows = _csv_data_rows(capsys.readouterr().out)
        assert len(rows) == 4
        key = [(r.split(",")[0], float(r.split(",")[3])) for r in rows]
        assert key == [("Au-Au", 2e-7), ("Au-Au", 5e-7), ("Cu-Cu", 2e-7), ("Cu-Cu", 5e-7)]

    def test_log_grid_syntax(self, capsys):
        code = run(
            ["sweep", "--pairs", "Au,Au", "--gaps", "50nm:200nm:log:3", "--temps", "300",
             "--format", "csv"]
        )
        assert code == 0
        rows = _csv_data_rows(capsys.readouterr().out)
        gaps = [float(r.split(",")[3]) for r in rows]
        assert gaps == pytest.approx([50e-9, 100e-9, 200e-9], rel=1e-11)

    def test_malformed_grid(self, capsys):
        assert run(["sweep", "--pairs", "Au,Au", "--gaps", "50nm:200nm:3", "--temps", "300"]) == 1
        assert "start:stop" in capsys.readouterr().err

    def test_all_pairs_shorthand(self, capsys):
        code = run(
            ["sweep", "--pairs", "all", "--gaps", "1um", "--temps", "300", "--format", "csv"]
        )
        assert code == 0
        rows = _csv_data_rows(capsys.readouterr().out)
        assert len(rows) == 6
        assert {r.split(",")[0] for r in rows} == {
            "Au-Au", "Au-Cu", "Cu-Cu", "Al-Al", "Al-Au", "Al-Cu"
        }

    def test_parallel_output_identical(self, capsys):
        argv = ["sweep", "--pairs", "Au,Au", "--gaps", "200nm,1um", "--temps", "300",
                "--format", "csv"]
        run(argv + ["--jobs", "1"])
        first = capsys.readouterr().out
        run(argv + ["--jobs", "2"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr("casimir_plates.cli.sweep", no_sweep)
        argv = ["sweep", "--pairs", "Au,Au", "--gaps", "1um", "--temps", "300", "--jobs", jobs]
        assert run(argv) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_text_format_header(self, capsys):
        code = run(["sweep", "--pairs", "Au,Au", "--gaps", "1um", "--temps", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("pair")
        assert "|F|_Pa" in out


class TestCellsMatchTheLibrary:
    """diff and sweep solve several gaps in shared kernel batches.  Each
    pressure they compute is the library's casimir_pressure of that cell
    alone, bit for bit, and each |F| they print equals it to the 12 printed
    digits."""

    @staticmethod
    def _table(tmp_path):
        # synthetic Drude plus one Lorentz oscillator on the imaginary axis,
        # 1e14-1e19 rad/s, with no fallback: not measured data
        ev = 1.519e15
        zeta = np.geomspace(1e14, 1e19, 241)
        eps = 1.0 + (9.0 * ev) ** 2 / (zeta * (zeta + 0.035 * ev)) + 4.0 * (4.0 * ev) ** 2 / (
            (4.0 * ev) ** 2 + zeta**2 + 1.0 * ev * zeta
        )
        path = tmp_path / "synth.csv"
        rows = "".join(f"{float(z)!r},{float(e)!r}\n" for z, e in zip(zeta, eps))
        path.write_text("zeta_rad_per_s,eps\n" + rows)
        return path

    @pytest.mark.parametrize(
        ("command", "gaps", "n_gaps"),
        [("diff", "200nm,1um", 2), ("sweep", "500nm,1um", 2), ("sweep", "50nm:3um:log:30", 30)],
    )
    @pytest.mark.parametrize("pairs", ["T,T;T,Au", "Au,Au;Al,Cu"])
    def test_every_pressure_is_the_single_cell_value(
        self, tmp_path, capsys, monkeypatch, command, gaps, n_gaps, pairs
    ):
        path = self._table(tmp_path)
        materials = {"T": Material("T", load_permittivity_table(str(path)))}
        computed = {}
        batched = scenarios.casimir_pressures

        def recording(mat1, mat3, unit_gaps, thermal, opts):
            results = batched(mat1, mat3, unit_gaps, thermal, opts)
            for a, r in zip(unit_gaps, results):
                computed[(mat1.name, mat3.name, a, thermal.T)] = r.pressure
            return results

        monkeypatch.setattr(scenarios, "casimir_pressures", recording)
        printed = {}
        for pair in pairs.split(";"):
            flag = "--pair" if command == "diff" else "--pairs"
            argv = [command, flag, pair, "--gaps", gaps, "--temps", "300,350", "--table", f"T={path}"]
            assert run(argv + ["--format", "csv"]) == 0
            out = capsys.readouterr().out
            for row in csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")):
                cell = (row["material_1"], row["material_2"], float(row["gap_m"]))
                if command == "diff":
                    printed[cell + (300.0,)] = float(row["pressure_low_Pa"])
                    printed[cell + (350.0,)] = float(row["pressure_high_Pa"])
                else:
                    printed[cell + (float(row["temperature_K"]),)] = float(row["pressure_Pa"])
        assert len(printed) == len(computed) == 4 * n_gaps
        for (m1, m3, gap, T), pressure in computed.items():
            mat1, mat3 = (materials.get(m) or material_preset(m) for m in (m1, m3))
            alone = casimir_pressure(PlateSystem(mat1, mat3, gap=gap), ThermalState(T)).pressure
            assert pressure == alone, (m1, m3, gap, T)
            assert printed[(m1, m3, float(f"{gap:.12e}"), T)] == float(f"{-alone:.12e}")


class TestMaterials:
    def test_lists_presets_with_parameters(self, capsys):
        assert run(["materials"]) == 0
        out = capsys.readouterr().out
        for token in ("Au", "Cu", "Al", "9.05", "11.5", "eV"):
            assert token in out


class TestImportTable:
    def test_valid_table(self, tmp_path, capsys):
        f = tmp_path / "table.csv"
        f.write_bytes(VALID_TABLE)
        assert run(["import-table", str(f)]) == 0
        out = capsys.readouterr().out
        assert "table ok" in out
        assert "samples: 3" in out
        assert "none" in out  # no fallback attached

    def test_invalid_eps_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"zeta_rad_per_s,eps\n1e12,0.5\n1e14,0.4\n")
        assert run(["import-table", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["import-table", str(tmp_path / "absent.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_fallback_parsing(self, tmp_path, capsys):
        f = tmp_path / "table.csv"
        f.write_bytes(VALID_TABLE)
        assert run(["import-table", str(f), "--fallback", "9.0eV"]) == 1
        capsys.readouterr()
        assert run(["import-table", str(f), "--fallback", "9.0eV:35meV"]) == 0
        assert "fallback: Drude" in capsys.readouterr().out

    def test_plasma_fallback(self, tmp_path, capsys):
        f = tmp_path / "table.csv"
        f.write_bytes(VALID_TABLE)
        assert run(["import-table", str(f), "--fallback", "9.0eV:0meV"]) == 0
        assert "fallback: plasma" in capsys.readouterr().out
        assert run(["import-table", str(f), "--fallback", "9.0eV:-1meV"]) == 1


@pytest.mark.skipif(shutil.which("casimir-plates") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["casimir-plates", "materials"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "Au" in proc.stdout
