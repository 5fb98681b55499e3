"""Temperature-difference observables, sweeps, grouping, and CSV rendering."""

import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from casimir_plates.constants import BOLTZMANN
from casimir_plates.dispersion import DrudeParams, Material, TableRangeError
from casimir_plates import lifshitz, scenarios
from casimir_plates.lifshitz import PlateSystem, SolverOptions, ThermalState, casimir_pressure, expected_terms
from casimir_plates.scenarios import (
    DIFF_CSV_HEADER,
    SWEEP_CSV_HEADER,
    SweepSpec,
    _worker_count,
    diff_results_to_csv,
    gap_grid,
    group_ordering,
    relative_correction_curve,
    sweep,
    sweep_rows_to_csv,
    temperature_difference,
)
from casimir_plates.special import ZETA3
from conftest import make_table_material


class TestGapGrid:
    def test_linear(self):
        grid = gap_grid(1e-7, 1e-6, "lin", 10)
        assert np.array_equal(grid, np.linspace(1e-7, 1e-6, 10))

    def test_logarithmic(self):
        grid = gap_grid(5e-8, 3e-6, "log", 7)
        assert np.array_equal(grid, np.geomspace(5e-8, 3e-6, 7))

    def test_single_point(self):
        assert gap_grid(2e-7, 3e-7, "lin", 1).tolist() == [2e-7]

    @pytest.mark.parametrize(
        "args",
        [
            (1e-6, 1e-7, "lin", 5),  # start above stop
            (0.0, 1e-6, "lin", 5),
            (-1e-7, 1e-6, "log", 5),
            (1e-7, 1e-6, "lin", 0),
            (1e-7, 1e-6, "geometric", 5),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            gap_grid(*args)


class TestSweepSpec:
    def test_sorts_scalars_but_not_pairs(self, au, cu, al):
        spec = SweepSpec(
            pairs=((cu, cu), (au, al)),
            temperatures=(350.0, 1.0, 300.0),
            gaps=(1e-6, 5e-8),
        )
        assert spec.temperatures == (1.0, 300.0, 350.0)
        assert spec.gaps == (5e-8, 1e-6)
        assert spec.pairs[0][0].name == "Cu"
        assert spec.pairs[1] == (au, al)

    def test_validation(self, au):
        with pytest.raises(ValueError):
            SweepSpec(pairs=(), temperatures=(300.0,), gaps=(1e-6,))
        with pytest.raises(ValueError):
            SweepSpec(pairs=((au, au),), temperatures=(), gaps=(1e-6,))
        with pytest.raises(ValueError):
            SweepSpec(pairs=((au, au),), temperatures=(300.0, -1.0), gaps=(1e-6,))
        with pytest.raises(ValueError):
            SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(0.0,))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(pairs=((au, au),), temperatures=(bad,), gaps=(1e-6,))
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(bad,))

    def test_accepts_ndarrays(self, au):
        spec = SweepSpec(((au, au),), np.array([350.0, 300.0]), gap_grid(1e-7, 1e-6, "log", 3))
        assert spec.temperatures == (300.0, 350.0)
        assert spec.gaps == tuple(float(a) for a in gap_grid(1e-7, 1e-6, "log", 3))
        assert all(type(x) is float for x in spec.temperatures + spec.gaps)
        for temperatures, gaps in ((np.array([]), (1e-6,)), ((300.0,), np.array([1e-6, np.nan]))):
            with pytest.raises(ValueError, match="must be non-empty, finite and all > 0"):
                SweepSpec(((au, au),), temperatures, gaps)

    def test_rejects_a_pair_that_is_not_two_materials(self, au):
        for pair, shown in (
            (("Au", "Au"), "('Au', 'Au')"),
            ((au,), "(Au)"),
            ((au, au, au), "(Au, Au, Au)"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"two Materials, got {shown}")):
                SweepSpec(pairs=((au, au), pair), temperatures=(300.0,), gaps=(1e-6,))


class TestTemperatureDifference:
    def test_rejects_degenerate_temperatures(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        with pytest.raises(ValueError):
            temperature_difference(system, 300.0, 300.0)
        with pytest.raises(ValueError):
            temperature_difference(system, 0.0, 300.0)
        with pytest.raises(ValueError):
            temperature_difference(system, 300.0, -5.0)
        # checked before an empty gap list returns its empty curve
        for T_low, T_high in ((0.0, 300.0), (300.0, math.nan), (math.inf, 300.0)):
            with pytest.raises(ValueError, match="finite and all > 0"):
                relative_correction_curve(au, au, [], T_low, T_high)

    def test_internal_identities(self, au):
        system = PlateSystem(au, au, gap=5e-7)
        d = temperature_difference(system, 300.0, 350.0)
        assert d.a == 5e-7
        assert d.delta == d.f_low_T - d.f_high_T
        assert d.relative == d.delta / d.f_low_T
        assert d.f_low_T == casimir_pressure(system, ThermalState(300.0)).abs_pressure

    def test_swapping_temperatures_negates_delta(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        fwd = temperature_difference(system, 300.0, 350.0)
        rev = temperature_difference(system, 350.0, 300.0)
        assert rev.delta == -fwd.delta
        assert rev.f_low_T == fwd.f_high_T
        assert rev.f_high_T == fwd.f_low_T

    def test_thermal_weakening_at_one_micron(self, au):
        # attraction drops by roughly 0.16 mPa between 1 K and 300 K
        d = temperature_difference(PlateSystem(au, au, gap=1e-6), 1.0, 300.0)
        assert d.delta > 0.0
        assert d.delta == pytest.approx(0.16e-3, rel=0.15)


class TestRelativeCorrectionCurve:
    def test_sorted_and_monotone_region(self, au):
        gaps = [1e-6, 2e-7, 1.7e-6]  # deliberately shuffled
        curve = relative_correction_curve(au, au, gaps, 300.0, 350.0)
        assert [d.a for d in curve] == sorted(gaps)
        rels = [d.relative for d in curve]
        assert all(0.0 < r < 0.2 for r in rels)
        # the relative 300/350 correction grows toward its micron-scale maximum
        assert rels[0] < rels[1] < rels[2]
        assert relative_correction_curve(au, au, [], 300.0, 350.0) == []

    @pytest.fixture
    def prescriptions(self, au):
        """The 300 -> 350 K curve of Au-Au under the Drude and plasma models."""
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        gaps = [1e-6, 2e-5, 1e-4]
        return {
            "drude": relative_correction_curve(au, au, gaps, 300.0, 350.0),
            "plasma": relative_correction_curve(plasma, plasma, gaps, 300.0, 350.0),
        }

    def test_prescriptions_disagree_in_sign_at_one_micron(self, prescriptions):
        drude, plasma = prescriptions["drude"][0], prescriptions["plasma"][0]
        assert drude.a == plasma.a == 1e-6
        assert drude.delta == pytest.approx(2.619e-5, rel=1e-3)  # attraction weakens
        assert plasma.delta == pytest.approx(-2.092e-6, rel=1e-3)  # and strengthens
        assert abs(drude.delta) > 10 * abs(plasma.delta)

    def test_deltas_reach_their_classical_limits(self, prescriptions):
        """|delta| tends to zeta(3) k dT / (8 pi a**3) for Drude and twice that
        for plasma, which approaches it slowly: 1.99345 at 20 um, 1.99869 at 100 um."""
        ratios = {
            name: [abs(d.delta) / (ZETA3 * BOLTZMANN * 50.0 / (8.0 * math.pi * d.a**3)) for d in rows[1:]]
            for name, rows in prescriptions.items()
        }
        assert ratios["drude"] == pytest.approx([1.0, 1.0], rel=1e-8)
        at_20um, at_100um = ratios["plasma"]
        assert 1.993 < at_20um < at_100um < 2.0
        assert at_100um > 1.9985


class TestSweep:
    def test_single_cell_matches_direct_evaluation(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(5e-7,))
        rows = sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        direct = casimir_pressure(PlateSystem(au, au, gap=5e-7), ThermalState(300.0))
        assert row.pair == "Au-Au"
        assert row.material_1 == row.material_2 == "Au"
        assert row.gap == 5e-7
        assert row.temperature == 300.0
        assert row.pressure == direct.abs_pressure
        assert row.tm_share == direct.tm_share
        assert row.te_share == direct.te_share
        assert row.m_used == direct.m_used

    def test_row_ordering(self, au, cu):
        spec = SweepSpec(
            pairs=((cu, cu), (au, au)),
            temperatures=(350.0, 300.0),
            gaps=(1e-6, 5e-7),
        )
        rows = sweep(spec)
        key = [(r.pair, r.temperature, r.gap) for r in rows]
        assert key == [
            ("Cu-Cu", 300.0, 5e-7),
            ("Cu-Cu", 300.0, 1e-6),
            ("Cu-Cu", 350.0, 5e-7),
            ("Cu-Cu", 350.0, 1e-6),
            ("Au-Au", 300.0, 5e-7),
            ("Au-Au", 300.0, 1e-6),
            ("Au-Au", 350.0, 5e-7),
            ("Au-Au", 350.0, 1e-6),
        ]

    def test_deterministic(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(2e-7, 1e-6))
        first = sweep(spec)
        second = sweep(spec)
        assert [r.pressure for r in first] == [r.pressure for r in second]

    def test_parallel_equals_sequential(self, au, cu):
        spec = SweepSpec(
            pairs=((au, au), (cu, cu)), temperatures=(300.0,), gaps=(2e-7, 1e-6)
        )
        sequential = sweep(spec, jobs=1)
        parallel = sweep(spec, jobs=2)
        assert sequential == parallel

    @pytest.mark.parametrize(
        ("jobs", "cpus", "cells", "expected"),
        [
            (1, 8, 100, 1),
            (4, 8, 100, 4),
            (10**6, 8, 100, 8),
            (10**6, 64, 3, 3),
            (4, None, 100, 1),
            (0, 8, 100, 1),
            (4, 8, 0, 1),
        ],
    )
    def test_worker_count_is_clamped(self, jobs, cpus, cells, expected):
        assert _worker_count(jobs, cpus, cells) == expected

    def test_one_cell_never_starts_a_pool(self, au, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell sweep started a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(1e-6,))
        assert sweep(spec, jobs=4) == sweep(spec, jobs=1)

    def test_workers_are_clamped_by_the_usable_cpus(self, au, monkeypatch):
        """Two units and jobs=4 on a process allowed one CPU run in-process,
        whatever os.cpu_count() says."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep on one usable CPU started a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(scenarios, "_pools", {})  # a kept pool would hide a new one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0, 350.0), gaps=(1e-6,))
        assert len(scenarios._units(spec, scenarios.DEFAULT_OPTIONS)) == 2
        assert sweep(spec, jobs=4) == sweep(spec, jobs=1)

    def test_failing_cell_names_its_coordinates(self, au):
        bad = make_table_material(zeta=(1e12, 1e13), eps=(1e4, 1e3))
        spec = SweepSpec(pairs=((bad, au),), temperatures=(300.0,), gaps=(1e-6,))
        with pytest.raises(RuntimeError, match=r"cell failed: pair=tab-Au.*1e-06.*300"):
            sweep(spec)
        # the temperature-difference observables fail through the same sweep
        with pytest.raises(RuntimeError, match=r"cell failed: pair=tab-Au.*1e-06.*300") as info:
            temperature_difference(PlateSystem(bad, au, gap=1e-6), 350.0, 300.0)
        assert isinstance(info.value.__cause__, TableRangeError)

    def test_failing_cell_keeps_its_cause_in_worker_processes(self, au):
        """jobs=2 raises the jobs=1 error, from the solver's own exception."""
        th = ThermalState(300.0)
        short = make_table_material(zeta=(0.5 * th.zeta(1), 10.5 * th.zeta(1)), eps=(1e5, 1e3))
        spec = SweepSpec(pairs=((au, au), (short, au)), temperatures=(300.0,), gaps=(1e-6, 2e-6))
        raised = []
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match=r"cell failed: pair=tab-Au, a=1e-06 m, T=300 K") as info:
                sweep(spec, jobs=jobs)
            raised.append(info.value)
        one, two = (e.__cause__ for e in raised)
        assert type(one) is type(two) is TableRangeError
        assert one.index == two.index == 10
        assert str(raised[0]) == str(raised[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pressure_underflowing_to_zero_fails_its_cell(self, au, jobs):
        """At 1e101 m |F| is 0 and has no mode shares: that cell fails, named."""
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(1e-6, 1e101))
        with pytest.raises(RuntimeError, match=r"cell failed: pair=Au-Au, a=1e\+101 m, T=300 K") as info:
            sweep(spec, jobs=jobs)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_aluminium_attracts_strongest(self, au, cu, al):
        pairs = ((al, al), (al, au), (al, cu), (au, au), (au, cu), (cu, cu))
        spec = SweepSpec(pairs=pairs, temperatures=(300.0,), gaps=(1e-7,))
        rows = sweep(spec)
        best = max(rows, key=lambda r: r.pressure)
        assert best.pair == "Al-Al"

    def test_magnitude_falls_with_gap(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(5e-8, 1e-7, 2e-7))
        rows = sweep(spec)
        assert rows[0].pressure > rows[1].pressure > rows[2].pressure

    def test_gaps_share_kernel_calls(self, au, cu, monkeypatch):
        """Units of consecutive gaps make fewer than one kernel call per cell
        (2.70 when every cell ran its own batches), with the same points."""
        calls, points = [0], [0]
        kernel_parts = lifshitz._mode_parts

        def counting(y, mg, d):
            calls[0] += 1
            points[0] += y.size
            return kernel_parts(y, mg, d)

        monkeypatch.setattr(lifshitz, "_mode_parts", counting)
        gaps = tuple(gap_grid(5e-8, 3e-6, "log", 60))
        spec = SweepSpec(pairs=((au, au), (au, cu)), temperatures=(300.0, 350.0), gaps=gaps)
        rows = sweep(spec)
        shared_calls, shared_points = calls[0], points[0]
        points[0] = 0
        for (m1, m3), T in ((p, T) for p in spec.pairs for T in spec.temperatures):
            for a in gaps:
                casimir_pressure(PlateSystem(m1, m3, gap=a), ThermalState(T))
        assert len(rows) == 240
        assert shared_calls < 1.0 * len(rows)
        assert shared_points == points[0]

    def test_units_stay_within_the_term_budget(self, au, monkeypatch):
        calls = []
        batched = scenarios.casimir_pressures

        def recording(mat1, mat3, gaps, thermal, opts):
            calls.append((tuple(gaps), thermal))
            return batched(mat1, mat3, gaps, thermal, opts)

        monkeypatch.setattr(scenarios, "casimir_pressures", recording)
        gaps = tuple(gap_grid(1e-7, 3e-6, "log", 10))
        sweep(SweepSpec(pairs=((au, au),), temperatures=(1.0,), gaps=gaps))
        assert tuple(a for unit, _ in calls for a in unit) == gaps
        assert any(len(unit) > 1 for unit, _ in calls)
        for unit, thermal in calls:
            assert len(unit) == 1 or sum(expected_terms(a, thermal) for a in unit) <= 4096

    def test_failing_cell_in_a_shared_unit_is_named(self, au):
        """The cells of a failing unit are evaluated again one by one, so the
        first failing one raises its own error at any jobs."""
        th = ThermalState(300.0)
        short = make_table_material(zeta=(0.5 * th.zeta(1), 10.5 * th.zeta(1)), eps=(1e5, 1e3))
        spec = SweepSpec(pairs=((short, au),), temperatures=(300.0,), gaps=(1e-6, 2e-6, 4e-6))
        assert len(scenarios._units(spec, lifshitz.DEFAULT_OPTIONS)) == 1
        with pytest.raises(ValueError) as alone:
            casimir_pressure(PlateSystem(short, au, gap=1e-6), th)
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match=r"cell failed: pair=tab-Au, a=1e-06 m, T=300 K") as info:
                sweep(spec, jobs=jobs)
            cause = info.value.__cause__
            assert type(cause) is type(alone.value) is TableRangeError
            assert str(cause) == str(alone.value)
            assert cause.index == alone.value.index


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _sweep_into(conn, spec) -> None:
    conn.send(sweep(spec, jobs=2))
    conn.close()


class TestWorkerPool:
    """Sweeps with jobs > 1 share one kept pool per process (on any machine:
    the usable CPUs are patched)."""

    @pytest.fixture
    def spec(self, au, cu, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        return SweepSpec(pairs=((au, au), (cu, cu), (au, cu)), temperatures=(300.0,), gaps=(1e-6,))

    def test_sweeps_run_on_the_same_workers(self, spec):
        expected = sweep(spec, jobs=1)
        assert sweep(spec, jobs=2) == expected
        pids = _worker_pids()
        assert sweep(spec, jobs=2) == expected
        assert len(pids) == 2 and _worker_pids() == pids

    def test_another_worker_count_replaces_the_pool(self, spec):
        expected = sweep(spec, jobs=1)
        assert sweep(spec, jobs=2) == expected
        old = _worker_pids()
        assert sweep(spec, jobs=3) == expected
        new = _worker_pids()
        assert len(old) == 2 and len(new) == 3 and not old & new
        for pid in old:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_killed_worker_costs_at_most_one_sweep(self, spec):
        """The sweep that meets the dead worker may raise BrokenProcessPool
        (or finish first); every other sweep starts a fresh pool and succeeds."""
        expected = sweep(spec, jobs=1)
        assert sweep(spec, jobs=2) == expected
        os.kill(min(_worker_pids()), signal.SIGKILL)
        outcomes = []
        for _ in range(3):
            try:
                outcomes.append(sweep(spec, jobs=2) == expected)
            except BrokenProcessPool:
                outcomes.append("broken")
        assert outcomes in ([True, True, True], ["broken", True, True], [True, "broken", True])

    def test_a_failing_sweep_cancels_its_waiting_units(self, spec, au, monkeypatch):
        """The first unit fails at once while slow 1 K units wait behind it:
        those not yet handed to a worker are cancelled, not left to delay the
        next sweep."""
        cancelled = []
        cancel = Future.cancel

        def spy(future):
            cancelled.append(cancel(future))
            return cancelled[-1]

        monkeypatch.setattr(Future, "cancel", spy)
        bad = make_table_material(zeta=(1e12, 1e13), eps=(1e4, 1e3))
        failing = SweepSpec(pairs=((bad, au), (au, au)), temperatures=(1.0, 2.0), gaps=(1e-7, 2e-7, 5e-7, 1e-6))
        with pytest.raises(RuntimeError, match="cell failed: pair=tab-Au"):
            sweep(failing, jobs=2)
        assert cancelled.count(True) > 0
        assert sweep(spec, jobs=2) == sweep(spec, jobs=1)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_a_forked_child_starts_its_own_pool(self, spec):
        """The child must neither wait on its parent's workers nor, at its
        exit, on its own."""
        expected = sweep(spec, jobs=2)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_sweep_into, args=(writer, spec))
        child.start()
        writer.close()
        try:
            assert reader.poll(60), "the child's sweep did not finish"
            assert reader.recv() == expected
            child.join(60)
            assert child.exitcode == 0
        finally:
            reader.close()
            if child.is_alive():
                child.kill()
                child.join()

    def test_no_worker_outlives_the_interpreter(self):
        code = (
            "import multiprocessing, os\n"
            "from casimir_plates import material_preset\n"
            "from casimir_plates.scenarios import SweepSpec, sweep\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "au = material_preset('au')\n"
            "sweep(SweepSpec(((au, au),), (300.0, 350.0), (1e-6,)), jobs=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        src = os.path.dirname(os.path.dirname(scenarios.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert out.returncode == 0, out.stderr
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestGroupOrdering:
    def test_three_groups_ranked_by_mean(self):
        groups = group_ordering(2e-7, 300.0)
        assert [g.label for g in groups] == ["I", "II", "III"]
        assert groups[0].pairs == ("Al-Al",)
        assert set(groups[1].pairs) == {"Al-Au", "Al-Cu"}
        assert set(groups[2].pairs) == {"Au-Au", "Au-Cu", "Cu-Cu"}
        assert groups[0].mean_pressure > groups[1].mean_pressure > groups[2].mean_pressure
        for g in groups:
            assert g.mean_pressure == pytest.approx(np.mean(g.pressures), rel=1e-15)

    def test_ordering_holds_at_large_gap(self):
        groups = group_ordering(2e-6, 300.0)
        assert groups[0].mean_pressure > groups[1].mean_pressure > groups[2].mean_pressure

    def test_subset_degenerates(self):
        groups = group_ordering(2e-7, 300.0, pairs=[("Au", "Au")])
        assert len(groups) == 1
        assert groups[0].label == "III"
        assert groups[0].pairs == ("Au-Au",)
        assert group_ordering(2e-7, 300.0, pairs=[]) == []

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unsupported pairs"):
            group_ordering(2e-7, 300.0, pairs=[("Au", "Ag")])


class TestCsvRendering:
    def test_sweep_csv_shape(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(2e-7, 1e-6))
        text = sweep_rows_to_csv(sweep(spec))
        lines = text.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert len(meta) >= 2
        assert any("quad_tol" in ln for ln in meta)
        assert any("hbar" in ln for ln in meta)
        header_idx = lines.index(SWEEP_CSV_HEADER)
        assert header_idx == len(meta)
        assert len(lines) == len(meta) + 1 + 2
        assert "mPa" not in text
        assert text.endswith("\n")

    def test_sweep_csv_round_trip(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(5e-7,))
        rows = sweep(spec)
        text = sweep_rows_to_csv(rows)
        data = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
        fields = data[0].split(",")
        assert fields[0] == "Au-Au"
        assert float(fields[3]) == pytest.approx(rows[0].gap, rel=1e-11)
        assert float(fields[5]) == pytest.approx(rows[0].pressure, rel=1e-11)
        assert float(fields[5]) > 0.0  # magnitude column
        assert int(fields[8]) == rows[0].m_used

    def test_solver_options_echoed(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(5e-7,))
        opts = SolverOptions(quad_tol=1e-9, m_max=50)
        text = sweep_rows_to_csv(sweep(spec, opts), opts)
        assert "quad_tol=1e-09" in text
        assert "m_max=50" in text

    def test_diff_csv_shape(self, au):
        curve = relative_correction_curve(au, au, [2e-7, 1e-6], 300.0, 350.0)
        text = diff_results_to_csv(curve, au, au)
        lines = text.splitlines()
        assert DIFF_CSV_HEADER in lines
        assert any(ln.startswith("# relative = delta / pressure at T_low") for ln in lines)
        data = lines[lines.index(DIFF_CSV_HEADER) + 1 :]
        assert len(data) == 2
        first = data[0].split(",")
        assert first[0] == "Au-Au"
        assert float(first[3]) == pytest.approx(2e-7, rel=1e-11)
        assert float(first[4]) == 300.0
        assert float(first[5]) == 350.0
        assert float(first[8]) == pytest.approx(curve[0].delta, rel=1e-11)
        assert float(first[9]) == pytest.approx(curve[0].relative, rel=1e-11)
        assert "mPa" not in text

    def test_twelve_digit_mantissas(self, au):
        spec = SweepSpec(pairs=((au, au),), temperatures=(300.0,), gaps=(5e-7,))
        text = sweep_rows_to_csv(sweep(spec))
        row = [ln for ln in text.splitlines() if ln.startswith("Au-Au")][0]
        pressure_field = row.split(",")[5]
        mantissa = pressure_field.split("e")[0]
        assert len(mantissa.split(".")[1]) == 12
