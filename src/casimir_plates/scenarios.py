"""Derived observables and parameter sweeps over (pair, temperature, gap).

Sweeps evaluate grids of cells and render them as self-describing CSV (SI
units, ``#`` lines recording the solver settings and constants).  Every
other observable is a view of one sweep's rows: the temperature differences
(how much thermal occupation of the Matsubara modes weakens the attraction)
and the grouping of the preset pairs.  Only ``_evaluate_unit`` calls the
solver, so all of them fail the same way, naming the cell.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT
from .dispersion import Material, material_preset
from .lifshitz import (
    DEFAULT_OPTIONS,
    SUM_CONSECUTIVE,
    PlateSystem,
    SolverOptions,
    ThermalState,
    casimir_pressure,  # noqa: F401  (unused: perfbench's tracer wraps it here)
    casimir_pressures,
    expected_terms,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "DiffResult",
    "PairGroup",
    "PRESET_PAIRS",
    "temperature_difference",
    "relative_correction_curve",
    "sweep",
    "sweep_rows_to_csv",
    "diff_results_to_csv",
    "group_ordering",
    "gap_grid",
]

_UNIT_TERMS = 4096  # most expected terms in one unit of a sweep: bounds the results it holds

SWEEP_CSV_HEADER = "pair,material_1,material_2,gap_m,temperature_K,pressure_Pa,tm_share,te_share,m_used"
DIFF_CSV_HEADER = (
    "pair,material_1,material_2,gap_m,T_low_K,T_high_K,"
    "pressure_low_Pa,pressure_high_Pa,delta_Pa,relative"
)


def gap_grid(start: float, stop: float, spacing: str, count: int) -> np.ndarray:
    """Gap grid in metres, ``spacing`` either 'lin' or 'log'."""
    if not (0.0 < start < stop):
        raise ValueError(f"need 0 < start < stop, got {start!r}, {stop!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spacing == "lin":
        return np.linspace(start, stop, count)
    if spacing == "log":
        return np.geomspace(start, stop, count)
    raise ValueError(f"spacing must be 'lin' or 'log', got {spacing!r}")


def _require_positive(name: str, values) -> None:
    if not values or not all(0.0 < x < math.inf for x in values):  # False for NaN too
        raise ValueError(f"{name} must be non-empty, finite and all > 0")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid: material pairs x temperatures x gaps.

    Gaps and temperatures are sorted ascending at construction; pairs keep
    their given order.
    """

    pairs: tuple[tuple[Material, Material], ...]
    temperatures: tuple[float, ...]
    gaps: tuple[float, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("need at least one material pair")
        pairs = tuple(tuple(p) for p in self.pairs)
        for pair in pairs:
            if len(pair) != 2 or not all(isinstance(m, Material) for m in pair):
                names = ", ".join(m.name if isinstance(m, Material) else repr(m) for m in pair)
                raise ValueError(f"each pair must be two Materials, got ({names})")
        _require_positive("temperatures", self.temperatures)
        _require_positive("gaps", self.gaps)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "temperatures", tuple(sorted(float(t) for t in self.temperatures)))
        object.__setattr__(self, "gaps", tuple(sorted(float(a) for a in self.gaps)))


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell; ``pressure`` is |F| in Pa (the attraction magnitude)."""

    pair: str
    material_1: str
    material_2: str
    gap: float
    temperature: float
    pressure: float
    tm_share: float
    te_share: float
    m_used: int


@dataclass(frozen=True)
class DiffResult:
    """Pressure magnitudes of one gap at two temperatures and their difference.

    delta = f_low_T - f_high_T exactly as evaluated; relative = delta/f_low_T.
    For Drude metals below the large-gap classical crossover the attraction
    weakens with temperature, so delta > 0.
    """

    a: float
    T_low: float
    T_high: float
    f_low_T: float
    f_high_T: float
    delta: float
    relative: float


@dataclass(frozen=True)
class PairGroup:
    """A set of material pairs ranked together by mean attraction strength."""

    label: str
    pairs: tuple[str, ...]
    pressures: tuple[float, ...]
    mean_pressure: float


def _pair_label(mat1: Material, mat3: Material) -> str:
    return f"{mat1.name}-{mat3.name}"


def temperature_difference(
    system: PlateSystem,
    T_low: float,
    T_high: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> DiffResult:
    """Compare |F| of ``system`` at two temperatures with identical solver
    settings: :func:`relative_correction_curve` at its one gap."""
    return relative_correction_curve(system.mat1, system.mat3, [system.gap], T_low, T_high, opts)[0]


def relative_correction_curve(
    mat1: Material,
    mat3: Material,
    gaps,
    T_low: float,
    T_high: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> list[DiffResult]:
    """|F| at two temperatures across a gap grid (ascending order), from one
    :func:`sweep` of the pair over both temperatures.

    The two temperatures must differ; calling with them swapped negates
    ``delta`` exactly (the same two pressures are computed either way).
    A temperature or gap that is not finite and > 0 raises ValueError; a
    failing cell raises the sweep's RuntimeError.
    """
    if T_low == T_high:
        raise ValueError(f"temperatures must differ, both are {T_low!r}")
    _require_positive("temperatures", (T_low, T_high))
    gaps = tuple(gaps)
    if not gaps:
        return []
    rows = sweep(SweepSpec(((mat1, mat3),), (T_low, T_high), gaps), opts)
    # rows come back with T ascending: the first half is the lower temperature
    n = len(gaps)
    low, high = (rows[:n], rows[n:]) if T_low < T_high else (rows[n:], rows[:n])
    out = []
    for lo, hi in zip(low, high):
        delta = lo.pressure - hi.pressure
        out.append(DiffResult(lo.gap, T_low, T_high, lo.pressure, hi.pressure, delta, delta / lo.pressure))
    return out


def _evaluate_unit(unit) -> list[SweepRow | Exception]:
    """Rows of one unit's cells; a failing unit is solved again cell by cell, and
    each failing cell returns its exception (a worker loses a raised one's cause)."""
    mat1, mat3, gaps, T, opts = unit
    try:
        results = casimir_pressures(mat1, mat3, gaps, ThermalState(T), opts)
    except Exception as exc:
        if len(gaps) == 1:
            return [exc]
        return [out for a in gaps for out in _evaluate_unit((mat1, mat3, [a], T, opts))]
    shares = [r.tm_share for r in results]  # te_share is 1 - tm_share: one share computation per row
    return [
        SweepRow(_pair_label(mat1, mat3), mat1.name, mat3.name, a, T, r.abs_pressure, s, 1.0 - s, r.m_used)
        for a, r, s in zip(gaps, results, shares)
    ]


def _units(spec: SweepSpec, opts: SolverOptions) -> list[tuple]:
    """Row-ordered units (mat1, mat3, gaps, T, opts): runs of one (pair, T) within _UNIT_TERMS, or one cell."""
    units = []
    for (mat1, mat3), T in itertools.product(spec.pairs, spec.temperatures):
        terms = _UNIT_TERMS  # the first gap opens a unit
        for a in spec.gaps:
            n = expected_terms(a, ThermalState(T), opts)
            if terms + n > _UNIT_TERMS:
                units.append((mat1, mat3, [], T, opts))
                terms = 0
            units[-1][2].append(a)
            terms += n
    return units


def _worker_count(jobs: int, cpus: int | None, n_units: int) -> int:
    """Worker processes for a sweep: ``jobs``, but no more than CPUs or units."""
    return max(1, min(jobs, cpus or 1, n_units))


def _assemble(units, outcomes) -> list[SweepRow]:
    """The rows of ``units`` in order; the first failing cell raises."""
    rows = []
    for (mat1, mat3, gaps, T, _), unit_rows in zip(units, outcomes):
        for a, row in zip(gaps, unit_rows):
            if isinstance(row, Exception):
                pair = _pair_label(mat1, mat3)
                raise RuntimeError(f"cell failed: pair={pair}, a={a:g} m, T={T:g} K: {row}") from row
            rows.append(row)
    return rows


def sweep(spec: SweepSpec, opts: SolverOptions = DEFAULT_OPTIONS, jobs: int = 1) -> list[SweepRow]:
    """Evaluate every (pair, T, a) cell of ``spec``.

    Rows come back ordered by (pair in given order, T ascending, a ascending).
    Runs of gaps of one (pair, T) are solved together as units (:func:`_units`)
    in min(jobs, CPUs, units) worker processes (in-process for one), assembled
    in order so that ``jobs`` never changes the output.  The first failing cell
    raises a RuntimeError naming (pair, a, T), from the solver's own exception.
    """
    units = _units(spec, opts)
    workers = _worker_count(jobs, os.cpu_count(), len(units))
    if workers == 1:
        return _assemble(units, map(_evaluate_unit, units))
    import concurrent.futures  # here, not at the top: it loads the process pool and logging

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return _assemble(units, pool.map(_evaluate_unit, units))


def _metadata_lines(opts: SolverOptions) -> list[str]:
    return [
        f"# solver: quad_tol={opts.quad_tol:g} sum_rel_tol={opts.sum_rel_tol:g} "
        f"sum_consecutive={SUM_CONSECUTIVE} m_max={opts.m_max}",
        f"# constants: hbar={HBAR:.9e} J*s c={SPEED_OF_LIGHT:.9e} m/s k_B={BOLTZMANN:.6e} J/K",
        "# pressure columns hold |F| in Pa; the force is attractive",
    ]


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def sweep_rows_to_csv(rows: list[SweepRow], opts: SolverOptions = DEFAULT_OPTIONS) -> str:
    """Render sweep rows as CSV text (12 significant digits, metadata in #-lines)."""
    lines = _metadata_lines(opts) + [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.pair},{r.material_1},{r.material_2},{_fmt(r.gap)},{_fmt(r.temperature)},"
            f"{_fmt(r.pressure)},{_fmt(r.tm_share)},{_fmt(r.te_share)},{r.m_used}"
        )
    return "\n".join(lines) + "\n"


def diff_results_to_csv(
    results: list[DiffResult],
    mat1: Material,
    mat3: Material,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> str:
    """Render temperature-difference results as CSV text."""
    pair = _pair_label(mat1, mat3)
    lines = _metadata_lines(opts)
    lines.append("# relative = delta / pressure at T_low")
    lines.append(DIFF_CSV_HEADER)
    for r in results:
        lines.append(
            f"{pair},{mat1.name},{mat3.name},{_fmt(r.a)},{_fmt(r.T_low)},{_fmt(r.T_high)},"
            f"{_fmt(r.f_low_T)},{_fmt(r.f_high_T)},{_fmt(r.delta)},{_fmt(r.relative)}"
        )
    return "\n".join(lines) + "\n"


#: the six preset pairs, in the order ``sweep --pairs all`` lists them
PRESET_PAIRS = (("Au", "Au"), ("Au", "Cu"), ("Cu", "Cu"), ("Al", "Al"), ("Al", "Au"), ("Al", "Cu"))


def group_ordering(
    a: float,
    T: float,
    pairs: list[tuple[str, str]] | None = None,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> list[PairGroup]:
    """Rank the preset material pairs by mean |F| at one (a, T) cell.

    The six preset pairs split into three groups (pure Al / Al with a noble
    metal / noble-noble); higher plasma frequency means stronger
    attraction, so the groups come out ordered I > II > III by group-mean
    |F|.  Passing an explicit ``pairs`` subset restricts the grouping
    (a single pair degenerates to one group of one).  Only preset material
    names are supported.
    """
    chosen = PRESET_PAIRS
    if pairs is not None:
        def key(p):
            return tuple(sorted((p[0].lower(), p[1].lower())))

        requested = {key(p) for p in pairs}
        unknown = requested - {key(p) for p in PRESET_PAIRS}
        if unknown:
            raise ValueError(f"unsupported pairs for grouping: {sorted(unknown)}")
        chosen = [p for p in PRESET_PAIRS if key(p) in requested]
    if not chosen:
        return []
    spec = SweepSpec(tuple((material_preset(n1), material_preset(n2)) for n1, n2 in chosen), (T,), (a,))
    rows = sweep(spec, opts)

    out = []
    # a pair's group is set by its number of Al plates
    for label, n_al in (("I", 2), ("II", 1), ("III", 0)):
        group = [r for r in rows if (r.material_1, r.material_2).count("Al") == n_al]
        if group:
            pressures = tuple(r.pressure for r in group)
            out.append(PairGroup(label, tuple(r.pair for r in group), pressures, float(np.mean(pressures))))
    return out
