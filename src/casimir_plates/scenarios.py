"""Derived observables and parameter sweeps over (pair, temperature, gap).

Sweeps evaluate grids of cells and render them as self-describing CSV (SI
units, ``#`` lines recording the solver settings and constants).  Every
other observable is a view of one sweep's rows: the temperature differences
(how much thermal occupation of the Matsubara modes weakens the attraction).
Only ``_evaluate_unit`` calls the solver, so all of them fail the same way,
naming the cell.  Sweeps with jobs > 1 keep their worker processes (one per
usable CPU at most) until the process exits; a forked child forgets them.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT
from .dispersion import Material
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
    "PRESET_PAIRS",
    "temperature_difference",
    "relative_correction_curve",
    "sweep",
    "sweep_rows_to_csv",
    "diff_results_to_csv",
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


def _positive_floats(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each finite and > 0 (a list, tuple or ndarray)."""
    values = tuple(float(x) for x in values)
    if not values or not all(0.0 < x < math.inf for x in values):  # False for NaN too
        raise ValueError(f"{name} must be non-empty, finite and all > 0")
    return values


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
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "temperatures", tuple(sorted(_positive_floats("temperatures", self.temperatures))))
        object.__setattr__(self, "gaps", tuple(sorted(_positive_floats("gaps", self.gaps))))


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
    _positive_floats("temperatures", (T_low, T_high))
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
        shares = [r.tm_share for r in results]  # te = 1 - tm; a pressure that underflows to 0 fails here
    except Exception as exc:
        if len(gaps) == 1:
            return [exc]
        return [out for a in gaps for out in _evaluate_unit((mat1, mat3, [a], T, opts))]
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


_pool = None  # (workers, pool, end) kept for this process's sweeps


def _forget_pool() -> None:
    """In a forked child: forget the parent's pool, whose workers its exit would join."""
    global _pool
    if _pool is not None:
        from multiprocessing import process  # loaded already: the pool needed it
        process._children.difference_update(_pool[1]._processes.values())
        _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(units, workers: int) -> list[SweepRow]:
    """:func:`_assemble` of ``units`` solved on this process's pool of ``workers`` processes,
    kept for later sweeps.  A pool of another size, or with a dead worker (BrokenProcessPool), ends."""
    import concurrent.futures  # here, not at the top: it loads the process pool and logging
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing.util import Finalize

    global _pool
    if _pool is not None and _pool[0] != workers:
        _pool[2]()
        _pool = None
    if _pool is None:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        # exit ends the pool, but a multiprocessing child joins its children first:
        # end it before that, and before its call queue's finalizer (priority 10)
        _pool = (workers, pool, Finalize(None, pool.shutdown, exitpriority=20))
    futures = []
    try:
        futures = [_pool[1].submit(_evaluate_unit, unit) for unit in units]
        return _assemble(units, (f.result() for f in futures))
    except BrokenProcessPool:
        _pool[2]()
        _pool = None
        raise
    finally:
        for f in futures:
            f.cancel()  # the units of a failing sweep that have not started


def sweep(spec: SweepSpec, opts: SolverOptions = DEFAULT_OPTIONS, jobs: int = 1) -> list[SweepRow]:
    """Evaluate every (pair, T, a) cell of ``spec``.

    Rows come back ordered by (pair in given order, T ascending, a ascending).
    Runs of gaps of one (pair, T) are solved together as units (:func:`_units`)
    in min(jobs, usable CPUs, units) worker processes (in-process for one, else
    kept for later sweeps until this process exits), assembled in order so that
    ``jobs`` never changes the output.  The first failing cell raises a
    RuntimeError naming (pair, a, T), from the solver's own exception.
    ``jobs`` that is not an integer >= 1 raises ValueError before any cell runs.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    units = _units(spec, opts)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = _worker_count(jobs, cpus, len(units))
    if workers == 1:
        return _assemble(units, map(_evaluate_unit, units))
    return _pooled(units, workers)


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _csv(opts: SolverOptions, header: str, rows, notes=()) -> str:
    """CSV text: the metadata #-lines, ``notes``, ``header``, then one line per
    row of fields, strings as they are and numbers to 12 significant digits."""
    lines = [
        f"# solver: quad_tol={opts.quad_tol:g} sum_rel_tol={opts.sum_rel_tol:g} "
        f"sum_consecutive={SUM_CONSECUTIVE} m_max={opts.m_max}",
        f"# constants: hbar={HBAR:.9e} J*s c={SPEED_OF_LIGHT:.9e} m/s k_B={BOLTZMANN:.6e} J/K",
        "# pressure columns hold |F| in Pa; the force is attractive",
        *notes,
        header,
    ]
    lines += [",".join([x if isinstance(x, str) else _fmt(x) for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_rows_to_csv(rows: list[SweepRow], opts: SolverOptions = DEFAULT_OPTIONS) -> str:
    """Render sweep rows as CSV text (12 significant digits, metadata in #-lines)."""
    fields = (
        (r.pair, r.material_1, r.material_2, r.gap, r.temperature, r.pressure, r.tm_share, r.te_share, str(r.m_used))
        for r in rows
    )
    return _csv(opts, SWEEP_CSV_HEADER, fields)


def diff_results_to_csv(
    results: list[DiffResult],
    mat1: Material,
    mat3: Material,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> str:
    """Render temperature-difference results as CSV text."""
    labels = (_pair_label(mat1, mat3), mat1.name, mat3.name)
    fields = ((*labels, r.a, r.T_low, r.T_high, r.f_low_T, r.f_high_T, r.delta, r.relative) for r in results)
    return _csv(opts, DIFF_CSV_HEADER, fields, ["# relative = delta / pressure at T_low"])


#: the six preset pairs, in the order ``sweep --pairs all`` lists them
PRESET_PAIRS = (("Au", "Au"), ("Au", "Cu"), ("Cu", "Cu"), ("Al", "Al"), ("Al", "Au"), ("Al", "Cu"))
