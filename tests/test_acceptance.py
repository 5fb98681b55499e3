"""Acceptance suite: one test per contract criterion, one verdict line each.

Every expected number here is either a published reference magnitude or a
property that must hold between the package's own outputs.  Each test
records its verdict line (also echoed in the terminal summary) before
asserting, so a failing criterion still reports what it measured.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from casimir_plates.constants import BOLTZMANN, EV_RAD_PER_S
from casimir_plates.dispersion import (
    Material,
    drude_eps,
    load_permittivity_table,
    material_preset,
)
from casimir_plates.lifshitz import (
    PlateSystem,
    SolverOptions,
    ThermalState,
    _mode_parts,
    casimir_pressure,
    ideal_metal_pressure_T0,
    matsubara_term,
    zero_frequency_term,
)
from casimir_plates.scenarios import (
    relative_correction_curve,
    temperature_difference,
)
from quadrature_oracle import adaptive_pair_quadrature

# verdict lines keyed by (criterion, variant) so that variants sort together
CRITERION_LINES: dict[tuple[int, str], str] = {}

GAPS = (1e-7, 2e-7, 5e-7, 1e-6)
TEMPS = (1.0, 300.0)

# reference |F| in Pa at (gap, T) and the per-gap relative tolerance
REFERENCE_PRESSURE = {
    (1e-7, 1.0): 6.105,
    (1e-7, 300.0): 6.061,
    (2e-7, 1.0): 0.510,
    (2e-7, 300.0): 0.500,
    (5e-7, 1.0): 16.3e-3,
    (5e-7, 300.0): 15.2e-3,
    (1e-6, 1.0): 1.12e-3,
    (1e-6, 300.0): 0.96e-3,
}
PRESSURE_TOL = {1e-7: 0.05, 2e-7: 0.04, 5e-7: 0.03, 1e-6: 0.03}

# The references were computed from gold's measured optical data.  The Drude
# presets reproduce them from 200 nm up; at 100 nm (hbar c / 2a ~ 1 eV, where
# gold's interband transitions already raise eps) the Drude model, which has
# no interband terms, falls about 7% short, as the README documents.  The
# 100 nm cells are held to the references only by the optical-data table.
DRUDE_GAPS = (2e-7, 5e-7, 1e-6)
OPTICAL_TABLE = Path(__file__).parent / "data" / "au_optical_eps.csv"

# reference thermal reduction (|F| drop from 1 K to 300 K, relative to 1 K)
REFERENCE_REDUCTION = {1e-7: 0.0072, 2e-7: 0.02, 5e-7: 0.067, 1e-6: 0.139}


def _record(n: int, ok: bool, detail: str, variant: str = "") -> None:
    label = f"{n} ({variant})" if variant else f"{n}"
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    CRITERION_LINES[(n, variant)] = line
    print(line)


def _deviation(result, a: float, T: float) -> float:
    return result.abs_pressure / REFERENCE_PRESSURE[(a, T)] - 1.0


def _pressure_failures(cells, gaps) -> tuple[list[str], str]:
    """Hold the (gap, T) cells at ``gaps`` to the reference magnitudes.

    Returns the out-of-tolerance cells and a detail naming the worst one.
    """
    failures = []
    worst = (0.0, None)
    for a in gaps:
        for T in TEMPS:
            dev = _deviation(cells[(a, T)], a, T)
            if abs(dev) > abs(worst[0]):
                worst = (dev, (a, T))
            if abs(dev) > PRESSURE_TOL[a]:
                failures.append(f"a={a * 1e9:g}nm T={T:g}K dev={100 * dev:+.2f}%")
    detail = (
        f"worst deviation {100 * worst[0]:+.2f}% at a={worst[1][0] * 1e9:g}nm T={worst[1][1]:g}K"
    )
    return failures, detail


def _gap_list(gaps) -> str:
    return ", ".join(f"{a * 1e9:g}" for a in gaps) + " nm"


@pytest.fixture(scope="module")
def anchor_cells(au):
    """The Au-Au (gap, T) grid shared by criteria 1, 2, 5, and 8, with timings."""
    cells = {}
    for a in GAPS:
        for T in TEMPS:
            t0 = time.perf_counter()
            result = casimir_pressure(PlateSystem(au, au, gap=a), ThermalState(T))
            cells[(a, T)] = (result, time.perf_counter() - t0)
    return cells


def test_criterion_1_absolute_pressures(anchor_cells, au):
    results = {cell: result for cell, (result, _) in anchor_cells.items()}
    failures, worst = _pressure_failures(results, DRUDE_GAPS)
    for (a, T), (_, seconds) in anchor_cells.items():
        budget = 5.0 if T == 300.0 else 300.0
        if seconds > budget:
            failures.append(f"a={a * 1e9:g}nm T={T:g}K took {seconds:.1f}s > {budget:g}s")
    offsets = ", ".join(
        f"{100 * _deviation(results[(1e-7, T)], 1e-7, T):+.2f}% at {T:g} K" for T in TEMPS
    )
    model = au.model
    detail = (
        f"{au.name} Drude preset ({model.omega_p / EV_RAD_PER_S:g} eV, "
        f"{1e3 * model.nu / EV_RAD_PER_S:g} meV) at {_gap_list(DRUDE_GAPS)}: {worst}; "
        f"100 nm left to the optical-data table (Drude offset {offsets}); "
        f"timed all {len(anchor_cells)} cells"
    )
    if failures:
        detail += "; out of tolerance: " + "; ".join(failures)
    _record(1, not failures, detail)
    assert not failures, detail


@pytest.mark.skipif(
    not OPTICAL_TABLE.is_file(), reason=f"no optical-data table tests/data/{OPTICAL_TABLE.name}"
)
def test_criterion_1_optical_data():
    fallback = material_preset("Au").model
    gold = Material(
        name="Au (optical data)",
        model=load_permittivity_table(OPTICAL_TABLE, fallback=fallback),
    )
    results = {
        (a, T): casimir_pressure(PlateSystem(gold, gold, gap=a), ThermalState(T))
        for a in GAPS
        for T in TEMPS
    }
    failures, worst = _pressure_failures(results, GAPS)
    detail = (
        f"{OPTICAL_TABLE.name} with the {fallback.omega_p / EV_RAD_PER_S:g} eV Drude "
        f"extrapolation at {_gap_list(GAPS)}: {worst}"
    )
    if failures:
        detail += "; out of tolerance: " + "; ".join(failures)
    _record(1, not failures, detail, variant="optical data")
    assert not failures, detail


def test_criterion_2_thermal_reductions(anchor_cells):
    failures = []
    worst = 0.0
    for a, ref in REFERENCE_REDUCTION.items():
        cold = anchor_cells[(a, 1.0)][0].abs_pressure
        room = anchor_cells[(a, 300.0)][0].abs_pressure
        reduction = (cold - room) / cold
        diff = reduction - ref
        worst = max(worst, abs(diff))
        if abs(diff) > 0.003:  # 0.3 percentage points
            failures.append(f"a={a * 1e9:g}nm got {100 * reduction:.2f}% vs {100 * ref:g}%")
    detail = f"worst gap to reference {100 * worst:.3f} percentage points"
    if failures:
        detail += "; " + "; ".join(failures)
    _record(2, not failures, detail)
    assert not failures, detail


def test_criterion_3_difference_at_200nm(au):
    d = temperature_difference(PlateSystem(au, au, gap=2e-7), 300.0, 350.0)
    dev = d.delta / 2.0e-3 - 1.0
    ok = abs(dev) <= 0.15
    _record(3, ok, f"delta = {d.delta * 1e3:.4f} mPa, {100 * dev:+.1f}% vs 2.0 mPa")
    assert ok


def test_criterion_4_correction_curve_maximum(au):
    gaps = np.geomspace(0.9e-6, 3e-6, 13)
    curve = relative_correction_curve(au, au, gaps, 300.0, 350.0)
    rels = [d.relative for d in curve]
    peak = max(rels)
    peak_gap = curve[rels.index(peak)].a
    ok = 0.03 <= peak <= 0.05 and 1.40e-6 <= peak_gap <= 2.10e-6
    _record(4, ok, f"max {100 * peak:.2f}% at a = {peak_gap * 1e6:.2f} um")
    assert ok


def test_criterion_5_ideal_metal_anchor(anchor_cells):
    im = abs(ideal_metal_pressure_T0(1e-6))
    cold = anchor_cells[(1e-6, 1.0)][0].abs_pressure
    room = anchor_cells[(1e-6, 300.0)][0].abs_pressure
    closed_form_ok = abs(im / 1.30e-3 - 1.0) <= 0.005
    below_ok = cold < im
    ratio = cold / room  # the package's own 1 K / 300 K outputs at 1 um
    ratio_ok = ratio > 1.10
    ok = closed_form_ok and below_ok and ratio_ok
    _record(
        5,
        ok,
        f"IM = {im * 1e3:.4f} mPa, Drude 1 K below: {below_ok}, "
        f"1 K / 300 K = {ratio:.3f} > 1.10: {ratio_ok}",
    )
    assert ok


def test_criterion_6_zero_frequency_term(au):
    value = zero_frequency_term(PlateSystem(au, au, gap=1e-6))
    ok = abs(value - (-0.1502571129)) <= 1e-9
    _record(6, ok, f"I0 = {value:.10f}")
    assert ok


def _replica_pressure(material, a: float, T: float, m_top: int, qtol: float) -> float:
    """Dissimilar-media code path rebuilt with the plain squared-coefficient
    algebra valid for identical plates, sharing nothing with the production
    reflection routine except the quadrature engine."""
    th = ThermalState(T)
    g = th.gamma(a)
    total = -zero_frequency_term(PlateSystem(material, material, gap=a))
    comp = 0.0
    for m in range(1, m_top + 1):
        e = drude_eps(th.zeta(m), material.model)
        mg = m * g

        def f(y, e=e, mg=mg):
            p = y / mg
            s = math.sqrt(e - 1.0 + p * p)
            a_m = ((e * p - s) / (e * p + s)) ** 2
            b_m = ((s - p) / (s + p)) ** 2
            x = math.exp(-2.0 * y)
            ax = a_m * x
            bx = b_m * x
            return y * y * ax / (1.0 - ax), y * y * bx / (1.0 - bx)

        u, v = adaptive_pair_quadrature(f, [mg, mg + 10.0, mg + 50.0], qtol)
        term = (u + v) - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return -(BOLTZMANN * T / (math.pi * a**3)) * total


def test_criterion_7_property_suite(au, cu, al):
    checks = {}

    # (a) similar-media reduction: rebuilt (A_m, B_m) path matches production
    qtol = 1e-13
    opts = SolverOptions(quad_tol=qtol)
    worst_a = 0.0
    for a in (5e-8, 5e-7, 3e-6):
        for T in (1.0, 300.0):
            production = casimir_pressure(PlateSystem(au, au, gap=a), ThermalState(T), opts)
            replica = _replica_pressure(au, a, T, production.m_used, qtol)
            worst_a = max(worst_a, abs(replica / production.pressure - 1.0))
    checks["a"] = worst_a <= 1e-12

    # (b) material-swap symmetry
    fwd = casimir_pressure(PlateSystem(au, cu, gap=2e-7), ThermalState(300.0))
    rev = casimir_pressure(PlateSystem(cu, au, gap=2e-7), ThermalState(300.0))
    checks["b"] = fwd.pressure == rev.pressure

    # (c) thermal-difference positivity across the gap range
    deltas = [
        temperature_difference(PlateSystem(au, au, gap=float(a)), 300.0, 350.0).delta
        for a in np.geomspace(5e-8, 1.7e-6, 20)
    ]
    checks["c"] = all(d > 0.0 for d in deltas)

    # (d) Al-Al attracts strongest among the six preset pairs
    pairs = ((al, al), (al, au), (al, cu), (au, au), (au, cu), (cu, cu))
    dominance = True
    for a in (1e-7, 1e-6):
        values = {
            f"{m1.name}-{m3.name}": casimir_pressure(
                PlateSystem(m1, m3, gap=a), ThermalState(300.0)
            ).abs_pressure
            for m1, m3 in pairs
        }
        dominance &= max(values, key=values.get) == "Al-Al"
    checks["d"] = dominance

    # (e) the zero-frequency TE mode contributes nothing
    r = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
    checks["e"] = r.te_terms[0] == 0.0

    # (f) per-term quadrature agrees with a dense Simpson oracle
    simpson = pytest.importorskip("scipy.integrate").simpson
    rng = np.random.default_rng(20260822)
    worst_f = 0.0
    cells = 0
    while cells < 20:
        m = int(rng.integers(1, 6))
        a = 10.0 ** rng.uniform(math.log10(5e-8), math.log10(3e-6))
        T = rng.uniform(1.0, 350.0)
        th = ThermalState(T)
        mg = m * th.gamma(a)
        if mg > 1.5:
            continue
        cells += 1
        eps = drude_eps(th.zeta(m), au.model)
        y = np.linspace(mg, mg + 50.0, 1_000_001)
        p = y / mg
        s = np.sqrt(eps - 1.0 + p * p)
        dtm = (eps * p - s) / (eps * p + s)
        dte = (s - p) / (s + p)
        x = np.exp(-2.0 * y)
        tmx = dtm * dtm * x
        tex = dte * dte * x
        oracle = simpson(y * y * (tmx / (1.0 - tmx) + tex / (1.0 - tex)), x=y)
        term = matsubara_term(m, PlateSystem(au, au, gap=a), th)
        worst_f = max(worst_f, abs(term / oracle - 1.0))
    checks["f"] = worst_f <= 1e-8

    # (g) the integration cutoff leaves nothing behind
    cutoff_ok = True
    for a in (1e-6, 1e-7):
        th = ThermalState(300.0)
        g = th.gamma(a)
        d = drude_eps(th.zeta(1), au.model) - 1.0
        tm, te = _mode_parts(np.array([g + 50.0, g + 1.0]), g, np.array([d]))
        tail, near_peak = tm + te
        cutoff_ok &= tail < 1e-30 * near_peak
    checks["g"] = cutoff_ok

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(checks.items()))
    detail += f"; reduction worst {worst_a:.2e}, oracle worst {worst_f:.2e}"
    _record(7, ok, detail)
    assert ok, detail


def test_criterion_8_matsubara_window(anchor_cells):
    room = anchor_cells[(1e-6, 300.0)][0].m_used
    cold = anchor_cells[(1e-6, 1.0)][0].m_used
    ok = room < 2000 and cold < 500_000
    _record(8, ok, f"m_used = {room} at 300 K, {cold} at 1 K")
    assert ok
