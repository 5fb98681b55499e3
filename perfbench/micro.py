"""Per-layer microbenchmarks, reported with the traced run's per-layer metrics.

Each figure is the median of several repeats of one public call.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sweep_rows(cp, n: int, seed: int) -> list:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        tm = rng.uniform(0.5, 0.9)
        rows.append(
            cp.SweepRow(
                pair="Au-Cu", material_1="Au", material_2="Cu", gap=rng.uniform(5e-8, 3e-6),
                temperature=300.0 + 50.0 * (i % 2), pressure=rng.uniform(1e-4, 1e2),
                tm_share=tm, te_share=1.0 - tm, m_used=rng.randint(8, 200),
            )
        )
    return rows


def run_micro(cp, table_material, seed: int) -> dict:
    """Return {metric name: value} for every microbenchmark."""
    au = cp.material_preset("Au")
    zetas = np.geomspace(1e14, 1e18, 10_000)
    out = {
        "dispersion.eps_ns_per_point.drude": _median_s(lambda: au.eps(zetas), 101) / zetas.size * 1e9,
        "dispersion.eps_ns_per_point.table": _median_s(lambda: table_material.eps(zetas), 101)
        / zetas.size * 1e9,
    }
    for label, gap, T in (("1um_1K", 1e-6, 1.0), ("100nm_300K", 100e-9, 300.0)):
        system = cp.PlateSystem(au, au, gap=gap)
        thermal = cp.ThermalState(T)
        out[f"lifshitz.term_us.{label}"] = _median_s(lambda: cp.matsubara_term(1, system, thermal), 31) * 1e6
    for label, z in (("0.5", 0.5), ("0.999", 0.999), ("near1", 1.0 - 1e-5)):
        out[f"special.polylog3_us.{label}"] = _median_s(lambda: cp.polylog3(z), 31) * 1e6
    rows = _sweep_rows(cp, 10_000, seed)
    out["scenarios.csv_us_per_row"] = _median_s(lambda: cp.sweep_rows_to_csv(rows), 7) / len(rows) * 1e6
    return out

