"""Seeded inputs of the three benchmark workloads.

Seed 0 gives exactly the inputs named in the README.  Other seeds change
the order of pairs, the orientation of mixed pairs, the order in which gaps
are passed and which cells are cross-checked, and the parameters of the
synthetic permittivity table; they do not change how many cells a pass
computes, so throughput stays comparable across seeds.

This module imports only the standard library and numpy, so the reference
generator and the benchmark share it without importing the solver.
"""

from __future__ import annotations

import random

import numpy as np

# CLI order of `sweep --pairs all`; mixed pairs are the ones whose plates
# may be swapped.
SWEEP_PAIRS = (("Au", "Au"), ("Au", "Cu"), ("Cu", "Cu"), ("Al", "Al"), ("Al", "Au"), ("Al", "Cu"))
SWEEP_TEMPS = (300.0, 350.0)
SWEEP_GAP_GRID = (50e-9, 3e-6, 60)  # start, stop, count, log-spaced

THERMAL_PAIR = ("Au", "Au")
THERMAL_GAPS = (100e-9, 200e-9, 500e-9, 1e-6)
THERMAL_TEMPS = (1.0, 300.0)
# mixed pair whose plates are swapped to check bit-identical results
THERMAL_SWAP_PAIR = ("Au", "Cu")
THERMAL_SWAP_T = 300.0

TABLE_NAME = "Synth"

EV = 1.519e15  # rad/s per eV, the package's documented conversion


def sweep_gaps() -> list[float]:
    start, stop, count = SWEEP_GAP_GRID
    return [float(a) for a in np.geomspace(start, stop, count)]


def sweep_inputs(seed: int) -> dict:
    """Pairs (as name tuples), temperatures, gaps, and the swap-check cell."""
    pairs = list(SWEEP_PAIRS)
    rng = random.Random(seed)
    if seed:
        rng.shuffle(pairs)
        pairs = [p[::-1] if p[0] != p[1] and rng.random() < 0.5 else p for p in pairs]
    gaps = sweep_gaps()
    mixed = [p for p in pairs if p[0] != p[1]]
    swap = (rng.choice(mixed), rng.choice(gaps), rng.choice(SWEEP_TEMPS))
    return {"pairs": pairs, "temps": list(SWEEP_TEMPS), "gaps": gaps, "swap": swap}


def thermal_inputs(seed: int) -> dict:
    """Gaps (in seeded order; the library sorts them) and the swap-check cell."""
    gaps = list(THERMAL_GAPS)
    rng = random.Random(seed)
    if seed:
        rng.shuffle(gaps)
    swap = (THERMAL_SWAP_PAIR, rng.choice(THERMAL_GAPS), THERMAL_SWAP_T)
    return {"pair": THERMAL_PAIR, "gaps": gaps, "temps": THERMAL_TEMPS, "swap": swap}


# ---- synthetic permittivity table -------------------------------------------

TABLE_ZETA = (1e14, 1e19, 241)  # below zeta_1 at 300 K, far above any term used


def table_params(seed: int) -> dict:
    """Drude plus one Lorentz oscillator, in eV; synthetic, not a real metal."""
    p = {"wp": 9.0, "nu": 0.035, "f": 4.0, "w0": 4.0, "g": 1.0}
    if seed:
        rng = random.Random(seed)
        p = {k: v * (1.0 + 0.05 * (2.0 * rng.random() - 1.0)) for k, v in p.items()}
    return p


def table_eps(zeta, params: dict) -> np.ndarray:
    """eps(i zeta) of the synthetic model; strictly decreasing in zeta."""
    z = np.asarray(zeta, dtype=float)
    wp, nu, w0, g = (params[k] * EV for k in ("wp", "nu", "w0", "g"))
    return 1.0 + wp**2 / (z * (z + nu)) + params["f"] * w0**2 / (w0**2 + z**2 + g * z)


def table_csv(seed: int, zeta_range=TABLE_ZETA) -> str:
    """The table as the CLI's permittivity CSV (full float precision)."""
    lo, hi, n = zeta_range
    zetas = np.geomspace(lo, hi, n)
    eps = table_eps(zetas, table_params(seed))
    rows = [f"{float(z)!r},{float(e)!r}" for z, e in zip(zetas, eps)]
    return "# synthetic Drude + Lorentz model sampled on the imaginary axis\nzeta_rad_per_s,eps\n" + "\n".join(rows) + "\n"


def cli_sequence(table_path: str) -> list[dict]:
    """One pass of CLI invocations.

    ``cells`` lists the (pair, gap, T) cells an invocation computes, in the
    order its CSV prints them; ``jobs`` is the worker count it asks for.
    """
    tab = f"{TABLE_NAME}={table_path}"
    t = TABLE_NAME
    return [
        {"argv": ["import-table", table_path], "cells": [], "jobs": 1},
        {
            "argv": ["pressure", "--pair", f"{t},{t}", "--gap", "500nm", "--temp", "300",
                     "--table", tab, "--format", "csv"],
            "cells": [((t, t), 500e-9, 300.0)],
            "jobs": 1,
        },
        {
            "argv": ["pressure", "--pair", f"{t},Au", "--gap", "500nm", "--temp", "350",
                     "--table", tab, "--format", "csv"],
            "cells": [((t, "Au"), 500e-9, 350.0)],
            "jobs": 1,
        },
        {
            "argv": ["diff", "--pair", f"{t},{t}", "--gaps", "200nm,1um", "--temps", "300,350",
                     "--table", tab, "--format", "csv"],
            "cells": [((t, t), a, T) for a in (200e-9, 1e-6) for T in (300.0, 350.0)],
            "jobs": 1,
        },
        {
            "argv": ["pressure", "--pair", "Au,Au", "--gap", "1um", "--temp", "300", "--format", "csv"],
            "cells": [(("Au", "Au"), 1e-6, 300.0)],
            "jobs": 1,
        },
        {
            "argv": ["pressure", "--pair", "Al,Cu", "--gap", "200nm", "--temp", "350", "--format", "csv"],
            "cells": [(("Al", "Cu"), 200e-9, 350.0)],
            "jobs": 1,
        },
        {
            "argv": ["sweep", "--pairs", f"{t},{t};{t},Au", "--gaps", "500nm,1um", "--temps", "300,350",
                     "--jobs", "2", "--table", tab, "--format", "csv"],
            "cells": [(p, a, T) for p in ((t, t), (t, "Au")) for T in (300.0, 350.0) for a in (500e-9, 1e-6)],
            "jobs": 2,
        },
    ]


# The solver workloads time fresh `pressure` processes on this light cell
# (CLI cold start, 25 terms) for their cli_s_p50, at three stages per pass.
CLI_CELL = (("Au", "Au"), 1e-6, 300.0)
CLI_PER_STAGE = 2


def cell_argv(cell) -> list[str]:
    (m1, m2), a, T = cell
    return ["pressure", "--pair", f"{m1},{m2}", "--gap", f"{a!r}m", "--temp", f"{T!r}", "--format", "csv"]


def ref_key(pair, gap: float, T: float) -> str:
    """Reference lookup key; plate order does not matter."""
    m1, m2 = sorted(pair)
    return f"{m1}-{m2}@{gap:.9e}m@{T:g}K"


def reference_cells() -> list[tuple]:
    """Every seed-independent preset cell a pass may check."""
    cells = [(p, a, T) for p in SWEEP_PAIRS for T in SWEEP_TEMPS for a in sweep_gaps()]
    cells += [(THERMAL_PAIR, a, T) for a in THERMAL_GAPS for T in THERMAL_TEMPS]
    cells += [(THERMAL_SWAP_PAIR, a, THERMAL_SWAP_T) for a in THERMAL_GAPS]
    cells.append(CLI_CELL)
    for step in cli_sequence("table.csv"):
        cells += [c for c in step["cells"] if TABLE_NAME not in c[0]]
    seen, out = set(), []
    for c in cells:
        k = ref_key(*c)
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def table_reference_cells() -> list[tuple]:
    """Cells with the seed-0 synthetic table."""
    cells = [c for step in cli_sequence("table.csv") for c in step["cells"] if TABLE_NAME in c[0]]
    return list({ref_key(*c): c for c in cells}.values())
