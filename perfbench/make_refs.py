"""Generate perfbench/refs.json: reference |F| for every cell the benchmark checks.

Each cell is computed twice:

* with the library at tighter settings than its defaults
  (quad_tol=1e-13, sum_rel_tol=1e-14), which is the stored reference;
* with the library at its default settings, whose relative error against
  the reference is stored too: the benchmark's tolerance for each cell is
  a small multiple of it;
* with an independent oracle written here: textbook Fresnel coefficients
  in the in-plane wavevector k (not the library's rearranged form in y),
  scipy.integrate.quad per Matsubara term, mpmath's polylog for m = 0 and
  math.fsum over the terms.

The script fails if the two disagree by more than ORACLE_RTOL anywhere.
The references are converged values of the package's own models (Drude
presets and the synthetic table of seed 0); they are not the optical-data
magnitudes of the acceptance tests.

Run from the repository root; it uses one worker per CPU and writes
refs.json next to this script (takes a few minutes on two cores):

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402

ORACLE_RTOL = 1e-9
TIGHT = {"quad_tol": 1e-13, "sum_rel_tol": 1e-14}

HBAR = 1.054571817e-34
C = 2.99792458e8
KB = 1.380649e-23
# Drude presets as documented in the README: (omega_p eV, nu meV)
DRUDE = {"Au": (9.0, 35.0), "Cu": (9.05, 30.0), "Al": (11.5, 50.0)}


class OracleMaterial:
    """eps(i zeta) from the documented model, coded apart from the library."""

    def __init__(self, name: str, table_csv: str | None = None):
        self.name = name
        if table_csv is None:
            wp, nu = DRUDE[name]
            self.wp, self.nu = wp * inputs.EV, nu * 1e-3 * inputs.EV
            self.table = None
        else:
            rows = [ln.split(",") for ln in table_csv.splitlines()[2:] if ln]
            z = np.array([float(r[0]) for r in rows])
            e = np.array([float(r[1]) for r in rows])
            self.table = (np.log(z), np.log(e - 1.0))

    def eps(self, zeta: float) -> float:
        if self.table is None:
            return 1.0 + self.wp**2 / (zeta * (zeta + self.nu))
        lz, le = self.table
        if not lz[0] <= math.log(zeta) <= lz[-1]:
            raise ValueError(f"{self.name}: zeta {zeta:g} outside the table")
        return 1.0 + math.exp(float(np.interp(math.log(zeta), lz, le)))

    def static_tm(self) -> float:
        if self.table is None:
            return 1.0
        e = 1.0 + math.exp(self.table[1][0])
        return (e - 1.0) / (e + 1.0)


def _oracle_term(g: float, e1: float, e3: float) -> float:
    """Integral over k in [0, inf) of k*y*sum_p R e^-2y/(1 - R e^-2y), y = sqrt(k^2+g^2)."""

    def f(k):
        y = math.sqrt(k * k + g * g)
        out = 0.0
        x = math.exp(-2.0 * y)
        r_tm = r_te = 1.0
        for e in (e1, e3):
            kap = math.sqrt(k * k + e * g * g)
            r_tm *= (e * y - kap) / (e * y + kap)
            r_te *= (y - kap) / (y + kap)
        for r in (r_tm, r_te):
            out += r * x / (1.0 - r * x)
        return k * y * out

    pts = sorted({0.0, g, 10.0 * g, g * math.sqrt(min(e1, e3)), 1.0, 3.0, 10.0, g + 60.0})
    pts = [p for p in pts if p <= g + 60.0]
    total = []
    for lo, hi in zip(pts, pts[1:]):
        val, _err = integrate.quad(f, lo, hi, epsabs=1e-300, epsrel=1e-13, limit=400)
        total.append(val)
    return math.fsum(total)


def oracle_pressure(m1: OracleMaterial, m3: OracleMaterial, a: float, T: float) -> float:
    """|F| in Pa from the oracle."""
    gamma = 2.0 * math.pi * a * KB * T / (HBAR * C)
    z1 = 2.0 * math.pi * KB * T / HBAR
    terms = [float(mpmath.polylog(3, m1.static_tm() * m3.static_tm())) / 8.0]
    small = 0
    m = 1
    while small < 5:
        t = _oracle_term(m * gamma, m1.eps(m * z1), m3.eps(m * z1))
        terms.append(t)
        small = small + 1 if t < 1e-15 * terms[0] else 0
        m += 1
    return KB * T / (math.pi * a**3) * math.fsum(terms)


def _materials(table_csv: str):
    import casimir_plates as cp

    lib = {n: cp.material_preset(n) for n in DRUDE}
    lib[inputs.TABLE_NAME] = cp.Material(inputs.TABLE_NAME, cp.load_permittivity_table(table_csv.encode()))
    orc = {n: OracleMaterial(n) for n in DRUDE}
    orc[inputs.TABLE_NAME] = OracleMaterial(inputs.TABLE_NAME, table_csv)
    return lib, orc


_TABLE_CSV = inputs.table_csv(0)


def _solve(cell):
    import casimir_plates as cp

    (n1, n3), a, T = cell
    lib, orc = _materials(_TABLE_CSV)
    t0 = time.perf_counter()
    system, thermal = cp.PlateSystem(lib[n1], lib[n3], gap=a), cp.ThermalState(T)
    res = cp.casimir_pressure(system, thermal, cp.SolverOptions(**TIGHT))
    t1 = time.perf_counter()
    f_default = cp.casimir_pressure(system, thermal).abs_pressure
    default_err = abs(f_default - res.abs_pressure) / res.abs_pressure
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        f_orc = oracle_pressure(orc[n1], orc[n3], a, T)
    t2 = time.perf_counter()
    return inputs.ref_key((n1, n3), a, T), res.abs_pressure, default_err, res.m_used, f_orc, t1 - t0, t2 - t1


def main() -> int:
    cells = inputs.reference_cells() + inputs.table_reference_cells()
    # longest (low-T) cells first so the pool stays busy
    cells.sort(key=lambda c: c[1] * c[2])
    refs, default_errs, worst = {}, {}, 0.0
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for key, f_lib, default_err, m_used, f_orc, t_lib, t_orc in pool.imap_unordered(_solve, cells):
            rel = abs(f_lib - f_orc) / f_orc
            worst = max(worst, rel)
            refs[key] = f_lib
            default_errs[key] = default_err
            if rel > ORACLE_RTOL or t_lib + t_orc > 5.0:
                print(f"{key}: m={m_used} rel={rel:.2e} lib {t_lib:.1f}s oracle {t_orc:.1f}s", flush=True)
    print(f"{len(refs)} cells, worst library-vs-oracle relative difference {worst:.3e}")
    if worst > ORACLE_RTOL:
        print(f"FAIL: oracle disagrees by more than {ORACLE_RTOL:g}", file=sys.stderr)
        return 1
    doc = {
        "about": (
            "Converged |F| in Pa of the package's own Drude presets and of the seed-0 "
            "synthetic table, from the library at tight settings and cross-checked with an "
            "independent oracle; not optical-data magnitudes. default_rel_err is each cell's "
            "relative error at the library's default settings, which sets the benchmark's "
            "per-cell tolerance."
        ),
        "library_settings": TIGHT,
        "oracle_max_rel_diff": worst,
        "oracle_rtol": ORACLE_RTOL,
        "pressure_abs_Pa": dict(sorted(refs.items())),
        "default_rel_err": dict(sorted(default_errs.items())),
    }
    (HERE / "refs.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
