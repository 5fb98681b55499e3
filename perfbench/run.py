"""Benchmark of the casimir_plates Matsubara solver.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-room --seed 0 --seconds 30 --trace 0

Workloads are described in perfbench/README.md.  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
runs one untraced and one traced pass and reports per-layer metrics and the
tracing overhead.  Every pass checks its outputs.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is a JSON report with the samples and the machine record.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

# The set-up probe's clock starts here: after the benchmark's own
# standard-library imports, before numpy (imported by inputs) and the library.
T_IMPORT = time.perf_counter()

import inputs  # noqa: E402

WORKLOADS = ("sweep-room", "thermal-lowT", "cli-table")
# A default-settings cell may differ from its tight reference by REF_ERR_FACTOR
# times the error the default settings had when refs.json was made, and never
# needs to be closer than REF_RTOL_FLOOR.  The stored errors come mostly from
# the truncation rule (3 terms below 1e-9 of the sum), about 1e-9/(2*gamma) of
# |F|: ~2e-6 at 100 nm and 1 K, below 1e-8 on the 300 K sweep.
REF_ERR_FACTOR = 4.0
REF_RTOL_FLOOR = 1e-8
# Share of a traced pass that no library span may leave uncovered.
BENCH_SHARE_MAX = 0.05
CLI_TIMEOUT_S = 120
SETUP_PROBES = 11


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_library():
    """Import casimir_plates from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import casimir_plates as cp
        import casimir_plates.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import casimir_plates from {SRC}: {exc}") from None
    if SRC not in Path(cp.__file__).resolve().parents:
        raise SetupError(f"casimir_plates resolved outside {SRC}: {cp.__file__}")
    import concurrent.futures.process  # noqa: F401  (imported lazily by the first jobs>1 sweep)

    return cp


def load_refs() -> dict:
    """{cell key: (reference |F|, relative tolerance)}."""
    path = HERE / "refs.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    doc = json.loads(path.read_text())
    errs = doc["default_rel_err"]
    return {
        k: (f, max(REF_ERR_FACTOR * errs[k], REF_RTOL_FLOOR)) for k, f in doc["pressure_abs_Pa"].items()
    }


class Tally:
    """Units attempted and failed, the worst reference error, failure notes."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def cell_error(self, pair, gap: float, T: float, f_abs: float) -> str | None:
        """Why |F| of a cell is wrong, or None; checks the reference when one exists."""
        if not (f_abs > 0.0 and f_abs < float("inf")):
            return f"|F| = {f_abs!r} at {pair} {gap:g} m {T:g} K"
        entry = self.refs.get(inputs.ref_key(pair, gap, T))
        if entry is None:
            return None
        ref, tol = entry
        rel = abs(f_abs - ref) / ref
        self.max_rel_err = max(self.max_rel_err, rel)
        if rel > tol:
            return f"|F| off the reference by {rel:.2e} (tolerance {tol:.1e}) at {pair} {gap:g} m {T:g} K"
        return None


# ---- CLI invocations ---------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli_process(argv: list[str]) -> tuple[int, str, str]:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "casimir_plates.cli", *argv],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return -1, "", f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def cli_runner(cp, in_process: bool):
    """Return f(argv) -> (exit code, stdout, stderr, wall seconds)."""

    def run(argv):
        t0 = time.perf_counter()
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cp.cli.run(argv)
            result = (code, out.getvalue(), err.getvalue())
        else:
            result = run_cli_process(argv)
        return (*result, time.perf_counter() - t0)

    return run


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_cli_cell(tally: Tally, cli, cell) -> float:
    """Run one `pressure --format csv` cell, record any failure, return its wall time."""
    code, out, err, dt = cli(inputs.cell_argv(cell))
    tally.attempted += 1
    if code != 0:
        why = f"exit {code}: {err.strip()[-200:]}"
    else:
        try:
            why = tally.cell_error(*cell, float(csv_rows(out)[0]["pressure_Pa"]))
        except (ValueError, KeyError, IndexError) as exc:
            why = f"unreadable output {exc!r}"
    if why:
        tally.fail(f"cli {' '.join(inputs.cell_argv(cell))}: {why}")
    return dt


# ---- workloads -----------------------------------------------------------------


class Workload:
    """One workload: inputs built from a seed, and one pass over them."""

    def __init__(self, cp, seed: int):
        self.cp = cp
        self.seed = seed
        self.materials = {n: cp.material_preset(n) for n in ("Au", "Cu", "Al")}
        self.samples: dict[str, list[float]] = {"cells_per_s": [], "cells_per_s_jobs2": [], "cli_s": []}
        # False in the passes of a traced run, which does the swap check and
        # the CLI samples once beforehand, so their cells stay out of the counts
        self.extras = True

    def usable_refs(self, refs: dict) -> dict:
        """References that apply to this seed's inputs."""
        return refs

    def swap_check(self, tally: Tally, pair, gap: float, T: float) -> None:
        """Both plate orders must give the same bits, negative pressure, the reference |F|."""
        if not self.extras:
            return
        L = self.cp.lifshitz
        m1, m2 = self.materials[pair[0]], self.materials[pair[1]]
        tally.attempted += 2
        try:
            p12 = L.casimir_pressure(L.PlateSystem(m1, m2, gap=gap), L.ThermalState(T)).pressure
            p21 = L.casimir_pressure(L.PlateSystem(m2, m1, gap=gap), L.ThermalState(T)).pressure
        except Exception as exc:  # a failing cell is counted, the run goes on
            tally.fail(f"swap check {pair} {gap:g} m {T:g} K raised {exc!r}")
            tally.failed += 1
            return
        why = tally.cell_error(pair, gap, T, -p12)
        if p12 != p21:
            why = f"plate swap changed the pressure: {p12!r} vs {p21!r}"
        elif not p12 < 0.0:
            why = f"pressure {p12!r} is not negative"
        if why:
            tally.fail(f"swap check: {why}")

    def cli_samples(self, tally: Tally, cli) -> None:
        """Fresh `pressure` processes on a light cell: CLI cold start.

        Called between the stages of a pass, so that the samples spread over
        the run rather than sitting in one stretch of it.
        """
        if not self.extras:
            return
        for _ in range(inputs.CLI_PER_STAGE):
            self.samples["cli_s"].append(check_cli_cell(tally, cli, inputs.CLI_CELL))


class SweepRoom(Workload):
    """Standard sweep through scenarios.sweep at jobs=1 and jobs=2, rendered as CSV."""

    def __init__(self, cp, seed, small=False, inject_failure=False):
        super().__init__(cp, seed)
        spec = inputs.sweep_inputs(seed)
        pairs, gaps = spec["pairs"], spec["gaps"]
        if small:
            pairs, gaps = pairs[:2], gaps[::20]
        if inject_failure:
            # a table whose first knot lies above zeta_1: every cell with it raises
            csv = inputs.table_csv(seed, zeta_range=(1e15, 1e19, 81)).encode()
            self.materials["Bad"] = cp.Material("Bad", cp.load_permittivity_table(csv))
            pairs = pairs + [("Bad", "Au")]
        self.cells = [(p, a, T) for p in pairs for T in spec["temps"] for a in gaps]
        self.spec = cp.SweepSpec(
            pairs=tuple((self.materials[a], self.materials[b]) for a, b in pairs),
            temperatures=tuple(spec["temps"]),
            gaps=tuple(gaps),
        )
        self.swap = spec["swap"]

    def _sweep(self, tally: Tally, jobs: int):
        """Rows and CSV lines of one sweep; cells of a failing sweep are retried one by one."""
        S = self.cp.scenarios
        n = len(self.cells)
        tally.attempted += n
        t0 = time.perf_counter()
        try:
            rows = S.sweep(self.spec, jobs=jobs)
            lines = S.sweep_rows_to_csv(rows).splitlines()
        except Exception:
            rows = None
        dt = time.perf_counter() - t0
        if rows is None:
            rows, lines = [], None
            for pair, a, T in self.cells:
                one = S.SweepSpec(pairs=((self.materials[pair[0]], self.materials[pair[1]]),),
                                  temperatures=(T,), gaps=(a,))
                try:
                    rows.append(S.sweep(one)[0])
                except Exception as exc:
                    rows.append(None)
                    tally.fail(f"jobs={jobs}: {exc}")
        else:
            self.samples["cells_per_s" if jobs == 1 else "cells_per_s_jobs2"].append(n / dt)
        for (pair, a, T), row in zip(self.cells, rows):
            if row is None:
                continue
            why = tally.cell_error(pair, a, T, row.pressure)
            if why is None and (row.m_used < 1 or abs(row.tm_share + row.te_share - 1.0) > 1e-12):
                why = f"bad row {row}"
            if why:
                tally.fail(f"jobs={jobs}: {why}")
        return lines

    def run_pass(self, tally: Tally, cli) -> None:
        self.cli_samples(tally, cli)
        lines1 = self._sweep(tally, jobs=1)
        self.cli_samples(tally, cli)
        lines2 = self._sweep(tally, jobs=2)
        if lines1 is not None and lines2 is not None:
            differ = sum(a != b for a, b in zip(lines1, lines2)) + abs(len(lines1) - len(lines2))
            if differ:
                tally.fail(f"jobs=1 and jobs=2 CSV differ on {differ} lines")
        self.swap_check(tally, *self.swap)
        self.cli_samples(tally, cli)


class ThermalLowT(Workload):
    """Au-Au thermal correction curve 1 K vs 300 K at the acceptance anchor gaps."""

    def __init__(self, cp, seed, small=False):
        super().__init__(cp, seed)
        spec = inputs.thermal_inputs(seed)
        self.gaps = [a for a in spec["gaps"] if a >= 1e-6] if small else spec["gaps"]
        self.T_low, self.T_high = spec["temps"]
        self.au = self.materials[spec["pair"][0]]
        self.swap = spec["swap"]

    def count_failing_cells(self, tally: Tally) -> None:
        """After a failed call, evaluate its cells one by one and count those that raise."""
        L = self.cp.lifshitz
        for a in self.gaps:
            for T in (self.T_low, self.T_high):
                try:
                    L.casimir_pressure(L.PlateSystem(self.au, self.au, gap=a), L.ThermalState(T))
                except Exception as exc:
                    tally.fail(f"Au-Au {a:g} m {T:g} K raised {exc!r}")

    def run_pass(self, tally: Tally, cli) -> None:
        S = self.cp.scenarios
        n = 2 * len(self.gaps)
        self.cli_samples(tally, cli)
        tally.attempted += n
        t0 = time.perf_counter()
        try:
            curve = S.relative_correction_curve(self.au, self.au, self.gaps, self.T_low, self.T_high)
            S.diff_results_to_csv(curve, self.au, self.au)
        except Exception:
            curve = None
            self.count_failing_cells(tally)
        dt = time.perf_counter() - t0
        pair = ("Au", "Au")
        if curve is not None:
            self.samples["cells_per_s"].append(n / dt)
            for r in curve:
                for T, f in ((r.T_low, r.f_low_T), (r.T_high, r.f_high_T)):
                    why = tally.cell_error(pair, r.a, T, f)
                    if why is None and not (r.delta > 0.0 and r.relative == r.delta / r.f_low_T):
                        why = f"no thermal weakening at {r.a:g} m: {r}"
                    if why:
                        tally.fail(why)

        self.cli_samples(tally, cli)
        tally.attempted += n
        spec = S.SweepSpec(pairs=((self.au, self.au),), temperatures=(self.T_low, self.T_high),
                           gaps=tuple(self.gaps))
        t0 = time.perf_counter()
        try:
            rows = S.sweep(spec, jobs=2)
            S.sweep_rows_to_csv(rows)
        except Exception:
            rows = None
            self.count_failing_cells(tally)
        dt = time.perf_counter() - t0
        if rows is not None:
            self.samples["cells_per_s_jobs2"].append(n / dt)
            by_cell = {}
            if curve is not None:
                for r in curve:
                    by_cell[(r.a, r.T_low)] = r.f_low_T
                    by_cell[(r.a, r.T_high)] = r.f_high_T
            for row in rows:
                why = tally.cell_error(pair, row.gap, row.temperature, row.pressure)
                same = by_cell.get((row.gap, row.temperature), row.pressure)
                if why is None and row.pressure != same:
                    why = f"jobs=2 sweep gives {row.pressure!r}, the curve {same!r}"
                if why:
                    tally.fail(why)

        self.swap_check(tally, *self.swap)
        self.cli_samples(tally, cli)


class CliTable(Workload):
    """Fresh CLI processes, one at a time, with a seeded synthetic permittivity table."""

    def __init__(self, cp, seed, small=False):
        super().__init__(cp, seed)
        WORK.mkdir(exist_ok=True)
        self.table_path = WORK / f"synth-{seed}.csv"
        self.table_path.write_text(inputs.table_csv(seed))
        table = cp.load_permittivity_table(str(self.table_path))
        self.materials[inputs.TABLE_NAME] = cp.Material(inputs.TABLE_NAME, table)
        self.sequence = inputs.cli_sequence(str(self.table_path))
        if small:
            self.sequence = self.sequence[:3] + self.sequence[-1:]
        # the library's own values, which the CLI must print to 12 digits
        self.expected = {}
        for step in self.sequence:
            for pair, a, T in step["cells"]:
                system = cp.PlateSystem(self.materials[pair[0]], self.materials[pair[1]], gap=a)
                self.expected[inputs.ref_key(pair, a, T)] = cp.casimir_pressure(
                    system, cp.ThermalState(T)
                ).abs_pressure
        self.swap = ((inputs.TABLE_NAME, "Au"), 500e-9, 300.0)

    def usable_refs(self, refs: dict) -> dict:
        # table references hold for the seed-0 table only
        return refs if self.seed == 0 else {k: v for k, v in refs.items() if inputs.TABLE_NAME not in k}

    def _printed(self, step, out: str) -> list[float]:
        """The |F| values an invocation printed, in the order of step['cells']."""
        argv = step["argv"]
        if argv[0] == "import-table":
            ok = out.startswith("table ok:") and f"samples: {inputs.TABLE_ZETA[2]}" in out
            return [] if ok else [float("nan")]
        rows = csv_rows(out)
        if argv[0] == "diff":
            return [float(r[k]) for r in rows for k in ("pressure_low_Pa", "pressure_high_Pa")]
        return [float(r["pressure_Pa"]) for r in rows]

    def run_pass(self, tally: Tally, cli) -> None:
        cells = {1: 0, 2: 0}
        secs = {1: 0.0, 2: 0.0}
        for step in self.sequence:
            tally.attempted += 1
            code, out, err, dt = cli(step["argv"])
            self.samples["cli_s"].append(dt)
            if code != 0:
                tally.fail(f"{step['argv'][0]} exit {code}: {err.strip()[-200:]}")
                continue
            try:
                printed = self._printed(step, out)
            except (ValueError, KeyError, IndexError) as exc:
                tally.fail(f"{step['argv'][0]}: unreadable output {exc!r}")
                continue
            whys = [] if len(printed) == len(step["cells"]) else [f"{len(printed)} values printed"]
            for (pair, a, T), f_abs in zip(step["cells"], printed):
                expected = self.expected[inputs.ref_key(pair, a, T)]
                why = tally.cell_error(pair, a, T, f_abs)
                if why is None and f_abs != float(f"{expected:.12e}"):
                    why = f"printed {f_abs!r}, library gives {expected!r}"
                if why:
                    whys.append(why)
            if whys:
                tally.fail(f"{' '.join(step['argv'][:3])}: {whys[0]}")
            elif step["cells"]:
                cells[step["jobs"]] += len(step["cells"])
                secs[step["jobs"]] += dt
        for jobs, key in ((1, "cells_per_s"), (2, "cells_per_s_jobs2")):
            if secs[jobs] > 0.0:
                self.samples[key].append(cells[jobs] / secs[jobs])
        self.swap_check(tally, *self.swap)


WORKLOAD_CLASSES = {"sweep-room": SweepRoom, "thermal-lowT": ThermalLowT, "cli-table": CliTable}


# ---- set-up probes and machine record ---------------------------------------


def probe(args: list[str]) -> float:
    """Run a fresh interpreter that prints its own set-up seconds; return them."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=cli_env(),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


IMPORT_CLI_PROBE = [
    "-c",
    "import time; t = time.perf_counter(); import casimir_plates.cli; print(time.perf_counter() - t)",
]


def setup_probes(workload: str, seed: int, n: int) -> list[float]:
    if workload == "cli-table":
        return [probe(IMPORT_CLI_PROBE) for _ in range(n)]
    args = [str(HERE / "run.py"), "--probe-setup", workload, "--seed", str(seed)]
    return [probe(args) for _ in range(n)]


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "casimir_plates").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-table" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---- runs ---------------------------------------------------------------------


def median_or_zero(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(cp, workload: str, seed: int, seconds: float, small=False, **kw) -> tuple[dict, dict]:
    """Untraced run: passes until ``seconds`` have elapsed; returns (result, report)."""
    setup = setup_probes(workload, seed, 3 if small else SETUP_PROBES)
    wl = WORKLOAD_CLASSES[workload](cp, seed, small=small, **kw)
    tally = Tally(wl.usable_refs(load_refs()))
    cli = cli_runner(cp, in_process=False)
    t_begin = time.perf_counter()
    passes = 0
    elapsed = 0.0
    # stop at the pass boundary nearest to `seconds`
    while passes == 0 or elapsed + 0.5 * elapsed / passes < seconds:
        wl.run_pass(tally, cli)
        passes += 1
        elapsed = time.perf_counter() - t_begin
    s = wl.samples
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (median_or_zero(s["cells_per_s"]), "1/s"),
        "cells_per_s_jobs2": (median_or_zero(s["cells_per_s_jobs2"]), "1/s"),
        "cli_s_p50": (median_or_zero(s["cli_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    report = {
        "workload": workload,
        "passes": passes,
        "measured_s": time.perf_counter() - t_begin,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "max_rel_err": tally.max_rel_err,
        "setup_s_samples": setup,
        "samples": s,
        "cli_s_quartiles": statistics.quantiles(s["cli_s"], n=4) if len(s["cli_s"]) > 1 else None,
        "cli_s_samples": len(s["cli_s"]),
        "failures": tally.notes,
        "machine": machine_record(seed),
    }
    return result(tally, metrics), report


def traced(cp, workload: str, seed: int, small=False, **kw) -> tuple[dict, dict]:
    """One untraced and one traced pass, then the microbenchmarks."""
    from micro import run_micro
    from spans import LAYERS, Tracer

    import_s = setup_probes("cli-table", seed, 3 if small else 5)
    wl = WORKLOAD_CLASSES[workload](cp, seed, small=small, **kw)
    tally = Tally(wl.usable_refs(load_refs()))
    cli = cli_runner(cp, in_process=True)
    wl.cli_samples(tally, cli)
    wl.swap_check(tally, *wl.swap)
    wl.extras = False
    t0 = time.perf_counter()
    wl.run_pass(tally, cli)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(cp)
    try:
        wall = tracer.root(lambda: wl.run_pass(tally, cli))
    finally:
        tracer.uninstall()
    table_material = cp.Material("table", cp.load_permittivity_table(inputs.table_csv(seed).encode()))
    micro = run_micro(cp, table_material, seed)

    c, incl, self_s = tracer.counts, tracer.incl_s, tracer.self_s
    # the layer self times add up to `wall` by construction; what can go
    # wrong is work that no span covers, which lands in `bench`
    bench_share = self_s["bench"] / wall
    if bench_share > BENCH_SHARE_MAX:
        tally.fail(f"{bench_share:.1%} of the traced pass is outside every library span")
    terms = c["quadrature.calls"]
    evals = c["quadrature.evals"]
    lifshitz_calls = c["lifshitz.calls"]
    m = {
        "quadrature.calls": (terms, "count"),
        "quadrature.evals": (evals, "count"),
        "quadrature.evals_per_term": (evals / max(terms, 1), "count"),
        "quadrature.panels": (evals / 15, "count"),
        "quadrature.self_s": (self_s["quadrature"], "s"),
        "quadrature.errors": (c["quadrature.errors"], "count"),
        "quadrature.share_of_lifshitz": (
            (self_s["quadrature"] + self_s["lifshitz.kernel"]) / incl["lifshitz"] if incl["lifshitz"] else 0.0,
            "ratio",
        ),
        "lifshitz.kernel_ns_per_eval": (self_s["lifshitz.kernel"] / max(evals, 1) * 1e9, "ns"),
        "lifshitz.kernel_s": (self_s["lifshitz.kernel"], "s"),
        "lifshitz.calls": (lifshitz_calls, "count"),
        "lifshitz.terms": (c["lifshitz.terms"], "count"),
        "lifshitz.terms_per_cell": (c["lifshitz.terms"] / max(lifshitz_calls, 1), "count"),
        "lifshitz.self_s": (self_s["lifshitz"], "s"),
        "lifshitz.max_rel_err": (tally.max_rel_err, "ratio"),
        "scenarios.sweep_s": (incl["scenarios.sweep"], "s"),
        "scenarios.sweep_jobs2_s": (incl["scenarios.sweep_jobs2"], "s"),
        "scenarios.csv_s": (incl["scenarios.csv"], "s"),
        "scenarios.diff_s": (incl["scenarios.diff"], "s"),
        "scenarios.self_s": (self_s["scenarios"], "s"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.run_s": (incl["cli.run"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "dispersion.table_load_s": (incl["dispersion.table_load"], "s"),
        "dispersion.eps_calls": (c["dispersion.eps.calls"], "count"),
        "dispersion.eps_points": (c["dispersion.eps_points"], "count"),
        "dispersion.eps_s": (incl["dispersion.eps"], "s"),
        "dispersion.self_s": (self_s["dispersion"], "s"),
        "special.polylog3_calls": (c["special.polylog3.calls"], "count"),
        "special.polylog3_s": (incl["special.polylog3"], "s"),
        "bench.self_s": (self_s["bench"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.overhead_s": (wall - untraced_s, "s"),
    }
    units = {
        "dispersion.eps_ns_per_point": "ns", "lifshitz.term_us": "us",
        "special.polylog3_us": "us", "scenarios.csv_us_per_row": "us",
    }
    for name, value in micro.items():
        m[name] = (value, next(u for prefix, u in units.items() if name.startswith(prefix)))
    report = {
        "workload": workload,
        "traced": True,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "layer_self_s": {layer: self_s[layer] for layer in LAYERS},
        "bench_share": bench_share,
        "failures": tally.notes,
        "machine": machine_record(seed),
    }
    return result(tally, m), report


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def probe_setup(workload: str, seed: int) -> None:
    """Child of the set-up probe: import numpy and the library, build the inputs, print the seconds."""
    cp = import_library()
    WORKLOAD_CLASSES[workload](cp, seed)
    print(time.perf_counter() - T_IMPORT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="casimir_plates solver benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", choices=("sweep-room", "thermal-lowT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args.probe_setup, args.seed)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        cp = import_library()
        try:
            if args.trace:
                res, report = traced(cp, args.workload, args.seed)
            else:
                res, report = measure(cp, args.workload, args.seed, args.seconds)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
