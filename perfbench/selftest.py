"""Self-tests of the benchmark.

Runs a reduced-size pass of every workload, untraced and traced, and checks
the result against the metric names and units in BENCHMARK.json.  Then it
checks that an injected failing input (a table queried below its range) is
counted in `failed` without stopping the run, that seeds are reproducible,
and that the benchmark exits non-zero without a result when the library is
missing.  Takes about a minute.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import inputs
import run


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_schema(res: dict, specs: list[dict], label: str) -> None:
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(res)}")
    check(type(res["attempted"]) is int and res["attempted"] >= 1, f"{label}: attempted {res['attempted']!r}")
    check(type(res["failed"]) is int and 0 <= res["failed"] <= res["attempted"], f"{label}: failed")
    units = {s["name"]: s["unit"] for s in specs}
    check(set(res["metrics"]) == set(units), f"{label}: metric names differ: {set(res['metrics']) ^ set(units)}")
    for name, m in res["metrics"].items():
        check(set(m) == {"value", "unit"} and m["unit"] == units[name], f"{label}: {name} is {m}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name} value")
    json.dumps(res, allow_nan=False)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    cp = run.import_library()
    try:
        for w in run.WORKLOADS:
            res, _ = run.measure(cp, w, seed=1, seconds=0, small=True)
            check_schema(res, bench["end_to_end"], w)
            check(res["correct"] and res["failed"] == 0, f"{w}: {res}")
            zero = [k for k, m in res["metrics"].items() if not m["value"] > 0]
            check(not zero, f"{w}: end-to-end metrics at 0: {zero}")

            res, report = run.traced(cp, w, seed=1, small=True)
            check_schema(res, bench["per_layer"], f"{w} traced")
            check(res["correct"] and res["failed"] == 0, f"{w} traced: {res} {report['failures']}")
            print(f"ok {w}: untraced and traced reduced passes")

        sweep = run.SweepRoom(cp, 0, small=True, inject_failure=True)
        bad_cells = sum(1 for pair, _, _ in sweep.cells if "Bad" in pair)
        res, report = run.measure(cp, "sweep-room", seed=0, seconds=0, small=True, inject_failure=True)
        check_schema(res, bench["end_to_end"], "injected failure")
        check(res["failed"] == 2 * bad_cells, f"injected failure: {res['failed']} failed, want {2 * bad_cells}")
        check(not res["correct"] and res["attempted"] > res["failed"], f"injected failure: {res}")
        check(all("TableRangeError" in n or "below the table" in n for n in report["failures"]),
              f"injected failure notes: {report['failures']}")
        print(f"ok injected failure: {res['failed']} of {res['attempted']} counted, run completed")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    check(inputs.sweep_inputs(7) == inputs.sweep_inputs(7), "seeded inputs repeat")
    check(inputs.sweep_inputs(0)["pairs"] == list(inputs.SWEEP_PAIRS), "seed 0 sweep pairs")
    check(inputs.thermal_inputs(0)["gaps"] == list(inputs.THERMAL_GAPS), "seed 0 thermal gaps")
    check(inputs.table_csv(3) == inputs.table_csv(3) != inputs.table_csv(0), "seeded table")
    refs = run.load_refs()
    missing = [c for c in inputs.reference_cells() + inputs.table_reference_cells()
               if inputs.ref_key(*c) not in refs]
    check(not missing, f"cells without a reference: {missing[:3]}")
    print("ok seeds and references")

    bare = run.WORK / "bare"
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep-room", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout, f"bare directory: exit {proc.returncode}, {proc.stdout!r}")
    print("ok no result without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
