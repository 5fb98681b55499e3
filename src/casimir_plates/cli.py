"""Command-line front end.

Subcommands: ``pressure`` (one cell), ``sweep`` (grid to CSV/text),
``diff`` (two-temperature comparison), ``materials`` (list presets),
``import-table`` (validate a permittivity CSV).  Plates are presets,
``--drude NAME:OMEGA_P:NU`` (NU = 0meV is the plasma model) or ``--table``
files.  Exit codes: 0 success, 1 usage error (a cell over the lifshitz
``TERM_BUDGET`` without ``--m-max`` counts as one), 2 computation error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .constants import EV_RAD_PER_S
from .dispersion import (
    DrudeParams,
    Material,
    load_permittivity_table,
    material_preset,
    preset_names,
)
from .lifshitz import SolverOptions, TermBudgetError
from .scenarios import (
    PRESET_PAIRS,
    SweepRow,
    SweepSpec,
    diff_results_to_csv,
    gap_grid,
    relative_correction_curve,
    sweep,
    sweep_rows_to_csv,
)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own complaints through the usage-error path (exit 1)
    def error(self, message):
        raise _UsageError(message)


# a quantity is its number divided by its unit's power of ten, which rounds
# once, so '200nm' is the double 200e-9; times the inexact 1e-9 it rounds twice
_LENGTH_SCALES = {"nm": 1e9, "um": 1e6, "µm": 1e6, "m": 1.0}
_ENERGY_SCALES = {"meV": 1e3, "eV": 1.0}
_TEMPERATURE_SCALES = {"K": 1.0, "": 1.0}


def _parse_quantity(
    text: str, kind: str, scales: dict[str, float], example: str, factor: float = 1.0,
    zero_ok: bool = False,
) -> float:
    m = re.fullmatch(rf"\s*(.+?)\s*({'|'.join(scales)})\s*", text)
    try:
        value = float(m.group(1)) / scales[m.group(2)] * factor
    except (AttributeError, ValueError):  # no match (m is None), or not a number
        raise _UsageError(f"cannot parse {kind} {text!r}; use e.g. {example}") from None
    if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
        raise _UsageError(f"{kind} must be finite and {'>=' if zero_ok else '>'} 0, got {text!r}")
    return value


def parse_length(text: str) -> float:
    """'200nm' | '1um' | '2.5e-7m' -> metres."""
    return _parse_quantity(text, "length", _LENGTH_SCALES, "200nm, 1um, 2.5e-7m")


def parse_temperature(text: str) -> float:
    """'300K' or '300' -> kelvin."""
    return _parse_quantity(text, "temperature", _TEMPERATURE_SCALES, "300 or 300K")


def parse_energy(text: str, zero_ok: bool = False) -> float:
    """'9.0eV' | '35meV' -> rad/s (imaginary-axis angular frequency); '0meV' only if ``zero_ok``."""
    return _parse_quantity(text, "energy", _ENERGY_SCALES, "9.0eV or 35meV", EV_RAD_PER_S, zero_ok)


def _split(text: str, sep: str, what: str) -> list[str]:
    """The non-blank items of a ``sep``-separated list; none is a usage error."""
    items = [p for p in text.split(sep) if p.strip()]
    if not items:
        raise _UsageError(f"no {what} in {text!r}")
    return items


def parse_gaps(text: str) -> list[float]:
    """Comma list of lengths, or a grid 'start:stop:lin|log:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4:
            raise _UsageError(
                f"gap grid must be start:stop:lin|log:count, got {text!r}"
            )
        start, stop = parse_length(parts[0]), parse_length(parts[1])
        spacing = parts[2].strip().lower()
        try:
            count = int(parts[3])
        except ValueError:
            raise _UsageError(f"gap grid count must be an integer, got {parts[3]!r}") from None
        try:
            return [float(a) for a in gap_grid(start, stop, spacing, count)]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return [parse_length(p) for p in _split(text, ",", "gaps")]


def parse_temperatures(text: str) -> list[float]:
    return [parse_temperature(p) for p in _split(text, ",", "temperatures")]


def _parse_drude(spec: str, flag: str, named: bool) -> tuple[str, DrudeParams]:
    """'NAME:OMEGA_P:NU' (``named``) or 'OMEGA_P:NU' -> (name or '', DrudeParams); NU = 0 is plasma."""
    parts = spec.split(":")
    if len(parts) != 2 + named or (named and not parts[0].strip()):
        form = "NAME:OMEGA_P:NU (e.g. MyAu:9.0eV:35meV)" if named else "OMEGA_P:NU"
        raise _UsageError(f"{flag} must be {form}, got {spec!r}")
    params = DrudeParams(omega_p=parse_energy(parts[-2]), nu=parse_energy(parts[-1], zero_ok=True))
    return parts[0].strip() if named else "", params


def _materials(args) -> dict[str, Material]:
    """The presets plus this run's --drude and --table materials, keyed by lower-case name."""
    materials = {name.lower(): material_preset(name) for name in preset_names()}
    for spec in args.drude:
        name, params = _parse_drude(spec, "--drude", named=True)
        materials[name.lower()] = Material(name=name, model=params)
    for spec in args.table:
        name, sep, path = spec.partition("=")
        if not sep or not name.strip() or not path.strip():
            raise _UsageError(f"--table must be NAME=path.csv, got {spec!r}")
        name = name.strip()
        materials[name.lower()] = Material(name=name, model=load_permittivity_table(path.strip()))
    return materials


def _pair(text: str, materials: dict[str, Material]) -> tuple[Material, Material]:
    """The two materials of one 'A,B' pair, looked up in ``materials``."""
    names = [p for p in text.split(",") if p.strip()]
    if len(names) != 2:
        raise _UsageError(f"a pair needs exactly two materials, got {text!r}")
    for name in names:
        if name.strip().lower() not in materials:
            known = ", ".join(m.name for m in materials.values())
            raise _UsageError(f"unknown material {name!r}; available: {known}")
    return materials[names[0].strip().lower()], materials[names[1].strip().lower()]


def _solver_options(args) -> SolverOptions:
    try:
        return SolverOptions(quad_tol=args.tol, m_max=args.m_max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _row_text(row: SweepRow) -> str:
    return (
        f"pair: {row.pair}\n"
        f"gap: {row.gap:.6e} m\n"
        f"temperature: {row.temperature:g} K\n"
        f"pressure: {-row.pressure:.6e} Pa  (|F| = {row.pressure * 1e3:.4g} mPa, attractive)\n"
        f"TM share: {row.tm_share:.4f}  TE share: {row.te_share:.4f}  "
        f"matsubara terms: {row.m_used}\n"
    )


def _cmd_pressure(args) -> str:
    mat1, mat3 = _pair(args.pair, _materials(args))
    gap = parse_length(args.gap)
    temp = parse_temperature(args.temp)
    opts = _solver_options(args)
    (row,) = sweep(SweepSpec(pairs=((mat1, mat3),), temperatures=(temp,), gaps=(gap,)), opts)
    if args.format == "csv":
        return sweep_rows_to_csv([row], opts)
    return _row_text(row)


def _cmd_sweep(args) -> str:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    materials = _materials(args)
    if args.pairs.strip().lower() == "all":
        names = [",".join(p) for p in PRESET_PAIRS]
    else:
        names = _split(args.pairs, ";", "pairs")
    pairs = tuple(_pair(p, materials) for p in names)
    spec = SweepSpec(
        pairs=pairs,
        temperatures=tuple(parse_temperatures(args.temps)),
        gaps=tuple(parse_gaps(args.gaps)),
    )
    opts = _solver_options(args)
    rows = sweep(spec, opts, jobs=args.jobs)
    if args.format == "text":
        lines = [f"{'pair':10} {'gap_m':>14} {'T_K':>8} {'|F|_Pa':>14} {'tm':>7} {'te':>7} {'m':>7}"]
        for r in rows:
            lines.append(
                f"{r.pair:10} {r.gap:14.6e} {r.temperature:8g} {r.pressure:14.6e} "
                f"{r.tm_share:7.4f} {r.te_share:7.4f} {r.m_used:7d}"
            )
        return "\n".join(lines) + "\n"
    return sweep_rows_to_csv(rows, opts)


def _cmd_diff(args) -> str:
    mat1, mat3 = _pair(args.pair, _materials(args))
    temps = parse_temperatures(args.temps)
    if len(temps) != 2 or temps[0] == temps[1]:
        raise _UsageError(f"--temps needs exactly two distinct temperatures, got {args.temps!r}")
    t_low, t_high = sorted(temps)
    gaps = parse_gaps(args.gaps)
    opts = _solver_options(args)
    results = relative_correction_curve(mat1, mat3, gaps, t_low, t_high, opts)
    if args.format == "csv":
        return diff_results_to_csv(results, mat1, mat3, opts)
    lines = [
        f"pair: {mat1.name}-{mat3.name}   T_low = {t_low:g} K   T_high = {t_high:g} K",
        f"{'gap_m':>14} {'|F|(T_low)_Pa':>15} {'|F|(T_high)_Pa':>15} {'delta_Pa':>14} {'rel_%':>8}",
    ]
    for r in results:
        lines.append(
            f"{r.a:14.6e} {r.f_low_T:15.6e} {r.f_high_T:15.6e} "
            f"{r.delta:14.6e} {100 * r.relative:8.3f}"
        )
    return "\n".join(lines) + "\n"


def _cmd_materials(args) -> str:
    lines = ["built-in materials (Drude):"]
    for name in preset_names():
        model = material_preset(name).model
        wp, nu = model.omega_p, model.nu
        lines.append(
            f"  {name}: omega_p = {wp / EV_RAD_PER_S:g} eV ({wp:.5g} rad/s), "
            f"nu = {nu / EV_RAD_PER_S * 1e3:g} meV ({nu:.5g} rad/s)"
        )
    lines.append("units: gaps nm/um/m; temperatures K; custom Drude parameters eV/meV")
    return "\n".join(lines) + "\n"


def _cmd_import_table(args) -> str:
    fallback = _parse_drude(args.fallback, "--fallback", named=False)[1] if args.fallback else None
    table = load_permittivity_table(args.file, fallback=fallback)
    model = "none (queries outside range fail)" if fallback is None else "plasma" if fallback.nu == 0.0 else "Drude"
    lines = [
        f"table ok: {args.file}",
        f"samples: {table.zeta.size}",
        f"zeta range: {table.zeta_min:.6g} .. {table.zeta_max:.6g} rad/s",
        f"eps range: {table.eps.min():.6g} .. {table.eps.max():.6g}",
        f"fallback: {model}",
    ]
    return "\n".join(lines) + "\n"


def _add_common(p: _Parser, *, jobs: bool = False) -> None:
    p.add_argument("--tol", type=float, default=SolverOptions.quad_tol, help="per-term quadrature tolerance")
    p.add_argument("--m-max", type=int, default=None, help="override the Matsubara sum ceiling")
    p.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    p.add_argument(
        "--drude",
        action="append",
        default=[],
        metavar="NAME:OMEGA_P:NU",
        help="define a custom Drude material, e.g. MyAu:9.0eV:35meV; NU = 0meV is the "
        "plasma model (repeatable)",
    )
    p.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="define a material from a permittivity CSV (repeatable)",
    )
    if jobs:
        p.add_argument("--jobs", type=int, default=1, help="worker processes for sweep cells")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="casimir-plates",
        description="Finite-temperature Casimir pressure between parallel metal plates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="pressure of a single (pair, gap, T) cell")
    p.add_argument("--pair", required=True, help="two materials, e.g. Au,Cu")
    p.add_argument("--gap", required=True, help="gap width, e.g. 200nm")
    p.add_argument("--temp", required=True, help="temperature, e.g. 300K")
    _add_common(p)
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("sweep", help="evaluate a (pairs x temps x gaps) grid")
    p.add_argument("--pairs", required=True, help="semicolon-separated pairs, e.g. 'Au,Au;Al,Cu', or 'all'")
    p.add_argument("--gaps", required=True, help="comma list or start:stop:lin|log:count, e.g. 50nm:3um:log:60")
    p.add_argument("--temps", required=True, help="comma-separated temperatures, e.g. 1,300,350")
    _add_common(p, jobs=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("diff", help="pressure difference between two temperatures")
    p.add_argument("--pair", required=True, help="two materials, e.g. Au,Au")
    p.add_argument("--gaps", required=True, help="comma list or start:stop:lin|log:count")
    p.add_argument("--temps", required=True, help="exactly two temperatures, e.g. 300,350")
    _add_common(p)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("materials", help="list built-in materials")
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("import-table", help="validate a permittivity CSV")
    p.add_argument("file", help="path to the CSV file")
    p.add_argument("--fallback", default=None, metavar="OMEGA_P:NU",
                   help="attach a Drude fallback, e.g. 9.0eV:35meV (0meV: plasma)")
    p.set_defaults(func=_cmd_import_table)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write output to a file instead of stdout")
    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit status."""
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        # a cell over the term budget is refused before it runs: the user bounds it
        if isinstance(exc.__cause__, TermBudgetError):
            print(f"error: {exc} (--m-max on the command line)", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
