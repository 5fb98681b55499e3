"""Dielectric permittivity along the imaginary frequency axis.

Materials are described by a Drude model, a lossless plasma model, or a
tabulated set of (zeta, eps) samples interpolated log-log.  All models
return eps(i*zeta) > 1 for zeta > 0; that is what the reflection layer
assumes.  Built-in presets cover the common noble-metal choices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .constants import EV_RAD_PER_S

__all__ = [
    "DrudeParams",
    "PlasmaParams",
    "PermittivityTable",
    "Material",
    "TableError",
    "TableRangeError",
    "drude_eps",
    "plasma_eps",
    "tabulated_eps",
    "material_preset",
    "preset_names",
    "load_permittivity_table",
]

TABLE_HEADER = "zeta_rad_per_s,eps"


class TableError(ValueError):
    """Malformed or invalid permittivity table data."""


class TableRangeError(ValueError):
    """Table queried outside its range with no fallback; ``index`` is the
    flat position of the first out-of-range query."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _require_positive_zeta(zeta) -> np.ndarray:
    z = np.asarray(zeta, dtype=float)
    if z.size and not (z.min() > 0.0 and z.max() < np.inf):  # NaN fails both; empty passes
        raise ValueError("imaginary frequency zeta must be finite and > 0")
    return z


@dataclass(frozen=True)
class DrudeParams:
    """Drude model eps(i zeta) = 1 + omega_p**2 / (zeta * (zeta + nu)).

    omega_p is the plasma frequency and nu the relaxation frequency, both
    angular frequencies in rad/s.
    """

    omega_p: float
    nu: float

    def __post_init__(self):
        if not (self.omega_p > 0.0 and np.isfinite(self.omega_p)):
            raise ValueError(f"omega_p must be > 0, got {self.omega_p!r}")
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError(f"nu must be > 0, got {self.nu!r}")


@dataclass(frozen=True)
class PlasmaParams:
    """Lossless plasma model eps(i zeta) = 1 + (omega_p / zeta)**2."""

    omega_p: float

    def __post_init__(self):
        if not (self.omega_p > 0.0 and np.isfinite(self.omega_p)):
            raise ValueError(f"omega_p must be > 0, got {self.omega_p!r}")


@dataclass(frozen=True, eq=False)
class PermittivityTable:
    """Sampled eps(i zeta) with log-log linear interpolation between knots.

    zeta values must be strictly increasing, every eps must exceed 1 and
    must not increase with zeta, and at least two samples are required.  An
    optional Drude ``fallback`` extends evaluation outside [zeta_min,
    zeta_max]; without one an out-of-range query raises
    :class:`TableRangeError`.
    """

    zeta: np.ndarray
    eps: np.ndarray
    fallback: DrudeParams | None = None
    # interpolation knots in log space, filled in by __post_init__
    _log_zeta: np.ndarray = field(init=False, repr=False)
    _log_em1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        e = np.asarray(self.eps, dtype=float)
        if z.ndim != 1 or e.ndim != 1 or z.shape != e.shape:
            raise TableError("zeta and eps must be 1-d arrays of equal length")
        if z.size < 2:
            raise TableError(f"need at least 2 samples, got {z.size}")
        if np.any(~np.isfinite(z)) or np.any(z <= 0.0):
            raise TableError("zeta samples must be finite and > 0")
        bad = np.nonzero(np.diff(z) <= 0.0)[0]
        if bad.size:
            row = int(bad[0]) + 2  # 1-based row of the offending sample
            raise TableError(
                f"zeta samples must be strictly increasing; row {row} "
                f"({z[row - 1]:g}) does not exceed row {row - 1} ({z[row - 2]:g})"
            )
        if np.any(~np.isfinite(e)) or np.any(e <= 1.0):
            row = int(np.nonzero(~np.isfinite(e) | (e <= 1.0))[0][0]) + 1
            raise TableError(f"eps must be finite and > 1; row {row} has {e[row - 1]:g}")
        # eps must not increase with zeta; log-linear interpolation
        # preserves monotonicity between knots, so knots suffice.
        bad = np.nonzero(np.diff(e) > 0.0)[0]
        if bad.size:
            row = int(bad[0]) + 2
            raise TableError(f"table eps must be non-increasing in zeta; eps rises at row {row}")
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "_log_zeta", np.log(z))
        object.__setattr__(self, "_log_em1", np.log(e - 1.0))

    @property
    def zeta_min(self) -> float:
        return float(self.zeta[0])

    @property
    def zeta_max(self) -> float:
        return float(self.zeta[-1])


def drude_eps(zeta, params: DrudeParams):
    """Drude permittivity at imaginary frequency zeta (scalar or array)."""
    z = _require_positive_zeta(zeta)
    out = 1.0 + params.omega_p**2 / (z * (z + params.nu))
    return float(out) if np.isscalar(zeta) else out


def plasma_eps(zeta, params: PlasmaParams):
    """Plasma permittivity at imaginary frequency zeta (scalar or array)."""
    z = _require_positive_zeta(zeta)
    out = 1.0 + (params.omega_p / z) ** 2
    return float(out) if np.isscalar(zeta) else out


def tabulated_eps(zeta, table: PermittivityTable):
    """Interpolate a permittivity table at zeta (scalar or array).

    Interpolation is linear in (ln zeta, ln(eps - 1)), which reproduces
    power-law dispersion exactly and is exact at the knots.  Queries outside
    the table range use the attached Drude fallback when present, otherwise
    raise :class:`TableRangeError` naming the first such query and the
    bound it violates.
    """
    z = _require_positive_zeta(zeta)
    below = z < table.zeta_min
    outside = below | (z > table.zeta_max)
    if outside.any() and table.fallback is None:
        i = int(np.flatnonzero(outside)[0])
        side = "below the table minimum" if below.flat[i] else "above the table maximum"
        bound = table.zeta_min if below.flat[i] else table.zeta_max
        raise TableRangeError(
            f"zeta = {z.flat[i]:g} rad/s is {side} {bound:g} rad/s "
            "and no fallback model is attached",
            i,
        )
    out = 1.0 + np.exp(np.interp(np.log(z), table._log_zeta, table._log_em1))
    if outside.any():
        out = np.where(outside, drude_eps(np.asarray(z), table.fallback), out)
    return float(out) if np.isscalar(zeta) else out


@dataclass(frozen=True)
class Material:
    """A named half-space material with one permittivity model.

    Each model also fixes what the plate reflects at zero frequency; see
    :meth:`zero_frequency`.
    """

    name: str
    model: DrudeParams | PlasmaParams | PermittivityTable

    def __post_init__(self):
        if not self.name:
            raise ValueError("material name must be non-empty")
        if not isinstance(self.model, (DrudeParams, PlasmaParams, PermittivityTable)):
            raise TypeError(f"unsupported model type {type(self.model).__name__}")

    def eps(self, zeta):
        """Evaluate eps(i zeta); accepts a scalar or an ndarray."""
        if isinstance(self.model, DrudeParams):
            return drude_eps(zeta, self.model)
        if isinstance(self.model, PlasmaParams):
            return plasma_eps(zeta, self.model)
        return tabulated_eps(zeta, self.model)

    def zero_frequency(self) -> tuple[float, float]:
        """Static (r_TM, omega_TE): the TM reflection coefficient at zeta -> 0
        and the plasma frequency (rad/s) of the static TE reflection, 0 if none.

        Drude, or a table with a Drude fallback: (1, 0).  Plasma: (1, omega_p).
        A table without fallback: ((e - 1)/(e + 1), 0), e its eps at the lowest knot.
        """
        model = self.model
        if isinstance(model, PlasmaParams):
            return 1.0, model.omega_p
        if isinstance(model, PermittivityTable) and model.fallback is None:
            e = self.eps(model.zeta_min)
            return (e - 1.0) / (e + 1.0), 0.0
        return 1.0, 0.0


# Drude parameters of the built-in presets, (omega_p in eV, nu in meV).
_PRESETS = {
    "au": ("Au", 9.0, 35.0),
    "cu": ("Cu", 9.05, 30.0),
    "al": ("Al", 11.5, 50.0),
}


def preset_names() -> tuple[str, ...]:
    """Display names of the built-in materials."""
    return tuple(disp for disp, _, _ in _PRESETS.values())


def material_preset(name: str) -> Material:
    """Look up a built-in material by name (case-insensitive).

    Raises
    ------
    KeyError
        If the name is not a preset; the message lists the available ones.
    """
    key = name.strip().lower()
    if key not in _PRESETS:
        raise KeyError(
            f"unknown material preset {name!r}; available: {', '.join(preset_names())}"
        )
    display, wp_ev, nu_mev = _PRESETS[key]
    params = DrudeParams(omega_p=wp_ev * EV_RAD_PER_S, nu=nu_mev * 1e-3 * EV_RAD_PER_S)
    return Material(name=display, model=params)


def load_permittivity_table(source, fallback: DrudeParams | None = None) -> PermittivityTable:
    """Parse a permittivity CSV into a :class:`PermittivityTable`.

    ``source`` may be a filesystem path, raw bytes, or a binary file
    object.  The format is UTF-8 text (LF or CRLF), ``#`` comment lines,
    a literal ``zeta_rad_per_s,eps`` header, then one ``zeta,eps`` row per
    sample with zeta strictly increasing and eps > 1, non-increasing.

    Raises
    ------
    TableError
        On malformed rows (with the 1-based line number), a missing or
        wrong header, non-monotone zeta, eps <= 1 or eps rising with zeta.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = source.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise TableError(f"table is not valid UTF-8: {exc}") from exc

    zetas: list[float] = []
    epss: list[float] = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != TABLE_HEADER:
                raise TableError(
                    f"line {lineno}: expected header {TABLE_HEADER!r}, got {stripped!r}"
                )
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise TableError(f"line {lineno}: expected 2 comma-separated fields, got {len(parts)}")
        try:
            z = float(parts[0])
            e = float(parts[1])
        except ValueError as exc:
            raise TableError(f"line {lineno}: {exc}") from exc
        zetas.append(z)
        epss.append(e)
    if not header_seen:
        raise TableError(f"missing header line {TABLE_HEADER!r}")
    return PermittivityTable(zeta=np.array(zetas), eps=np.array(epss), fallback=fallback)

