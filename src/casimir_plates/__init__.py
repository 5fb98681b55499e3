"""Finite-temperature Casimir pressure between parallel metal half-spaces."""

from .constants import BOLTZMANN, EV_RAD_PER_S, HBAR, SPEED_OF_LIGHT
from .dispersion import (
    DrudeParams,
    Material,
    PermittivityTable,
    TableError,
    TableRangeError,
    drude_eps,
    load_permittivity_table,
    material_preset,
    preset_names,
    tabulated_eps,
)
from .lifshitz import (
    ConvergenceError,
    PlateSystem,
    PressureResult,
    SolverOptions,
    TermBudgetError,
    ThermalState,
    casimir_pressure,
    ideal_metal_pressure_T0,
    matsubara_term,
    zero_frequency_term,
)
from .quadrature import QuadratureError
from .scenarios import (
    DiffResult,
    SweepRow,
    SweepSpec,
    gap_grid,
    relative_correction_curve,
    sweep,
    sweep_rows_to_csv,
    temperature_difference,
)
from .special import ZETA3, polylog3

__version__ = "0.1.0"
