"""Physical constants (SI) and unit conversions used across the package.

CODATA 2018 exact/recommended values.  All frequencies in this package are
imaginary-axis angular frequencies in rad/s; energies given in eV are mapped
with the rounded conversion below so that the built-in material presets come
out at their documented rad/s values.
"""

HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 2.99792458e8  # m/s
BOLTZMANN = 1.380649e-23  # J/K

# 1 eV as an angular frequency on the imaginary axis.
EV_RAD_PER_S = 1.519e15  # rad/s
