"""Polylogarithm of order 3 on [0, 1].

The zero-frequency Matsubara term of the plate pressure reduces to
``-polylog3(delta)/8`` where ``delta`` is the product of the two static
reflection coefficients, so only order 3 on the closed unit interval is
needed here.
"""

from __future__ import annotations

import numpy as np

# Apery's constant, zeta(3) = polylog3(1).
ZETA3 = 1.2020569031595943

_ABS_TOL = 1e-13
_BLOCK = 4096


def polylog3(z: float) -> float:
    """Evaluate Li_3(z) = sum_{n>=1} z**n / n**3 for z in [0, 1].

    Direct series summation in blocks, terminated once the remaining tail
    is provably below 1e-13 (the tail after N terms is bounded by
    z**(N+1) * sum_{n>N} n**-3 < z**(N+1) / (2 N**2)).  Absolute accuracy
    is better than 1e-12 over the whole domain; z = 1 returns zeta(3)
    directly since the series converges too slowly there.

    Parameters
    ----------
    z : float
        Argument, 0 <= z <= 1.

    Returns
    -------
    float
        Li_3(z).

    Raises
    ------
    ValueError
        If z is outside [0, 1] or not finite.
    """
    z = float(z)
    if not np.isfinite(z) or z < 0.0 or z > 1.0:
        raise ValueError(f"polylog3 requires 0 <= z <= 1, got {z!r}")
    if z == 1.0:
        return ZETA3

    total = 0.0
    n0 = 1
    zpow = z  # z**n0 at the head of each block
    while True:
        n = np.arange(n0, n0 + _BLOCK, dtype=float)
        powers = zpow * np.power(z, n - n0)
        total += float(np.sum(powers / n**3))
        n_last = n0 + _BLOCK - 1
        tail = z ** (n_last + 1) / (2.0 * n_last * n_last)
        if tail < _ABS_TOL:
            return total
        zpow = powers[-1] * z
        n0 = n_last + 1
