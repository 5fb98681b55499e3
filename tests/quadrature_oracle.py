"""Scalar adaptive Gauss-Kronrod quadrature (G7/K15), the tests' reference.

The QUADPACK-style globally adaptive loop (Piessens et al., *QUADPACK*,
1983) on Python floats: the panel with the largest error estimate is split
until the summed estimate drops below an absolute-or-relative tolerance.
The integrand returns a pair (two components integrated on a shared grid,
error-controlled on their sum).  Deterministic: ties in the error ordering
are broken by insertion order and the final sums run left to right.

It shares no code with ``casimir_plates``: it carries its own copy of the
G7/K15 tables, so that the package's array path (``kronrod_pair_panels``
and ``batched_pair_quadrature``) is checked against an independent
implementation, bit for bit where the integrand evaluates to the same bits
on scalars and arrays.
"""

from __future__ import annotations

import heapq
from typing import Callable

# 15-point Kronrod abscissae (positive half) and weights; the 7-point Gauss
# subset sits at indices 1, 3, 5, 7.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_MAX_PANELS = 4000


class QuadratureError(RuntimeError):
    """Panel budget exhausted before the tolerance was met."""


def _kronrod_panel(f, a: float, b: float):
    """One G7/K15 evaluation on [a, b].

    Returns (err, u, v) where u, v are the K15 estimates of the two
    integrand components and err = |K15 - G7| of their sum.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fu_c, fv_c = f(c)
    ku = _WGK[7] * fu_c
    kv = _WGK[7] * fv_c
    g = _WG[3] * (fu_c + fv_c)
    for i in range(7):
        dx = h * _XGK[i]
        u1, v1 = f(c - dx)
        u2, v2 = f(c + dx)
        su = u1 + u2
        sv = v1 + v2
        ku += _WGK[i] * su
        kv += _WGK[i] * sv
        if i % 2 == 1:
            g += _WG[i // 2] * (su + sv)
    return h * abs((ku + kv) - g), h * ku, h * kv


def adaptive_pair_quadrature(
    f: Callable[[float], tuple[float, float]],
    breaks,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Integrate a two-component integrand over consecutive panels.

    Parameters
    ----------
    f : callable
        Maps a point y to a pair (u, v) of integrand values.
    breaks : sequence of float
        Strictly increasing panel boundaries; the integral runs from
        breaks[0] to breaks[-1] and each initial panel seeds the adaptive
        subdivision.
    tol : float
        Absolute-or-relative target: refinement stops once the summed
        error estimate is below max(tol, tol * |integral of u + v|).

    Returns
    -------
    (float, float)
        The integrals of u and of v.
    """
    breaks = [float(x) for x in breaks]
    if len(breaks) < 2 or any(b <= a for a, b in zip(breaks, breaks[1:])):
        raise ValueError(f"breaks must be strictly increasing, got {breaks}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")

    heap = []  # (-err, seq, a, b, u, v)
    seq = 0
    total_u = total_v = total_err = 0.0
    for a, b in zip(breaks, breaks[1:]):
        err, u, v = _kronrod_panel(f, a, b)
        heapq.heappush(heap, (-err, seq, a, b, u, v))
        seq += 1
        total_u += u
        total_v += v
        total_err += err

    while total_err > max(tol, tol * abs(total_u + total_v)):
        if len(heap) >= _MAX_PANELS:
            raise QuadratureError(
                f"needed more than {_MAX_PANELS} panels for tol={tol:g} "
                f"on [{breaks[0]:g}, {breaks[-1]:g}]"
            )
        neg_err, _, a, b, u, v = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err of the removed panel
        total_u -= u
        total_v -= v
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            err, pu, pv = _kronrod_panel(f, lo, hi)
            heapq.heappush(heap, (-err, seq, lo, hi, pu, pv))
            seq += 1
            total_u += pu
            total_v += pv
            total_err += err

    # re-sum in spatial order for a deterministic, well-conditioned result
    panels = sorted(heap, key=lambda t: t[2])
    out_u = 0.0
    out_v = 0.0
    for _, _, _, _, u, v in panels:
        out_u += u
        out_v += v
    return out_u, out_v
