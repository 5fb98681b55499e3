"""Adaptive Gauss-Kronrod quadrature (G7/K15 base rule).

Globally adaptive bisection: the panel with the largest error estimate is
split until the summed estimate drops below an absolute-or-relative
tolerance.  The integrand returns a pair (two components integrated on a
shared grid, error-controlled on their sum), which is what the pressure
solver needs to keep the TM and TE mode integrals split without doubling
the number of evaluations.  Deterministic: ties in the error ordering are
broken by insertion order and the final sums run left to right.

:func:`kronrod_pair_panels` applies the same G7/K15 rule to a whole array of
panels at once, for integrands that take ndarrays, and
:func:`batched_pair_quadrature` runs the adaptive loop on many integrals at
once: every integral that still misses its tolerance bisects its worst panel,
and all those bisections share one array evaluation.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

__all__ = ["adaptive_pair_quadrature", "batched_pair_quadrature", "kronrod_pair_panels", "QuadratureError"]

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

# the 15 nodes on [-1, 1] in the order _kronrod_panel visits them:
# centre, then -x, +x for each abscissa from the outermost in
_NODES = np.array([0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)])
# weights of the (-x, +x) node pairs: Kronrod for all seven, Gauss for the
# odd ones (the Gauss abscissae)
_WGK_PAIRS = np.array(_WGK[:7])
_WG_PAIRS = np.array(_WG[:3])

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


def kronrod_pair_panels(f, a: np.ndarray, b: np.ndarray):
    """:func:`_kronrod_panel` on every panel [a, b] of two same-shape arrays.

    ``f`` maps an array of points of shape ``(15,) + a.shape`` (node first,
    so that each node's values are one contiguous row) to a pair of arrays
    of that shape.  Returns arrays (err, u, v) of shape ``a.shape`` with the
    meaning of the scalar rule's results.  The node sums run in the scalar
    rule's order, as elementwise adds, so each panel's result does not
    depend on the other panels in the batch.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    axes = (1,) * h.ndim
    fu, fv = f(_NODES.reshape((15,) + axes) * h + c)
    # the weighted (-x, +x) pair sums of all abscissae in a few array
    # passes; only the running sums go term by term, in the scalar order
    su = fu[1::2] + fu[2::2]
    sv = fv[1::2] + fv[2::2]
    wk = _WGK_PAIRS.reshape((7,) + axes)
    wu = wk * su
    wv = wk * sv
    wg = _WG_PAIRS.reshape((3,) + axes) * (su[1::2] + sv[1::2])
    ku = _WGK[7] * fu[0]
    kv = _WGK[7] * fv[0]
    g = _WG[3] * (fu[0] + fv[0])
    for i in range(7):
        ku += wu[i]
        kv += wv[i]
    for i in range(3):
        g += wg[i]
    return h * np.abs((ku + kv) - g), h * ku, h * kv


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


def batched_pair_quadrature(f, breaks: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`adaptive_pair_quadrature` on every row of ``breaks`` at once.

    ``f(y, rows)`` evaluates the integrands of the rows ``rows`` (an index
    array) at points ``y`` of shape ``(15, len(rows), k)`` and returns a
    pair (u, v) of arrays of that shape.  ``breaks`` has shape (n, P + 1).
    Returns the integrals of u and of v, one per row.

    All initial panels are evaluated in one :func:`kronrod_pair_panels`
    call.  Each pass, every row whose running totals still miss
    max(tol, tol*|u + v|) replaces its worst panel (the first in column
    order on ties) by its left half and appends its right half; the halves
    of all those rows are evaluated in one call, and the totals are updated
    as in the scalar loop.  A row that passes is re-summed in spatial order,
    so one that passes at once keeps its left-to-right panel sums.  Each
    row's result depends only on its own inputs.  Raises
    :class:`QuadratureError` if a row needs more than the panel budget.
    """
    a, b = breaks[:, :-1], breaks[:, 1:]
    err, u, v = kronrod_pair_panels(lambda y: f(y, np.arange(len(breaks))), a, b)
    tot_u, tot_v, tot_err = (np.cumsum(x, axis=1)[:, -1] for x in (u, v, err))
    out_u, out_v = tot_u.copy(), tot_v.copy()
    rows = np.flatnonzero(tot_err > np.maximum(tol, tol * np.abs(tot_u + tot_v)))
    a, b, err, u, v, tot_u, tot_v, tot_err = (x[rows] for x in (a, b, err, u, v, tot_u, tot_v, tot_err))
    count = a.shape[1]
    while rows.size:
        if count >= _MAX_PANELS:
            raise QuadratureError(
                f"needed more than {_MAX_PANELS} panels for tol={tol:g} "
                f"on [{a[0, :count].min():g}, {b[0, :count].max():g}]"
            )
        if count == a.shape[1]:
            a, b, err, u, v = (np.concatenate([x, np.empty_like(x)], axis=1) for x in (a, b, err, u, v))
        here = np.arange(len(rows))
        worst = np.argmax(err[:, :count], axis=1)
        lo, hi = a[here, worst], b[here, worst]
        tot_err -= err[here, worst]
        tot_u -= u[here, worst]
        tot_v -= v[here, worst]
        mid = 0.5 * (lo + hi)
        e2, u2, v2 = kronrod_pair_panels(
            lambda y: f(y, rows), np.stack([lo, mid], axis=1), np.stack([mid, hi], axis=1)
        )
        for half, (col, x0, x1) in enumerate(((worst, lo, mid), (count, mid, hi))):
            a[here, col] = x0
            b[here, col] = x1
            err[here, col] = e2[:, half]
            u[here, col] = u2[:, half]
            v[here, col] = v2[:, half]
            tot_u += u2[:, half]
            tot_v += v2[:, half]
            tot_err += e2[:, half]
        count += 1
        done = ~(tot_err > np.maximum(tol, tol * np.abs(tot_u + tot_v)))
        if done.any():
            order = np.argsort(a[done, :count], axis=1)
            out_u[rows[done]] = np.cumsum(np.take_along_axis(u[done, :count], order, 1), axis=1)[:, -1]
            out_v[rows[done]] = np.cumsum(np.take_along_axis(v[done, :count], order, 1), axis=1)[:, -1]
            rows, a, b, err, u, v, tot_u, tot_v, tot_err = (
                x[~done] for x in (rows, a, b, err, u, v, tot_u, tot_v, tot_err)
            )
    return out_u, out_v
