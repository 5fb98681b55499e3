"""Globally adaptive Gauss-Kronrod quadrature (G7/K15 base rule) on arrays.

The integrand returns a pair (two components integrated on a shared grid,
error-controlled on their sum), which is what the pressure solver needs to
keep the TM and TE mode integrals split without doubling the evaluations.
:func:`kronrod_pair_panels` applies the rule to an array of panels at once;
:func:`batched_pair_quadrature` bisects, in every integral that still misses
its tolerance, the panel with the largest estimate, and evaluates all those
halves in one array call; :func:`adaptive_pair_quadrature` is that loop on
one scalar integrand.  Up to the order of exact ties, both have the bits of
the scalar QUADPACK-style heap loop (Piessens et al., *QUADPACK*, 1983) kept
as the tests' independent oracle in ``tests/quadrature_oracle.py``.
"""

from __future__ import annotations

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

# the 15 nodes on [-1, 1] in the order the scalar rule of
# tests/quadrature_oracle.py visits them: centre, then -x, +x for each
# abscissa from the outermost in
_NODES = np.array([0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)])
# weights of the (-x, +x) node pairs: Kronrod for all seven, Gauss for the
# odd ones (the Gauss abscissae)
_WGK_PAIRS = np.array(_WGK[:7])
_WG_PAIRS = np.array(_WG[:3])

_MAX_PANELS = 4000


class QuadratureError(RuntimeError):
    """Panel budget exhausted before the tolerance was met."""


def kronrod_pair_panels(f, a: np.ndarray, b: np.ndarray):
    """One G7/K15 evaluation on every panel [a, b] of two same-shape arrays.

    ``f`` maps an array of points of shape ``(15,) + a.shape`` (node first,
    so that each node's values are one contiguous row) to a pair of arrays
    of that shape.  Returns arrays (err, u, v) of shape ``a.shape``: u, v
    are the K15 estimates of the two components and err = |K15 - G7| of
    their sum.  The node sums run in the order of the scalar rule in
    ``tests/quadrature_oracle.py``, as elementwise adds, so each panel's
    result has that rule's bits and does not depend on the other panels in
    the batch.
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


def batched_pair_quadrature(f, breaks: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the two-component integrands of the rows of ``breaks`` at once.

    ``f(y, rows)`` evaluates the integrands of the rows ``rows`` (an index
    array) at points ``y`` of shape ``(15, len(rows), k)`` and returns a
    pair (u, v) of arrays of that shape.  ``breaks`` has shape (n, P + 1):
    each row's strictly increasing panel boundaries.  Returns the integrals
    of u and of v, one per row.

    All initial panels are evaluated in one :func:`kronrod_pair_panels`
    call.  Each pass, every row whose running totals still miss
    max(tol, tol*|u + v|) replaces its worst panel (the first in column
    order on ties) by its left half and appends its right half; the halves
    of all those rows are evaluated in one call, and the totals drop the
    worst panel and add its halves.  A row that passes is re-summed in
    spatial order, so one that passes at once keeps its left-to-right panel
    sums.  Each row's result depends only on its own inputs, and has the
    bits of the scalar heap loop in ``tests/quadrature_oracle.py`` run on
    that row (which takes the older panel on ties).  Raises
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


def adaptive_pair_quadrature(
    f: Callable[[float], tuple[float, float]], breaks, tol: float = 1e-10
) -> tuple[float, float]:
    """Integrals (u, v) of ``f(y) -> (u, v)`` from breaks[0] to breaks[-1].

    :func:`batched_pair_quadrature` on one row, with ``f`` called point by
    point.  ``breaks`` are strictly increasing panel boundaries that seed
    the subdivision; it stops once the summed error estimate is below
    max(tol, tol * |integral of u + v|).
    """
    breaks = [float(x) for x in breaks]
    if len(breaks) < 2 or any(b <= a for a, b in zip(breaks, breaks[1:])):
        raise ValueError(f"breaks must be strictly increasing, got {breaks}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")

    def pointwise(y, rows):
        u, v = zip(*map(f, y.ravel().tolist()))
        return np.array(u, dtype=float).reshape(y.shape), np.array(v, dtype=float).reshape(y.shape)

    u, v = batched_pair_quadrature(pointwise, np.array([breaks]), tol)
    return float(u[0]), float(v[0])
