"""The tests' G7/K15 references: the scalar heap loop and vectorised panels.

The scalar loop is the package's ``adaptive_pair_quadrature``, re-exported
here; it moves into this module when ROADMAP item 15 deletes
``casimir_plates.quadrature``.  The solver never calls it.  The vectorised
panels below take the package's tables and give the scalar loop's bits
where the integrand evaluates to the same bits on scalars and arrays
(``tests/test_quadrature.py`` checks that); ``tests/test_lifshitz.py`` uses
them as the panel reference for the solver's rules.
"""

from __future__ import annotations

import numpy as np

from casimir_plates.quadrature import _MAX_PANELS, _WG, _WGK, _XGK, QuadratureError
from casimir_plates.quadrature import adaptive_pair_quadrature  # noqa: F401  (the scalar reference)

# the 15 nodes on [-1, 1] in the order the scalar rule visits them: centre,
# then -x, +x for each abscissa from the outermost in
_NODES = np.array([0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)])
# weights of the (-x, +x) node pairs: Kronrod for all seven, Gauss for the
# odd ones (the Gauss abscissae)
_WGK_PAIRS = np.array(_WGK[:7])
_WG_PAIRS = np.array(_WG[:3])


def kronrod_pair_panels(f, a: np.ndarray, b: np.ndarray):
    """One G7/K15 evaluation on every panel [a, b] of two same-shape arrays.

    ``f`` maps an array of points of shape ``(15,) + a.shape`` (node first,
    so that each node's values are one contiguous row) to a pair of arrays
    of that shape.  Returns arrays (err, u, v) of shape ``a.shape``: u, v
    are the K15 estimates of the two components and err = |K15 - G7| of
    their sum.  The node sums run in the order of the scalar rule in
    ``casimir_plates.quadrature``, as elementwise adds, so each panel's
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
    bits of the scalar heap loop (``adaptive_pair_quadrature``) run on
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
