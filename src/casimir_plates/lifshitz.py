"""Finite-temperature Casimir pressure between two parallel half-spaces.

The pressure is a Matsubara sum over imaginary frequencies
zeta_m = 2 pi m k_B T / hbar.  Each m >= 1 term is a dimensionless integral
over y = q a (q the photon wavevector magnitude, a the gap) from
y = m*gamma upward, where gamma = 2 pi a k_B T / (hbar c); the integrand
carries one TM and one TE reflection-product mode.  The m = 0 term follows
each plate's :meth:`Material.zero_frequency`: a closed-form TM part (order-3
polylogarithm) plus, for two plasma plates, a TE part by quadrature.
Conventions: the returned pressure is negative (attractive), and the gap is
vacuum.

Numerical scheme: each term integrates over y >= m*gamma.  Terms are
evaluated in batches per gap of up to max(64, target/16) terms, at most
4 096, where the target is an upper estimate of the m at which the
truncation rule below fires; a sum so evaluates at most one batch past its
last summed term.  The batches of several gaps of one (plates, T) form one
round; each rule takes the round's terms in numpy passes of at most 17 920
kernel points (256 terms of 70 points, 1 792 of 10), and a term's bits do
not depend on its pass.  A pass takes its temporaries from float64 buffers
that each thread keeps between passes, instead of faulting in freshly zeroed
pages every pass.  In t = y - m*gamma the integrand is e^(-2t) times a
smooth function, so two families of fixed rules take every term.  At
quad_tol >= 1e-13 a term with m*gamma >= 1.2 takes the Gauss-Laguerre rule
for that weight of its band, GL24 from 1.2, GL16 from 2, GL12 from 3 and
GL10 from 4, and keeps it when |GL_n - E_k| meets the quadrature tolerance,
E_k being the interpolatory rule on GL_n's first k nodes (E17, E13, E10 and
E9; the README's "Numerical notes" give the scan).  Below the floor of 1.2
a rule and its estimate can agree on a wrong value, so those terms, every
term that misses its test and every term at quad_tol < 1e-13 climb the
levels of the exp-sinh rule (:func:`_exp_sinh_ladder`), whose doubly
exponential crowding near t = 0 resolves the scale m*gamma on which the
reflection coefficients turn there.  At default settings no term of the
standard sweep or of the 1 K anchor cells misses its first rule, and the
kernel averages 24.2 points per summed term at 100 nm and 1 K (29.3 at
quad_tol 1e-13, 150.0 at 1e-14).
The sum runs in ascending m with Kahan compensation and truncates
once three consecutive terms each contribute less than 1e-9 of the running
sum.  The hard ceiling on m is the larger of ceil(10 hbar c / (2 a k_B T))
and the target, so that large a*T leaves room for the three terms.  Without
an explicit m_max, a cell that expects more than TERM_BUDGET (2e6) terms is
refused before its first batch.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, HBAR, SPEED_OF_LIGHT
from .dispersion import Material
# unused adaptive_pair_quadrature: perfbench's tracer wraps it here until ROADMAP item 15
from .quadrature import QuadratureError, adaptive_pair_quadrature  # noqa: F401
from .special import polylog3

__all__ = [
    "PlateSystem",
    "ThermalState",
    "SolverOptions",
    "SummationInfo",
    "PressureResult",
    "ConvergenceError",
    "TermBudgetError",
    "TERM_BUDGET",
    "matsubara_term",
    "zero_frequency_term",
    "casimir_pressure",
    "casimir_pressures",
    "expected_terms",
    "ideal_metal_pressure_T0",
]

# most terms in one batch of a gap: _MAX_BATCH, or 1/16 of the gap's expected
# terms when that is more, but never more than _BATCH_CLAMP, so that a round's
# per-term arrays stay bounded up to TERM_BUDGET
_MAX_BATCH = 64
_BATCH_CLAMP = 4096
# most kernel points in one pass of a fixed rule: 256 terms of the 70-point
# exp-sinh rule, 746 of GL24 and 1 792 of GL10, so that short rules do not pay
# numpy's per-call cost on small passes and no pass outgrows an exp-sinh one
_MAX_POINTS = 17_920
# 24-point Gauss-Laguerre rule for weight e^(-x) on [0, inf) (Abramowitz and
# Stegun 25.4.45, table 25.9): nodes x_i and scaled weights w_i*exp(x_i), to
# double precision from 60-digit roots of L_24
_GL24 = (
    (0.05901985218150798, 0.15149441285950946),
    (0.31123914619848375, 0.35325658252992387),
    (0.7660969055459367, 0.5567845632881526),
    (1.4255975908036131, 0.7626853176973091),
    (2.2925620586321904, 0.9718726322465476),
    (3.3707742642089977, 1.185357893037801),
    (4.665083703467171, 1.4042656272844185),
    (6.1815351187367655, 1.6298686157570415),
    (7.927539247172152, 1.8636350553320729),
    (9.912098015077706, 2.1072911510814802),
    (12.146102711729766, 2.362905891041935),
    (14.642732289596674, 2.633008753163857),
    (17.417992646508978, 2.9207575797277245),
    (20.491460082616424, 3.2301851334923537),
    (23.887329848169735, 3.5665733773687567),
    (27.635937174332717, 3.9370437554551603),
    (31.776041352374722, 4.351531188863512),
    (36.35840580165162, 4.8244818548980355),
    (41.45172048487077, 5.378022079789182),
    (47.153106445156325, 6.048417812619965),
    (53.60857454469507, 6.900898352180496),
    (61.05853144721876, 8.069965156146957),
    (69.96224003510503, 9.902793319484225),
    (81.49827923394889, 13.820532094792005),
)
# scaled weights e_i*exp(x_i) of E17, the interpolatory rule on GL24's first
# 17 nodes: they integrate x**j e^(-x) exactly for j = 0..16 and are all
# positive (a 60-digit moment solve).  |GL24 - E17| estimates GL24's error at
# no extra point: an embedded rule, since Gauss-Laguerre has no Kronrod
# extension with positive weights
_E17 = (
    0.1514950277600714,
    0.3532542023252991,
    0.5567901641565136,
    0.7626737537702191,
    0.9718958096940729,
    1.1853108338610934,
    1.4043645771860012,
    1.629650369547487,
    1.8641439985438673,
    2.106030313768705,
    2.36623189353643,
    2.623668349139723,
    2.9485824356385177,
    3.1430446876025386,
    3.8480616223737623,
    3.036413382101123,
    6.941417234567079,
)
# the ladder's shorter rules, each with the embedded rule on its own first
# nodes, solved the same way (60-digit roots of L_n and 60-digit moment
# solves; every embedded weight is positive): GL16 with E13, GL12 with E10,
# GL10 with E9
_GL16 = (
    (0.08764941047892784, 0.22503631486424724),
    (0.46269632891508083, 0.5258360527623425),
    (1.141057774831227, 0.831961391687087),
    (2.1292836450983805, 1.1460992409637516),
    (3.4370866338932067, 1.4717513169668086),
    (5.078018614549768, 1.813134687381348),
    (7.070338535048234, 2.1755175196946075),
    (9.438314336391938, 2.565762750165029),
    (12.21422336886616, 2.993215086371375),
    (15.441527368781617, 3.4712344831020903),
    (19.180156856753136, 4.020044086444669),
    (23.515905693991908, 4.672516607732854),
    (28.57872974288214, 5.487420657986153),
    (34.58339870228662, 6.5853612332892135),
    (41.94045264768833, 8.276357984364234),
    (51.70116033954332, 11.824277551658435),
)
_E13 = (
    0.22503635009575412,
    0.5258359059247498,
    0.8319617868426403,
    1.146098247676841,
    1.4717539058251579,
    1.8131273526676819,
    2.175540754294029,
    2.565678730899631,
    2.993568210027524,
    3.469479403947486,
    4.0305372131530115,
    4.595967673576401,
    6.16684384446312,
)
_GL12 = (
    (0.11572211735802068, 0.2972096360444108),
    (0.6117574845151307, 0.6964629804305972),
    (1.5126102697764188, 1.1077813946157522),
    (2.8337513377435073, 1.5384642390428291),
    (4.5992276394183484, 1.9983276062742428),
    (6.844525453115177, 2.5007457691008668),
    (9.621316842456867, 3.0653215182823863),
    (13.006054993306348, 3.7232891107827717),
    (17.116855187462257, 4.529814029981735),
    (22.151090379397004, 5.597258461835321),
    (28.487967250984, 7.212995460925877),
    (37.09912104446692, 10.543837461910082),
)
_E10 = (
    0.29720935634313594,
    0.696464225009444,
    1.107777618039696,
    1.5384755924730977,
    1.998289815196517,
    2.5008932611929238,
    3.0646169809225134,
    3.7275865600470617,
    4.494627554712772,
    6.008904222467706,
)
_GL10 = (
    (0.13779347054049243, 0.3540097386069963),
    (0.7294545495031705, 0.8319023010435808),
    (1.808342901740316, 1.330288561749328),
    (3.4014336978548996, 1.863063903111131),
    (5.552496140063804, 2.4502555580830103),
    (8.330152746764497, 3.1227641551351826),
    (11.843785837900066, 3.934152695561521),
    (16.279257831378104, 4.992414872193023),
    (21.99658581198076, 6.572202485130803),
    (29.92069701227389, 9.784695840374631),
)
_E9 = (
    0.35400978167298325,
    0.8319020968578764,
    1.3302892589872526,
    1.8630613932607558,
    2.450266338859685,
    3.122704375017003,
    3.9346162570026673,
    4.98679068760399,
    6.703006789041029,
)
# smallest m*gamma that tries a Gauss-Laguerre rule: below it the reflection
# coefficients turn on the scale m*gamma near t = 0, where a rule and its
# estimate can agree while both are wrong; see the README "Numerical notes"
_GL_FLOOR = 1.2
# the Gauss-Laguerre ladder, one row per band of m*gamma in ascending order:
# (lowest m*gamma, points t = y - m*gamma = x/2 as a nodes-first column,
# weights w*exp(x)/2, which absorb the integrand's e^(-2t)).  A rule's own
# weights come first, then its embedded rule's on its first points.  The band
# edges go by relative error, which the per-term tests hold to 1e-11: GL16
# from 1.2 reads 1.5e-10 there, and GL10 from 3 reads 5e-11; see the README
# for the scan
_GL_LADDER = tuple(
    (lowest, np.array([x for x, _ in gl])[:, None] / 2.0, np.array([*(w for _, w in gl), *e])[:, None] / 2.0)
    for lowest, gl, e in ((_GL_FLOOR, _GL24, _E17), (2.0, _GL16, _E13), (3.0, _GL12, _E10), (4.0, _GL10, _E9))
)


def _exp_sinh(step, ks):
    """Points t = exp((pi/2)*sinh(tau)) and weights (dt/dtau)/step at tau = k/step, as columns."""
    t = [math.exp(math.pi / 2 * math.sinh(k / step)) for k in ks]
    return np.array(t)[:, None], np.array([math.pi / 2 * math.cosh(k / step) * x / step for k, x in zip(ks, t)])[:, None]


# every other term takes the exp-sinh rule of Takahasi and Mori (Publ. RIMS 9,
# 721, 1974): t = y - m*gamma = exp((pi/2)*sinh(tau)) at tau = k/12 in
# [-4, 1.75], 70 points, with weights (dt/dtau)/12.  The 35 even k come
# first: with twice their weights they alone are the rule at step 1/6
_DE_T, _DE_W = _exp_sinh(12, (*range(-48, 22, 2), *range(-47, 22, 2)))
_DE_EVEN = 35
# its finer levels, steps 1/24 and 1/48: each adds the odd k of tau = k/step
# in [-4, 1.75] (69 and 138 points) to the points of the levels before
_DE_FINER = tuple(_exp_sinh(step, range(1 - 4 * step, 7 * step // 4 + 1, 2)) for step in (24, 48))
# smallest tolerance of the Gauss-Laguerre rules and of the exp-sinh rule's
# squared test at step 1/12: both were validated at 1e-10 and 1e-13 only
_FIXED_MIN_TOL = 1e-13
#: the Matsubara sum stops after this many successive terms below sum_rel_tol
SUM_CONSECUTIVE = 3
#: most terms a cell may expect (:func:`expected_terms`) without an explicit
#: m_max: about 10 s of direct sum at 1 K
TERM_BUDGET = 2_000_000


class ConvergenceError(RuntimeError):
    """Matsubara sum hit its ceiling before the truncation rule fired."""

    def __init__(self, message: str, m_ceiling: int, last_relative: float):
        super().__init__(message)
        self.m_ceiling = m_ceiling
        self.last_relative = last_relative

    def __reduce__(self):  # keeps both attributes through a sweep's worker process
        return type(self), (self.args[0], self.m_ceiling, self.last_relative)


class TermBudgetError(ValueError):
    """A cell expects more than TERM_BUDGET Matsubara terms and no m_max bounds it."""


@dataclass(frozen=True)
class PlateSystem:
    """Two half-space materials separated by a vacuum gap of width ``gap`` (m)."""

    mat1: Material
    mat3: Material
    gap: float

    def __post_init__(self):
        if not (np.isfinite(self.gap) and self.gap > 0.0):
            raise ValueError(f"gap must be finite and > 0, got {self.gap!r}")


@dataclass(frozen=True)
class ThermalState:
    """Temperature T (K) and the Matsubara quantities derived from it."""

    T: float

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"temperature must be finite and > 0, got {self.T!r}")

    def zeta(self, m) -> float:
        """Matsubara frequency 2 pi m k_B T / hbar in rad/s (m may be an array)."""
        return 2.0 * math.pi * BOLTZMANN * self.T / HBAR * m

    def gamma(self, gap: float) -> float:
        """Dimensionless thermal gap parameter 2 pi gap k_B T / (hbar c).

        Numerically about 2744 * (gap * T) with gap in m and T in K.
        """
        if not gap > 0.0:
            raise ValueError(f"gap must be > 0, got {gap!r}")
        return 2.0 * math.pi * gap * BOLTZMANN * self.T / (HBAR * SPEED_OF_LIGHT)


class _Spare(threading.local):
    """This thread's spare arrays for the kernel's pass-sized temporaries: a
    stack of views, each of its own float64 buffer.  Freed after every pass,
    the buffers would go back to the OS and the next pass would fault them in
    again, zeroed.  Each thread keeps its own stack, so that threads solving
    at once (numpy releases the GIL inside its loops) do not interleave their
    passes on one stack and trade buffers of other shapes."""

    def __init__(self):
        self.buffers = []


_spare = _Spare()


def _take(*shapes) -> list[np.ndarray]:
    """One uninitialised float64 array per shape, owned by the caller.

    Each is the spare array given back last if it has that shape, else a view
    of its buffer if that is large enough, else a view of a fresh buffer
    (and the spare is dropped), so a thread keeps no more buffers than it has
    had in use at once.  A pass takes and gives in the order of the pass
    before it, so each spare meets the same request again.
    """
    spare = _spare.buffers
    arrays = []
    for shape in shapes:
        a = spare.pop() if spare else None
        if a is None or a.shape != shape:
            size = math.prod(shape)
            buf = a.base if a is not None and a.base.size >= size else np.empty(size)
            a = buf[:size].reshape(shape)
        arrays.append(a)
    return arrays


def _give(*arrays: np.ndarray) -> None:
    """Return arrays from :func:`_take`, to which the caller keeps no reference."""
    _spare.buffers.extend(arrays)


def _reflection_coefficients(p, p2, d):
    """TM and TE reflection coefficients of one plate, d = eps - 1, at p, p2 = p**2.

    Uses the cancellation-free rearrangements

        (eps*p - s)/(eps*p + s) = d*((d + 2)*p**2 - 1) / ((d + 1)*p + s)**2
        (s - p)/(s + p)         = d / (s + p)**2

    with s = sqrt(d + p**2), which stay accurate when eps -> 1 (the TE
    numerator s - p would otherwise lose all digits).  Arrays only; the
    results come from :func:`_take`.
    """
    s, q, tm = _take(p.shape, p.shape, p.shape)
    np.add(d, p2, out=s)
    np.sqrt(s, out=s)
    np.multiply(d + 1.0, p, out=q)
    q += s
    q *= q
    np.multiply(d + 2.0, p2, out=tm)
    tm -= 1.0
    tm *= d
    tm /= q
    s += p
    s *= s
    _give(q)
    return tm, np.divide(d, s, out=s)


def _mode_parts(y, mg, d):
    """Integrand (TM, TE) parts y**2 * r*e^(-2y) / (1 - r*e^(-2y)) at y.

    mg = m*gamma and d = eps-1 of the plates at zeta_m, one row per plate
    (one row for equal plates), mg and each row broadcast against y; r is the
    product of the two plates' reflection coefficients at p = y/mg >= 1.
    Each product is formed as (plate 1 factor) * (plate 3 factor), so
    swapping the plates gives the same bits; with one row the factor is
    computed once and squared, which gives those bits too.  Arrays only:
    it works in place on temporaries from :func:`_take`, and the caller
    owns the two arrays it returns.
    """
    p, p2 = _take(y.shape, y.shape)
    np.divide(y, mg, out=p)
    np.multiply(p, p, out=p2)
    tm, te = _reflection_coefficients(p, p2, d[0])
    tm3, te3 = (tm, te) if len(d) == 1 else _reflection_coefficients(p, p2, d[1])
    tm *= tm3
    te *= te3
    if tm3 is not tm:
        _give(tm3, te3)
    x = np.multiply(y, -2.0, out=p)
    np.exp(x, out=x)
    y2 = np.multiply(y, y, out=p2)
    tm *= x
    te *= x
    den = np.subtract(1.0, tm, out=x)
    tm *= y2
    tm /= den
    np.subtract(1.0, te, out=den)
    te *= y2
    te /= den
    _give(p, p2)
    return tm, te


def _static_te_parts(y, mg, d):
    """Integrand (TM, TE) of the m = 0 term of two plasma plates at y.  TM is
    zero; TE is _mode_parts's at p = y, d = W**2 (mg is unused), but with its
    denominator 1 - r*e^(-2y), which rounds to 0 at the exp-sinh rule's
    smallest y, written as -expm1(-2y) + e^(-2y)*(q1 + q3 - q1*q3), q = 1 - r
    = 2y/(s + y).  Symmetric in the plates; the caller owns both arrays."""
    tm, te = _take(y.shape, y.shape)
    tm.fill(0.0)
    s1, s3 = (np.sqrt(e + y * y) + y for e in d)  # s + p of each plate
    r = d[0] / (s1 * s1) * (d[1] / (s3 * s3))
    q1, q3 = 2.0 * y / s1, 2.0 * y / s3
    x = np.exp(-2.0 * y)
    np.divide(y * y * r * x, x * (q1 + q3 - q1 * q3) - np.expm1(-2.0 * y), out=te)
    return tm, te


def _rule_sums(t, w, n, mg, d, kernel):
    """Weighted (TM, TE) sums of the fixed rule (t, w) at y = mg + t over the
    first n rows of w and over the rest, shape (2, 2, terms), in passes of at
    most _MAX_POINTS points of kernel, _mode_parts or _static_te_parts.  Rows
    of w past the last point weight the first points again: an embedded rule
    on the same points."""
    # weighted values as (row, TM|TE, term), one block of rows at a time: the
    # row axis is never the contiguous one, so each reduce adds whole rows in
    # row order and a term's sums do not depend on how many terms its pass holds
    nodes = len(t)
    blocks = ((w[:n], slice(0, n)), (w[n:], slice(n % nodes, n % nodes + len(w) - n)))
    sums = np.empty((2, 2, mg.size))
    step = _MAX_POINTS // nodes
    for k in range(0, mg.size, step):
        rows = slice(k, k + step)
        part = mg[rows]
        uv, y = _take((max(n, len(w) - n), 2, part.size), (nodes, part.size))
        np.add(t, part, out=y)
        u, v = kernel(y, part, d[:, rows])
        for i, (weights, points) in enumerate(blocks):
            block = uv[: len(weights)]
            np.multiply(u[points], weights, out=block[:, 0])
            np.multiply(v[points], weights, out=block[:, 1])
            sums[i, :, rows] = np.add.reduce(block, axis=0)
        _give(y, u, v, uv)
    return sums


def _exp_sinh_ladder(mg, d, tol, kernel):
    """(TM, TE) integrals of terms by the exp-sinh rule, climbing its levels.

    Every term takes step 1/12 and, while it misses its test, steps 1/24 and
    1/48 (139 and 277 points), whose sums S_h = S_2h/2 + their new points'.
    A term keeps S_h when |S_h - S_2h| of TM + TE meets max(tol, tol*|I|),
    which bounds S_2h's error; at step 1/12 with tol >= _FIXED_MIN_TOL, when
    its square over |I| does (the rule's error roughly squares when the step
    halves).  A term that misses at step 1/48 raises QuadratureError.
    """
    even, odd = _rule_sums(_DE_T, _DE_W, _DE_EVEN, mg, d, kernel)
    (tm, te), est = even + odd, (odd[0] + odd[1]) - (even[0] + even[1])
    size = np.abs(tm + te)
    bound = np.maximum(tol, tol * size)
    rows = np.flatnonzero(est * est > bound * size if tol >= _FIXED_MIN_TOL else np.abs(est) > bound)
    for t, w in _DE_FINER:
        if not rows.size:
            break
        (u, v), _ = _rule_sums(t, w, len(t), mg[rows], d[:, rows], kernel)
        u += tm[rows] / 2.0
        v += te[rows] / 2.0
        est = (u + v) - (tm[rows] + te[rows])
        tm[rows], te[rows] = u, v
        rows = rows[np.abs(est) > np.maximum(tol, tol * np.abs(u + v))]
    if rows.size:
        raise QuadratureError(
            f"the exp-sinh rule missed tol={tol:g} at its last step, 1/48, on {rows.size} of "
            f"{mg.size} terms, the first at m*gamma={mg[rows[0]]:g}"
        )
    return tm, te


def _batch_parts(mg: np.ndarray, d: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(TM, TE) integrals of a batch of Matsubara terms, one per entry of mg.

    At tol >= _FIXED_MIN_TOL a term with mg >= _GL_FLOOR first takes the rule
    of its band of _GL_LADDER at y = mg + x/2, and keeps it when |GL_n - E_k|
    of TM + TE meets max(tol, tol*|I|), E_k being the embedded rule on the
    rule's first k nodes.  Every other term climbs :func:`_exp_sinh_ladder`.
    The terms of each rule are gathered once and run in kernel passes of at
    most _MAX_POINTS points, and a term's result depends only on its own
    inputs: the node sums are sequential reductions over the nodes-first
    axis.  d holds eps - 1 of the plates, shape (plates, terms): one row for
    identical plates, as in _mode_parts.
    """
    tm, te = np.empty_like(mg), np.empty_like(mg)
    ladder = np.ones(mg.shape, dtype=bool)
    if tol >= _FIXED_MIN_TOL:
        band = np.searchsorted([lowest for lowest, _, _ in _GL_LADDER], mg, side="right") - 1
        for i, (_, t, w) in enumerate(_GL_LADDER):
            rows = np.flatnonzero(band == i)
            if rows.size:
                (u, v), est = _rule_sums(t, w, len(t), mg[rows], d[:, rows], _mode_parts)
                total = u + v
                ladder[rows] = np.abs(total - (est[0] + est[1])) > np.maximum(tol, tol * np.abs(total))
                tm[rows], te[rows] = u, v
    rows = np.flatnonzero(ladder)
    if rows.size:
        tm[rows], te[rows] = _exp_sinh_ladder(mg[rows], d[:, rows], tol, _mode_parts)
    return tm, te


def _eps_minus_one(mat1: Material, mat3: Material, m: np.ndarray, zeta: np.ndarray):
    """eps - 1 of the plates at the frequencies zeta of the indices m, shape
    (plates, terms): equal materials are evaluated once and give one row,
    which selects the kernel's one-factor path.  A failure is re-raised with
    its type and attributes, its message prefixed with the plate and the m
    and zeta_m of the first query that failed.
    """

    def plate(material: Material, label: str) -> np.ndarray:
        try:
            return np.asarray(material.eps(zeta), dtype=float) - 1.0
        except ValueError as exc:
            i = getattr(exc, "index", 0)
            exc.args = (
                f"material {material.name!r} ({label}) failed at m={m[i]}, "
                f"zeta={zeta[i]:g} rad/s: {exc}",
            )
            raise

    d1 = plate(mat1, "mat1")
    return d1[None] if mat3 == mat1 else np.stack([d1, plate(mat3, "mat3")])


def matsubara_term(
    m: int,
    system: PlateSystem,
    thermal: ThermalState,
    tol: float = 1e-10,
) -> float:
    """Dimensionless integral of Matsubara term m >= 1 (TM plus TE).

    Integrates over y >= m*gamma to absolute-or-relative tolerance ``tol``,
    with the rules and kernel :func:`casimir_pressure` uses for each term;
    the module notes give each rule's range of m*gamma.

    Raises
    ------
    ValueError
        If m < 1; material evaluation failures propagate with m and zeta_m
        attached.
    QuadratureError
        If the finest exp-sinh level misses ``tol``.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"matsubara_term needs m >= 1, got {m}")
    ms = np.array([m])
    d = _eps_minus_one(system.mat1, system.mat3, ms, thermal.zeta(ms))
    tm, te = _batch_parts(ms * thermal.gamma(system.gap), d, tol)
    return float(tm[0] + te[0])


def _zero_frequency_parts(system: PlateSystem, tol: float) -> tuple[float, float]:
    """Magnitudes (TM, TE) of the m = 0 term, each >= 0; see zero_frequency_term."""
    (r1, w1), (r3, w3) = system.mat1.zero_frequency(), system.mat3.zero_frequency()
    tm = polylog3(r1 * r3) / 8.0
    if not (w1 > 0.0 and w3 > 0.0):
        return tm, 0.0
    d = np.array([[(w * system.gap / SPEED_OF_LIGHT) ** 2] for w in (w1, w3)])
    te = _exp_sinh_ladder(np.zeros(1), d, tol, _static_te_parts)[1]
    return tm, 0.5 * float(te[0])


def zero_frequency_term(system: PlateSystem) -> float:
    """The m = 0 contribution (dimensionless, < 0), TM plus TE.

    The plates' :meth:`Material.zero_frequency` answers (r, omega_TE) decide
    it.  TM is -polylog3(r1*r3)/8, which is -zeta(3)/8 = -0.1502571129 for
    two metals.  TE is exactly 0 unless both plates are plasma models.  Then,
    with W = omega_TE*a/c, a plate's static TE coefficient at y is the
    kernel's at p = y and eps - 1 = W**2, and TE is -1/2 times the kernel's
    TE integral over y >= 0 by the exp-sinh ladder, at the default
    quadrature tolerance.
    """
    tm, te = _zero_frequency_parts(system, DEFAULT_OPTIONS.quad_tol)
    return -(tm + te)


@dataclass(frozen=True)
class SolverOptions:
    """Tunables of the pressure solver.

    quad_tol : per-term quadrature tolerance (absolute-or-relative).
    sum_rel_tol : the Matsubara sum stops after ``SUM_CONSECUTIVE`` (3)
        successive terms each below ``sum_rel_tol`` times the running sum.
    m_max : optional override of the default ceiling on m (see the module
        notes).
    """

    quad_tol: float = 1e-10
    sum_rel_tol: float = 1e-9
    m_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.quad_tol < 1.0:
            raise ValueError(f"quad_tol must be in (0, 1), got {self.quad_tol!r}")
        if not 0.0 < self.sum_rel_tol < 1.0:
            raise ValueError(f"sum_rel_tol must be in (0, 1), got {self.sum_rel_tol!r}")
        if self.m_max is not None:
            if isinstance(self.m_max, bool) or not isinstance(self.m_max, (int, np.integer)) or self.m_max < 1:
                raise ValueError(f"m_max must be an integer >= 1, got {self.m_max!r}")
            object.__setattr__(self, "m_max", int(self.m_max))


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class SummationInfo:
    """How the Matsubara sum was cut off."""

    gamma: float
    m_ceiling: int


@dataclass(frozen=True, eq=False)
class PressureResult:
    """Pressure in Pa (negative = attractive) plus per-term diagnostics.

    ``tm_terms``/``te_terms`` are aligned arrays, row m for Matsubara index
    m = 0 .. m_used; the term magnitudes are positive contributions to
    |pressure| in Pa.  The m = 0 TE entry is exactly 0 except for two
    plasma plates.
    """

    pressure: float
    m_used: int
    tm_terms: np.ndarray
    te_terms: np.ndarray
    info: SummationInfo

    @property
    def abs_pressure(self) -> float:
        return abs(self.pressure)

    @property
    def tm_share(self) -> float:
        """Fraction of |pressure| carried by the TM mode (m = 0 included)."""
        tm = float(np.sum(self.tm_terms))
        return tm / (tm + float(np.sum(self.te_terms)))

    @property
    def te_share(self) -> float:
        return 1.0 - self.tm_share


def expected_terms(gap: float, thermal: ThermalState, opts: SolverOptions = DEFAULT_OPTIONS) -> int:
    """Upper estimate of the m where the truncation rule fires, which sizes a
    gap's batches, its ceiling on m and the TERM_BUDGET check:
    ceil(ln(1/sum_rel_tol) / (2 gamma)) + 7.  It counts only the e^(-2 m
    gamma) decay; where the plates turn transparent (eps -> 1) the terms fall
    faster, so a long 1 K sum stops as early as about half of it (Au-Au at
    50 nm and 1 K expects 75 533 and sums 38 458)."""
    return math.ceil(math.log(1.0 / opts.sum_rel_tol) / (2.0 * thermal.gamma(gap))) + SUM_CONSECUTIVE + 4


def casimir_pressure(
    system: PlateSystem,
    thermal: ThermalState,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> PressureResult:
    """Casimir pressure between the plates of ``system`` at ``thermal.T``.

    pressure = -(k_B T / (pi a**3)) * (|I0| + sum_{m>=1} term_m), with I0
    the zero-frequency term (see :func:`zero_frequency_term`; its TE part
    uses ``opts.quad_tol``) and each term_m a batched quadrature (see the
    module notes for its Gauss-Laguerre and exp-sinh rules).
    Terms accumulate in ascending m with Kahan compensation, so results are
    deterministic bit-for-bit for identical inputs.

    Raises
    ------
    ConvergenceError
        If the ceiling on m is reached before three consecutive terms fall
        below ``opts.sum_rel_tol`` of the running sum.
    QuadratureError
        If a term misses ``opts.quad_tol`` at the finest exp-sinh level.
    """
    return casimir_pressures(system.mat1, system.mat3, [system.gap], thermal, opts)[0]


def _matsubara_sum(system: PlateSystem, thermal: ThermalState, opts: SolverOptions):
    """One gap's pressure as a generator: it yields each batch's m and m*gamma,
    is sent the batch's (TM, TE) terms, and returns the PressureResult."""
    a = system.gap
    gamma = thermal.gamma(a)
    prefactor = BOLTZMANN * thermal.T / (math.pi * a**3)
    # batches run up to the target (an upper estimate of where the truncation
    # rule fires), then start small and double: short room-temperature sums
    # compute few unused terms.
    # A long sum's batches grow with it, so it runs in about 16 rounds and
    # computes at most about 1/16 of its target past the last term it sums
    extra = SUM_CONSECUTIVE + 4
    target = expected_terms(a, thermal, opts)
    cap = min(max(_MAX_BATCH, target // 16), _BATCH_CLAMP)
    # the default ceiling never stops the sum before the target
    ceiling = math.ceil(10.0 * HBAR * SPEED_OF_LIGHT / (2.0 * a * BOLTZMANN * thermal.T))
    m_ceiling = opts.m_max or max(ceiling, target)
    if opts.m_max is None and target > TERM_BUDGET:
        raise TermBudgetError(
            f"a = {a:g} m at T = {thermal.T:g} K expects {target} Matsubara terms, more than "
            f"the budget of {TERM_BUDGET}; set m_max to bound the sum"
        )

    i0_tm, i0_te = _zero_frequency_parts(system, opts.quad_tol)
    total = i0_tm + i0_te  # |I0|; every later term is positive
    comp = 0.0
    tm_chunks = []
    te_chunks = []
    below = 0
    used = 0
    converged = False
    last_relative = math.inf
    m = 1
    while m <= m_ceiling and not converged:
        size = min(max(target + 1 - m, extra), cap)
        chunk = np.arange(m, min(m + size, m_ceiling + 1))
        tm_c, te_c = yield chunk, chunk * gamma
        tm_chunks.append(tm_c)
        te_chunks.append(te_c)
        for term in (tm_c + te_c).tolist():
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            used += 1
            last_relative = term / total
            if term <= opts.sum_rel_tol * total:
                below += 1
                if below >= SUM_CONSECUTIVE:
                    converged = True
                    break
            else:
                below = 0
        m = int(chunk[-1]) + 1
        if m > target:
            extra *= 2

    if not converged:
        raise ConvergenceError(
            f"Matsubara sum reached its ceiling m = {m_ceiling} without meeting the "
            f"truncation rule (last term contributed {last_relative:.3e} of the sum); raise m_max",
            m_ceiling=m_ceiling,
            last_relative=last_relative,
        )

    return PressureResult(
        pressure=-prefactor * total,
        m_used=used,
        tm_terms=np.concatenate([[prefactor * i0_tm], prefactor * np.concatenate(tm_chunks)[:used]]),
        te_terms=np.concatenate([[prefactor * i0_te], prefactor * np.concatenate(te_chunks)[:used]]),
        info=SummationInfo(gamma=gamma, m_ceiling=m_ceiling),
    )


def casimir_pressures(
    mat1: Material, mat3: Material, gaps, thermal: ThermalState, opts: SolverOptions = DEFAULT_OPTIONS
) -> list[PressureResult]:
    """:func:`casimir_pressure` of the plates at each of ``gaps``, in order, with
    the same bits: each gap keeps its own batches, ceiling and Kahan sum, and
    each round the next batches of all unfinished gaps share one eps evaluation
    and one :func:`_batch_parts` call.  The first error met is raised."""
    sums = [_matsubara_sum(PlateSystem(mat1, mat3, gap=a), thermal, opts) for a in gaps]
    batches = {i: next(s) for i, s in enumerate(sums)}
    while batches:
        ms, mg = (np.concatenate(x) for x in zip(*batches.values()))
        d = _eps_minus_one(mat1, mat3, ms, thermal.zeta(ms))
        tm, te = _batch_parts(mg, d, opts.quad_tol)
        start = 0
        for i, (m, _) in list(batches.items()):
            stop = start + len(m)
            try:
                batches[i] = sums[i].send((tm[start:stop], te[start:stop]))
            except StopIteration as done:
                del batches[i]
                sums[i] = done.value  # the result takes the place of its sum
            start = stop
    return sums


def ideal_metal_pressure_T0(gap: float) -> float:
    """Zero-temperature ideal-metal pressure -pi**2 hbar c / (240 a**4) in Pa.

    The classic perfect-reflector baseline real metals stay below in
    magnitude: about -1.30 mPa at a 1 um gap, -208 Pa at 50 nm.
    """
    if not (np.isfinite(gap) and gap > 0.0):
        raise ValueError(f"gap must be finite and > 0, got {gap!r}")
    return -math.pi**2 * HBAR * SPEED_OF_LIGHT / (240.0 * gap**4)
