"""Reflection products, the integrand kernel, Matsubara terms, and the pressure sum."""

import inspect
import math
import pickle
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import lifshitz
from casimir_plates.constants import BOLTZMANN, SPEED_OF_LIGHT
from casimir_plates.dispersion import DrudeParams, Material, material_preset
from casimir_plates.lifshitz import (
    DEFAULT_OPTIONS,
    TERM_BUDGET,
    ConvergenceError,
    PlateSystem,
    SolverOptions,
    TermBudgetError,
    ThermalState,
    _batch_parts,
    _mode_parts,
    _reflection_coefficients,
    casimir_pressure,
    casimir_pressures,
    expected_terms,
    ideal_metal_pressure_T0,
    matsubara_term,
    zero_frequency_term,
)
from casimir_plates.quadrature import QuadratureError
from casimir_plates.scenarios import PRESET_PAIRS, SweepSpec, gap_grid, sweep
from casimir_plates.special import ZETA3
from conftest import make_table_material
from quadrature_oracle import adaptive_pair_quadrature, batched_pair_quadrature

# frozen reference values, all from 25 to 40 digit arbitrary-precision evaluations
REFL_TM_232 = 0.11885878661717955  # eps1=2, eps3=3, p=2
REFL_TE_232 = 0.005629680320289381
INTEGRAND_UNIT_RP_Y1 = 0.3130352854993313
TERM1_AU_1UM_300K = 0.36863749391902645
P_AU_1UM_300K = -9.83211308923e-4  # independent Matsubara-sum oracle
P_AU_100NM_300K = -5.63162523923
I0_METALLIC = -0.15025711289494928
I0_DELTA_QUARTER = -0.032307674474571663
I0_DELTA_HALF = -0.067151649201005025
IM_1UM = -1.3001257724477534e-3
IM_50NM = -208.02012359164055
IDEAL_METAL_EPS = 1e100  # reflection coefficients round to exactly 1


def coefficient_products(eps1, eps3, p):
    """TM and TE reflection-coefficient products of two plates at p, as the kernel forms them."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    tm1, te1 = _reflection_coefficients(p, p * p, np.float64(eps1) - 1.0)
    tm3, te3 = _reflection_coefficients(p, p * p, np.float64(eps3) - 1.0)
    return tm1 * tm3, te1 * te3


def kernel(y, mg, eps1, eps3):
    """The production integrand parts (TM, TE) of one term at the points y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _mode_parts(y, mg, np.array([eps1, eps3], dtype=float) - 1.0)


def oracle_parts(mg, d, tol=1e-13, offsets=(0.0, 10.0, 50.0), d3=None):
    """(TM, TE) of one term by the scalar adaptive engine.

    d and d3 are eps - 1 of the two plates at the term's frequency (d3 = d
    for identical plates).  The integral runs over y in [mg + offsets[0],
    mg + offsets[-1]], with a break at each offset.  The integrand is written
    out here with Python floats and shares nothing with the production kernel
    except its algebra.
    """

    def coefficients(e, p, s):
        return e * ((e + 2.0) * p * p - 1.0) / ((e + 1.0) * p + s) ** 2, e / (s + p) ** 2

    def f(y):
        p = y / mg
        tm1, te1 = coefficients(d, p, math.sqrt(d + p * p))
        e = d if d3 is None else d3
        tm3, te3 = coefficients(e, p, math.sqrt(e + p * p))
        tm, te = tm1 * tm3, te1 * te3
        x = math.exp(-2.0 * y)
        return y * y * tm * x / (1.0 - tm * x), y * y * te * x / (1.0 - te * x)

    return adaptive_pair_quadrature(f, [mg + o for o in offsets], tol)


class TestThermalState:
    def test_gamma_matches_kelvin_meter_shortcut(self):
        """gamma / (a T) is the constant 2744 to four significant digits."""
        th = ThermalState(300.0)
        coeff = th.gamma(1e-6) / (1e-6 * 300.0)
        assert coeff == pytest.approx(2744.0, rel=5e-4)
        assert coeff == pytest.approx(2743.887411996491, rel=1e-12)

    def test_matsubara_frequency(self):
        th = ThermalState(300.0)
        expected = 2.0 * math.pi * 1.380649e-23 * 300.0 / 1.054571817e-34
        assert th.zeta(1) == pytest.approx(expected, rel=1e-12)
        assert th.zeta(7) == pytest.approx(7.0 * th.zeta(1), rel=1e-14)

    @pytest.mark.parametrize("T", [0.0, -10.0, math.nan])
    def test_rejects_bad_temperature(self, T):
        with pytest.raises(ValueError):
            ThermalState(T)

    def test_gamma_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            ThermalState(300.0).gamma(0.0)


class TestPlateSystem:
    @pytest.mark.parametrize("gap", [0.0, -1e-9, math.inf, math.nan])
    def test_rejects_bad_gap(self, au, gap):
        with pytest.raises(ValueError):
            PlateSystem(au, au, gap=gap)


class TestIntegrationPoint:
    def test_lower_limit_enforced(self, au, monkeypatch):
        """Terms start at m = 1 and every point the solver integrates lies
        at y >= m*gamma, i.e. p = y/(m*gamma) >= 1."""
        with pytest.raises(ValueError):
            matsubara_term(0, PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
        kernel_parts = lifshitz._mode_parts
        lowest = []

        def recording(y, mg, d):
            lowest.append(float(np.min(y / mg)))
            return kernel_parts(y, mg, d)

        monkeypatch.setattr(lifshitz, "_mode_parts", recording)
        casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(1.0))
        assert lowest and min(lowest) >= 1.0


class TestReflectionCoefficients:
    def test_hand_evaluated_example(self):
        tm, te = coefficient_products(2.0, 3.0, 2.0)
        s1, s3 = math.sqrt(5.0), math.sqrt(6.0)
        tm_hand = ((4.0 - s1) / (4.0 + s1)) * ((6.0 - s3) / (6.0 + s3))
        te_hand = ((s1 - 2.0) / (s1 + 2.0)) * ((s3 - 2.0) / (s3 + 2.0))
        assert tm[0] == pytest.approx(tm_hand, rel=1e-13)
        assert te[0] == pytest.approx(te_hand, rel=1e-13)
        assert tm[0] == pytest.approx(REFL_TM_232, rel=1e-12)
        assert te[0] == pytest.approx(REFL_TE_232, rel=1e-12)

    def test_similar_media_reduce_to_squared_coefficients(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            eps = 1.0 + 10.0 ** rng.uniform(0.0, 8.0)
            p = 10.0 ** rng.uniform(0.0, 2.0)
            s = math.sqrt(eps - 1.0 + p * p)
            a_m = ((eps * p - s) / (eps * p + s)) ** 2
            b_m = ((s - p) / (s + p)) ** 2
            tm, te = coefficient_products(eps, eps, p)
            assert tm[0] == pytest.approx(a_m, rel=1e-10)
            assert te[0] == pytest.approx(b_m, rel=1e-10)

    def test_ideal_metal_limit(self):
        # TE approaches unity as 1 - 4p/sqrt(eps), slower than TM
        tm, te = coefficient_products(1e12, 1e12, 3.0)
        assert tm[0] == pytest.approx(1.0, abs=1e-5)
        assert te[0] == pytest.approx(1.0, abs=2e-5)

    def test_stable_at_extreme_wavevector(self):
        """Nearly transparent plates at huge p: the naive TE difference underflows
        to zero, the rearranged form keeps full precision."""
        tm, te = coefficient_products(1.0 + 1e-9, 1.0 + 1e-9, 1e8)
        assert te[0] > 0.0
        assert math.sqrt(tm[0]) == pytest.approx(4.9999999975e-10, rel=1e-9)
        assert math.sqrt(te[0]) == pytest.approx(2.5e-26, rel=1e-9)

    def test_array_evaluation(self):
        p = np.array([1.0, 2.0, 10.0])
        tm, te = coefficient_products(2.0, 3.0, p)
        assert tm.shape == te.shape == (3,)
        for i, pi in enumerate(p):
            assert (tm[i], te[i]) == tuple(x[0] for x in coefficient_products(2.0, 3.0, pi))

    def test_domain_errors(self):
        """The coefficients need eps > 1.  eps reaches the kernel only
        through Material, whose tabulated model rejects anything else."""
        for bad in (0.999, 1.0, 0.5, math.nan):
            with pytest.raises(ValueError):
                make_table_material(eps=(1e6, bad))

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(
        st.floats(min_value=1.000001, max_value=1e9, allow_nan=False),
        st.floats(min_value=1.000001, max_value=1e9, allow_nan=False),
        st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
    )
    def test_products_stay_in_the_unit_interval(self, eps1, eps3, p):
        tm, te = coefficient_products(eps1, eps3, p)
        assert 0.0 <= tm[0] < 1.0
        assert 0.0 <= te[0] < 1.0


class TestIntegrand:
    def test_zero_reflection_gives_zero(self):
        tm, te = kernel([0.5, 5.0, 40.0], 0.5, 1.0, 1.0)
        assert np.all(tm == 0.0)
        assert np.all(te == 0.0)

    def test_unit_reflection_at_unit_y(self):
        tm, te = kernel([1.0], 1.0, IDEAL_METAL_EPS, IDEAL_METAL_EPS)
        x = math.exp(-2.0)
        assert tm[0] + te[0] == pytest.approx(2.0 * x / (1.0 - x), rel=1e-13)
        assert tm[0] + te[0] == pytest.approx(INTEGRAND_UNIT_RP_Y1, rel=1e-12)

    def test_negligible_beyond_the_cutoff(self):
        # even perfect reflectors leave ~1.9e-40 at y = 50
        tm, te = kernel([50.0], 1.0, IDEAL_METAL_EPS, IDEAL_METAL_EPS)
        assert tm[0] + te[0] < 2e-40
        tm, te = kernel([50.0], 50.0 / 1.5, 100.0, 100.0)
        assert tm[0] + te[0] < 2e-40

    def test_vector_matches_scalar(self):
        ys = np.array([0.3, 1.0, 4.0])
        tm, te = kernel(ys, 0.3, 7.0, 2.0)
        for i, y in enumerate(ys):
            assert (tm[i], te[i]) == tuple(x[0] for x in kernel([y], 0.3, 7.0, 2.0))

    def test_plate_swap_gives_the_same_bits(self):
        ys = np.geomspace(0.2, 50.0, 40)
        fwd = kernel(ys, 0.2, 1e4, 3.0)
        rev = kernel(ys, 0.2, 3.0, 1e4)
        assert np.array_equal(fwd[0], rev[0])
        assert np.array_equal(fwd[1], rev[1])


class TestMatsubaraTerm:
    def test_rejects_m_below_one(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        with pytest.raises(ValueError):
            matsubara_term(0, system, ThermalState(300.0))
        for m in (2.7, 2.0, True, "2"):
            with pytest.raises(ValueError, match="integer m >= 1"):
                matsubara_term(m, system, ThermalState(300.0))
        assert matsubara_term(np.int64(2), system, ThermalState(300.0)) == matsubara_term(2, system, ThermalState(300.0))

    def test_tol_defaults_to_the_solver_default(self):
        assert inspect.signature(matsubara_term).parameters["tol"].default == SolverOptions().quad_tol

    def test_first_term_reference_value(self, au):
        term = matsubara_term(1, PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
        assert term == pytest.approx(TERM1_AU_1UM_300K, rel=1e-10)

    def test_agrees_with_dense_simpson_oracle(self, au):
        simpson = pytest.importorskip("scipy.integrate").simpson
        th = ThermalState(300.0)
        mg = th.gamma(1e-6)
        eps = au.eps(th.zeta(1))
        y = np.linspace(mg, mg + 50.0, 1_000_001)
        p = y / mg
        s = np.sqrt(eps - 1.0 + p * p)
        dtm = (eps * p - s) / (eps * p + s)
        dte = (s - p) / (s + p)
        x = np.exp(-2.0 * y)
        tmx = dtm * dtm * x
        tex = dte * dte * x
        oracle = simpson(y * y * (tmx / (1.0 - tmx) + tex / (1.0 - tex)), x=y)
        term = matsubara_term(1, PlateSystem(au, au, gap=1e-6), th)
        assert term == pytest.approx(oracle, rel=1e-8)

    def test_insensitive_to_a_longer_tail(self, au):
        """Extending the span from 50 to 100 adds less than 1e-15 of a term."""
        system = PlateSystem(au, au, gap=1e-6)
        th = ThermalState(300.0)
        base = matsubara_term(2, system, th, tol=1e-12)
        d = float(au.eps(th.zeta(2))) - 1.0
        tail = sum(oracle_parts(2 * th.gamma(1e-6), d, tol=1e-12, offsets=(50.0, 100.0)))
        assert 0.0 <= tail <= 1e-15 * abs(base)

    def test_terms_decay_with_index(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        th = ThermalState(300.0)
        t1 = matsubara_term(1, system, th)
        t2 = matsubara_term(2, system, th)
        t5 = matsubara_term(5, system, th)
        assert t1 > t2 > t5 > 0.0

    def test_transparent_plates_contribute_nothing(self):
        tm, te = _batch_parts(np.array([0.5]), np.zeros((1, 1)), 1e-10)
        assert tm[0] == 0.0
        assert te[0] == 0.0

    def test_exp_sinh_budget_exhaustion_raises(self, au):
        with pytest.raises(QuadratureError, match=r"missed tol=1e-300 at its last step, 1/48"):
            matsubara_term(1, PlateSystem(au, au, gap=1e-6), ThermalState(1.0), tol=1e-300)

    def test_material_failure_names_the_frequency(self, au):
        narrow = make_table_material(zeta=(1e12, 1e13), eps=(1e4, 1e3))
        system = PlateSystem(narrow, au, gap=1e-6)
        with pytest.raises(ValueError, match=r"m=1.*zeta"):
            matsubara_term(1, system, ThermalState(300.0))


class TestZeroFrequencyTerm:
    def test_metallic_value(self, au, al):
        term = zero_frequency_term(PlateSystem(au, al, gap=1e-6))
        assert term == pytest.approx(I0_METALLIC, rel=1e-14)
        assert term == pytest.approx(-0.1502571129, abs=1e-9)

    def test_finite_static_permittivity(self):
        tab = make_table_material(zeta=(1e12, 1e14), eps=(3.0, 2.0))
        term = zero_frequency_term(PlateSystem(tab, tab, gap=1e-6))
        assert term == pytest.approx(I0_DELTA_QUARTER, rel=1e-12)

    def test_metallic_times_finite(self, au):
        tab = make_table_material(zeta=(1e12, 1e14), eps=(3.0, 2.0))
        term = zero_frequency_term(PlateSystem(au, tab, gap=1e-6))
        assert term == pytest.approx(I0_DELTA_HALF, rel=1e-12)

    @pytest.mark.parametrize(
        "W,expected",
        [
            (1.0, 0.0064416395),
            (45.6, 0.1321070652),
            (1000.0, 0.1493591650),
            (0.01, 3.894824507131e-08),
            (1e5, 0.1502480978288),
        ],
    )
    def test_plasma_te_mode_matches_scipy(self, W, expected):
        """Two plasma plates add -1/2 of the integral of y**2 r e^-2y/(1 - r e^-2y)
        over y >= 0 with r = ((s - y)/(s + y))**2, s = sqrt(y**2 + W**2),
        W = omega_p a / c.  At W = 0.01 the TE part is 3.9e-8, so only the
        relative check on the part itself sees its error."""
        quad = pytest.importorskip("scipy.integrate").quad

        def f(y):
            s = math.sqrt(y * y + W * W)
            x = ((s - y) / (s + y)) ** 2 * math.exp(-2.0 * y)
            return y * y * x / (1.0 - x)

        oracle = 0.5 * quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        plasma = Material("pl", DrudeParams(W * SPEED_OF_LIGHT / 1e-6, 0.0))
        system = PlateSystem(plasma, plasma, gap=1e-6)
        te = -zero_frequency_term(system) - ZETA3 / 8.0
        assert te == pytest.approx(oracle, abs=1e-10)
        assert te == pytest.approx(expected, abs=1e-10)
        te = lifshitz._zero_frequency_parts(system, DEFAULT_OPTIONS.quad_tol)[1]
        assert te == pytest.approx(oracle, rel=1e-11)

    def test_te_mode_needs_two_plasma_plates(self, au):
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        drude = zero_frequency_term(PlateSystem(au, au, gap=1e-6))
        assert zero_frequency_term(PlateSystem(plasma, au, gap=1e-6)) == drude
        r = casimir_pressure(PlateSystem(au, plasma, gap=1e-6), ThermalState(300.0))
        assert r.te_terms[0] == 0.0 and not np.signbit(r.te_terms[0])


class TestSolverOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS == SolverOptions()
        assert DEFAULT_OPTIONS.quad_tol == 1e-10
        assert DEFAULT_OPTIONS.sum_rel_tol == 1e-9
        assert DEFAULT_OPTIONS.m_max is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quad_tol": 0.0},
            {"quad_tol": 2.0},
            {"sum_rel_tol": 0.0},
            {"sum_rel_tol": 1.0},
            {"sum_rel_tol": math.nan},
            {"m_max": 0},
            {"m_max": 2.5},
            {"m_max": 40.0},
            {"m_max": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestCasimirPressure:
    def test_against_independent_sum_oracle(self, au):
        r = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
        assert r.pressure == pytest.approx(P_AU_1UM_300K, rel=1e-6)
        r = casimir_pressure(PlateSystem(au, au, gap=1e-7), ThermalState(300.0))
        assert r.pressure == pytest.approx(P_AU_100NM_300K, rel=1e-6)

    def test_result_diagnostics_are_consistent(self, au):
        r = casimir_pressure(PlateSystem(au, au, gap=5e-7), ThermalState(300.0))
        assert r.pressure < 0.0
        assert r.abs_pressure == -r.pressure
        n = r.m_used + 1
        assert r.tm_terms.shape == r.te_terms.shape == (n,)
        assert r.te_terms[0] == 0.0 and not np.signbit(r.te_terms[0])
        total = float(np.sum(r.tm_terms) + np.sum(r.te_terms))
        assert r.abs_pressure == pytest.approx(total, rel=1e-12)
        assert r.tm_share + r.te_share == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < r.te_share < r.tm_share < 1.0

    def test_summation_window_metadata(self, au):
        r = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(300.0))
        expected_ceiling = math.ceil(
            10.0 * 1.054571817e-34 * 2.99792458e8 / (2.0 * 1e-6 * 1.380649e-23 * 300.0)
        )
        assert r.m_ceiling == expected_ceiling
        assert r.m_used <= r.m_ceiling
        # a numpy integer m_max is stored as a Python int
        r = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(300.0), SolverOptions(m_max=np.int64(40)))
        assert r.m_ceiling == 40 and type(r.m_ceiling) is int

    def test_material_swap_is_bit_identical(self, au, cu):
        r1 = casimir_pressure(PlateSystem(au, cu, gap=2e-7), ThermalState(300.0))
        r2 = casimir_pressure(PlateSystem(cu, au, gap=2e-7), ThermalState(300.0))
        assert r1.pressure == r2.pressure
        assert r1.m_used == r2.m_used

    def test_equal_plates_evaluate_eps_once_per_batch(self, au, monkeypatch):
        calls = []
        eps = Material.eps

        def counting(material, zeta):
            calls.append(material.name)
            return eps(material, zeta)

        monkeypatch.setattr(Material, "eps", counting)
        twin = Material("Au twin", au.model)
        th = ThermalState(1.0)
        same = casimir_pressure(PlateSystem(au, au, gap=1e-6), th)
        n_same = len(calls)
        calls.clear()
        pair = casimir_pressure(PlateSystem(au, twin, gap=1e-6), th)
        assert n_same > 1 and len(calls) == 2 * n_same
        assert same.pressure == pair.pressure
        assert np.array_equal(same.tm_terms, pair.tm_terms)
        assert np.array_equal(same.te_terms, pair.te_terms)

    def test_deterministic_across_runs(self, au):
        r1 = casimir_pressure(PlateSystem(au, au, gap=2e-7), ThermalState(300.0))
        r2 = casimir_pressure(PlateSystem(au, au, gap=2e-7), ThermalState(300.0))
        assert r1.pressure == r2.pressure
        assert np.array_equal(r1.tm_terms, r2.tm_terms)
        assert np.array_equal(r1.te_terms, r2.te_terms)

    def test_robust_to_quadrature_tolerance(self, au):
        system = PlateSystem(au, au, gap=5e-7)
        tight = casimir_pressure(system, ThermalState(300.0))
        loose = casimir_pressure(system, ThermalState(300.0), SolverOptions(quad_tol=1e-9))
        assert loose.pressure == pytest.approx(tight.pressure, rel=1e-6)

    def test_magnitude_decreases_with_gap(self, au):
        th = ThermalState(300.0)
        values = [
            casimir_pressure(PlateSystem(au, au, gap=a), th).abs_pressure
            for a in (5e-8, 1e-7, 2e-7)
        ]
        assert values[0] > values[1] > values[2]

    def test_attraction_weakens_with_temperature(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        cold = casimir_pressure(system, ThermalState(1.0)).abs_pressure
        room = casimir_pressure(system, ThermalState(300.0)).abs_pressure
        warm = casimir_pressure(system, ThermalState(350.0)).abs_pressure
        assert cold > room > warm

    def test_ceiling_violation_raises(self, au):
        with pytest.raises(ConvergenceError, match="ceiling") as err:
            casimir_pressure(
                PlateSystem(au, au, gap=1e-6),
                ThermalState(1.0),
                SolverOptions(m_max=5),
            )
        assert err.value.m_ceiling == 5
        assert err.value.last_relative > 1e-9

    def test_convergence_error_survives_pickling(self):
        """A sweep's worker process hands the error back by pickling it."""
        err = ConvergenceError("sum reached its ceiling", m_ceiling=7, last_relative=2.5e-6)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ConvergenceError
        assert (str(back), back.m_ceiling, back.last_relative) == (str(err), 7, 2.5e-6)

    @pytest.mark.parametrize("gap", [20e-6, 100e-6])
    def test_large_gap_reaches_the_classical_limit(self, au, gap):
        """At large a*T only m = 0 is left: -zeta(3) k T/(8 pi a**3) for Drude.
        The default ceiling must leave room for the truncation rule there."""
        T = 300.0
        r = casimir_pressure(PlateSystem(au, au, gap=gap), ThermalState(T))
        classical = -ZETA3 * BOLTZMANN * T / (8.0 * math.pi * gap**3)
        assert r.pressure == pytest.approx(classical, rel=1e-6)
        assert r.m_used <= r.m_ceiling

    def test_plasma_large_gap_doubles_the_classical_limit(self, au):
        """Plasma plates reflect TE at m = 0 too: -zeta(3) k T/(4 pi a**3)."""
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        gap, T = 100e-6, 300.0
        r = casimir_pressure(PlateSystem(plasma, plasma, gap=gap), ThermalState(T))
        classical = -ZETA3 * BOLTZMANN * T / (4.0 * math.pi * gap**3)
        assert r.pressure == pytest.approx(classical, rel=1e-3)

    def test_plasma_thermal_change_is_small(self, au):
        """With its m = 0 TE mode the plasma model barely changes between 1 K
        and 300 K at 1 um (the Drude model loses about 14%)."""
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        system = PlateSystem(plasma, plasma, gap=1e-6)
        cold = casimir_pressure(system, ThermalState(1.0)).abs_pressure
        room = casimir_pressure(system, ThermalState(300.0))
        assert abs(room.abs_pressure / cold - 1.0) < 0.01
        assert room.te_terms[0] > 0.0

    def test_plasma_plate_swap_is_bit_identical(self, au, cu):
        p_au = Material("pl Au", DrudeParams(au.model.omega_p, 0.0))
        p_cu = Material("pl Cu", DrudeParams(cu.model.omega_p, 0.0))
        fwd = casimir_pressure(PlateSystem(p_au, p_cu, gap=5e-7), ThermalState(300.0))
        rev = casimir_pressure(PlateSystem(p_cu, p_au, gap=5e-7), ThermalState(300.0))
        assert fwd.pressure == rev.pressure
        assert np.array_equal(fwd.te_terms, rev.te_terms)

    def test_failure_mid_batch_names_the_index(self, au):
        """A table ending at 10.5 zeta_1 fails at m = 11 of the first batch,
        whichever plate it is."""
        th = ThermalState(300.0)
        short = make_table_material(zeta=(0.5 * th.zeta(1), 10.5 * th.zeta(1)), eps=(1e5, 1e3))
        for system in (PlateSystem(short, au, gap=1e-7), PlateSystem(au, short, gap=1e-7)):
            with pytest.raises(ValueError, match=r"m=11, zeta=.*above the table maximum") as info:
                casimir_pressure(system, th)
            assert info.value.index == 10

    def test_failure_in_late_chunk_names_the_index(self, au):
        # covers frequencies up to zeta_2 but not zeta_3
        narrow = make_table_material(zeta=(1e11, 6e14), eps=(1e6, 1e2))
        with pytest.raises(ValueError, match="m=3"):
            casimir_pressure(PlateSystem(narrow, au, gap=1e-6), ThermalState(300.0))


@pytest.fixture
def evaluations(monkeypatch):
    """How many rules evaluated each term, by its mg; clear it between batches.

    A term that misses its first rule (its Gauss-Laguerre rule, or the
    exp-sinh rule at step 1/12) climbs the exp-sinh ladder and is evaluated
    again, on each level's new points."""
    seen = Counter()
    rule_sums = lifshitz._rule_sums

    def recording(t, w, n, mg, d, kernel):
        seen.update(mg.tolist())
        return rule_sums(t, w, n, mg, d, kernel)

    monkeypatch.setattr(lifshitz, "_rule_sums", recording)
    return seen


def _climbed(evaluations):
    """The mg of every term evaluated past its first rule."""
    return {mg for mg, n in evaluations.items() if n > 1}


def _low_t_batch(au):
    """mg and eps - 1 of terms m = 1..32, 430..461 and 600..631 of Au-Au at
    1 um and 1 K, eps - 1 as the one row of equal plates.

    The batch mixes both rule families: m <= 437 (m*gamma < 1.2) take the
    exp-sinh rule, and m >= 600 meet the Gauss-Laguerre test.  At quad_tol
    1e-13 the terms 438..461 just above the floor miss that test and climb
    the exp-sinh ladder.
    """
    th = ThermalState(1.0)
    ms = np.concatenate([np.arange(1, 33), np.arange(430, 462), np.arange(600, 632)])
    return ms * th.gamma(1e-6), au.eps(th.zeta(ms))[None] - 1.0


# gaps of the standard sweep (60 from 50 nm to 3 um) and of a 12-gap 1 K
# scan; at 81.27 nm, Al-Cu at 350 K has m = 5 at m*gamma = 0.39, where GL24
# is 19 times the tolerance 1e-10 off
_SWEEP_GAPS = gap_grid(5e-8, 3e-6, "log", 60)
_SCAN_GAPS = gap_grid(5e-8, 3e-6, "log", 12)
_AL_CU_GAP = _SWEEP_GAPS[7]


def _assert_terms_match_the_oracle(mat1, mat3, gap, T):
    """Every term m <= 64 and 40 more up to m_used of one cell is within 1e-11
    relative of the scalar oracle, in TM and in TE.  The oracle runs at
    tolerance 1e-13*min(1, |I|), |I| from a first call at 1e-13: at 1e-13 alone
    it is up to 8e-12 relative off on the small tail terms."""
    th = ThermalState(T)
    r = casimir_pressure(PlateSystem(mat1, mat3, gap=gap), th)
    prefactor = BOLTZMANN * th.T / (math.pi * gap**3)
    sample = np.unique(np.concatenate([np.arange(1, 65), np.geomspace(65, r.m_used, 40).astype(int)]))
    sample = sample[sample <= r.m_used]
    worst = 0.0
    for m in sample:
        zeta = th.zeta(int(m))
        d1, d3 = float(mat1.eps(zeta)) - 1.0, float(mat3.eps(zeta)) - 1.0
        tm, te = oracle_parts(int(m) * r.gamma, d1, d3=d3)
        tm, te = oracle_parts(int(m) * r.gamma, d1, tol=1e-13 * min(1.0, tm + te), d3=d3)
        worst = max(worst, abs(r.tm_terms[m] / prefactor / tm - 1.0))
        worst = max(worst, abs(r.te_terms[m] / prefactor / te - 1.0))
    assert worst <= 1e-11


class TestBatchedKernel:
    @pytest.mark.parametrize("gap", [5e-8, 1e-7, 2e-7, 5e-7, 1e-6, 3e-6])
    def test_terms_match_tight_adaptive_quadrature(self, au, gap):
        _assert_terms_match_the_oracle(au, au, gap, 1.0)

    @pytest.mark.parametrize(("gap", "T"), [(1e-7, 1.0), (_AL_CU_GAP, 350.0)])
    def test_two_plate_terms_match_tight_adaptive_quadrature(self, al, cu, gap, T):
        """Four of the six preset pairs take the kernel's two-factor path."""
        _assert_terms_match_the_oracle(al, cu, gap, T)

    def test_missed_estimate_meets_the_tolerance(self, au, evaluations):
        """A term that climbs the ladder is within the tolerance of the scalar
        adaptive loop run on the production kernel at 1e-15, in TM + TE, TM
        and TE."""
        mg, d = _low_t_batch(au)
        tol = 1e-13
        tm, te = _batch_parts(mg, d, tol)
        climbed = _climbed(evaluations)
        assert 0 < len(climbed) < len(mg)
        for i in range(len(mg)):
            if mg[i] in climbed:

                def f(y, i=i):
                    u, v = _mode_parts(np.array([y]), mg[i], d[:, i])
                    return float(u[0]), float(v[0])

                tm_o, te_o = adaptive_pair_quadrature(f, [mg[i], mg[i] + 10.0, mg[i] + 50.0], 1e-15)
                bound = max(tol, tol * (tm_o + te_o))
                assert abs((tm[i] + te[i]) - (tm_o + te_o)) <= bound
                assert abs(tm[i] - tm_o) <= bound
                assert abs(te[i] - te_o) <= bound
            else:
                assert tm[i] != 0.0 and te[i] != 0.0

    def test_refined_terms_match_the_adaptive_oracle(self, au, evaluations):
        mg, d = _low_t_batch(au)
        tol = 1e-13
        tm, te = _batch_parts(mg, d, tol)
        climbed = _climbed(evaluations)
        assert 0 < len(climbed) < len(mg)
        for i in range(len(mg)):
            if mg[i] in climbed:
                tm_o, te_o = oracle_parts(float(mg[i]), float(d[0, i]), tol=1e-15)
                bound = max(tol, tol * (tm_o + te_o))
                assert abs((tm[i] + te[i]) - (tm_o + te_o)) <= bound
                assert abs(tm[i] - tm_o) <= bound
                assert abs(te[i] - te_o) <= bound
            else:
                assert tm[i] != 0.0 and te[i] != 0.0

    def test_one_factor_path_gives_the_two_factor_bits(self, au, evaluations):
        mg, d = _low_t_batch(au)
        for tol in (1e-10, 1e-13, 1e-14):
            evaluations.clear()
            one = _batch_parts(mg, d, tol)
            assert bool(_climbed(evaluations)) == (tol < 1e-10)
            two = _batch_parts(mg, np.concatenate([d, d]), tol)
            assert np.array_equal(one[0], two[0])
            assert np.array_equal(one[1], two[1])

    @pytest.mark.parametrize(("T", "calls"), [(1.0, 18), (300.0, 4)])
    @pytest.mark.parametrize(("mat3", "factors"), [("au", 1), ("cu", 2)])
    def test_equal_plates_compute_one_reflection_factor(
        self, au, request, monkeypatch, mat3, factors, T, calls
    ):
        """Each kernel call forms one plate factor for equal plates and two otherwise."""
        counts = {"kernel": 0, "factor": 0}
        kernel_parts, factor = lifshitz._mode_parts, lifshitz._reflection_coefficients

        def counting_kernel(y, mg, d):
            counts["kernel"] += 1
            return kernel_parts(y, mg, d)

        def counting_factor(p, p2, d):
            counts["factor"] += 1
            return factor(p, p2, d)

        monkeypatch.setattr(lifshitz, "_mode_parts", counting_kernel)
        monkeypatch.setattr(lifshitz, "_reflection_coefficients", counting_factor)
        casimir_pressure(PlateSystem(au, request.getfixturevalue(mat3), gap=1e-6), ThermalState(T))
        assert counts == {"kernel": calls, "factor": factors * calls}

    def test_plate_swap_is_bit_identical_at_low_temperature(self, au, cu):
        th = ThermalState(1.0)
        fwd = casimir_pressure(PlateSystem(au, cu, gap=2e-7), th)
        rev = casimir_pressure(PlateSystem(cu, au, gap=2e-7), th)
        assert fwd.pressure == rev.pressure
        assert np.array_equal(fwd.tm_terms, rev.tm_terms)
        assert np.array_equal(fwd.te_terms, rev.te_terms)

    def test_most_terms_take_the_batched_path(self, au, evaluations):
        r = casimir_pressure(PlateSystem(au, au, gap=1e-6), ThermalState(1.0))
        assert len(_climbed(evaluations)) <= 0.1 * r.m_used

    @pytest.mark.parametrize(("tol", "per_term"), [(1e-10, 25), (1e-13, 30), (1e-14, 151)])
    def test_kernel_points_per_term(self, au, monkeypatch, tol, per_term):
        """Kernel points per summed term at 100 nm / 1 K.  At 1e-10 terms with
        m*gamma >= 1.2 meet the tolerance on their 24, 16 or 10
        Gauss-Laguerre points and the others on their 70 exp-sinh points
        (24.8); a term that misses climbs the exp-sinh ladder, at 70, 139 or
        277 points.  At 1e-13 the terms just above the floor do (29.9; 39.4
        on G7/K15 panels), and below 1e-13 every term starts from step 1/12
        (150.0; 173.9 on panels)."""
        points = [0]
        kernel_parts = lifshitz._mode_parts

        def counting(y, mg, d):
            points[0] += y.size
            return kernel_parts(y, mg, d)

        monkeypatch.setattr(lifshitz, "_mode_parts", counting)
        r = casimir_pressure(PlateSystem(au, au, gap=1e-7), ThermalState(1.0), SolverOptions(quad_tol=tol))
        assert points[0] < per_term * r.m_used

    def test_matches_single_term_evaluation(self, au):
        system = PlateSystem(au, au, gap=1e-6)
        th = ThermalState(300.0)
        r = casimir_pressure(system, th)
        prefactor = BOLTZMANN * th.T / (math.pi * 1e-6**3)
        for m in (1, 5, r.m_used):
            term = (r.tm_terms[m] + r.te_terms[m]) / prefactor
            assert term == pytest.approx(matsubara_term(m, system, th), rel=1e-14)


# the kernel counters of the anchor grid and of the standard sweep, echoed by
# conftest.py's terminal summary
COUNTER_LINES: list[str] = []
_ANCHOR_GAPS = (5e-8, 1e-7, 2e-7, 5e-7, 1e-6, 3e-6)


def _counting_kernel(monkeypatch) -> list[int]:
    """Wrap lifshitz._mode_parts to count its calls and points into the
    returned [calls, points]."""
    counts = [0, 0]
    kernel_parts = lifshitz._mode_parts

    def counting(y, mg, d):
        counts[0] += 1
        counts[1] += y.size
        return kernel_parts(y, mg, d)

    monkeypatch.setattr(lifshitz, "_mode_parts", counting)
    return counts


def test_anchor_grid_kernel_counters(au, monkeypatch):
    """Kernel calls and points per summed term of the 12 Au-Au anchor cells
    (50 nm-3 um at 1 K and 300 K), recorded before the check.  Each round of
    a cell makes one call for each rule its terms take, so the 300 K cells
    make 6, 5, 5, 4, 4 and 2 calls with three Gauss-Laguerre rules."""
    counts = _counting_kernel(monkeypatch)
    calls, per_term = {}, {}
    for T in (1.0, 300.0):
        for a in _ANCHOR_GAPS:
            counts[:] = [0, 0]
            r = casimir_pressure(PlateSystem(au, au, gap=a), ThermalState(T))
            calls[T, a], per_term[T, a] = counts[0], counts[1] / r.m_used
    line = "anchor kernel counters, Au-Au 50 nm-3 um: " + "; ".join(
        f"{T:g} K calls {', '.join(str(calls[T, a]) for a in _ANCHOR_GAPS)}, points per summed term "
        + ", ".join(f"{per_term[T, a]:.1f}" for a in _ANCHOR_GAPS)
        for T in (1.0, 300.0)
    )
    COUNTER_LINES.append(line)
    print(line)
    assert all(calls[300.0, a] <= bound for a, bound in zip(_ANCHOR_GAPS, (6, 5, 5, 4, 4, 2)))


def test_standard_sweep_kernel_counters(monkeypatch):
    """Kernel calls and points of the standard sweep (the six preset pairs,
    60 log-spaced gaps from 50 nm to 3 um, 300 K and 350 K) at jobs=1,
    recorded before the check: 720 cells of 39 424 summed terms take 117
    calls and 803 566 points."""
    counts = _counting_kernel(monkeypatch)
    pairs = tuple((material_preset(a), material_preset(b)) for a, b in PRESET_PAIRS)
    rows = sweep(SweepSpec(pairs=pairs, temperatures=(300.0, 350.0), gaps=tuple(_SWEEP_GAPS)), jobs=1)
    terms = sum(r.m_used for r in rows)
    line = (
        f"standard sweep kernel counters: {len(rows)} cells, {terms} terms summed, {counts[0]} kernel calls, "
        f"{counts[1]} kernel points ({counts[1] / terms:.1f} per summed term)"
    )
    COUNTER_LINES.append(line)
    print(line)
    assert counts[0] <= 117 and counts[1] <= 803_566


def _term_inputs(mat1, mat3, gap, T, ms):
    """mg and eps - 1 of the plates for the terms ms of one cell (one row for equal plates)."""
    th = ThermalState(T)
    ms = np.asarray(ms)
    zeta = th.zeta(ms)
    d1 = mat1.eps(zeta) - 1.0
    return ms * th.gamma(gap), d1[None] if mat3 == mat1 else np.stack([d1, mat3.eps(zeta) - 1.0])


def _panel_reference(mg, d, tol=1e-15):
    """TM + TE of each term by adaptive G7/K15 panels on the production
    kernel, at 1e-15 the reference for the solver's rules: 6 geometric panels
    on [mg, mg + 50] (the integrand has decayed by ~e^-100 at the top), with
    breaks mg*(1 + 50/mg)**(k/6), bisected by batched_pair_quadrature."""
    lo = mg[:, None]
    breaks = lo * (1.0 + 50.0 / lo) ** (np.arange(7) / 6)
    breaks[:, 0] = mg
    breaks[:, -1] = mg + 50.0
    e = d[:, :, None]
    tm, te = batched_pair_quadrature(lambda y, rows: _mode_parts(y, lo[rows], e[:, rows]), breaks, tol)
    return tm + te


# the Gauss-Laguerre ladder's rules and embedded rules, by band from the floor
_LADDER_RULES = (("_GL24", "_E17"), ("_GL16", "_E13"), ("_GL10", "_E9"))


class TestGaussLaguerrePass:
    def test_constants_match_laggauss(self):
        from numpy.polynomial.laguerre import laggauss

        for (_, t, w), (name, _) in zip(lifshitz._GL_LADDER, _LADDER_RULES, strict=True):
            baked = np.array(getattr(lifshitz, name))
            x, wx = laggauss(len(baked))
            np.testing.assert_allclose(baked[:, 0], x, rtol=1e-14, atol=0.0)
            # laggauss's weights carry up to about 2e-13 relative error
            np.testing.assert_allclose(baked[:, 1], wx * np.exp(x), rtol=1e-12, atol=0.0)
            assert np.array_equal(t[:, 0], baked[:, 0] / 2.0)
            assert np.array_equal(w[: len(baked), 0], baked[:, 1] / 2.0)

    def test_ladder_layout(self):
        """One row per band in ascending m*gamma from the floor: n points as a
        nodes-first column, then the rule's n weights and its embedded rule's k."""
        layout = [(lowest, t.shape, w.shape) for lowest, t, w in lifshitz._GL_LADDER]
        assert layout == [
            (lifshitz._GL_FLOOR, (24, 1), (41, 1)),
            (2.0, (16, 1), (29, 1)),
            (4.0, (10, 1), (19, 1)),
        ]
        assert lifshitz._GL_FLOOR == 1.2

    def test_embedded_weights_match_a_60_digit_moment_solve(self):
        """Each embedded rule's weights integrate x**j e^(-x) exactly for
        j < k on the first k nodes of its rule, recomputed from 60-digit roots
        of L_n, and all of them are positive."""
        mpmath = pytest.importorskip("mpmath")
        for (_, _, w), (name, embedded) in zip(lifshitz._GL_LADDER, _LADDER_RULES, strict=True):
            x = np.array(getattr(lifshitz, name))[:, 0]
            n, k = len(x), len(getattr(lifshitz, embedded))
            with mpmath.workdps(60):
                roots = [mpmath.findroot(lambda z, n=n: mpmath.laguerre(n, 0, z), mpmath.mpf(r)) for r in x[:k]]
                moments = mpmath.matrix([[r**j for r in roots] for j in range(k)])
                e = mpmath.lu_solve(moments, mpmath.matrix([mpmath.factorial(j) for j in range(k)]))
                scaled = [float(e[i] * mpmath.exp(r)) for i, r in enumerate(roots)]
                assert min(e) > 0, embedded
            assert [float(r) for r in roots] == x[:k].tolist(), name
            np.testing.assert_allclose(getattr(lifshitz, embedded), scaled, rtol=1e-15, atol=0.0)
            assert np.array_equal(w[n:, 0], np.array(getattr(lifshitz, embedded)) / 2.0)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_accepted_terms_meet_the_tolerance(self, au, cu, al, evaluations, tol):
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        # cells of a wider scan (8 pairs; 1, 300 and 350 K; 50 nm-3 um) where
        # GL16 and GL24 agreed on a wrong value below the floor: at m*gamma
        # 0.39 and 0.51 (1e-10), 0.63, 0.88 and 0.98 (1e-13), and where the worst
        # accepted term sits, just above the floor
        cells = [
            (al, cu, _AL_CU_GAP, 350.0, np.arange(1, 150)),
            (au, au, _SWEEP_GAPS[13], 300.0, np.arange(1, 80)),
            (plasma, plasma, 5e-7, 300.0, np.arange(1, 40)),
            (plasma, au, 1e-7, 350.0, np.arange(1, 100)),
            (plasma, plasma, _SCAN_GAPS[2], 1.0, np.arange(1490, 1520)),
            (al, al, _SCAN_GAPS[0], 1.0, np.arange(6350, 6400)),
            (au, au, _SCAN_GAPS[1], 1.0, np.arange(4930, 4950)),
            (al, al, _SCAN_GAPS[1], 1.0, np.arange(6000, 6400)),
        ]
        accepted = 0
        for mat1, mat3, gap, T, ms in cells:
            mg, d = _term_inputs(mat1, mat3, gap, T, ms)
            ref = _panel_reference(mg, d)
            evaluations.clear()
            tm, te = _batch_parts(mg, d, tol)
            gl = np.isin(mg, list(_climbed(evaluations)), invert=True) & (mg >= lifshitz._GL_FLOOR)
            bound = np.maximum(tol, tol * np.abs(ref[gl]))
            assert np.all(np.abs((tm + te)[gl] - ref[gl]) <= bound)
            accepted += gl.sum()
        assert accepted > 300

    def test_term_below_the_floor_takes_the_exp_sinh_rule(self, al, cu, monkeypatch, evaluations):
        mg, d = _term_inputs(al, cu, _AL_CU_GAP, 350.0, [5])
        assert mg[0] == pytest.approx(0.39, abs=0.005)
        ref = _panel_reference(mg, d)[0]
        bound = max(1e-10, 1e-10 * ref)
        evaluations.clear()
        tm, te = _batch_parts(mg, d, 1e-10)
        assert not _climbed(evaluations)
        assert abs(tm[0] + te[0] - ref) <= bound
        # GL24 is 19 times the tolerance off here; with GL24's band starting
        # at 0 instead of the floor, E17 sees it (|GL24 - E17| is 1.3 times
        # the tolerance) and the term climbs the exp-sinh ladder
        _, t, w = lifshitz._GL_LADDER[0]
        (u, v), (a, b) = lifshitz._rule_sums(t, w, 24, mg, d, _mode_parts)
        assert abs(u[0] + v[0] - ref) > 10 * bound
        assert abs((u[0] + v[0]) - (a[0] + b[0])) > bound
        monkeypatch.setattr(lifshitz, "_GL_LADDER", ((0.0, t, w), *lifshitz._GL_LADDER[1:]))
        evaluations.clear()
        tm, te = _batch_parts(mg, d, 1e-10)
        assert _climbed(evaluations) == set(mg.tolist())
        assert abs(tm[0] + te[0] - ref) <= bound

    def test_a_term_keeps_its_bits_in_any_batch(self, al, cu, evaluations):
        # four exp-sinh and four Gauss-Laguerre terms; at 1e-13 the two just
        # above the floor miss the Gauss-Laguerre test and climb the exp-sinh
        # ladder, and at 1e-14 every term climbs past step 1/12
        mg, d = _term_inputs(al, cu, 2e-7, 1.0, [1, 2, 3, 500, 2200, 2201, 5000, 9000])
        assert np.array_equal(mg < lifshitz._GL_FLOOR, np.arange(8) < 4)
        for tol, climbers in ((1e-10, set()), (1e-13, set(mg[4:6].tolist())), (1e-14, set(mg.tolist()))):
            evaluations.clear()
            tm, te = _batch_parts(mg, d, tol)
            assert _climbed(evaluations) == climbers
            for i in range(len(mg)):
                one = _batch_parts(mg[i : i + 1], d[:, i : i + 1], tol)
                assert (one[0][0], one[1][0]) == (tm[i], te[i])

    def test_tolerances_below_1e13_climb_the_exp_sinh_ladder(self, al, monkeypatch, evaluations):
        # the 753 terms of Al-Al at 72.5 nm and 1 K with m*gamma in [1.2, 1.35],
        # where the worst Gauss-Laguerre term of the floor scan sits
        gamma = ThermalState(1.0).gamma(_SCAN_GAPS[1])
        ms = np.arange(math.ceil(1.2 / gamma), math.floor(1.35 / gamma) + 1)
        mg, d = _term_inputs(al, al, _SCAN_GAPS[1], 1.0, ms)
        assert len(mg) == 753
        ref = _panel_reference(mg, d)
        bound = np.maximum(1e-14, 1e-14 * np.abs(ref))
        evaluations.clear()
        tm, te = _batch_parts(mg, d, 1e-14)
        assert _climbed(evaluations) == set(mg.tolist())
        assert np.all(np.abs(tm + te - ref) <= bound)  # 0.0056 of it
        # GL24 is up to 2 times the tolerance off on these terms at 1e-14;
        # with the Gauss-Laguerre rules allowed there, E17 sends every one of
        # them to the exp-sinh ladder, which meets the tolerance (0.21 of it,
        # under the squared test at step 1/12)
        _, t, w = lifshitz._GL_LADDER[0]
        (u, v), _ = lifshitz._rule_sums(t, w, 24, mg, d, _mode_parts)
        assert np.max(np.abs(u + v - ref) / bound) > 1.5
        monkeypatch.setattr(lifshitz, "_FIXED_MIN_TOL", 0.0)
        evaluations.clear()
        tm, te = _batch_parts(mg, d, 1e-14)
        assert _climbed(evaluations) == set(mg.tolist())
        assert np.all(np.abs(tm + te - ref) <= bound)

    def test_a_shorter_rule_below_its_band_climbs_the_exp_sinh_ladder(self, al, monkeypatch, evaluations):
        """Moved down to the floor, the ladder's shorter rules GL16 and GL10
        are up to 5.7 and 9 800 times the tolerance 1e-13 off on the 753
        Al-Al terms above; each embedded estimate sees it, and every term
        climbs the exp-sinh ladder.  At 1e-10, E9 would not see it: the band
        edges, not the estimates, keep GL10 where it is accurate."""
        gamma = ThermalState(1.0).gamma(_SCAN_GAPS[1])
        ms = np.arange(math.ceil(1.2 / gamma), math.floor(1.35 / gamma) + 1)
        mg, d = _term_inputs(al, al, _SCAN_GAPS[1], 1.0, ms)
        ref = _panel_reference(mg, d)
        bound = np.maximum(1e-13, 1e-13 * np.abs(ref))
        for _, t, w in lifshitz._GL_LADDER[1:]:
            (u, v), _ = lifshitz._rule_sums(t, w, len(t), mg, d, _mode_parts)
            assert np.max(np.abs(u + v - ref) / bound) > 5.0
            evaluations.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lifshitz, "_GL_LADDER", ((lifshitz._GL_FLOOR, t, w),))
                tm, te = _batch_parts(mg, d, 1e-13)
            assert _climbed(evaluations) == set(mg.tolist())
            assert np.all(np.abs(tm + te - ref) <= bound)


class TestExpSinhRule:
    """The fixed rule for the terms below the Gauss-Laguerre floor."""

    def test_nodes_and_weights_integrate_the_decay(self):
        t, w = lifshitz._DE_T[:, 0], lifshitz._DE_W[:, 0]
        assert len(t) == 70 and lifshitz._DE_EVEN == 35
        assert np.all(np.diff(t[:35]) > 0.0) and np.all(np.diff(t[35:]) > 0.0)
        for k, exact in ((0, 0.5), (1, 0.25), (2, 0.25)):  # int_0^inf t**k e^(-2t) dt
            f = t**k * np.exp(-2.0 * t)
            assert np.sum(w * f) == pytest.approx(exact, rel=1e-14)
            assert 2.0 * np.sum(w[:35] * f[:35]) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_accepted_terms_meet_the_tolerance(self, au, cu, al, evaluations, tol):
        plasma = Material("pl", DrudeParams(au.model.omega_p, 0.0))
        # every term below the floor of cells from a scan of 228 368 such terms
        # (8 pairs; 1, 300 and 350 K; 50 nm-3 um): the worst accepted term
        # (plasma-plasma, 3 um, 1 K, m = 1, m*gamma 0.008: 0.5 times the
        # tolerance at 1e-13), Al-Cu at 81.27 nm and 350 K, Cu-Cu at 321.5 nm
        # and 1 K, where Gauss-Laguerre is furthest off, and the cells where
        # the rule at step 1/8 accepts terms 2.5 times the tolerance off
        cells = [
            (plasma, plasma, _SCAN_GAPS[11], 1.0, (1, 146)),
            (plasma, au, _SCAN_GAPS[11], 1.0, (1, 146)),
            (al, cu, _AL_CU_GAP, 350.0, (1, 16)),
            (cu, cu, _SCAN_GAPS[5], 1.0, (1, 1361)),
            (al, al, _SCAN_GAPS[3], 1.0, (700, 830)),
            (au, au, _SWEEP_GAPS[18], 350.0, (1, 8)),
        ]
        accepted = total = 0
        for mat1, mat3, gap, T, (lo, hi) in cells:
            mg, d = _term_inputs(mat1, mat3, gap, T, np.arange(lo, hi))
            assert np.all(mg < lifshitz._GL_FLOOR)
            ref = _panel_reference(mg, d)
            evaluations.clear()
            tm, te = _batch_parts(mg, d, tol)
            rule = np.isin(mg, list(_climbed(evaluations)), invert=True)
            bound = np.maximum(tol, tol * np.abs(ref[rule]))
            assert np.all(np.abs((tm + te)[rule] - ref[rule]) <= bound)
            accepted += rule.sum()
            total += len(mg)
        assert total == 1802
        assert accepted >= 0.9 * total

    def test_a_missed_estimate_climbs_the_exp_sinh_ladder(self, al, cu, monkeypatch, evaluations):
        # step 1/12 tested by |S_12 - S_6| instead of its square, as below
        # quad_tol 1e-13: S_6 is far from 1e-10, so every term misses, climbs
        # to step 1/24 and meets the tolerance there
        mg, d = _term_inputs(al, cu, _AL_CU_GAP, 350.0, np.arange(1, 16))
        ref = _panel_reference(mg, d)
        monkeypatch.setattr(lifshitz, "_FIXED_MIN_TOL", 1e-9)
        evaluations.clear()
        tm, te = _batch_parts(mg, d, 1e-10)
        assert set(evaluations.values()) == {2}
        assert np.all(np.abs(tm + te - ref) <= np.maximum(1e-10, 1e-10 * ref))


# the validity map's grid: a term depends only on m*gamma and each plate's
# d = eps - 1, so these points cover every material's terms in that range
_MAP_MG = np.array([0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0, 10.0, 20.0])
_MAP_D = 10.0 ** np.arange(-8, 31)


@pytest.fixture(scope="module")
def validity_map():
    """(mg, d, reference) batches over _MAP_MG x every (d1, d3) from _MAP_D:
    equal plates as one row, unequal plates as two (10 920 terms)."""
    n, k = len(_MAP_D), len(_MAP_MG)
    i, j = np.triu_indices(n, k=1)
    equal = (np.repeat(_MAP_MG, n), np.tile(_MAP_D, k)[None])
    unequal = (np.repeat(_MAP_MG, len(i)), np.stack([np.tile(_MAP_D[i], k), np.tile(_MAP_D[j], k)]))
    return [(mg, d, _panel_reference(mg, d)) for mg, d in (equal, unequal)]


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_every_term_of_the_validity_map_meets_the_tolerance(validity_map, tol):
    """Gauss-Laguerre terms and exp-sinh terms, kept at their first rule or
    climbed, all within max(tol, tol*|I|) of the panels at 1e-15, unequal
    plates and d up to 1e30 included."""
    assert sum(mg.size for mg, _, _ in validity_map) == 10920
    for mg, d, ref in validity_map:
        tm, te = _batch_parts(mg, d, tol)
        assert np.all(np.abs(tm + te - ref) <= np.maximum(tol, tol * np.abs(ref)))


class TestTermBudget:
    """The direct sum refuses a cell that expects more than TERM_BUDGET terms,
    from the estimate alone: a kernel stub fails if any term is evaluated."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def stub_kernel(self, monkeypatch):
        def kernel(*args):
            raise self.Reached

        monkeypatch.setattr(lifshitz, "_mode_parts", kernel)

    @pytest.mark.parametrize(("gap", "T", "terms"), [(1e-7, 0.01, 3.8e6), (5e-8, 1e-3, 7.6e7)])
    @pytest.mark.parametrize("model", ["drude", "plasma"])
    def test_refuses_before_the_first_batch(self, au, stub_kernel, gap, T, terms, model):
        th = ThermalState(T)
        assert expected_terms(gap, th) == pytest.approx(terms, rel=0.01)
        plate = au if model == "drude" else Material("pl", DrudeParams(au.model.omega_p, 0.0))
        with pytest.raises(TermBudgetError, match="m_max"):
            casimir_pressure(PlateSystem(plate, plate, gap=gap), th)
        with pytest.raises(TermBudgetError):
            casimir_pressures(plate, plate, [gap, 1e-6], th)

    def test_admits_the_largest_anchor_cell(self, au, stub_kernel):
        th = ThermalState(1.0)
        assert expected_terms(5e-8, th) == 75533 < TERM_BUDGET  # it sums 38 458
        with pytest.raises(self.Reached):
            casimir_pressure(PlateSystem(au, au, gap=5e-8), th)

    def test_an_explicit_m_max_bounds_the_sum(self, au, stub_kernel):
        with pytest.raises(self.Reached):
            casimir_pressure(PlateSystem(au, au, gap=1e-7), ThermalState(0.01), SolverOptions(m_max=1000))

    def test_a_round_near_the_budget_stays_bounded(self, au, monkeypatch):
        """eps is evaluated once per 4 096-term round, and every kernel call
        holds at most _MAX_POINTS points: 256 terms of the exp-sinh rule.  The
        kernel stub makes every term zero, so the sum ends after its first
        round."""
        th = ThermalState(0.01)
        assert TERM_BUDGET / 2 < expected_terms(2e-7, th) < TERM_BUDGET
        terms, rows = [], []
        eps_minus_one = lifshitz._eps_minus_one

        def counting_eps(mat1, mat3, m, zeta):
            terms.append(len(m))
            return eps_minus_one(mat1, mat3, m, zeta)

        def zero_kernel(y, mg, d):  # its results come from _take, like the kernel's
            rows.append(y.shape[-1])
            tm, te = lifshitz._take(y.shape, y.shape)
            tm.fill(0.0)
            te.fill(0.0)
            return tm, te

        monkeypatch.setattr(lifshitz, "_eps_minus_one", counting_eps)
        monkeypatch.setattr(lifshitz, "_mode_parts", zero_kernel)
        r = casimir_pressure(PlateSystem(au, au, gap=2e-7), th)
        assert r.m_used == 3
        assert terms == [lifshitz._BATCH_CLAMP] == [4096]
        assert rows == [lifshitz._MAX_POINTS // 70] * 16 == [256] * 16


class TestCasimirPressures:
    @pytest.mark.parametrize(
        ("plates", "T", "gaps"),
        [
            # the first round holds more than 256 terms, so a gap's batch
            # straddles two kernel passes
            ("Au-Au", 300.0, (5e-8, 6e-8, 7e-8, 1e-7, 3e-7, 1e-6, 3e-6)),
            ("Au-Cu", 350.0, (5e-8, 2e-7, 1e-6)),
            ("Cu-Au", 350.0, (5e-8, 2e-7, 1e-6)),
            ("plasma", 300.0, (2e-7, 1e-6, 5e-6)),  # with the m = 0 TE term
            ("table-Au", 300.0, (5e-8, 2e-7, 1e-6)),
            ("Au-Au", 1.0, (1e-6, 3e-6)),
            ("Au-Au", 300.0, (1e-6, 5e-8, 3e-6, 2e-7, 1e-6)),  # unsorted, one gap twice
        ],
    )
    def test_batching_across_gaps_keeps_every_bit(self, au, cu, plates, T, gaps):
        knots = np.geomspace(5e14, 5e15, 8)
        materials = {
            "Au": au,
            "Cu": cu,
            "plasma": Material("pl", DrudeParams(au.model.omega_p, 0.0)),
            "table": make_table_material(zeta=knots, eps=au.eps(knots), fallback=au.model),
        }
        m1, m3 = (materials[n] for n in plates.split("-")) if "-" in plates else (materials[plates],) * 2
        th = ThermalState(T)
        batched = casimir_pressures(m1, m3, gaps, th)
        single = [casimir_pressure(PlateSystem(m1, m3, gap=a), th) for a in gaps]
        assert len(batched) == len(gaps)
        for b, s in zip(batched, single):
            assert b.pressure == s.pressure
            assert b.m_used == s.m_used
            assert (b.gamma, b.m_ceiling) == (s.gamma, s.m_ceiling)
            assert np.array_equal(b.tm_terms, s.tm_terms)
            assert np.array_equal(b.te_terms, s.te_terms)
        if plates == "plasma":
            assert all(r.te_terms[0] > 0.0 for r in batched)

    def test_no_gaps_give_no_results(self, au):
        assert casimir_pressures(au, au, [], ThermalState(300.0)) == []

    def test_expected_terms_is_the_truncation_target(self, au):
        th = ThermalState(300.0)
        r = casimir_pressure(PlateSystem(au, au, gap=1e-7), th)
        n = expected_terms(1e-7, th)
        assert n == math.ceil(math.log(1e9) / (2.0 * th.gamma(1e-7))) + 7
        assert r.m_used <= n <= r.m_ceiling


class TestBatchGrowth:
    """A gap's batches grow with its expected terms: a long sum runs in a few
    rounds, and a term's bits do not depend on its batch."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """The length of every batch of m handed to eps, one per round."""
        seen = []
        eps_minus_one = lifshitz._eps_minus_one

        def counting(mat1, mat3, m, zeta):
            seen.append(len(m))
            return eps_minus_one(mat1, mat3, m, zeta)

        monkeypatch.setattr(lifshitz, "_eps_minus_one", counting)
        return seen

    @pytest.mark.parametrize("gap", [5e-8, 1e-7, 2e-7, 5e-7, 1e-6, 3e-6])
    def test_growth_keeps_every_bit_and_bounds_the_waste(self, au, monkeypatch, rounds, gap):
        system, th = PlateSystem(au, au, gap=gap), ThermalState(1.0)
        grown = casimir_pressure(system, th)
        assert sum(rounds) - grown.m_used <= grown.m_used / 8
        with monkeypatch.context() as patch:
            patch.setattr(lifshitz, "_BATCH_CLAMP", 64)
            fixed = casimir_pressure(system, th)
        assert grown.pressure == fixed.pressure
        assert grown.m_used == fixed.m_used
        assert np.array_equal(grown.tm_terms, fixed.tm_terms)
        assert np.array_equal(grown.te_terms, fixed.te_terms)

    def test_rounds_at_100nm_and_1K(self, au, rounds):
        r = casimir_pressure(PlateSystem(au, au, gap=1e-7), ThermalState(1.0))
        assert r.m_used == 23472
        assert len(rounds) <= 20  # 367 with 64-term batches

    @pytest.mark.parametrize(("gap", "T"), [(5e-8, 300.0), (5e-6, 1.0)])
    def test_short_sums_keep_their_batches(self, au, monkeypatch, rounds, gap, T):
        th = ThermalState(T)
        assert expected_terms(gap, th) < 1024
        casimir_pressure(PlateSystem(au, au, gap=gap), th)
        grown = list(rounds)
        rounds.clear()
        monkeypatch.setattr(lifshitz, "_BATCH_CLAMP", 64)
        casimir_pressure(PlateSystem(au, au, gap=gap), th)
        assert grown == rounds
        assert max(grown) <= 64


class TestKernelBuffers:
    """The kernel's temporaries are reused between passes, one set per
    thread; what it returns is never one of them."""

    def test_concurrent_solves_give_the_sequential_bits(self, au, cu):
        """Four threads (two per cell, more than there are cores) solve two
        different cells at once and get the bits of solving them alone."""
        cells = [
            (PlateSystem(au, cu, gap=2e-7), ThermalState(1.0)),
            (PlateSystem(au, au, gap=1e-7), ThermalState(300.0)),
        ]
        alone = [casimir_pressure(*cell) for cell in cells]
        rounds = 3
        start = threading.Barrier(2 * len(cells))
        together = [[] for _ in range(2 * len(cells))]

        def solve(k):
            start.wait(timeout=60)
            together[k].extend(casimir_pressure(*cells[k % len(cells)]) for _ in range(rounds))

        threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(together))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, results in enumerate(together):
            a = alone[k % len(cells)]
            assert len(results) == rounds
            for r in results:
                assert r.pressure == a.pressure
                assert r.m_used == a.m_used
                assert np.array_equal(r.tm_terms, a.tm_terms)
                assert np.array_equal(r.te_terms, a.te_terms)

    @pytest.mark.parametrize("plates", [1, 2])
    def test_held_results_share_no_memory(self, au, cu, plates):
        mg, d = _term_inputs(au, au if plates == 1 else cu, 1e-7, 1.0, np.arange(1, 65))
        y = mg + np.geomspace(1e-3, 50.0, 70)[:, None]
        p = y / mg
        held = [
            *_mode_parts(y, mg, d),
            *_mode_parts(y + 1.0, mg, d),
            *_batch_parts(mg, d, 1e-10),
            *_batch_parts(mg * 2.0, d, 1e-10),
            *_reflection_coefficients(p, p * p, d[0]),
            *_reflection_coefficients(p, p * p, d[-1]),
        ]
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("plates", [1, 2])
    def test_a_warm_pass_allocates_under_three_pass_arrays(self, au, cu, evaluations, plates):
        """A 256-row exp-sinh pass holds 256 x 70 points.  Once the thread's
        buffers have grown to it, a pass allocates none of its temporaries
        afresh; what remains is about one array's worth of numpy's own
        iterator buffers.  With fresh temporaries a pass allocated 6.6 such
        arrays for one plate and 8.6 for two."""
        mg, d = _term_inputs(au, au if plates == 1 else cu, 1e-7, 1.0, np.arange(1, 257))
        assert mg.max() < lifshitz._GL_FLOOR
        _batch_parts(mg, d, 1e-10)
        assert not _climbed(evaluations)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _batch_parts(mg, d, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * 256 * 70 * 8

    @pytest.mark.parametrize("plates", [1, 2])
    def test_a_warm_ladder_pass_allocates_under_three_pass_arrays(self, au, cu, monkeypatch, evaluations, plates):
        """A pass of the shortest Gauss-Laguerre rule holds 1 792 terms of 10
        points: as many points as an exp-sinh pass, and as little allocated
        once warm."""
        gamma = ThermalState(1.0).gamma(1e-6)
        start = math.ceil(lifshitz._GL_LADDER[-1][0] / gamma)
        mg, d = _term_inputs(au, au if plates == 1 else cu, 1e-6, 1.0, np.arange(start, start + 1792))
        # from an empty stack: the spare buffers of earlier tests may be larger
        monkeypatch.setattr(lifshitz._spare, "buffers", [])
        passes = []
        kernel_parts = lifshitz._mode_parts

        def counting(y, mg, d):
            passes.append(y.shape)
            return kernel_parts(y, mg, d)

        monkeypatch.setattr(lifshitz, "_mode_parts", counting)
        _batch_parts(mg, d, 1e-10)
        assert not _climbed(evaluations)
        assert passes == [(10, 1792)] and 10 * 1792 == lifshitz._MAX_POINTS
        # the weighted (point, TM|TE, term) block is the largest temporary
        assert max(a.base.size for a in lifshitz._spare.buffers) == 2 * lifshitz._MAX_POINTS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _batch_parts(mg, d, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * 256 * 70 * 8


class TestScalingLaw:
    """P(la, T/l; w_p/l, nu/l) = l**-4 P(a, T; w_p, nu) for any l > 0.

    The pressure is hbar c / a**4 times a function of a k_B T / (hbar c),
    w_p a / c and nu a / c, and the solver picks its terms and rules from
    such dimensionless numbers, so the law holds to rounding with the same
    m_used.  It catches a wrong power of a, T or a frequency anywhere on the
    way to the pressure; it cannot catch a wrong constant value or a wrong
    integrand, which both sides share.
    """

    @pytest.mark.parametrize(
        ("names", "plasma"),
        [(("au", "au"), False), (("au", "au"), True), (("al", "cu"), False)],
        ids=["drude", "plasma", "unequal"],
    )
    @settings(deadline=None, derandomize=True, max_examples=12)
    @given(
        a=st.floats(min_value=5e-8, max_value=3e-6),
        T=st.floats(min_value=1.0, max_value=350.0),
        scale=st.floats(min_value=0.3, max_value=10.0),
    )
    def test_pressure_scales_as_the_inverse_fourth_power(self, names, plasma, a, T, scale):
        models = [material_preset(name).model for name in names]

        def plates(lam):
            nus = [0.0 if plasma else m.nu / lam for m in models]
            return [Material(n, DrudeParams(m.omega_p / lam, nu)) for n, m, nu in zip(names, models, nus)]

        base = casimir_pressure(PlateSystem(*plates(1.0), gap=a), ThermalState(T))
        scaled = casimir_pressure(PlateSystem(*plates(scale), gap=scale * a), ThermalState(T / scale))
        assert scaled.m_used == base.m_used
        assert scaled.pressure * scale**4 == pytest.approx(base.pressure, rel=1e-13, abs=0.0)


class TestIdealMetal:
    def test_reference_values(self):
        assert ideal_metal_pressure_T0(1e-6) == pytest.approx(IM_1UM, rel=1e-12)
        assert abs(ideal_metal_pressure_T0(1e-6)) == pytest.approx(1.30e-3, rel=5e-3)
        assert ideal_metal_pressure_T0(50e-9) == pytest.approx(IM_50NM, rel=1e-12)
        assert abs(ideal_metal_pressure_T0(50e-9)) == pytest.approx(208.0, rel=5e-3)

    def test_inverse_fourth_power_scaling(self):
        assert ideal_metal_pressure_T0(2e-6) == pytest.approx(
            ideal_metal_pressure_T0(1e-6) / 16.0, rel=1e-12
        )

    @pytest.mark.parametrize("gap", [0.0, -1e-6, math.nan])
    def test_rejects_bad_gap(self, gap):
        with pytest.raises(ValueError):
            ideal_metal_pressure_T0(gap)
