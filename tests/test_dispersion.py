"""Permittivity models, presets, and table ingestion."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates.dispersion import (
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
from conftest import make_table_material

AU_OMEGA_P = 1.3671e16
AU_NU = 5.3165e13


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {"Au", "Cu", "Al"}

    @pytest.mark.parametrize(
        "name,omega_p,nu",
        [
            ("Au", 1.3671e16, 5.3165e13),
            ("Cu", 1.374695e16, 4.557e13),
            ("Al", 1.74685e16, 7.595e13),
        ],
    )
    def test_parameters_in_rad_per_s(self, name, omega_p, nu):
        mat = material_preset(name)
        assert mat.name == name
        assert mat.model.omega_p == pytest.approx(omega_p, rel=1e-12)
        assert mat.model.nu == pytest.approx(nu, rel=1e-12)

    def test_lookup_is_case_insensitive(self):
        for variant in ("au", "AU", "Au", " au "):
            assert material_preset(variant).name == "Au"

    def test_unknown_name_lists_presets(self):
        with pytest.raises(KeyError, match="Au, Cu, Al"):
            material_preset("Ag")


class TestDrude:
    def test_value_at_plasma_frequency(self):
        # frozen from a 40-digit evaluation of the model formula
        eps = drude_eps(AU_OMEGA_P, DrudeParams(AU_OMEGA_P, AU_NU))
        assert eps == pytest.approx(1.9961261759822911, rel=1e-12)
        assert eps == pytest.approx(1.99613, abs=1e-5)

    def test_decreases_to_one_at_high_frequency(self):
        params = DrudeParams(AU_OMEGA_P, AU_NU)
        grid = np.geomspace(1e11, 1e20, 40)
        values = drude_eps(grid, params)
        assert np.all(np.diff(values) < 0.0)
        assert drude_eps(1e25, params) == pytest.approx(1.0, abs=1e-15)

    def test_diverges_at_low_frequency(self):
        assert drude_eps(1e6, DrudeParams(AU_OMEGA_P, AU_NU)) > 1e12

    def test_array_matches_scalar(self):
        params = DrudeParams(AU_OMEGA_P, AU_NU)
        grid = np.array([1e12, 1e14, 1e16])
        out = drude_eps(grid, params)
        assert isinstance(out, np.ndarray)
        for z, v in zip(grid, out):
            assert drude_eps(float(z), params) == v
        assert drude_eps(np.array([]), params).size == 0

    @pytest.mark.parametrize(
        "zeta", [0.0, -1e12, math.nan, math.inf, np.array([1e12, 1e13, -1e12, 1e14, 1e15])]
    )
    def test_rejects_nonpositive_zeta(self, zeta):
        with pytest.raises(ValueError):
            drude_eps(zeta, DrudeParams(AU_OMEGA_P, AU_NU))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DrudeParams(omega_p=AU_OMEGA_P, nu=-AU_NU)
        with pytest.raises(ValueError):
            DrudeParams(omega_p=0.0, nu=AU_NU)
        with pytest.raises(ValueError):
            DrudeParams(omega_p=math.nan, nu=AU_NU)


class TestPlasma:
    def test_value_at_plasma_frequency_is_two(self):
        assert drude_eps(AU_OMEGA_P, DrudeParams(AU_OMEGA_P, 0.0)) == 2.0

    def test_reference_value(self):
        eps = drude_eps(1e14, DrudeParams(AU_OMEGA_P, 0.0))
        assert eps == pytest.approx(18690.6241, rel=1e-9)
        assert eps == pytest.approx(1.8690e4, rel=1e-3)

    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(ValueError):
            drude_eps(0.0, DrudeParams(AU_OMEGA_P, 0.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DrudeParams(omega_p=-1.0, nu=0.0)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        st.floats(min_value=1e14, max_value=1e17, allow_nan=False),
        st.floats(min_value=1e10, max_value=1e15, allow_nan=False),
        st.floats(min_value=1e10, max_value=1e18, allow_nan=False),
    )
    def test_always_above_drude_for_equal_omega_p(self, omega_p, nu, zeta):
        p = drude_eps(zeta, DrudeParams(omega_p, 0.0))
        d = drude_eps(zeta, DrudeParams(omega_p, nu))
        assert p > d > 1.0

    def test_models_agree_above_hundred_relaxation_times(self):
        params_d = DrudeParams(AU_OMEGA_P, AU_NU)
        params_p = DrudeParams(AU_OMEGA_P, 0.0)
        for zeta in (100.0 * AU_NU, 300.0 * AU_NU, 1e17):
            d = drude_eps(zeta, params_d)
            p = drude_eps(zeta, params_p)
            assert (p - d) / d < 0.05


class TestTabulated:
    def test_exact_at_knots(self):
        table = PermittivityTable(
            zeta=np.array([1e12, 1e13, 1e15]), eps=np.array([1e5, 1e3, 2.0])
        )
        for z, e in zip(table.zeta, table.eps):
            assert tabulated_eps(float(z), table) == pytest.approx(float(e), rel=1e-14)

    def test_log_log_midpoint(self):
        """Knots one decade apart in eps - 1 interpolate to the geometric mean."""
        table = PermittivityTable(
            zeta=np.array([1e12, 1e14]), eps=np.array([1000001.0, 101.0])
        )
        assert tabulated_eps(1e13, table) == pytest.approx(10001.0, rel=1e-12)

    def test_matches_brute_force_log_interpolation(self):
        table = PermittivityTable(zeta=np.array([1e12, 1e14]), eps=np.array([1e6, 1e2]))
        expected = 1.0 + math.exp(
            0.5 * (math.log(1e6 - 1.0) + math.log(1e2 - 1.0))
        )
        value = tabulated_eps(1e13, table)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(9950.8693961277703, rel=1e-12)

    def test_out_of_range_errors_name_the_bound(self):
        table = PermittivityTable(zeta=np.array([1e12, 1e18]), eps=np.array([1e6, 1.5]))
        with pytest.raises(TableRangeError, match="below the table minimum"):
            tabulated_eps(1e11, table)
        with pytest.raises(TableRangeError, match="above the table maximum"):
            tabulated_eps(1e19, table)
        with pytest.raises(TableRangeError, match="zeta = 1e\\+19 rad/s") as err:
            tabulated_eps(np.array([1e13, 1e19]), table)
        assert err.value.index == 1
        # the first out-of-range query is named, whichever bound it violates
        with pytest.raises(TableRangeError, match="zeta = 1e\\+20 rad/s is above") as err:
            tabulated_eps(np.array([1e13, 1e20, 1e11, 1e19]), table)
        assert err.value.index == 1

    def test_fallback_covers_out_of_range_queries(self):
        fb = DrudeParams(AU_OMEGA_P, AU_NU)
        table = PermittivityTable(
            zeta=np.array([1e13, 1e15]), eps=np.array([100.0, 2.0]), fallback=fb
        )
        assert tabulated_eps(1e12, table) == drude_eps(1e12, fb)
        assert tabulated_eps(1e16, table) == drude_eps(1e16, fb)
        # in-range queries still come from the table, not the fallback
        assert tabulated_eps(1e13, table) == pytest.approx(100.0, rel=1e-14)
        mixed = tabulated_eps(np.array([1e12, 1e13, 1e16]), table)
        assert mixed[0] == drude_eps(1e12, fb)
        assert mixed[1] == pytest.approx(100.0, rel=1e-14)

    def test_reproduces_drude_law_at_twenty_points_per_decade(self):
        """Log-log sampling keeps relative interpolation error below 0.5%."""
        params = DrudeParams(AU_OMEGA_P, AU_NU)
        knots = np.geomspace(1e13, 1e17, 81)
        table = PermittivityTable(zeta=knots, eps=drude_eps(knots, params))
        rng = np.random.default_rng(1234)
        queries = 10.0 ** rng.uniform(13.0, 17.0, size=200)
        exact = drude_eps(queries, params)
        interp = tabulated_eps(queries, table)
        assert np.max(np.abs(interp - exact) / exact) < 5e-3

    def test_table_validation(self):
        with pytest.raises(TableError, match="at least 2"):
            PermittivityTable(zeta=np.array([1e12]), eps=np.array([2.0]))
        with pytest.raises(TableError, match="strictly increasing"):
            PermittivityTable(zeta=np.array([1e13, 1e12]), eps=np.array([2.0, 2.0]))
        with pytest.raises(TableError, match="finite and > 0"):
            PermittivityTable(zeta=np.array([0.0, 1e12]), eps=np.array([2.0, 2.0]))
        with pytest.raises(TableError, match="> 1"):
            PermittivityTable(zeta=np.array([1e12, 1e13]), eps=np.array([1.0, 2.0]))
        with pytest.raises(TableError):
            PermittivityTable(zeta=np.array([[1e12, 1e13]]), eps=np.array([[2.0, 2.0]]))


VALID_CSV = b"zeta_rad_per_s,eps\n1e12,1e6\n1e14,1e3\n1e16,2.0\n"


class TestLoader:
    def test_happy_path(self):
        table = load_permittivity_table(VALID_CSV)
        assert table.zeta.size == 3
        assert table.zeta_min == 1e12
        assert table.zeta_max == 1e16
        assert table.fallback is None

    def test_accepts_path_and_bytes(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_bytes(VALID_CSV)
        from_path = load_permittivity_table(path)
        from_bytes = load_permittivity_table(VALID_CSV)
        assert np.array_equal(from_path.zeta, from_bytes.zeta)
        assert np.array_equal(from_path.eps, from_bytes.eps)
        assert np.array_equal(load_permittivity_table(str(path)).eps, from_bytes.eps)
        with pytest.raises(TypeError):
            load_permittivity_table(io.BytesIO(VALID_CSV))

    def test_accepts_crlf_bom_comments_and_blanks(self):
        raw = b"\xef\xbb\xbf# source: bench run\r\n\r\nzeta_rad_per_s,eps\r\n1e12,1e6\r\n# midpoint\r\n1e14,1e3\r\n"
        table = load_permittivity_table(raw)
        assert table.zeta.size == 2

    def test_missing_header(self):
        with pytest.raises(TableError, match="header"):
            load_permittivity_table(b"1e12,1e6\n1e14,1e3\n")
        with pytest.raises(TableError, match="header"):
            load_permittivity_table(b"# only comments\n")

    def test_malformed_rows_cite_line_numbers(self):
        with pytest.raises(TableError, match="line 3"):
            load_permittivity_table(b"zeta_rad_per_s,eps\n1e12,1e6\nnot_a_number,2\n")
        with pytest.raises(TableError, match="line 2"):
            load_permittivity_table(b"zeta_rad_per_s,eps\n1e12,1e6,extra\n1e14,2\n")

    def test_decreasing_zeta_cites_the_offending_row(self):
        raw = b"zeta_rad_per_s,eps\n1e12,1e6\n1e14,1e3\n1e13,1e2\n"
        with pytest.raises(TableError, match="row 3"):
            load_permittivity_table(raw)

    def test_eps_at_or_below_one_rejected(self):
        with pytest.raises(TableError, match="> 1"):
            load_permittivity_table(b"zeta_rad_per_s,eps\n1e12,0.5\n1e14,2\n")

    def test_too_few_rows(self):
        with pytest.raises(TableError, match="at least 2"):
            load_permittivity_table(b"zeta_rad_per_s,eps\n1e12,1e6\n")

    def test_invalid_utf8(self):
        with pytest.raises(TableError, match="UTF-8"):
            load_permittivity_table(b"\xff\xfe\x00bad")

    def test_fallback_is_attached(self):
        fb = DrudeParams(AU_OMEGA_P, AU_NU)
        table = load_permittivity_table(VALID_CSV, fallback=fb)
        assert table.fallback is fb


class TestMaterial:
    def test_metallic_flags(self):
        """Each model's zero-frequency answer (r_TM, omega_TE)."""
        assert material_preset("au").zero_frequency() == (1.0, 0.0)
        assert Material("pl", DrudeParams(AU_OMEGA_P, 0.0)).zero_frequency() == (1.0, AU_OMEGA_P)
        r_tm, omega_te = make_table_material().zero_frequency()
        assert r_tm < 1.0 and omega_te == 0.0
        assert make_table_material(fallback=DrudeParams(AU_OMEGA_P, AU_NU)).zero_frequency() == (1.0, 0.0)
        # a table answers as its fallback: plasma (nu = 0) keeps its static TE mode
        assert make_table_material(fallback=DrudeParams(AU_OMEGA_P, 0.0)).zero_frequency() == (1.0, AU_OMEGA_P)

    def test_eps_dispatch_matches_model_functions(self):
        drude = material_preset("au")
        assert drude.eps(1e14) == drude_eps(1e14, drude.model)
        plasma = Material("pl", DrudeParams(AU_OMEGA_P, 0.0))
        assert plasma.eps(1e14) == drude_eps(1e14, plasma.model)
        tab = make_table_material()
        assert tab.eps(1e13) == tabulated_eps(1e13, tab.model)

    def test_static_reflection(self):
        assert material_preset("au").zero_frequency()[0] == 1.0
        tab = make_table_material(zeta=(1e12, 1e14), eps=(3.0, 2.0))
        # (e - 1)/(e + 1) with e = 3 at the lowest knot
        assert tab.zero_frequency()[0] == pytest.approx(0.5, rel=1e-14)

    def test_rising_table_eps_rejected(self):
        with pytest.raises(TableError, match="row 2"):
            make_table_material(zeta=(1e12, 1e14), eps=(2.0, 3.0))
        # the table itself, however it is built, rejects the same data
        with pytest.raises(TableError, match="non-increasing.*row 2"):
            PermittivityTable(zeta=np.array([1e12, 1e14]), eps=np.array([2.0, 3.0]))
        with pytest.raises(TableError, match="non-increasing.*row 3"):
            load_permittivity_table(b"zeta_rad_per_s,eps\n1e12,1e6\n1e13,1e4\n1e14,2e4\n")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Material("", DrudeParams(AU_OMEGA_P, AU_NU))
        with pytest.raises(TypeError):
            Material("x", object())

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.floats(min_value=1e11, max_value=1e18, allow_nan=False))
    def test_preset_eps_always_exceeds_one(self, zeta):
        for name in preset_names():
            assert material_preset(name).eps(zeta) > 1.0
