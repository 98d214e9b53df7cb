import csv
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import spinvdw
from spinvdw import baseline, cli, configurations, oracle, spectral
from spinvdw.cli import (AXIS_KEYS, CSV_COLUMNS, DEFAULT_SEPARATION, PRESETS, ConfigError,
                         SweepResult, SweepSpec, _default_pair, _fmt, _run_checks, emit, main,
                         parse_config, read_csv_rows, run_preset, run_sweep)
from spinvdw.configurations import Arrangement, energy
from spinvdw.response import MaterialModel, SpinningSphere, bst, resonance_frequency
from spinvdw.spectral import ConvergenceError, PairContext


def spec_to_config(spec, ctx, rule):
    """Flat-key config dict that re-parses to the same spec and context (round trip).

    ``rule`` holds the ``sweep.omega_b_*`` keys that gave the spec's
    Omega_B; its rows must keep the grid's Omega_A (a fixed or ratio rule).
    """
    ma, mb = ctx.sphere_a.material, ctx.sphere_b.material
    cfg = {
        "material.f0": ma.f0,
        "material.omega_tilde0_rad_s": ma.omega_tilde0,
        "material.gamma0_rad_s": ma.gamma0,
        "geometry.radius_a_m": ctx.sphere_a.radius,
        "geometry.radius_b_m": ctx.sphere_b.radius,
        "geometry.separation_m": ctx.separation,
        "temperature_K": ctx.sphere_a.temperature,
        "arrangement": spec.arrangement,
        "sweep.omega_a_grid_rad_s": list(spec.omega_a),
        **rule,
        "quadrature.rel_tol": spec.rel_tol,
        "output.path": spec.out_path,
        "output.format": spec.out_format,
    }
    if mb != ma:
        cfg.update({"material_b.f0": mb.f0,
                    "material_b.omega_tilde0_rad_s": mb.omega_tilde0,
                    "material_b.gamma0_rad_s": mb.gamma0})
    if spec.arrangement == "general":
        cfg.update({"arrangement.axis_a": list(spec.axes[0]),
                    "arrangement.axis_b": list(spec.axes[1]),
                    "arrangement.rhat": list(spec.axes[2])})
    return cfg


class TestParseConfig:
    def test_empty_config_is_default_geometry(self):
        spec, ctx = parse_config(None)
        assert ctx.sphere_a.radius == ctx.sphere_b.radius == 60e-9
        assert ctx.separation == 180e-9
        assert ctx.sphere_a.temperature == ctx.sphere_b.temperature == 300.0
        assert ctx == _default_pair()
        assert spec.arrangement == "rr"
        assert ctx.sphere_a.material.f0 == 12.2
        assert ctx.sphere_a.material.omega_tilde0 == 5.7e9
        assert ctx.sphere_a.material.gamma0 == 2.8e8
        assert len(spec.omega_a) == 200 and spec.omega_b == (0.0,) * 200

    def test_undamped_material_is_config_error(self):
        # gamma0 = 0 puts the poles of alpha on the real axis
        with pytest.raises(ConfigError, match="oracle"):
            parse_config({"material.gamma0_rad_s": 0.0})

    def test_round_trip(self, tmp_path):
        rule = {"sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.5}
        spec, ctx = parse_config({"temperature_K": 1500.0,
                                  "arrangement": "uu", **rule,
                                  "sweep.omega_a_count": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_to_config(spec, ctx, rule)))
        spec2, ctx2 = parse_config(str(path))
        assert spec2 == spec
        assert ctx2 == ctx

    def test_partial_material_b_defaults_to_material(self):
        # material_b.* keys left out take sphere A's values, not BST's
        _, ctx = parse_config({"material.f0": 8.0,
                               "material.omega_tilde0_rad_s": 6.5e9,
                               "material_b.gamma0_rad_s": 1e8})
        mat_b = ctx.sphere_b.material
        assert (mat_b.f0, mat_b.omega_tilde0, mat_b.gamma0) == (8.0, 6.5e9, 1e8)
        assert ctx.sphere_a.material.gamma0 == 2.8e8

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError, match="ratio"):
            parse_config({"sweep.omega_b_rule": "ratio",
                          "sweep.omega_b_ratio": -2.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="omega_tildeO"):
            parse_config({"material.omega_tildeO_rad_s": 1.0})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="temperature_K"):
            parse_config({"temperature_K": "warm"})

    def test_non_numeric_rate_names_grid(self):
        with pytest.raises(ConfigError,
                           match="^sweep.omega_a_grid_rad_s: must be a number, got 'fast'$"):
            parse_config({"sweep.omega_a_grid_rad_s": [1.0e10, "fast"]})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fixed_rate_names_key(self, value):
        with pytest.raises(ConfigError, match="sweep.omega_b_value_rad_s: non-finite"):
            parse_config({"sweep.omega_b_value_rad_s": value})

    @pytest.mark.parametrize("key", ["arrangement", "sweep.omega_b_rule", "output.path",
                                     "output.format"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_text_key_must_be_a_string(self, key, value):
        # str() of any JSON value once passed: a null path wrote a file "None"
        with pytest.raises(ConfigError, match=f"^{key}: must be a string, got {value}$"):
            parse_config({key: value})

    def test_null_output_path_is_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep.omega_a_count": 2, "output.path": null}')
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "sweep"]) == 2
        assert capsys.readouterr().err == (
            "config error: output.path: must be a string, got None\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
    def test_count_must_be_an_integer(self, value):
        # int() once cut 2.7 to 2 rates and read true as 1
        with pytest.raises(ConfigError,
                           match=f"^sweep.omega_a_count: must be an integer, got {value!r}$"):
            parse_config({"sweep.omega_a_count": value})

    @pytest.mark.parametrize("value", ["300", True])
    @pytest.mark.parametrize("key", [
        "material.f0", "material.omega_tilde0_rad_s", "material.gamma0_rad_s",
        "material_b.f0", "material_b.omega_tilde0_rad_s", "material_b.gamma0_rad_s",
        "geometry.radius_a_m", "geometry.radius_b_m", "geometry.separation_m",
        "temperature_K", "sweep.omega_a_start_over_omega0", "sweep.omega_a_stop_over_omega0",
        "sweep.omega_b_value_rad_s", "sweep.omega_b_ratio", "quadrature.rel_tol"])
    def test_number_key_must_be_a_number(self, key, value):
        # float() once read "300" as 300 K and true as 1
        with pytest.raises(ConfigError, match=f"^{key}: must be a number, got {value!r}$"):
            parse_config({key: value})

    def test_json_non_finite_numbers_stay_numbers(self):
        # NaN and Infinity are numbers, judged by the checks of their keys
        assert parse_config({"quadrature.rel_tol": math.inf})[0].rel_tol == math.inf
        with pytest.raises(ConfigError, match="^temperature must be >= 0, got nan$"):
            parse_config({"temperature_K": math.nan})

    @pytest.mark.parametrize("key", ["sweep.omega_a_grid_rad_s", "sweep.omega_b_grid_rad_s"])
    @pytest.mark.parametrize("value, message", [("12", "must be an array, got '12'"),
                                                ([True, 2e9], "must be a number, got True")],
                             ids=["text", "bool"])
    def test_rate_list_must_be_an_array_of_numbers(self, key, value, message):
        # "12" once gave the rates (1.0, 2.0), and true a rate of 1 rad/s
        with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}$"):
            parse_config({key: value})

    @pytest.mark.parametrize("rule", ["fixed", "ratio", "grid"])
    def test_every_rule_key_is_checked_whatever_the_rule(self, rule):
        # the keys of the rules that a sweep does not take are checked too
        config = {"sweep.omega_b_rule": rule, "sweep.omega_b_grid_rad_s": [1e9]}
        for key, value, message in [
                ("sweep.omega_b_value_rad_s", math.nan, "non-finite value nan"),
                ("sweep.omega_b_ratio", "fast", "must be a number, got 'fast'"),
                ("sweep.omega_b_grid_rad_s", [math.nan], "non-finite value"),
                ("sweep.omega_b_grid_rad_s", ["fast"], "must be a number, got 'fast'")]:
            with pytest.raises(ConfigError, match=f"^{key}: {message}"):
                parse_config({**config, key: value})
        parse_config(config)

    def test_empty_grids_name_their_keys(self):
        with pytest.raises(ConfigError, match="^sweep.omega_a_grid_rad_s: empty grid$"):
            parse_config({"sweep.omega_a_grid_rad_s": []})
        with pytest.raises(ConfigError, match="^sweep.omega_b_grid_rad_s: empty grid$"):
            parse_config({"sweep.omega_b_rule": "grid"})
        with pytest.raises(ConfigError, match="^sweep.omega_b_rule: unknown value 'fast'$"):
            parse_config({"sweep.omega_b_rule": "fast"})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_grid_in_rad_s(self, w0):
        spec, _ = parse_config({"sweep.omega_a_grid_rad_s": [0.0, w0, 2 * w0]})
        assert spec.omega_a == (0.0, w0, 2 * w0)
        assert spec.omega_b == (0.0, 0.0, 0.0)

    def test_general_arrangement_sweep(self, w0):
        # general axes through the config drive the tensor-contraction path
        spec, ctx = parse_config({
            "arrangement": "general",
            "arrangement.axis_a": [0.0, 0.0, 1.0],
            "arrangement.axis_b": [0.0, 0.0, 1.0],
            "arrangement.rhat": [1.0, 0.0, 0.0],
            "sweep.omega_a_grid_rad_s": [0.7 * w0],
            "quadrature.rel_tol": 1e-7})
        result = run_sweep(spec, ctx)
        assert not result.rows[0]["error"]
        from spinvdw.configurations import Arrangement, energy
        want = energy(ctx, Arrangement("uu"), 0.7 * w0, 0.0, 1e-7)
        assert result.rows[0]["E_J"] == pytest.approx(want, rel=1e-6)

    def test_general_arrangement_needs_axes(self):
        with pytest.raises(ConfigError, match="axis"):
            parse_config({"arrangement": "general"})
        for key in AXIS_KEYS:
            config = {k: v for k, v in GENERAL_AXES.items() if k != key}
            with pytest.raises(ConfigError, match=f"^general arrangement needs {key}$"):
                parse_config(config)

    @pytest.mark.parametrize("key", ["arrangement.axis_a", "arrangement.rhat"])
    @pytest.mark.parametrize("value", [[1, 0], [1, 1, 0], "abc", 5, [math.nan, 0, 0],
                                       "001", [True, 0, 0]],
                             ids=["two", "not_unit", "text", "number", "nan", "digits", "bool"])
    def test_malformed_general_axis_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a unit 3-vector, got "):
            parse_config({**GENERAL_AXES, key: value})
        # a library caller's spec gets the same error
        axes = [value if k == key else GENERAL_AXES[k] for k in AXIS_KEYS]
        with pytest.raises(ConfigError, match=f"^{key} must be a unit 3-vector, got "):
            SweepSpec(arrangement="general", omega_a=(0.0,), omega_b=(0.0,), axes=tuple(axes))

    # a value of the wrong JSON type for each cast of the key table
    WRONG = {cli._number: ("300", "must be a number, got '300'"),
             cli._text: (5, "must be a string, got 5"),
             cli._array: ("12", "must be an array, got '12'"),
             cli._count: (2.5, "must be an integer, got 2.5")}

    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_every_key_rejects_the_wrong_type_used_or_not(self, key):
        # a grid leaves the Omega_A range keys unused, the fixed rule the
        # ratio and grid of Omega_B, and an rr arrangement the axes; each
        # key is still cast, and named
        value, message = self.WRONG[cli._KEYS[key]]
        for base in ({}, {"sweep.omega_a_grid_rad_s": [1e10], "arrangement": "rr",
                          "sweep.omega_b_rule": "fixed"}):
            with pytest.raises(ConfigError, match=f"^{key}: {re.escape(message)}$"):
                parse_config({**base, key: value})

    def test_range_keys_are_checked_beside_a_grid(self):
        grid = {"sweep.omega_a_grid_rad_s": [1e10]}
        with pytest.raises(ConfigError, match="^sweep.omega_a_start_over_omega0: must be a "
                                              "number, got 'x'$"):
            parse_config({**grid, "sweep.omega_a_start_over_omega0": "x",
                          "sweep.omega_a_count": 2.5})
        # the grid gives the rates, and the range keys' own values are not judged
        spec, _ = parse_config({**grid, "sweep.omega_a_count": 0,
                                "sweep.omega_a_stop_over_omega0": math.nan})
        assert spec.omega_a == (1e10,)


class TestSweepSpec:
    """The spec checks its own fields, for library callers as for configs."""

    AXES = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("axes, key", [((), "arrangement.axis_a"),
                                           (AXES[:2], "arrangement.rhat"),
                                           ((AXES[0], None, AXES[2]), "arrangement.axis_b")],
                             ids=["none", "no_rhat", "no_axis_b"])
    def test_general_without_an_axis_is_config_error(self, axes, key):
        with pytest.raises(ConfigError, match=f"^general arrangement needs {key}$"):
            SweepSpec(arrangement="general", omega_a=(0.0,), omega_b=(0.0,), axes=axes)

    def test_more_than_three_axes_is_config_error(self):
        with pytest.raises(ConfigError, match="^axes: "):
            SweepSpec(arrangement="general", omega_a=(0.0,), omega_b=(0.0,),
                      axes=self.AXES * 2)

    @pytest.mark.parametrize("name", ["omega_a", "omega_b"])
    def test_rates_become_float_tuples(self, name):
        # an ndarray of rates converts as its list does; nested, 0-d,
        # complex, non-numeric or non-finite rates are a ConfigError naming
        # their field, and so are strings and bools, which float() once read
        # ("12" as the rates 1.0 and 2.0, true as 1 rad/s)
        other = "omega_b" if name == "omega_a" else "omega_a"
        for rates in (np.linspace(0.0, 1.0, 3), np.arange(3), np.float32([0.1, 0.2]),
                      [0, 0.5, np.float64(1.0), np.int64(2), np.float32(0.5)]):
            got = getattr(SweepSpec(**{name: rates, other: [0.0] * len(rates)}), name)
            assert got == tuple(float(v) for v in np.asarray(rates).tolist())
            assert all(type(v) is float for v in got)
        for rates in ([1.0e10, "fast"], [[1.0, 2.0]], np.array([[1.0], [2.0]]), np.array(5.0),
                      5.0, np.array([1.0 + 0.0j]), [0.0, math.nan], np.array([0.0, -math.inf]),
                      "12", [True, 2e9], np.array([True, False])):
            with pytest.raises(ConfigError, match=f"^{name}: "):
                SweepSpec(**{name: rates, other: (0.0,)})

    def test_rates_are_one_non_empty_length(self):
        with pytest.raises(ConfigError, match="^omega_a: no rates$"):
            SweepSpec()
        with pytest.raises(ConfigError, match="^omega_b: 1 rates for 2 of omega_a$"):
            SweepSpec(omega_a=(0.0, 1.0), omega_b=(0.0,))

    def test_general_axes_are_float_tuples(self):
        spec = SweepSpec(arrangement="general", omega_a=(0.0,), omega_b=(0.0,),
                         axes=([0, 0, 1], [0, 0, 1], [1, 0, 0]))
        assert spec.axes == self.AXES
        assert all(type(c) is float for axis in spec.axes for c in axis)
        config = {"arrangement": "general", "sweep.omega_a_grid_rad_s": [0.0],
                  **dict(zip(AXIS_KEYS, ([0, 0, 1], [0, 0, 1], [1, 0, 0])))}
        assert parse_config(config)[0] == spec

    def test_replace_checks_the_new_spec(self):
        spec = SweepSpec(omega_a=(1e10,), omega_b=(0.0,))
        with pytest.raises(ConfigError, match="^arrangement: unknown value 'xx'$"):
            spec.replace(arrangement="xx")
        new = spec.replace(omega_a=np.array([1e10, 2e10]), omega_b=[np.float64(0.5), 1])
        assert (new.omega_a, new.omega_b) == ((1e10, 2e10), (0.5, 1.0))
        assert all(type(v) is float for v in new.omega_a + new.omega_b)
        assert new.replace(omega_a=(1e10,), omega_b=(0.0,)) == spec
        assert spec.omega_a == (1e10,)
        with pytest.raises(TypeError):
            spec.replace(colour="red")


class TestValueClasses:
    """The frozen value classes compare, hash and print by their fields, which are read-only."""

    # each class: a maker of new instances with equal fields, and one that differs
    CASES = {
        "MaterialModel": (lambda: MaterialModel(12.2, 5.7e9, 2.8e8),
                          MaterialModel(12.2, 5.7e9, 2.9e8)),
        "SpinningSphere": (lambda: SpinningSphere(60e-9, bst()),
                           SpinningSphere(60e-9, bst(), 0.0)),
        "PairContext": (_default_pair, _default_pair(0.0)),
        "LorentzPair": (lambda: oracle.LorentzPair(1e-33, 2e-33, 1e10, 1e10, 1.8e-7),
                        oracle.LorentzPair(2e-33, 1e-33, 1e10, 1e10, 1.8e-7)),
        "SweepSpec": (lambda: SweepSpec(omega_a=(1e10,), omega_b=(0.0,)),
                      SweepSpec(omega_a=(1e10,), omega_b=(-0.0,), arrangement="uu")),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_equal_fields_give_equal_objects(self, name):
        make, other = self.CASES[name]
        first, second = make(), make()
        assert first is not second and first == second and not first != second
        assert first != other and first != tuple(vars(first).values())

    @pytest.mark.parametrize("name", CASES)
    def test_equal_objects_hash_alike(self, name):
        first, second = self.CASES[name][0](), self.CASES[name][0]()
        assert hash(first) == hash(second) and {first: name}[second] == name

    @pytest.mark.parametrize("name", CASES)
    def test_fields_are_read_only(self, name):
        value = self.CASES[name][0]()
        for attr, field in list(vars(value).items()):       # a context's derived ones too
            with pytest.raises(AttributeError):
                setattr(value, attr, field)
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert value == self.CASES[name][0]()

    def test_repr_names_each_field(self):
        material = "MaterialModel(f0=12.2, omega_tilde0=5700000000.0, gamma0=280000000.0)"
        assert repr(bst()) == material
        assert repr(SpinningSphere(6e-08, bst())) == (
            f"SpinningSphere(radius=6e-08, material={material}, temperature=300.0)")
        assert repr(SweepSpec(omega_a=(1.0,), omega_b=(0.0,))) == (
            "SweepSpec(arrangement='rr', omega_a=(1.0,), omega_b=(0.0,), rel_tol=1e-08, "
            "out_path='', out_format='csv', axes=())")


class TestSweep:
    def test_metadata_reports_the_context(self):
        # the pair that was computed, whatever the spec's defaults are
        ctx = PairContext(SpinningSphere(50e-9, bst(), 0.0),
                          SpinningSphere(70e-9, bst(), 0.0), 200e-9)
        result = run_sweep(SweepSpec(omega_a=(1e10,), omega_b=(0.0,)), ctx)
        meta = result.metadata
        assert list(meta) == [
            "artifact", "version", "arrangement", "material_f0",
            "material_omega_tilde0_rad_s", "material_gamma0_rad_s", "omega0_rad_s",
            "radius_a_m", "radius_b_m", "separation_m", "temperature_K", "rel_tol"]
        assert (meta["radius_a_m"], meta["radius_b_m"]) == (50e-9, 70e-9)
        assert meta["separation_m"] == 200e-9
        assert meta["temperature_K"] == 0.0
        assert result.rows[0]["E0_J"] == energy(ctx, Arrangement("rr"), 0.0, 0.0)

    @pytest.mark.parametrize("sphere_b, keys", [
        ((60e-9, bst(), 300.0), []),
        ((70e-9, bst(), 300.0), []),
        ((60e-9, bst(), 900.0), ["material_b_f0", "material_b_omega_tilde0_rad_s",
                                 "material_b_gamma0_rad_s", "temperature_b_K"]),
        ((60e-9, MaterialModel(8.0, 6.5e9, 4e8), 300.0),
         ["material_b_f0", "material_b_omega_tilde0_rad_s", "material_b_gamma0_rad_s",
          "temperature_b_K"]),
    ], ids=["equal", "radius_only", "temperature", "material"])
    def test_metadata_reports_sphere_b_where_it_differs(self, sphere_b, keys):
        # sphere B's material and temperature follow the keys of A's, and
        # only where B differs: a pair of equal spheres keeps its bytes
        ctx = PairContext(SpinningSphere(60e-9, bst(), 300.0), SpinningSphere(*sphere_b),
                          DEFAULT_SEPARATION)
        meta = run_sweep(SweepSpec(omega_a=(1e10,), omega_b=(0.0,)), ctx).metadata
        assert list(meta)[12:] == keys
        if keys:
            mb = ctx.sphere_b.material
            assert [meta[k] for k in keys] == [mb.f0, mb.omega_tilde0, mb.gamma0,
                                               ctx.sphere_b.temperature]

    def test_single_point_at_rest(self):
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": [0.0]})
        result = run_sweep(spec, ctx)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["deltaF_fN"] == 0.0 and row["deltaE_J"] == 0.0
        assert row["error"] == ""
        assert row["E_J"] == row["E0_J"] < 0.0

    def test_ratio_rule_pairs(self, w0):
        # a counter-rotating row at Omega_A = 0 has Omega_B = -0.0
        spec, ctx = parse_config({"sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": -0.5,
                                  "sweep.omega_a_grid_rad_s": [0.0, w0, 2 * w0]})
        assert spec.omega_a == (0.0, w0, 2 * w0)
        assert spec.omega_b == (-0.0, -0.5 * w0, -w0)
        assert math.copysign(1.0, spec.omega_b[0]) < 0.0

    def test_grid_rule_product(self, w0):
        # Omega_A in the outer loop
        spec, _ = parse_config({"sweep.omega_b_rule": "grid",
                                "sweep.omega_b_grid_rad_s": [0.0, w0],
                                "sweep.omega_a_grid_rad_s": [0.0, w0, 2 * w0]})
        assert list(zip(spec.omega_a, spec.omega_b)) == [
            (0.0, 0.0), (0.0, w0), (w0, 0.0), (w0, w0), (2 * w0, 0.0), (2 * w0, w0)]

    def test_failed_point_recorded_not_fatal(self, w0):
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": [0.0, w0],
                                  "quadrature.rel_tol": 1e-16})
        result = run_sweep(spec, ctx)
        assert len(result.rows) == 2
        assert any(r["error"] for r in result.rows)
        failed = [r for r in result.rows if r["error"]]
        assert all(math.isnan(r["E_J"]) for r in failed)


GENERAL_AXES = {"arrangement": "general",
                "arrangement.axis_a": [0.0, 0.6, 0.8],
                "arrangement.axis_b": [0.48, -0.6, 0.64],
                "arrangement.rhat": [1.0, 0.0, 0.0]}


def _merged(ctx, terms, omega_a, omega_b):
    """Exact shift -> summed c of ``terms``, in first-seen order."""
    weights = {}
    for s, t, c in terms:
        x = _shift(ctx, s, t, omega_a, omega_b)
        if x in weights:
            weights[x] += c
        else:
            weights[x] = c
    return weights


def _kinds_sum(ctx, shifts):
    """Shift -> BA + AB from one closed-form evaluation of the list ``shifts``."""
    values, _ = spectral._closed_kinds(ctx, shifts)
    return dict(zip(shifts, (values[0].real + values[1].real).tolist()))


def _merged_energy(ctx, terms, omega_a, omega_b):
    """2 sum C (BA + AB) over the merged shifts, from one evaluation of them."""
    merged = _merged(ctx, terms, omega_a, omega_b)
    sums = _kinds_sum(ctx, list(merged))
    total = 0.0
    for x, c in merged.items():
        total += c * sums[x]
    return 2.0 * ctx._joules * total


def _shift(ctx, s, t, omega_a, omega_b):
    return abs(s * omega_a - t * omega_b) / ctx._scaled[0]


def _sweep_sums(ctx, terms, points):
    """Shift -> BA + AB from one evaluation of every shift of a sweep and 0, sorted."""
    shifts = {_shift(ctx, s, t, *rates) for rates in [*points, (0.0, 0.0)] for s, t, _ in terms}
    return _kinds_sum(ctx, sorted(shifts))


def _term_energy(ctx, terms, sums, omega_a, omega_b):
    """2 sum c (BA + AB) taken term by term, in term order, from the shift -> sum map."""
    total = 0.0
    for s, t, c in terms:
        total += c * sums[_shift(ctx, s, t, omega_a, omega_b)]
    return 2.0 * ctx._joules * total


def _one_point(ctx, arrangement, omega_a, omega_b, rel_tol):
    """(energy, "") of a one-point call, or (NaN, the error column's text of what it raised)."""
    try:
        return energy(ctx, arrangement, omega_a, omega_b, rel_tol), ""
    except (ConvergenceError, ArithmeticError) as exc:
        return math.nan, type(exc).__name__ + ": " + str(exc)


def _assert_rows_are_one_point(spec, ctx, rel=2e-14):
    """Each row of the sweep is the one-point energy of its rates, value or error."""
    rows = run_sweep(spec, ctx).rows
    arrangement = spec.make_arrangement()
    e0, e0_error = _one_point(ctx, arrangement, 0.0, 0.0, spec.rel_tol)
    for row in rows:
        e, error = _one_point(ctx, arrangement, row["omega_A_rad_s"], row["omega_B_rad_s"],
                              spec.rel_tol)
        if e0_error:
            error = "ConvergenceError: zero-rotation reference failed: " + e0_error
        assert row["error"] == error, (row, error)
        if not error:
            assert abs(row["E_J"] - e) <= rel * abs(e), (row, e)
            assert abs(row["E0_J"] - e0) <= rel * abs(e0), (row, e0)
        assert math.isnan(row["E0_J"]) == bool(e0_error)
    return rows


class TestBlockedSweep:
    """A sweep evaluates all of its shifts in one array call; rows only sum them."""

    @pytest.mark.parametrize("temperature", [0.0, 300.0, 1500.0])
    @pytest.mark.parametrize("arrangement", [{"arrangement": "rr"},
                                             {"arrangement": "uu"}, GENERAL_AXES],
                             ids=["rr", "uu", "general"])
    def test_rows_equal_unbatched_energies(self, w0, temperature, arrangement):
        spec, ctx = parse_config({
            **arrangement, "temperature_K": temperature,
            "sweep.omega_a_grid_rad_s": list(np.linspace(0.0, 4.5 * w0, 12)),
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.4})
        _assert_rows_are_one_point(spec, ctx, rel=1e-13)

    @pytest.mark.parametrize("damping", [2.0, 2.5])
    def test_overdamped_context_rows_equal_unbatched(self, w0, damping):
        # gamma0 = 2 w0 (the mean over the circle) and 2.5 w0 (poles on the
        # imaginary axis) go through the same array call as any material
        spec, ctx = parse_config({
            "material.gamma0_rad_s": damping * w0,
            "sweep.omega_a_grid_rad_s": [0.0, 0.7 * w0, 1.9 * w0]})
        _assert_rows_are_one_point(spec, ctx, rel=1e-13)

    @staticmethod
    def _record_points(monkeypatch):
        """The points of each _closed call: shifts times the points of each row."""
        points = []
        inner = spectral._closed

        def recording(rows, omega_scale, shifts):
            per_shift = sum(max(len(poles_x), len(poles_y)) for poles_x, poles_y, _ in rows)
            points.append(per_shift * len(shifts))
            return inner(rows, omega_scale, shifts)

        monkeypatch.setattr(spectral, "_closed", recording)
        return points

    @staticmethod
    def _distinct(ctx, spec):
        """The count of distinct shifts of a sweep, the rest energy's 0 included."""
        return len(_sweep_sums(ctx, spec.make_arrangement()._terms,
                               zip(spec.omega_a, spec.omega_b)))

    def test_one_blocked_pass_and_no_row_misses(self, w0, monkeypatch):
        # identical spheres, one row of one point per shift: the sweep's 207
        # shifts, more than 64, in one evaluation, and no row evaluates again
        spec, ctx = parse_config({**GENERAL_AXES, "sweep.omega_a_count": 60,
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": 0.3})
        distinct = self._distinct(ctx, spec)
        assert 64 < distinct <= spectral._BLOCK
        points = self._record_points(monkeypatch)
        result = run_sweep(spec, ctx)
        assert not any(r["error"] for r in result.rows)
        # both kinds in the one evaluation, every shift evaluated once
        assert points == [distinct]

    def test_near_critical_pair_blocks_bounded_by_points(self, w0, monkeypatch):
        # unequal materials, A within the circle of critical damping: 2 rows
        # of 8 points per shift, so a block holds 64 shifts, and the sweep's
        # shifts take several blocks of at most _BLOCK points
        spec, ctx = parse_config({
            "arrangement": "uu", "material.gamma0_rad_s": 2.0 * w0,
            "material_b.f0": 8.0, "material_b.omega_tilde0_rad_s": 6.5e9,
            "material_b.gamma0_rad_s": 4e8, "sweep.omega_a_count": 50,
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.4})
        assert len(ctx._rows) == 2 and max(map(len, ctx._poles)) == 8
        distinct = self._distinct(ctx, spec)
        assert distinct > 64
        points = self._record_points(monkeypatch)
        run_sweep(spec, ctx)
        assert len(points) == math.ceil(distinct / 64)
        assert sum(points) == 16 * distinct and max(points) == spectral._BLOCK
        _assert_rows_are_one_point(spec, ctx, rel=1e-13)
        assert max(points) == spectral._BLOCK   # no one-point call above it

    def test_cold_six_preset_pass_counters(self, monkeypatch):
        # each preset evaluates the distinct shifts of all its sweeps in one
        # block, the rest energy's 0 among them, and nothing else: the two
        # sweeps of a fig2 preset (co- and counter-rotating) need the same
        # shifts, sums and differences swapped, so they add none to each
        # other. Shifts are distinct as floats, as in a one-point call:
        # fig2a and fig2b hold 12 and 8 that 1e-12 slots would merge (333
        # and 389 slots)
        shifts = []
        inner = spectral._closed

        def recording(rows, omega_scale, block):
            shifts.append(len(block))
            return inner(rows, omega_scale, block)

        monkeypatch.setattr(spectral, "_closed", recording)
        for name in PRESETS:
            run_preset(name)
        assert shifts == [200, 200, 345, 397, 200]

    def test_equal_contexts_keep_their_own_entries(self, w0, monkeypatch):
        # a second, distinct but equal context, built while the first is
        # live, evaluates its own shifts, the same ones, and gives the same rows
        config = {"arrangement": "uu", "sweep.omega_a_count": 30,
                  "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.5}
        spec, ctx = parse_config(config)
        blocks = []
        inner = spectral._closed

        def recording(rows, omega_scale, block):
            blocks.append((rows, list(block)))
            return inner(rows, omega_scale, block)

        monkeypatch.setattr(spectral, "_closed", recording)
        first = run_sweep(spec, ctx).rows
        _, other = parse_config(config)
        assert other is not ctx and other == ctx
        assert run_sweep(spec, other).rows == first
        [(one, shifts), (two, again)] = blocks
        assert one is ctx._rows and two is other._rows and shifts == again

    @pytest.mark.parametrize("config", [
        {"arrangement": "uu", "temperature_K": 1500.0, "sweep.omega_b_ratio": 1.0},
        {**GENERAL_AXES, "temperature_K": 0.0, "sweep.omega_b_ratio": 1.0},
        {"arrangement": "uu", "temperature_K": 1500.0, "sweep.omega_b_ratio": -1.0},
    ], ids=["fig2c_co", "general_equal_rates", "fig2c_counter"])
    def test_repeated_slots_keep_their_bits(self, w0, config):
        # rows whose terms share a shift: the sweep sums them term by term
        # over its one evaluation, a one-point call sums the merged weight
        # once over the evaluation of its own distinct shifts, each with the
        # same bits every time, and the two agree to roundoff
        spec, ctx = parse_config({**config, "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_a_grid_rad_s":
                                      list(np.linspace(0.0, 5.0 * w0, 41))})
        arrangement = spec.make_arrangement()
        terms = arrangement._terms
        rows = run_sweep(spec, ctx).rows
        assert rows == run_sweep(spec, ctx).rows
        sums = _sweep_sums(ctx, terms, zip(spec.omega_a, spec.omega_b))
        merged = 0
        for row in rows:
            rates = row["omega_A_rad_s"], row["omega_B_rad_s"]
            assert len(_merged(ctx, terms, *rates)) < len(terms)
            assert row["E_J"] == _term_energy(ctx, terms, sums, *rates)
            e = energy(ctx, arrangement, *rates, spec.rel_tol)
            assert e == _merged_energy(ctx, terms, *rates)
            assert energy(ctx, arrangement, *rates, spec.rel_tol) == e
            assert abs(row["E_J"] - e) <= 2e-14 * abs(e)
            merged += row["E_J"] != e
        assert merged                       # merging is what these rows check

    def test_delta_energy_rest_term_keeps_its_bits(self, w0):
        # the rest term -sum c merges with (0, 0), and with every other
        # term whose shift vanishes
        _, ctx = parse_config({"temperature_K": 300.0})
        for kind in ("rr", "uu", "ur", "uo"):
            arrangement = Arrangement(kind)
            terms = arrangement._terms + ((0.0, 0.0, -sum(c for _, _, c in arrangement._terms)),)
            for rates in [(1.3 * w0, -0.4 * w0), (0.7 * w0, 0.7 * w0), (0.0, 0.9 * w0),
                          (0.8 * w0, -0.8 * w0), (0.0, 0.0)]:
                delta = configurations.delta_energy(ctx, arrangement, *rates)
                assert delta == _merged_energy(ctx, terms, *rates) + 0.0
                assert configurations.delta_energy(ctx, arrangement, *rates) == delta

    @pytest.mark.parametrize("materials, rel_tol", [
        ({"material.gamma0_rad_s": 3.2e10}, 3e-14),
        ({"material_b.f0": 8.0, "material_b.gamma0_rad_s": 4e8}, 1e-14),
    ], ids=["overdamped", "unequal_materials"])
    def test_failing_rel_tol_fills_error_column_as_lookups_do(self, w0, materials, rel_tol):
        # the rows whose terms read a shift that fails at rel_tol raise what
        # a one-point call at their rates raises, where the sweep checked
        # all of its shifts as one array comparison
        spec, ctx = parse_config({**materials, "arrangement": "uo",
                                  "sweep.omega_a_grid_rad_s":
                                      list(np.linspace(0.0, 4.5 * w0, 60)),
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": -0.4,
                                  "quadrature.rel_tol": rel_tol})
        rows = _assert_rows_are_one_point(spec, ctx)
        assert {bool(r["error"]) for r in rows} == {True, False}

    def test_failed_reference_fails_every_row(self, w0, monkeypatch):
        # ur weighs no term at shift 0 (c_00 = 0), so its rows pass the
        # check that fails E0 alone; every row then carries E0's error, and
        # NaN in every value that follows from its energy
        spec, ctx = parse_config({"arrangement": "ur", "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": 0.4,
                                  "sweep.omega_a_grid_rad_s": [0.5 * w0, w0, 1.5 * w0]})
        inner = spectral._closed

        def inflate(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value, roundoff + (np.asarray(shifts) == 0.0)

        monkeypatch.setattr(spectral, "_closed", inflate)
        energies, _, errors = spectral.sweep_energies(
            ctx, spec.make_arrangement()._terms, spec.omega_a, spec.omega_b)
        assert list(errors) == [None] and all(map(math.isfinite, energies))
        columns = run_sweep(spec, ctx).columns
        assert all(text.startswith("ConvergenceError: zero-rotation reference failed: "
                                   "ConvergenceError: energy_BA: rel_tol 1.0e-08 is below")
                   for text in columns["error"])
        for key in ("E_J", "E0_J", "deltaE_J", "F_N", "deltaF_fN"):
            assert all(map(math.isnan, columns[key])), key

    def test_bad_shift_fails_only_its_rows(self, w0, monkeypatch):
        # rr with Omega_B = 0 needs the shifts Omega_A and 0, so one bad
        # shift belongs to one row; it fails its row, the sweep goes on
        grid = [0.5 * w0, w0, 1.5 * w0, 2.0 * w0]
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": grid})
        bad = 1.5 * w0 / ctx._scaled[0]
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 1j * (np.asarray(shifts) == bad), roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        rows = run_sweep(spec, ctx).rows
        assert [r["omega_A_rad_s"] for r in rows if r["error"]] == [1.5 * w0]
        assert rows[2]["error"].startswith(
            "ArithmeticError: energy_BA: imaginary residue 1.000e+00 exceeds")
        assert all(math.isfinite(r["E_J"]) for r in rows if not r["error"])

    def test_inflated_roundoff_fails_only_its_row(self, w0, monkeypatch):
        # as above, with the roundoff estimate of one shift above rel_tol
        grid = [0.5 * w0, w0, 1.5 * w0, 2.0 * w0]
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": grid})
        bad = 1.5 * w0 / ctx._scaled[0]
        inner = spectral._closed

        def inflate(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value, roundoff + (np.asarray(shifts) == bad)

        monkeypatch.setattr(spectral, "_closed", inflate)
        rows = run_sweep(spec, ctx).rows
        assert [r["omega_A_rad_s"] for r in rows if r["error"]] == [1.5 * w0]
        assert rows[2]["error"].startswith(
            "ConvergenceError: energy_BA: rel_tol 1.0e-08 is below the closed "
            "form's roundoff estimate")
        assert all(math.isfinite(r["E_J"]) for r in rows if not r["error"])


UNEQUAL = {"material_b.f0": 8.0, "material_b.omega_tilde0_rad_s": 6.5e9,
           "material_b.gamma0_rad_s": 4e8}


def _seeded_arrangement(rng):
    """A canonical arrangement, or general axes drawn as unit vectors, as config keys."""
    kind = ("rr", "uu", "ur", "uo", "general")[rng.integers(5)]
    if kind != "general":
        return {"arrangement": kind}
    axes = rng.normal(size=(3, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    return {"arrangement": "general", **dict(zip(AXIS_KEYS, axes.tolist()))}


class TestSweepEnergies:
    """Each row of the array call is the one-point energy of its rates, value or error."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("temperature", [0.0, 0.05, 300.0])
    @pytest.mark.parametrize("materials", [{}, UNEQUAL], ids=["equal", "unequal"])
    def test_rows_are_one_point_energies(self, w0, seed, temperature, materials):
        # seeded arrangement, rates in +-4.5 w0 and pairing rule; the log
        # (0 K), digamma (0.05 K) and series (300 K) routes
        rng = np.random.default_rng(seed)
        rule = ("ratio", "grid")[rng.integers(2)]
        spec, ctx = parse_config({
            **materials, **_seeded_arrangement(rng), "temperature_K": temperature,
            "sweep.omega_a_grid_rad_s": (rng.uniform(-4.5, 4.5, 9) * w0).tolist(),
            "sweep.omega_b_rule": rule, "sweep.omega_b_ratio": rng.uniform(-1.0, 1.0),
            "sweep.omega_b_grid_rad_s": (rng.uniform(-4.5, 4.5, 3) * w0).tolist()})
        rows = _assert_rows_are_one_point(spec, ctx)
        assert not any(row["error"] for row in rows)

    def test_near_critical_rows_are_one_point_energies(self, w0):
        # sphere A at critical damping: each row of the closed form is the
        # mean over the 8 points of the circle
        spec, ctx = parse_config({
            **UNEQUAL, "arrangement": "ur", "material.gamma0_rad_s": 2.0 * w0,
            "sweep.omega_a_grid_rad_s": list(np.linspace(-3.0 * w0, 4.0 * w0, 13)),
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": 0.6})
        assert max(map(len, ctx._poles)) == len(spectral._CIRCLE)
        _assert_rows_are_one_point(spec, ctx)

    def test_more_shifts_than_a_block(self, w0, monkeypatch):
        # identical spheres and uo's four shifts per row: more distinct
        # shifts than _BLOCK points, so the array call takes two blocks
        spec, ctx = parse_config({
            "arrangement": "uo", "sweep.omega_a_count": 300,
            "sweep.omega_a_stop_over_omega0": 4.5,
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": 0.37})
        calls = []
        inner = spectral._closed
        monkeypatch.setattr(spectral, "_closed",
                            lambda rows, scale, block: calls.append(len(block))
                            or inner(rows, scale, block))
        run_sweep(spec, ctx)
        assert len(calls) == 2 and calls[0] == spectral._BLOCK and sum(calls) > spectral._BLOCK
        monkeypatch.undo()
        _assert_rows_are_one_point(spec, ctx)

    @pytest.mark.parametrize("materials, rel_tol", [
        ({"material.gamma0_rad_s": 3.2e10}, 3e-14),
        (UNEQUAL, 1e-14),
        ({}, 1e-17),
    ], ids=["overdamped", "unequal", "rest_fails"])
    def test_failing_rel_tol_error_cells_are_one_point_errors(self, w0, materials, rel_tol):
        # each error cell holds the text of what a one-point call at its
        # rates raises; at 1e-17 the rest energy fails and with it every row
        spec, ctx = parse_config({
            **materials, "arrangement": "uu", "temperature_K": 300.0,
            "sweep.omega_a_grid_rad_s": list(np.linspace(0.0, 4.5 * w0, 40)),
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.7,
            "quadrature.rel_tol": rel_tol})
        rows = _assert_rows_are_one_point(spec, ctx)
        errors = [row["error"] for row in rows]
        if rel_tol == 1e-17:
            assert all(e.startswith("ConvergenceError: zero-rotation reference failed: "
                                    "ConvergenceError: energy_BA: rel_tol 1.0e-17")
                       for e in errors)
        else:
            assert any(errors) and not all(errors)

    def test_rest_energy_failure_reaches_the_library_caller(self, w0):
        # the array call itself: the rest energy's failure sits under None
        _, ctx = parse_config({})
        terms = Arrangement("uu")._terms
        energies, rest, errors = spectral.sweep_energies(ctx, terms, [w0, 2.0 * w0],
                                                         [0.0, -w0], 1e-17)
        assert math.isnan(rest) and all(math.isnan(e) for e in energies)
        with pytest.raises(ConvergenceError) as raised:
            energy(ctx, Arrangement("uu"), 0.0, 0.0, 1e-17)
        assert str(errors[None]) == str(raised.value)
        assert type(errors[None]) is ConvergenceError and set(errors) == {0, 1, None}


class TestDopplerBound:
    """Rates whose Doppler images leave the non-retarded regime are rejected."""

    @staticmethod
    def _far_pair():
        # BST at 1 mm: R w/c = 0.043 at rest
        sphere = SpinningSphere(60e-9, bst(), 300.0)
        return PairContext(sphere, sphere, 1e-3)

    def test_library_raises_naming_the_rates(self, w0):
        ctx = self._far_pair()
        uu = Arrangement("uu")
        message = (r"^Omega_A = .* rad/s, Omega_B = .* rad/s: the Doppler images leave "
                   r"the non-retarded regime: R w/c = 0\.47")
        for call in (lambda: energy(ctx, uu, 5.0 * w0, 5.0 * w0),
                     lambda: configurations.delta_force(ctx, uu, 5.0 * w0, 5.0 * w0),
                     lambda: spectral.sweep_energies(ctx, uu._terms, [0.0, 5.0 * w0],
                                                     [0.0, 5.0 * w0])):
            with pytest.raises(ValueError, match=message):
                call()
        # 10 w0 of shift is within the bound below 0.2 mm
        assert energy(PairContext(ctx.sphere_a, ctx.sphere_b, 1.5e-4), uu,
                      5.0 * w0, 5.0 * w0) < 0.0

    def test_single_kind_energies_raise(self):
        # 1e308 rad/s on the default pair once gave -0.0
        _, ctx = parse_config({})
        for call in (spectral.energy_BA, spectral.energy_AB, spectral.aux_energy):
            for rate in (1e20, 1e308):
                message = f"Omega_A = {rate} rad/s, Omega_B = 0.0 rad/s: the Doppler images leave"
                with pytest.raises(ValueError, match="^" + re.escape(message)):
                    call(ctx, rate)

    def test_the_bound_adds_the_largest_shift(self, w0):
        # R w/c of the materials plus R/c times the largest shift
        ctx = self._far_pair()
        room = (spectral.MAX_RETARDATION - ctx._reach) / ctx._reach_shift * ctx._scaled[0]
        rr = Arrangement("rr")                       # shifts Omega_A - Omega_B and 0
        assert energy(ctx, rr, 0.999 * room, 0.0) < 0.0
        with pytest.raises(ValueError, match="Doppler"):
            energy(ctx, rr, 1.001 * room, 0.0)
        with pytest.raises(ValueError, match="Doppler"):
            energy(ctx, rr, 0.6 * room, -0.6 * room)

    @pytest.mark.parametrize("command", ["energy", "sweep"])
    def test_cli_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({
            "geometry.separation_m": 1e-3, "arrangement": "uu",
            "sweep.omega_a_grid_rad_s": [0.0, 5.0 * resonance_frequency(bst())],
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": 1.0,
            "output.path": str(tmp_path / "out.csv")}))
        args = ["--omega-a", "5", "--omega-b", "5"] if command == "energy" else []
        assert main(["--config", str(cfg), command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Omega_A = ") and "R w/c = 0.47" in err
        assert not (tmp_path / "out.csv").exists()


class TestCanonicalAxes:
    """Axes belong to the general arrangement only."""

    @pytest.mark.parametrize("kind", ["rr", "uu", "ur", "uo"])
    def test_config_axes_on_a_canonical_arrangement(self, kind):
        for key in AXIS_KEYS:
            with pytest.raises(ConfigError, match=f"^{key}: the {kind} arrangement has "
                                                  f"fixed axes"):
                parse_config({"arrangement": kind, key: [1, 0, 0]})
        with pytest.raises(ConfigError, match="^arrangement.axis_a, arrangement.rhat: "):
            parse_config({"arrangement": kind, "arrangement.axis_a": [1, 0, 0],
                          "arrangement.rhat": [0, 0, 1]})

    def test_default_arrangement_rejects_axes(self):
        with pytest.raises(ConfigError, match="^arrangement.axis_b: the rr arrangement"):
            parse_config({"arrangement.axis_b": [0, 1, 0]})

    def test_spec_axes_on_a_canonical_arrangement(self):
        with pytest.raises(ConfigError, match="^arrangement.axis_a: the uu arrangement"):
            SweepSpec(arrangement="uu", omega_a=(0.0,), omega_b=(0.0,), axes=("junk",))
        with pytest.raises(ConfigError, match="^axes: the rr arrangement"):
            SweepSpec(omega_a=(0.0,), omega_b=(0.0,), axes=(None,))
        assert SweepSpec(arrangement="uu", omega_a=(0.0,), omega_b=(0.0,)).axes == ()


class TestEmit:
    def _result(self):
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s":
                                  [0.0, 1.5e10, 2.9e10]})
        return run_sweep(spec, ctx)

    def test_csv_header_schema(self, tmp_path):
        result = self._result()
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        header = [line for line in path.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_round_trip_exact(self, tmp_path):
        result = self._result()
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        back = read_csv_rows(str(path))
        for row, orig in zip(back, result.rows):
            assert row["deltaF_fN"] == orig["deltaF_fN"]   # 17g is lossless
            assert row["E_J"] == orig["E_J"]

    def test_json_matches_csv_values(self, tmp_path):
        result = self._result()
        cpath, jpath = tmp_path / "out.csv", tmp_path / "out.json"
        emit(result, "csv", str(cpath))
        emit(result, "json", str(jpath))
        jrows = json.loads(jpath.read_text())["rows"]
        crows = read_csv_rows(str(cpath))
        for jr, cr in zip(jrows, crows):
            for col in CSV_COLUMNS[:-1]:
                assert jr[col] == cr[col]

    def test_json_of_failed_rows_is_strict(self, tmp_path):
        # a tolerance no value meets fails the reference and every row: JSON
        # writes their NaN fields as null, which a strict parser accepts,
        # while the CSV keeps its nan
        spec, ctx = parse_config({"quadrature.rel_tol": 1e-17,
                                  "sweep.omega_a_grid_rad_s": [0.0, 1.5e10, 2.9e10]})
        result = run_sweep(spec, ctx)
        assert all(row["error"] for row in result.rows)
        jpath, cpath = tmp_path / "out.json", tmp_path / "out.csv"
        emit(result, "json", str(jpath))
        emit(result, "csv", str(cpath))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        got = json.loads(jpath.read_text(), parse_constant=reject)
        assert got["metadata"]["rel_tol"] == 1e-17
        for jrow, row, crow in zip(got["rows"], result.rows, read_csv_rows(str(cpath))):
            for key, value in row.items():
                if isinstance(value, float) and math.isnan(value):
                    assert jrow[key] is None and math.isnan(crow[key])
                else:
                    assert jrow[key] == value

    def test_rows_written_as_fmt_fields(self, tmp_path):
        result = self._result()
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        lines = path.read_text().splitlines()[-len(result.rows):]
        assert lines == [",".join(_fmt(row[c]) for c in CSV_COLUMNS)
                         for row in result.rows]

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        # a counter-rotating sweep starts at Omega_B = -0.0, which equals
        # 0.0 and must still be written as -0
        result = run_preset("fig2a", points=2)
        co, counter = result.rows[0]["omega_B_rad_s"], result.rows[2]["omega_B_rad_s"]
        assert co == counter == 0.0 and math.copysign(1.0, counter) < 0
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        lines = path.read_text().splitlines()[-4:]
        assert lines[0].split(",")[1] == "0" and lines[2].split(",")[1] == "-0"

    def test_error_with_commas_round_trips(self, w0, tmp_path, monkeypatch):
        # a failed row's message, with commas and quotes, goes through the
        # error column of run_sweep, the CSV and back
        inner = spectral.sweep_energies

        def failing(ctx, terms, omega_a, omega_b, rel_tol=None):
            energies, rest, errors = inner(ctx, terms, omega_a, omega_b, rel_tol)
            for k in range(len(energies)):
                errors[k] = ConvergenceError('error estimate 1e-3, tolerance 1e-15, "quoted"')
            return np.full(len(energies), math.nan), rest, errors

        monkeypatch.setattr(spectral, "sweep_energies", failing)
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": [0.5 * w0, w0]})
        result = run_sweep(spec, ctx)
        message = result.rows[0]["error"]
        assert message.startswith("ConvergenceError") and "," in message
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        with open(path, newline="") as fh:
            records = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert [len(r) for r in records] == [len(CSV_COLUMNS)] * 3
        back = read_csv_rows(str(path))
        assert [row["error"] for row in back] == [row["error"] for row in result.rows]
        assert back[0]["omega_A_rad_s"] == 0.5 * w0

    @staticmethod
    def _rows_one_by_one(result):
        """The CSV rows as formatting every field of every row writes them."""
        def field(value):
            if isinstance(value, float):
                return "%.17g" % value
            return '"' + value.replace('"', '""') + '"' if any(
                ch in value for ch in ',"\r\n') else value
        return [",".join(map(field, row.values())) for row in result.rows]

    def test_constant_columns_keep_the_bytes(self, w0, tmp_path):
        # a float column counts as constant only if every value equals the
        # first with its sign bit: a -0.0 among zeros, a NaN E0_J from a
        # failed reference and the texts of error rows stay per row
        zeros = SweepResult({"a": [0.0, -0.0, 0.0], "b": [1.0, 1.0, 2.0], "c": [2.5] * 3,
                             "error": ["", "", 'x, "y"']}, {})
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": [0.5 * w0, w0],
                                  "quadrature.rel_tol": 1e-17})
        failed = run_sweep(spec, ctx)
        assert all(math.isnan(row["E0_J"]) and row["error"] for row in failed.rows)
        path = tmp_path / "out.csv"
        for result in (zeros, failed, self._result()):
            emit(result, "csv", str(path))
            lines = path.read_text().splitlines()[-len(result.rows):]
            assert lines == self._rows_one_by_one(result)
        assert lines[0].split(",")[1] == "0"            # omega_B under the fixed rule
        emit(zeros, "csv", str(path))
        assert path.read_text().splitlines()[-3:] == ["0,1,2.5,", "-0,1,2.5,",
                                                      '0,2,2.5,"x, ""y"""']

    @staticmethod
    def _fresh(result, tmp_path):
        emit(result, "csv", str(tmp_path / "fresh.csv"))
        return (tmp_path / "fresh.csv").read_bytes()

    def test_overwrite_is_a_new_file_with_fresh_bytes(self, tmp_path):
        # the old file, held open so that its inode cannot be reused, keeps
        # its bytes for the reader; the path gets a new inode with the bytes
        # of a fresh write
        result = self._result()
        path = tmp_path / "out.csv"
        old = b"# stale\n" + b"1,2,3\n" * 5000
        path.write_bytes(old)
        with open(path, "rb") as reader:
            emit(result, "csv", str(path))
            assert os.fstat(reader.fileno()).st_ino != path.stat().st_ino
            assert reader.read() == old
        assert path.read_bytes() == self._fresh(result, tmp_path)

    def test_symlink_stays_and_its_target_is_written(self, tmp_path):
        result = self._result()
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("stale\n")
        link.symlink_to(target)
        emit(result, "csv", str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self._fresh(result, tmp_path)

    def test_hard_linked_file_is_written_in_place(self, tmp_path):
        result = self._result()
        path, other = tmp_path / "out.csv", tmp_path / "other.csv"
        path.write_text("stale\n")
        os.link(path, other)
        inode = path.stat().st_ino
        emit(result, "csv", str(path))
        assert path.stat().st_ino == inode and path.stat().st_nlink == 2
        assert path.read_bytes() == other.read_bytes() == self._fresh(result, tmp_path)

    def test_file_the_user_may_not_write_is_not_replaced(self, tmp_path, monkeypatch):
        # a write-protected file fails as before rather than being replaced;
        # a superuser may write it in place, so os.access then answers as
        # for a user and the in-place write goes through
        result = self._result()
        path = tmp_path / "out.csv"
        path.write_text("stale\n")
        path.chmod(0o444)
        inode = path.stat().st_ino
        if os.access(path, os.W_OK):
            monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
            emit(result, "csv", str(path))
            assert path.read_bytes() == self._fresh(result, tmp_path)
        else:
            with pytest.raises(OSError, match="cannot write"):
                emit(result, "csv", str(path))
            assert path.read_text() == "stale\n"
        assert path.stat().st_ino == inode and path.stat().st_mode & 0o777 == 0o444

    @pytest.mark.parametrize("before, umask, after",
                             [(0o600, 0o022, 0o600), (0o664, 0o022, 0o644)])
    def test_replacement_keeps_the_mode_narrowed_by_the_umask(self, tmp_path,
                                                              before, umask, after):
        path = tmp_path / "out.csv"
        path.write_text("stale\n")
        path.chmod(before)
        old = os.umask(umask)
        try:
            with open(path) as reader:      # held open, so the inode is not reused
                emit(self._result(), "csv", str(path))
                assert os.fstat(reader.fileno()).st_ino != path.stat().st_ino
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == after

    def test_fifo_is_written_in_place(self, tmp_path):
        result = self._result()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        emit(result, "csv", str(fifo))
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert fifo.is_fifo()
        assert got == [self._fresh(result, tmp_path)]

    def test_io_error_carries_path(self):
        with pytest.raises(OSError, match="/nonexistent"):
            emit(self._result(), "csv", "/nonexistent/dir/out.csv")


class TestRowFloats:
    """Rows carry Python floats, whatever built the grid."""

    @staticmethod
    def _sweeps(source, w0):
        # (result, the same sweep with its grid given as Python floats)
        def floats(values):
            return [float(v) for v in values]

        if source == "preset":
            result = run_preset("fig2a", points=3)
            grid = floats(np.linspace(0.0, 5.0 * w0, 3))
            spec = SweepSpec(arrangement="uu", omega_a=grid * 2,
                             omega_b=[rho * wa for rho in (0.5, -0.5) for wa in grid])
            same = run_sweep(spec, _default_pair(1500.0))
            return result, SweepResult(same.columns, dict(result.metadata))
        if source == "library":
            # numpy scalars in a tuple, and an ndarray
            omega_a = np.repeat(np.linspace(0.0, 3.0 * w0, 4), 3)
            omega_b = np.tile(np.linspace(-w0, w0, 3), 4)
            spec = SweepSpec(arrangement="uo", omega_a=tuple(omega_a), omega_b=omega_b)
            same = SweepSpec(arrangement="uo", omega_a=floats(omega_a), omega_b=floats(omega_b))
            return run_sweep(spec, _default_pair()), run_sweep(same, _default_pair())
        ratio = {"sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.4}
        grid = np.linspace(0.0, 4.0 * w0, 5)
        config = ({**ratio, "sweep.omega_a_count": 5} if source == "count"
                  else {**ratio, "sweep.omega_a_grid_rad_s": list(grid)})
        same = {**ratio, "sweep.omega_a_grid_rad_s": floats(grid)}
        return run_sweep(*parse_config(config)), run_sweep(*parse_config(same))

    @pytest.mark.parametrize("source", ["preset", "count", "list", "library"])
    def test_numeric_columns_are_floats(self, w0, tmp_path, source):
        result, same = self._sweeps(source, w0)
        assert result.rows and not any(r["error"] for r in result.rows)
        for row in result.rows:
            for column in CSV_COLUMNS[:-1]:
                assert type(row[column]) is float, (column, type(row[column]))
        paths = tmp_path / "grid.csv", tmp_path / "floats.csv"
        emit(result, "csv", str(paths[0]))
        emit(same, "csv", str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestPointCommands:
    """``energy`` and ``force`` print the numbers of a one-row sweep."""

    @pytest.mark.parametrize("config", [{"arrangement": kind} for kind in ("rr", "uu", "ur", "uo")]
                             + [GENERAL_AXES], ids=["rr", "uu", "ur", "uo", "general"])
    @pytest.mark.parametrize("command", ["energy", "force"])
    def test_lines_are_the_row_of_a_one_row_sweep(self, tmp_path, capsys, monkeypatch,
                                                  config, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        calls = dict.fromkeys(("sweep_energies", "general_energy"), 0)
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(spectral, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counting)
        assert main(["--config", str(path), command, "--omega-a", "1.3", "--omega-b=-0.4"]) == 0
        assert calls == {"sweep_energies": 1, "general_energy": 0}
        monkeypatch.undo()
        spec, ctx = parse_config(config)
        w0 = resonance_frequency(ctx.sphere_a.material)
        row = run_sweep(spec.replace(omega_a=(1.3 * w0,), omega_b=(-0.4 * w0,)), ctx).rows[0]
        assert not row["error"]
        if command == "energy":
            lines = [f"E_J      = {row['E_J']:.10e}", f"E0_J     = {row['E0_J']:.10e}",
                     f"deltaE_J = {row['deltaE_J']:.10e}"]
        else:
            lines = [f"F_N       = {row['F_N']:.10e}",
                     f"F0_N      = {6.0 * row['E0_J'] / ctx.separation:.10e}",
                     f"deltaF_fN = {row['deltaF_fN']:.10e}"]
        assert capsys.readouterr().out == "\n".join([f"omega0_rad_s = {w0:.6e}", *lines, ""])

    @pytest.mark.parametrize("command", ["energy", "force"])
    def test_failed_row_is_3(self, capsys, command):
        # at rel_tol 1e-17 the rest energy fails, and with it the one row
        assert main(["--rel-tol", "1e-17", command]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        # the message names each exception type once: the CSV's leading
        # "ConvergenceError: " is what "numerical non-convergence" says
        assert err.startswith("numerical non-convergence: zero-rotation reference failed: "
                              "ConvergenceError: energy_BA: rel_tol 1.0e-17")
        assert err.count("ConvergenceError") == 1


class TestPresets:
    def test_preset_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_preset("fig1_300K", points=6), "csv", str(p1))
        emit(run_preset("fig1_300K", points=6), "csv", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_fig2_preset_has_both_senses(self):
        result = run_preset("fig2c", points=4, rel_tol=1e-6)
        signs = {np.sign(r["omega_B_rad_s"]) for r in result.rows
                 if r["omega_A_rad_s"] > 0}
        assert signs == {1.0, -1.0}

    def test_all_sweep_presets_run(self):
        for name in ("fig1_300K", "fig1_1500K", "fig2a", "fig2b", "fig2c"):
            result = run_preset(name, points=3, rel_tol=1e-6)
            assert result.rows and not any(r["error"] for r in result.rows)
            assert result.metadata["preset"] == name

    def test_rows_do_not_depend_on_what_ran_before(self, tmp_path):
        # each preset alone, after every other preset, and
        # in the reversed order of all six: the same rows and CSV bytes
        def run(names):
            out = {}
            for name in names:
                result = run_preset(name)
                path = tmp_path / f"{name}.csv"
                emit(result, "csv", str(path))
                out[name] = (result.rows, path.read_bytes())
            return out

        alone = {}
        for name in PRESETS:
            alone.update(run([name]))
        for name in PRESETS:
            others = [other for other in PRESETS if other != name]
            assert run(others + [name])[name] == alone[name], name
        assert run(PRESETS[::-1]) == alone

    @staticmethod
    def _bits(columns):
        """Each column's values, floats as their hex form, which tells -0.0 from 0.0."""
        return {key: [v.hex() if isinstance(v, float) else v for v in column]
                for key, column in columns.items()}

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    @pytest.mark.parametrize("points, rel_tol, fail_middle", [
        (None, None, False), (7, None, False), (7, 1e-17, False), (None, 1e-17, False),
        (7, None, True)], ids=["full", "points_7", "points_7_tight", "full_tight",
                               "points_7_one_shift_fails"])
    def test_fig2_preset_is_its_two_sweeps(self, w0, tmp_path, monkeypatch,
                                           name, points, rel_tol, fail_middle):
        # the preset, one sweep of both ratios, gives each row the bits,
        # error text and CSV bytes of the run_sweep of its ratio alone. At
        # rel_tol 1e-17 E0 fails and with it every row; with the roundoff
        # of the middle shift of each evaluation inflated, only the rows
        # that read it fail
        if fail_middle:
            inner = spectral._closed

            def inflate(rows, omega_scale, shifts):
                value, roundoff = inner(rows, omega_scale, shifts)
                return value, roundoff + (np.arange(len(shifts)) == len(shifts) // 2)

            monkeypatch.setattr(spectral, "_closed", inflate)
        ratio = {"fig2a": 0.5, "fig2b": 0.9, "fig2c": 1.0}[name]
        grid = np.linspace(0.0, 5.0 * w0, points or 200).tolist()
        tol = {} if rel_tol is None else {"rel_tol": rel_tol}
        parts = [run_sweep(SweepSpec(arrangement="uu", omega_a=grid,
                                     omega_b=[rho * wa for wa in grid], **tol),
                           _default_pair(1500.0))
                 for rho in (ratio, -ratio)]
        joined = SweepResult({key: parts[0].columns[key] + parts[1].columns[key]
                              for key in CSV_COLUMNS},
                             {**parts[1].metadata, "preset": name})
        result = run_preset(name, rel_tol=rel_tol, points=points)
        assert self._bits(result.columns) == self._bits(joined.columns)
        assert result.metadata == joined.metadata
        failed = sum(map(bool, result.columns["error"]))
        if rel_tol:
            assert failed == 2 * len(grid)
        elif fail_middle:
            assert 0 < failed < 2 * len(grid)
        else:
            assert failed == 0
        paths = tmp_path / "preset.csv", tmp_path / "joined.csv"
        emit(result, "csv", str(paths[0]))
        emit(joined, "csv", str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rows_are_the_columns_zipped(self):
        # rows is a view of the columns, built once: row k holds the k-th
        # value of every column, in column order
        for result in (run_preset("fig2a", points=3, rel_tol=1e-17),
                       run_preset("baseline_static")):
            columns = result.columns
            rows = result.rows
            assert result.rows is rows
            assert len(rows) == len(next(iter(columns.values())))
            for k, row in enumerate(rows):
                assert list(row) == list(columns)
                assert all(row[key] is column[k] for key, column in columns.items())
        assert list(run_preset("fig1_300K", points=2).columns) == list(CSV_COLUMNS)

    def test_points_below_one_is_config_error(self):
        for points in (0, -1):
            with pytest.raises(ConfigError, match=f"^--points: must be >= 1, got {points}$"):
                run_preset("fig1_300K", points=points)

    def test_baseline_static_table(self):
        result = run_preset("baseline_static")
        table = {r["quantity"]: r["value"] for r in result.rows}
        assert table["static_force_reference_fN"] == pytest.approx(-4.0644, abs=1e-3)
        assert table["hamaker_constant_model_J"] > 0.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            run_preset("fig9")


class TestMainExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep.omega_b_rule": "ratio",
                                   "sweep.omega_b_ratio": -2.0}))
        code = main(["--config", str(bad), "energy"])
        assert code == 2

    def test_strict_nonconvergence_is_3(self, tmp_path, w0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep.omega_a_grid_rad_s": [w0],
                                   "quadrature.rel_tol": 1e-16,
                                   "output.path": str(tmp_path / "out.csv")}))
        assert main(["--config", str(cfg), "--strict", "sweep"]) == 3
        assert main(["--config", str(cfg), "sweep"]) == 0   # lenient default

    def test_summary_counts_failed_rows(self, tmp_path, capsys):
        # the failures counted from the error column: E0 fails at 1e-17,
        # and with it every row of both sweeps
        out = str(tmp_path / "tight.csv")
        args = ["--rel-tol", "1e-17", "sweep", "--preset", "fig2c", "--points", "3",
                "--out", out]
        assert main(args) == 0
        assert capsys.readouterr().out == f"wrote {out} (6 rows, 6 failed)\n"
        assert main(["--strict", *args]) == 3
        assert main(["--strict", "sweep", "--preset", "fig2c", "--points", "3",
                     "--out", out]) == 0
        assert capsys.readouterr().out.endswith("(6 rows, 0 failed)\n")

    def test_retarded_separation_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"geometry.separation_m": 0.01}))
        assert main(["--config", str(cfg), "energy"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: separation 0.01 m is outside the non-retarded regime: R w/c = 0.428")

    def test_negative_rate_with_exponent(self, capsys):
        # a separate "-5e-1" token would be read as an option; "=" binds it
        assert main(["energy", "--omega-a=-5e-1", "--omega-b=-1e-1"]) == 0
        assert "E_J      = " in capsys.readouterr().out

    def test_point_command_runs(self, capsys):
        assert main(["energy", "--arrangement", "rr",
                     "--omega-a", "1.0", "--omega-b", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "deltaE_J = 0.0000000000e+00" in out

    @pytest.mark.parametrize("command, line", [("energy", "E_J      = {:.10e}"),
                                               ("force", "F_N       = {:.10e}")],
                             ids=["energy", "force"])
    def test_point_command_takes_config_arrangement(self, tmp_path, capsys, command, line):
        # a uu config gives uu values; --arrangement, when given, wins
        cfg = tmp_path / "uu.json"
        cfg.write_text(json.dumps({"arrangement": "uu"}))
        point = [command, "--omega-a", "1.3", "--omega-b", "0.4"]
        outputs = []
        for argv in (["--config", str(cfg), *point],
                     ["--config", str(cfg), *point, "--arrangement", "rr"], point):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        spec, ctx = parse_config(str(cfg))
        w0 = resonance_frequency(ctx.sphere_a.material)
        scale = 1.0 if command == "energy" else 6.0 / ctx.separation
        for kind, out in zip(("uu", "rr", "rr"), outputs):
            e = energy(ctx, Arrangement(kind), 1.3 * w0, 0.4 * w0)
            assert line.format(scale * e) in out, (kind, out)
        assert outputs[0] != outputs[1] == outputs[2]

    @pytest.mark.parametrize("value", [[1, 0], [1, 1, 0], "abc"])
    @pytest.mark.parametrize("command", ["energy", "sweep"])
    def test_malformed_general_axis_is_2(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "general.json"
        cfg.write_text(json.dumps({**GENERAL_AXES, "arrangement.axis_a": value}))
        args = ["sweep", "--out", str(tmp_path / "out.csv")] if command == "sweep" else [command]
        assert main(["--config", str(cfg), *args]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: arrangement.axis_a must be a unit 3-vector, got ")
        assert not (tmp_path / "out.csv").exists()

    def test_point_command_takes_config_general_axes(self, tmp_path, capsys):
        cfg = tmp_path / "general.json"
        cfg.write_text(json.dumps(GENERAL_AXES))
        assert main(["--config", str(cfg), "energy", "--omega-a", "1.3",
                     "--omega-b", "0.4"]) == 0
        out = capsys.readouterr().out
        spec, ctx = parse_config(str(cfg))
        w0 = resonance_frequency(ctx.sphere_a.material)
        general = Arrangement("general", *spec.axes)
        for arrangement, shown in ((general, True), (Arrangement("rr"), False)):
            e = energy(ctx, arrangement, 1.3 * w0, 0.4 * w0)
            assert (f"E_J      = {e:.10e}" in out) == shown, (arrangement, out)

    def test_check_command(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out
        assert "general_rotation_invariance" in out
        assert "undamped_limit_0K" in out
        assert "rest_energy_vs_matsubara_300K" in out
        assert "rest_energy_vs_matsubara_0.05K" in out

    @pytest.mark.parametrize("rel_tol", ["nan", "0", "-1"])
    def test_rel_tol_not_positive_is_2(self, capsys, rel_tol):
        assert main(["--rel-tol", rel_tol, "energy", "--omega-a", "2"]) == 2
        assert "config error: quadrature.rel_tol: must be > 0" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="quadrature.rel_tol"):
            run_preset("fig1_300K", rel_tol=float(rel_tol), points=2)
        with pytest.raises(ConfigError, match="quadrature.rel_tol"):
            parse_config({"quadrature.rel_tol": float(rel_tol)})

    @pytest.mark.parametrize("args", [["energy", "--omega-a", "nan"],
                                      ["force", "--omega-a", "inf"],
                                      ["energy", "--omega-a", "1", "--omega-b=-inf"],
                                      ["oracle", "--omega-a", "nan"],
                                      ["oracle", "--omega-a", "1", "--omega-b=-inf"],
                                      ["energy", "--omega-a", "1e300"],
                                      ["force", "--omega-a", "1", "--omega-b=-1e300"],
                                      ["oracle", "--omega-a", "1e300"]])
    def test_non_finite_rate_is_2(self, capsys, args):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --omega-") and "non-finite" in err

    @pytest.mark.parametrize("rates", [["--omega-a", "2"], ["--omega-a", "1", "--omega-b", "1"],
                                       ["--omega-a=-0.5", "--omega-b", "1.5"]])
    def test_oracle_rate_at_a_pole_is_2(self, capsys, rates):
        # the 2 w0 resonance of the undamped model: all three ratios are
        # computed before any is printed
        assert main(["oracle", *rates]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: --omega-a, --omega-b: ") and "pole" in err

    @pytest.mark.parametrize("command", ["energy", "force"])
    def test_residue_above_its_estimate_is_3(self, monkeypatch, capsys, command):
        # the ArithmeticError of a violated closed form fails as a
        # tolerance does, without --strict, and prints nothing
        inner = spectral._closed

        def tilt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 3j * roundoff, roundoff

        monkeypatch.setattr(spectral, "_closed", tilt)
        assert main([command, "--omega-a", "0.7"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical non-convergence: ") and "imaginary residue" in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_energy_is_3(self, tmp_path, capsys):
        # a damping that dwarfs the resonance overflows the closed form's
        # working units into NaN, and a huge temperature its roundoff
        # estimate, and the rows' weighted sums, into infinity: a failed
        # point, and failed sweep rows, with no numpy warning on the way
        for config, message in (({"material.omega_tilde0_rad_s": 1e-300},
                                 "value is not finite (nan)"),
                                ({"temperature_K": 1e306}, "roundoff estimate inf")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**config, "sweep.omega_a_count": 3}))
            for command in ("energy", "force"):
                assert main(["--config", str(cfg), command, "--omega-a", "0.5"]) == 3
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith("numerical non-convergence: ") and err.count("\n") == 1
                assert message in err
            out_path = tmp_path / "out.csv"
            assert main(["--config", str(cfg), "sweep", "--out", str(out_path)]) == 0
            assert capsys.readouterr() == (f"wrote {out_path} (3 rows, 3 failed)\n", "")
            rows = read_csv_rows(out_path)
            assert len(rows) == 3
            assert all(message in row["error"] for row in rows)

    def test_infinite_temperature_is_2(self, tmp_path, capsys):
        # theta = hbar w/2kT is 0 at T = inf, which the closed form took
        # for T = 0, printing the zero-temperature values
        cfg = tmp_path / "hot.json"
        cfg.write_text('{"temperature_K": Infinity}')
        assert main(["--config", str(cfg), "energy", "--omega-a", "0.5"]) == 2
        assert capsys.readouterr() == ("", "config error: temperature must be finite, got inf\n")

    @pytest.mark.parametrize("config, message", [
        ('{"temperature_K": 5e-324}',
         "temperature_K: temperature 5e-324 K is outside the range of the closed form"),
        ('{"temperature_K": 1e307}',
         "temperature_K: temperature 1e+307 K is outside the range of the closed form"),
        ('{"material.f0": Infinity}', "material.*: f0 must be finite and > 0, got inf"),
        ('{"material.omega_tilde0_rad_s": 1.7e308}',
         "material.*: omega_tilde0 = 1.7e+308 rad/s and f0 = 12.2 give a resonance"),
    ], ids=["subnormal_temperature", "huge_temperature", "infinite_f0", "huge_omega"])
    def test_input_outside_the_domain_names_its_key(self, tmp_path, capsys, config, message):
        # 5e-324 K divided by zero (a traceback), 1e307 K was "math domain
        # error", and the material constants blamed the sweep's range keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        for args in (["energy", "--omega-a", "0.5"], ["sweep", "--out", str(tmp_path / "o.csv")]):
            assert main(["--config", str(cfg), *args]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"config error: {message}"), err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_fixed_rate_sweep_is_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep.omega_a_grid_rad_s": [1e10], '
                       f'"sweep.omega_b_value_rad_s": {value}}}')
        assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: sweep.omega_b_value_rad_s: non-finite")

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_is_2(self, tmp_path, capsys, points):
        out = tmp_path / "o.csv"
        assert main(["sweep", "--preset", "fig1_300K", "--points", points,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --points: must be >= 1, got {points}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_hamaker_not_finite_positive_is_2(self, capsys, value):
        assert main(["baseline", f"--hamaker={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --hamaker: must be finite and > 0, got ")

    def test_rel_tol_inf_stays_valid(self):
        assert SweepSpec(omega_a=(0.0,), omega_b=(0.0,), rel_tol=math.inf).rel_tol == math.inf

    def test_baseline_uses_config_context(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"material.f0": 8.0, "geometry.separation_m": 3e-7,
                                   "geometry.radius_a_m": 5e-8, "temperature_K": 30.0}))
        out = tmp_path / "base.json"
        assert main(["--config", str(cfg), "baseline", "--out", str(out),
                     "--format", "json"]) == 0
        got = json.loads(out.read_text())
        table = {r["quantity"]: r["value"] for r in got["rows"]}
        _, ctx = parse_config(str(cfg))
        material = ctx.sphere_a.material
        assert material.f0 == 8.0 and ctx.separation == 3e-7
        assert table["matsubara_static_energy_J"] == baseline.matsubara_static_energy(ctx)
        assert table["hamaker_constant_model_J"] == baseline.hamaker_constant(material, 30.0)
        assert table["static_force_reference_N"] == baseline.static_force_estimate(
            5e-20, 5e-8, 3e-7)
        assert got["metadata"]["temperature_K"] == 30.0
        assert got["metadata"]["radius_m"] == 5e-8
        assert got["metadata"]["separation_m"] == 3e-7
        default = {r["quantity"]: r["value"] for r in run_preset("baseline_static").rows}
        assert all(table[k] != default[k] for k in table
                   if k != "hamaker_constant_reference_J")

    def test_baseline_at_zero_temperature_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature_K": 0.0}))
        assert main(["--config", str(cfg), "baseline"]) == 2
        assert "config error: temperature_K: the Hamaker sum needs temperature > 0" in (
            capsys.readouterr().err)

    def test_check_reaches_every_route(self, monkeypatch):
        # the log, series and digamma routes each meet a row of the check
        calls = {}
        for name in ("_log", "_series", "_digamma"):
            inner = getattr(spectral, name)

            def counting(*args, name=name, inner=inner):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args)

            monkeypatch.setattr(spectral, name, counting)
        assert all(ok for _, ok, _ in _run_checks())
        assert set(calls) == {"_log", "_series", "_digamma"}

    def test_check_exchange_row_swaps_distinct_contexts(self, monkeypatch):
        # an identical pair would compare one evaluation with itself
        contexts = []
        inner = spectral.aux_energy

        def recording(ctx, Omega, rel_tol=None):
            contexts.append(ctx)
            return inner(ctx, Omega, rel_tol)

        monkeypatch.setattr(spectral, "aux_energy", recording)
        rows = {name: (ok, info) for name, ok, info in _run_checks()}
        pair, swapped = contexts
        assert swapped == pair.swapped() and swapped != pair
        ok, info = rows["exchange_symmetry"]
        assert ok and float(info.removeprefix("dev=")) <= 1e-9

    @staticmethod
    def _fresh_python(code):
        """What ``python -c code`` prints, with this spinvdw first on the path."""
        src = os.path.dirname(os.path.dirname(spinvdw.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=env, capture_output=True, text=True, check=True)
        return proc.stdout.strip()

    def test_import_after_numpy_loads_no_dataclasses(self):
        # generating a dataclass's methods costs start-up time; the
        # difference after numpy holds whatever numpy itself imports
        assert self._fresh_python(
            "import sys, numpy; before = set(sys.modules); import spinvdw.cli; "
            "print('dataclasses' in set(sys.modules) - before)") == "False"

    def test_import_leaves_scipy_unloaded(self):
        # the physical constants are literals; scipy would cost start-up time
        assert self._fresh_python(
            "import sys, spinvdw.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))") == "[]"
