import csv
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import spinvdw
from spinvdw import baseline, configurations, spectral
from spinvdw.cli import (AXIS_KEYS, CSV_COLUMNS, PRESETS, ConfigError, SweepResult,
                         SweepSpec, _default_pair, _fmt, _run_checks, emit, main, parse_config,
                         read_csv_rows, run_preset, run_sweep)
from spinvdw.configurations import Arrangement, energy
from spinvdw.response import SpinningSphere, bst, resonance_frequency
from spinvdw.spectral import ConvergenceError, PairContext


def spec_to_config(spec, ctx):
    """Flat-key config dict that re-parses to the same spec and context (round trip)."""
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
        "sweep.omega_a_grid_rad_s": list(spec.omega_a_grid),
        "sweep.omega_b_rule": spec.omega_b_rule,
        "sweep.omega_b_value_rad_s": spec.omega_b_value,
        "sweep.omega_b_ratio": spec.omega_b_ratio,
        "sweep.omega_b_grid_rad_s": list(spec.omega_b_grid),
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
        assert len(spec.omega_a_grid) == 200

    def test_undamped_material_is_config_error(self):
        # gamma0 = 0 puts the poles of alpha on the real axis
        with pytest.raises(ConfigError, match="oracle"):
            parse_config({"material.gamma0_rad_s": 0.0})

    def test_round_trip(self, tmp_path):
        spec, ctx = parse_config({"temperature_K": 1500.0,
                                  "arrangement": "uu",
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": -0.5,
                                  "sweep.omega_a_count": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_to_config(spec, ctx)))
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
        with pytest.raises(ConfigError, match="omega_a_grid"):
            parse_config({"sweep.omega_a_grid_rad_s": [1.0e10, "fast"]})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fixed_rate_names_key(self, value):
        with pytest.raises(ConfigError, match="sweep.omega_b_value_rad_s: non-finite"):
            parse_config({"sweep.omega_b_value_rad_s": value})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_grid_in_rad_s(self, w0):
        spec, _ = parse_config({"sweep.omega_a_grid_rad_s": [0.0, w0, 2 * w0]})
        assert spec.omega_a_grid == (0.0, w0, 2 * w0)

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
    @pytest.mark.parametrize("value", [[1, 0], [1, 1, 0], "abc", 5, [math.nan, 0, 0]],
                             ids=["two", "not_unit", "text", "number", "nan"])
    def test_malformed_general_axis_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a unit 3-vector, got "):
            parse_config({**GENERAL_AXES, key: value})
        # a library caller's spec gets the same error
        axes = [value if k == key else GENERAL_AXES[k] for k in AXIS_KEYS]
        with pytest.raises(ConfigError, match=f"^{key} must be a unit 3-vector, got "):
            SweepSpec(arrangement="general", omega_a_grid=(0.0,), axes=tuple(axes))


class TestSweepSpec:
    """The spec checks its own fields, for library callers as for configs."""

    AXES = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("axes, key", [((), "arrangement.axis_a"),
                                           (AXES[:2], "arrangement.rhat"),
                                           ((AXES[0], None, AXES[2]), "arrangement.axis_b")],
                             ids=["none", "no_rhat", "no_axis_b"])
    def test_general_without_an_axis_is_config_error(self, axes, key):
        with pytest.raises(ConfigError, match=f"^general arrangement needs {key}$"):
            SweepSpec(arrangement="general", omega_a_grid=(0.0,), axes=axes)

    def test_more_than_three_axes_is_config_error(self):
        with pytest.raises(ConfigError, match="^axes: "):
            SweepSpec(arrangement="general", omega_a_grid=(0.0,), axes=self.AXES * 2)

    def test_general_axes_are_float_tuples(self):
        spec = SweepSpec(arrangement="general", omega_a_grid=(0.0,),
                         axes=([0, 0, 1], [0, 0, 1], [1, 0, 0]))
        assert spec.axes == self.AXES
        assert all(type(c) is float for axis in spec.axes for c in axis)
        config = {"arrangement": "general", "sweep.omega_a_grid_rad_s": [0.0],
                  **dict(zip(AXIS_KEYS, ([0, 0, 1], [0, 0, 1], [1, 0, 0])))}
        assert parse_config(config)[0] == spec


class TestSweep:
    def test_metadata_reports_the_context(self):
        # the pair that was computed, whatever the spec's defaults are
        ctx = PairContext(SpinningSphere(50e-9, bst(), 0.0),
                          SpinningSphere(70e-9, bst(), 0.0), 200e-9)
        result = run_sweep(SweepSpec(omega_a_grid=(1e10,)), ctx)
        meta = result.metadata
        assert list(meta) == [
            "artifact", "version", "arrangement", "material_f0",
            "material_omega_tilde0_rad_s", "material_gamma0_rad_s", "omega0_rad_s",
            "radius_a_m", "radius_b_m", "separation_m", "temperature_K", "rel_tol"]
        assert (meta["radius_a_m"], meta["radius_b_m"]) == (50e-9, 70e-9)
        assert meta["separation_m"] == 200e-9
        assert meta["temperature_K"] == 0.0
        assert result.rows[0]["E0_J"] == energy(ctx, Arrangement("rr"), 0.0, 0.0)

    def test_single_point_at_rest(self):
        spec, ctx = parse_config({"sweep.omega_a_grid_rad_s": [0.0]})
        result = run_sweep(spec, ctx)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["deltaF_fN"] == 0.0 and row["deltaE_J"] == 0.0
        assert row["error"] == ""
        assert row["E_J"] == row["E0_J"] < 0.0

    def test_ratio_rule_pairs(self, w0):
        spec, ctx = parse_config({"sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": -0.5,
                                  "sweep.omega_a_grid_rad_s": [w0, 2 * w0]})
        pts = spec.grid_points()
        assert pts == [(w0, -0.5 * w0), (2 * w0, -w0)]

    def test_grid_rule_product(self, w0):
        spec, _ = parse_config({"sweep.omega_b_rule": "grid",
                                "sweep.omega_b_grid_rad_s": [0.0, w0],
                                "sweep.omega_a_grid_rad_s": [0.0, w0, 2 * w0]})
        assert len(spec.grid_points()) == 6

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
    """Slot -> summed c of ``terms``, in first-seen order."""
    weights = {}
    for s, t, c in terms:
        n = round(abs(s * omega_a - t * omega_b) / ctx._scaled[0] / 1e-12)
        weights[n] = weights[n] + c if n in weights else c
    return weights


def _merged_energy(ctx, terms, omega_a, omega_b):
    """2 sum C (BA + AB) over the merged slots, from the context's default table."""
    values = ctx._table[spectral.DEFAULT_REL_TOL][0]
    total = 0.0
    for n, c in _merged(ctx, terms, omega_a, omega_b).items():
        total += c * values[n]
    return 2.0 * ctx._joules * total


def _unmerged_energy(ctx, terms, omega_a, omega_b):
    """The same sum taken term by term, which rounds repeated slots differently."""
    values = ctx._table[spectral.DEFAULT_REL_TOL][0]
    total = 0.0
    for s, t, c in terms:
        total += c * values[round(abs(s * omega_a - t * omega_b) / ctx._scaled[0] / 1e-12)]
    return 2.0 * ctx._joules * total


@pytest.fixture
def cold_cache():
    spectral.clear_cache()
    yield
    spectral.clear_cache()   # drop entries a test may have corrupted


class TestBlockedSweep:
    """A sweep evaluates its shift integrals up front; rows only look up."""

    @staticmethod
    def _assert_rows_match_unbatched(spec, ctx):
        rows = run_sweep(spec, ctx).rows
        arrangement = spec.make_arrangement()
        spectral.clear_cache()
        e0 = energy(ctx, arrangement, 0.0, 0.0, spec.rel_tol)
        for row in rows:
            # each row on its own, from a cold cache, as an unbatched sweep
            spectral.clear_cache()
            e = energy(ctx, arrangement, row["omega_A_rad_s"], row["omega_B_rad_s"],
                       spec.rel_tol)
            scale = 1e-13 * max(abs(e), abs(e0))
            assert not row["error"]
            assert abs(row["E_J"] - e) <= scale, (row, e)
            assert abs(row["E0_J"] - e0) <= scale, (row, e0)

    @pytest.mark.parametrize("temperature", [0.0, 300.0, 1500.0])
    @pytest.mark.parametrize("arrangement", [{"arrangement": "rr"},
                                             {"arrangement": "uu"}, GENERAL_AXES],
                             ids=["rr", "uu", "general"])
    def test_rows_equal_unbatched_energies(self, w0, cold_cache, temperature,
                                           arrangement):
        spec, ctx = parse_config({
            **arrangement, "temperature_K": temperature,
            "sweep.omega_a_grid_rad_s": list(np.linspace(0.0, 4.5 * w0, 12)),
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.4})
        self._assert_rows_match_unbatched(spec, ctx)

    @pytest.mark.parametrize("damping", [2.0, 2.5])
    def test_overdamped_context_rows_equal_unbatched(self, w0, cold_cache, damping):
        # gamma0 = 2 w0 (the mean over the circle) and 2.5 w0 (poles on the
        # imaginary axis) go through the same blocked pass as any material
        spec, ctx = parse_config({
            "material.gamma0_rad_s": damping * w0,
            "sweep.omega_a_grid_rad_s": [0.0, 0.7 * w0, 1.9 * w0]})
        self._assert_rows_match_unbatched(spec, ctx)

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

    def test_one_blocked_pass_and_no_row_misses(self, w0, cold_cache, monkeypatch):
        # identical spheres, one row of one point per shift: the sweep's 207
        # shifts, more than 64, in one evaluation
        spec, ctx = parse_config({**GENERAL_AXES, "sweep.omega_a_count": 60,
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": 0.3})
        points = self._record_points(monkeypatch)
        result = run_sweep(spec, ctx)
        assert not any(r["error"] for r in result.rows)
        info = spectral.cache_info()
        distinct = info["entries"] // 2          # the same shifts for BA and AB
        assert 64 < distinct <= spectral._BLOCK
        # both kinds in each evaluation, every shift evaluated once
        assert info["blocks"] == 1 and points == [distinct]
        assert info["misses"] == 0
        spectral.clear_cache()
        assert spectral.cache_info() == {"entries": 0, "misses": 0, "blocks": 0}

    def test_near_critical_pair_blocks_bounded_by_points(self, w0, cold_cache, monkeypatch):
        # unequal materials, A within the circle of critical damping: 2 rows
        # of 8 points per shift, so a block holds 64 shifts, and the sweep's
        # shifts take several blocks of at most _BLOCK points
        spec, ctx = parse_config({
            "arrangement": "uu", "material.gamma0_rad_s": 2.0 * w0,
            "material_b.f0": 8.0, "material_b.omega_tilde0_rad_s": 6.5e9,
            "material_b.gamma0_rad_s": 4e8, "sweep.omega_a_count": 50,
            "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.4})
        assert len(ctx._rows) == 2 and max(map(len, ctx._poles)) == 8
        points = self._record_points(monkeypatch)
        run_sweep(spec, ctx)
        distinct = spectral.cache_info()["entries"] // 2
        assert distinct > 64
        assert spectral.cache_info()["blocks"] == len(points) == math.ceil(distinct / 64)
        assert sum(points) == 16 * distinct and max(points) == spectral._BLOCK
        self._assert_rows_match_unbatched(spec, ctx)
        assert max(points) == spectral._BLOCK   # no unbatched row's call above it

    def test_cold_six_preset_pass_counters(self, cold_cache, monkeypatch):
        # every row of the six presets is a lookup after its sweep's prefetch,
        # and each preset's shifts fit in one block: the second sweep of a
        # fig2 preset (counter-rotating) needs the shifts of the first. Each
        # preset evaluates into a context of its own, which it drops
        shifts = []
        inner = spectral._closed_kinds

        def recording(ctx, block):
            shifts.append(len(block))
            return inner(ctx, block)

        monkeypatch.setattr(spectral, "_closed_kinds", recording)
        for name in PRESETS:
            run_preset(name)
        assert shifts == [200, 200, 333, 389, 200] and 2 * sum(shifts) == 2644
        assert spectral.cache_info() == {"entries": 0, "misses": 0, "blocks": 5}

    def test_equal_contexts_keep_their_own_entries(self, w0, cold_cache):
        # a second, distinct but equal context, built while the first is
        # live, evaluates its own entries and gives the same rows
        config = {"arrangement": "uu", "sweep.omega_a_count": 30,
                  "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.5}
        spec, ctx = parse_config(config)
        first = run_sweep(spec, ctx).rows
        info = spectral.cache_info()
        assert info["blocks"] == 1 and info["misses"] == 0
        _, other = parse_config(config)
        assert other is not ctx and other == ctx and not other._table
        assert run_sweep(spec, other).rows == first
        assert other._table == ctx._table
        assert spectral.cache_info() == {"entries": 2 * info["entries"], "misses": 0,
                                         "blocks": 2}

    @pytest.mark.parametrize("config", [
        {"arrangement": "uu", "temperature_K": 1500.0, "sweep.omega_b_ratio": 1.0},
        {**GENERAL_AXES, "temperature_K": 0.0, "sweep.omega_b_ratio": 1.0},
        {"arrangement": "uu", "temperature_K": 1500.0, "sweep.omega_b_ratio": -1.0},
    ], ids=["fig2c_co", "general_equal_rates", "fig2c_counter"])
    def test_repeated_slots_keep_their_bits(self, w0, cold_cache, config):
        # rows whose terms share a slot sum the merged weight once: by the
        # sweep, by a one-point call on the sweep's entries, and by a cold
        # one-point call, each as the slot-merged sum of the entries it read
        spec, ctx = parse_config({**config, "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_a_grid_rad_s":
                                      list(np.linspace(0.0, 5.0 * w0, 41))})
        arrangement = spec.make_arrangement()
        rows = run_sweep(spec, ctx).rows
        unmerged = 0
        for row in rows:
            rates = row["omega_A_rad_s"], row["omega_B_rad_s"]
            assert len(_merged(ctx, arrangement._terms, *rates)) < len(arrangement._terms)
            assert row["E_J"] == _merged_energy(ctx, arrangement._terms, *rates)
            assert energy(ctx, arrangement, *rates, spec.rel_tol) == row["E_J"]
            unmerged += row["E_J"] != _unmerged_energy(ctx, arrangement._terms, *rates)
        assert unmerged                     # merging is what these rows check
        for row in rows[::8]:
            rates = row["omega_A_rad_s"], row["omega_B_rad_s"]
            spectral.clear_cache()
            cold = energy(ctx, arrangement, *rates, spec.rel_tol)
            assert cold == _merged_energy(ctx, arrangement._terms, *rates)
            assert energy(ctx, arrangement, *rates, spec.rel_tol) == cold

    def test_delta_energy_rest_term_keeps_its_bits(self, w0, cold_cache):
        # the rest term -sum c sits in slot 0 with (0, 0), and with every
        # other term whose shift vanishes
        _, ctx = parse_config({"temperature_K": 300.0})
        for kind in ("rr", "uu", "ur", "uo"):
            arrangement = Arrangement(kind)
            terms = arrangement._terms + ((0.0, 0.0, -sum(c for _, _, c in arrangement._terms)),)
            for rates in [(1.3 * w0, -0.4 * w0), (0.7 * w0, 0.7 * w0), (0.0, 0.9 * w0),
                          (0.8 * w0, -0.8 * w0), (0.0, 0.0)]:
                spectral.clear_cache()
                cold = configurations.delta_energy(ctx, arrangement, *rates)
                assert cold == _merged_energy(ctx, terms, *rates) + 0.0
                assert configurations.delta_energy(ctx, arrangement, *rates) == cold

    @pytest.mark.parametrize("materials, rel_tol", [
        ({"material.gamma0_rad_s": 3.2e10}, 3e-14),
        ({"material_b.f0": 8.0, "material_b.gamma0_rad_s": 4e8}, 1e-14),
    ], ids=["overdamped", "unequal_materials"])
    def test_failing_rel_tol_fills_error_column_as_lookups_do(self, w0, cold_cache,
                                                              materials, rel_tol):
        # the rows that read a slot which fails at rel_tol raise what a
        # lookup raises that checks the sweep's one evaluation value by
        # value, in the walk's order, where the sweep checked each block
        # as one array comparison
        spec, ctx = parse_config({**materials, "arrangement": "uo",
                                  "sweep.omega_a_grid_rad_s":
                                      list(np.linspace(0.0, 4.5 * w0, 60)),
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": -0.4,
                                  "quadrature.rel_tol": rel_tol})
        arrangement = spec.make_arrangement()
        rows = run_sweep(spec, ctx).rows
        assert spectral.cache_info()["blocks"] == 1
        slots = spectral._slots(ctx._scaled[0], arrangement._terms, spec.grid_points(),
                                {0: 0.0})
        values, roundoff = spectral._closed_kinds(ctx, list(slots.values()))
        evaluated = dict(zip(slots, zip(values.real.T.tolist(), roundoff.T.tolist(),
                                        values.imag.T.tolist())))

        def lookup(omega_a, omega_b):
            total = 0.0
            for n, c in _merged(ctx, arrangement._terms, omega_a, omega_b).items():
                real, estimate, imag = evaluated[n]
                for k, which in enumerate(spectral._KINDS):
                    spectral._check(which, real[k], estimate[k], imag[k], rel_tol)
                total += c * (real[0] + real[1])
            return 2.0 * ctx._joules * total

        e0 = lookup(0.0, 0.0)
        for row in rows:
            try:
                want, e = "", lookup(row["omega_A_rad_s"], row["omega_B_rad_s"])
            except (ConvergenceError, ArithmeticError) as exc:
                want = type(exc).__name__ + ": " + str(exc)
            assert row["error"] == want
            if not want:
                assert (row["E_J"], row["E0_J"]) == (e, e0)
        assert {bool(r["error"]) for r in rows} == {True, False}

    def test_bad_shift_fails_only_its_rows(self, w0, cold_cache, monkeypatch):
        # rr with Omega_B = 0 needs the shifts Omega_A and 0, so one bad
        # shift belongs to one row; its lookup raises, the sweep goes on
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

    def test_inflated_roundoff_fails_only_its_row(self, w0, cold_cache, monkeypatch):
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
        inner = configurations.energy

        def failing(ctx, arrangement, wa, wb, rel_tol=None):
            if wa == 0.0:
                return inner(ctx, arrangement, wa, wb, rel_tol)
            raise ConvergenceError('error estimate 1e-3, tolerance 1e-15, "quoted"')

        monkeypatch.setattr(configurations, "energy", failing)
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
        zeros = SweepResult([{"a": 0.0, "b": 1.0, "c": 2.5, "error": ""},
                             {"a": -0.0, "b": 1.0, "c": 2.5, "error": ""},
                             {"a": 0.0, "b": 2.0, "c": 2.5, "error": 'x, "y"'}], {})
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
            rows = []
            for rho in (0.5, -0.5):
                spec = SweepSpec(arrangement="uu", omega_b_rule="ratio", omega_b_ratio=rho,
                                 omega_a_grid=floats(np.linspace(0.0, 5.0 * w0, 3)))
                rows += run_sweep(spec, _default_pair(1500.0)).rows
            return result, SweepResult(rows, dict(result.metadata))
        if source == "library":
            spec = SweepSpec(arrangement="uo", omega_b_rule="grid",
                             omega_a_grid=tuple(np.linspace(0.0, 3.0 * w0, 4)),
                             omega_b_grid=tuple(np.linspace(-w0, w0, 3)))
            same = SweepSpec(arrangement="uo", omega_b_rule="grid",
                             omega_a_grid=floats(np.linspace(0.0, 3.0 * w0, 4)),
                             omega_b_grid=floats(np.linspace(-w0, w0, 3)))
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
        # each preset alone from a cold cache, after every other preset, and
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
            spectral.clear_cache()
            alone.update(run([name]))
        for name in PRESETS:
            others = [other for other in PRESETS if other != name]
            assert run(others + [name])[name] == alone[name], name
        assert run(PRESETS[::-1]) == alone

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
        assert SweepSpec(omega_a_grid=(0.0,), rel_tol=math.inf).rel_tol == math.inf

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
        spectral.clear_cache()
        assert all(ok for _, ok, _ in _run_checks())
        assert set(calls) == {"_log", "_series", "_digamma"}
        spectral.clear_cache()

    def test_check_exchange_row_swaps_distinct_contexts(self, monkeypatch):
        # an identical pair would compare one cache entry with itself
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

    def test_import_leaves_scipy_unloaded(self):
        # the physical constants are literals; scipy would cost start-up time
        src = os.path.dirname(os.path.dirname(spinvdw.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spinvdw.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"
