import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinvdw
from spinvdw import configurations, spectral
from spinvdw.cli import (CSV_COLUMNS, ConfigError, SweepResult, SweepSpec, _context_for,
                         _fmt, _run_checks, emit, main, parse_config, read_csv_rows,
                         run_preset, run_sweep, spec_to_config)
from spinvdw.configurations import energy
from spinvdw.response import resonance_frequency
from spinvdw.spectral import ConvergenceError


class TestParseConfig:
    def test_empty_config_is_default_geometry(self):
        spec, ctx = parse_config(None)
        assert spec.radius_a == spec.radius_b == 60e-9
        assert spec.separation == 180e-9
        assert spec.temperature == 300.0
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


class TestSweep:
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

    def test_one_blocked_pass_and_no_row_misses(self, w0, cold_cache, monkeypatch):
        spec, ctx = parse_config({**GENERAL_AXES, "sweep.omega_a_count": 60,
                                  "sweep.omega_b_rule": "ratio",
                                  "sweep.omega_b_ratio": 0.3})
        sizes = []
        inner = spectral._closed

        def recording(rows, omega_scale, shifts):
            sizes.append(len(shifts))
            return inner(rows, omega_scale, shifts)

        monkeypatch.setattr(spectral, "_closed", recording)
        result = run_sweep(spec, ctx)
        assert not any(r["error"] for r in result.rows)
        info = spectral.cache_info()
        distinct = info["entries"] // 2          # the same shifts for BA and AB
        assert distinct > 64                     # more than one block
        # both kinds in each evaluation, every shift evaluated once
        assert info["blocks"] == len(sizes) == math.ceil(distinct / 64)
        assert max(sizes) == 64 and sum(sizes) == distinct
        assert info["misses"] == 0 and info["hits"] > 0
        spectral.clear_cache()
        assert spectral.cache_info() == {"entries": 0, "hits": 0, "misses": 0,
                                         "blocks": 0}

    def test_equal_contexts_share_entries(self, w0, cold_cache):
        # a second, distinct but equal context finds every shift in place
        config = {"arrangement": "uu", "sweep.omega_a_count": 30,
                  "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": -0.5}
        spec, ctx = parse_config(config)
        first = run_sweep(spec, ctx).rows
        info = spectral.cache_info()
        assert info["blocks"] > 0
        _, other = parse_config(config)
        assert other is not ctx and other == ctx
        assert run_sweep(spec, other).rows == first
        again = spectral.cache_info()
        assert again["blocks"] == info["blocks"] and again["misses"] == 0
        assert again["entries"] == info["entries"] and again["hits"] > info["hits"]

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

    def test_rows_written_as_fmt_fields(self, tmp_path):
        result = self._result()
        path = tmp_path / "out.csv"
        emit(result, "csv", str(path))
        lines = path.read_text().splitlines()[-len(result.rows):]
        assert lines == [",".join(_fmt(row[c]) for c in CSV_COLUMNS)
                         for row in result.rows]

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
                spec = SweepSpec(arrangement="uu", omega_b_rule="ratio",
                                 omega_b_ratio=rho, temperature=1500.0,
                                 omega_a_grid=floats(np.linspace(0.0, 5.0 * w0, 3)))
                rows += run_sweep(spec, _context_for(spec)).rows
            return result, SweepResult(rows, dict(result.metadata))
        if source == "library":
            spec = SweepSpec(arrangement="uo", omega_b_rule="grid",
                             omega_a_grid=tuple(np.linspace(0.0, 3.0 * w0, 4)),
                             omega_b_grid=tuple(np.linspace(-w0, w0, 3)))
            same = SweepSpec(arrangement="uo", omega_b_rule="grid",
                             omega_a_grid=floats(np.linspace(0.0, 3.0 * w0, 4)),
                             omega_b_grid=floats(np.linspace(-w0, w0, 3)))
            return run_sweep(spec, _context_for(spec)), run_sweep(same, _context_for(same))
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

    def test_point_command_runs(self, capsys):
        assert main(["energy", "--arrangement", "rr",
                     "--omega-a", "1.0", "--omega-b", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "deltaE_J = 0.0000000000e+00" in out

    def test_check_command(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out
        assert "general_rotation_invariance" in out
        assert "undamped_limit_0K" in out
        assert "rest_energy_vs_matsubara_300K" in out
        assert "rest_energy_vs_matsubara_0.05K" in out

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
        assert swapped == pair.swapped() and swapped._key != pair._key
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
