"""Command-line surface: configs, figure-reproduction sweeps, CSV/JSON output.

The CLI computes single energy/force points, parameter sweeps over rotation
rates (including named presets reproducing the published force-modification
curves), closed-form oracle ratios, and the static baselines. It emits
plot-ready CSV or JSON only; no plotting.

Config files are JSON objects with flat dotted keys; every key is optional
and the empty config reproduces the default BST pair (a = 60 nm, R = 180 nm,
T = 300 K). See the README for the schema.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import baseline, configurations, oracle, spectral
from .configurations import Arrangement, ArrangementKind
from .response import MaterialModel, SpinningSphere, bst, resonance_frequency
from .spectral import ConvergenceError, PairContext

__all__ = ["ConfigError", "SweepSpec", "SweepResult", "parse_config",
           "run_sweep", "emit", "run_preset", "PRESETS", "main"]

VERSION = "0.1.0"

CSV_COLUMNS = ("omega_A_rad_s", "omega_B_rad_s", "omega_A_over_omega0",
               "E_J", "E0_J", "deltaE_J", "F_N", "deltaF_fN", "error")

DEFAULT_RADIUS = 60e-9
DEFAULT_SEPARATION = 180e-9
DEFAULT_TEMPERATURE = 300.0


class ConfigError(ValueError):
    """Bad or inconsistent configuration; the message names the key."""


@dataclass(frozen=True)
class SweepSpec:
    """One rotation-rate sweep: grid, pairing rule, geometry, and output.

    ``omega_b_rule`` is one of "fixed" (constant Omega_B), "ratio"
    (Omega_B = rho * Omega_A with |rho| <= 1, sign selecting co- or
    counter-rotation), or "grid" (cartesian product with ``omega_b_grid``).
    """

    arrangement: str = "rr"
    omega_a_grid: tuple = ()          # rad/s
    omega_b_rule: str = "fixed"
    omega_b_value: float = 0.0        # rad/s, for "fixed"
    omega_b_ratio: float = 0.0        # for "ratio"
    omega_b_grid: tuple = ()          # rad/s, for "grid"
    temperature: float = DEFAULT_TEMPERATURE
    radius_a: float = DEFAULT_RADIUS
    radius_b: float = DEFAULT_RADIUS
    separation: float = DEFAULT_SEPARATION
    rel_tol: float = spectral.DEFAULT_REL_TOL
    out_path: str = ""
    out_format: str = "csv"
    axes: tuple = ()                  # (axis_a, axis_b, rhat) when general

    def __post_init__(self):
        # Python floats, whatever built the rates: rows, shifts and cache
        # slots then skip numpy scalar arithmetic
        for name in ("omega_a_grid", "omega_b_grid"):
            try:
                vals = tuple(float(v) for v in getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from None
            if any(not math.isfinite(v) for v in vals):
                raise ConfigError(f"{name}: non-finite value")
            object.__setattr__(self, name, vals)
        for name in ("omega_b_value", "omega_b_ratio"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.arrangement not in ("rr", "uu", "ur", "uo", "general"):
            raise ConfigError(f"arrangement: unknown value {self.arrangement!r}")
        if self.omega_b_rule not in ("fixed", "ratio", "grid"):
            raise ConfigError(f"sweep.omega_b_rule: unknown value {self.omega_b_rule!r}")
        if self.omega_b_rule == "ratio" and not abs(self.omega_b_ratio) <= 1.0:
            raise ConfigError(
                f"sweep.omega_b_ratio: |rho| <= 1 required, got {self.omega_b_ratio}")
        if self.omega_b_rule == "grid" and not self.omega_b_grid:
            raise ConfigError("sweep.omega_b_grid_rad_s: empty grid")
        if not self.omega_a_grid:
            raise ConfigError("sweep.omega_a grid: empty grid")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format: must be csv or json, got {self.out_format!r}")

    def grid_points(self):
        """The (Omega_A, Omega_B) pairs of this sweep, in grid order."""
        if self.omega_b_rule == "fixed":
            return [(wa, self.omega_b_value) for wa in self.omega_a_grid]
        if self.omega_b_rule == "ratio":
            return [(wa, self.omega_b_ratio * wa) for wa in self.omega_a_grid]
        return [(wa, wb) for wa in self.omega_a_grid for wb in self.omega_b_grid]

    def make_arrangement(self):
        if self.arrangement == "general":
            axis_a, axis_b, rhat = self.axes
            return Arrangement("general", axis_a, axis_b, rhat)
        return Arrangement(self.arrangement)


@dataclass
class SweepResult:
    """Rows of computed sweep points plus run metadata."""

    rows: list
    metadata: dict


def _get(cfg, key, cast, default):
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _material_from(cfg, prefix, default):
    f0 = _get(cfg, f"{prefix}.f0", float, default.f0)
    wt0 = _get(cfg, f"{prefix}.omega_tilde0_rad_s", float, default.omega_tilde0)
    g0 = _get(cfg, f"{prefix}.gamma0_rad_s", float, default.gamma0)
    try:
        return MaterialModel(f0, wt0, g0)
    except ValueError as exc:
        raise ConfigError(f"{prefix}.*: {exc}") from None


def parse_config(source=None):
    """Build a (SweepSpec, PairContext) pair from a config file or dict.

    ``source`` may be a path, an already-parsed dict, or None (defaults).
    Unknown keys are rejected so typos fail loudly.
    """
    if source is None:
        cfg = {}
    elif isinstance(source, dict):
        cfg = dict(source)
    else:
        try:
            with open(source) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {source} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {source}: top level must be an object")

    known = {
        "material.f0", "material.omega_tilde0_rad_s", "material.gamma0_rad_s",
        "material_b.f0", "material_b.omega_tilde0_rad_s", "material_b.gamma0_rad_s",
        "geometry.radius_a_m", "geometry.radius_b_m", "geometry.separation_m",
        "temperature_K", "arrangement",
        "arrangement.axis_a", "arrangement.axis_b", "arrangement.rhat",
        "sweep.omega_a_grid_rad_s", "sweep.omega_a_start_over_omega0",
        "sweep.omega_a_stop_over_omega0", "sweep.omega_a_count",
        "sweep.omega_b_rule", "sweep.omega_b_value_rad_s",
        "sweep.omega_b_ratio", "sweep.omega_b_grid_rad_s",
        "quadrature.rel_tol", "output.path", "output.format",
    }
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    mat_a = _material_from(cfg, "material", bst())
    mat_b = _material_from(cfg, "material_b", mat_a) if any(
        k.startswith("material_b.") for k in cfg) else mat_a

    radius_a = _get(cfg, "geometry.radius_a_m", float, DEFAULT_RADIUS)
    radius_b = _get(cfg, "geometry.radius_b_m", float, radius_a)
    separation = _get(cfg, "geometry.separation_m", float, DEFAULT_SEPARATION)
    temperature = _get(cfg, "temperature_K", float, DEFAULT_TEMPERATURE)

    w0 = resonance_frequency(mat_a)
    if "sweep.omega_a_grid_rad_s" in cfg:
        grid = cfg["sweep.omega_a_grid_rad_s"]
    else:
        start = _get(cfg, "sweep.omega_a_start_over_omega0", float, 0.0)
        stop = _get(cfg, "sweep.omega_a_stop_over_omega0", float, 4.0)
        count = _get(cfg, "sweep.omega_a_count", int, 200)
        if count < 1:
            raise ConfigError("sweep.omega_a_count: must be >= 1")
        grid = np.linspace(start * w0, stop * w0, count)

    axes = ()
    arrangement = _get(cfg, "arrangement", str, "rr")
    if arrangement == "general":
        try:
            axes = tuple(tuple(float(c) for c in cfg[k]) for k in
                         ("arrangement.axis_a", "arrangement.axis_b",
                          "arrangement.rhat"))
        except KeyError as exc:
            raise ConfigError(f"general arrangement needs {exc.args[0]}") from None

    try:
        spec = SweepSpec(
            arrangement=arrangement,
            omega_a_grid=grid,
            omega_b_rule=_get(cfg, "sweep.omega_b_rule", str, "fixed"),
            omega_b_value=_get(cfg, "sweep.omega_b_value_rad_s", float, 0.0),
            omega_b_ratio=_get(cfg, "sweep.omega_b_ratio", float, 0.0),
            omega_b_grid=cfg.get("sweep.omega_b_grid_rad_s", ()),
            temperature=temperature,
            radius_a=radius_a, radius_b=radius_b, separation=separation,
            rel_tol=_get(cfg, "quadrature.rel_tol", float, spectral.DEFAULT_REL_TOL),
            out_path=_get(cfg, "output.path", str, ""),
            out_format=_get(cfg, "output.format", str, "csv"),
            axes=axes,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    try:
        ctx = _context_for(spec, mat_a, mat_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, ctx


def _context_for(spec, mat_a=None, mat_b=None):
    mat_a = bst() if mat_a is None else mat_a
    mat_b = mat_a if mat_b is None else mat_b
    sphere_a = SpinningSphere(spec.radius_a, mat_a, spec.temperature)
    sphere_b = SpinningSphere(spec.radius_b, mat_b, spec.temperature)
    return PairContext(sphere_a, sphere_b, spec.separation)


def spec_to_config(spec, ctx):
    """Flat-key config dict that re-parses to the same spec (round trip)."""
    ma, mb = ctx.sphere_a.material, ctx.sphere_b.material
    cfg = {
        "material.f0": ma.f0,
        "material.omega_tilde0_rad_s": ma.omega_tilde0,
        "material.gamma0_rad_s": ma.gamma0,
        "geometry.radius_a_m": spec.radius_a,
        "geometry.radius_b_m": spec.radius_b,
        "geometry.separation_m": spec.separation,
        "temperature_K": spec.temperature,
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


def run_sweep(spec, ctx):
    """Evaluate every grid point of a sweep; failures go to the error column.

    Every shift integral the sweep needs is evaluated first, in a few
    blocked passes, so the zero-rotation reference F(0,0), computed once
    and shared by all rows, and the rows, in grid order, are lookups.
    """
    arrangement = spec.make_arrangement()
    w0 = resonance_frequency(ctx.sphere_a.material)
    points = spec.grid_points()
    spectral.prefetch(ctx, arrangement._terms, points)
    try:
        e0 = configurations.energy(ctx, arrangement, 0.0, 0.0, spec.rel_tol)
        f0 = 6.0 * e0 / ctx.separation
        e0_error = ""
    except (ConvergenceError, ArithmeticError) as exc:
        e0 = f0 = math.nan
        e0_error = type(exc).__name__ + ": " + str(exc)

    def compute(wa, wb):
        try:
            if e0_error:
                raise ConvergenceError(f"zero-rotation reference failed: {e0_error}")
            e = configurations.energy(ctx, arrangement, wa, wb, spec.rel_tol)
        except (ConvergenceError, ArithmeticError) as exc:
            return {"omega_A_rad_s": wa, "omega_B_rad_s": wb,
                    "omega_A_over_omega0": wa / w0,
                    "E_J": math.nan, "E0_J": e0, "deltaE_J": math.nan,
                    "F_N": math.nan, "deltaF_fN": math.nan,
                    "error": type(exc).__name__ + ": " + str(exc)}
        f = 6.0 * e / ctx.separation
        return {"omega_A_rad_s": wa, "omega_B_rad_s": wb,
                "omega_A_over_omega0": wa / w0,
                "E_J": e, "E0_J": e0, "deltaE_J": e - e0,
                "F_N": f, "deltaF_fN": (f - f0) * 1e15, "error": ""}

    rows = [compute(wa, wb) for wa, wb in points]

    ma = ctx.sphere_a.material
    metadata = {
        "artifact": "spinvdw", "version": VERSION,
        "arrangement": spec.arrangement,
        "material_f0": ma.f0, "material_omega_tilde0_rad_s": ma.omega_tilde0,
        "material_gamma0_rad_s": ma.gamma0,
        "omega0_rad_s": w0,
        "radius_a_m": spec.radius_a, "radius_b_m": spec.radius_b,
        "separation_m": spec.separation, "temperature_K": spec.temperature,
        "rel_tol": spec.rel_tol,
    }
    return SweepResult(rows, metadata)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quoted(text):
    """A CSV text field, quoted per RFC 4180 if it holds a comma, quote or newline."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit(result, fmt, path):
    """Write a result as CSV (metadata in '#' comments) or JSON.

    CSV columns are fixed: omega_A_rad_s, omega_B_rad_s,
    omega_A_over_omega0, E_J, E0_J, deltaE_J, F_N, deltaF_fN, error.
    Floats carry 17 significant digits so a re-read reproduces them exactly.
    Every row is written with one line format, built from the field types
    of the first row (floats as %.17g, anything else as text); a text field
    that holds a comma, quote or newline is quoted.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format: must be csv or json, got {fmt!r}")
    if fmt == "csv":
        rows = result.rows
        columns = rows[0].keys() if rows else CSV_COLUMNS
        lines = [f"# {key} = {_fmt(value)}\n" for key, value in result.metadata.items()]
        lines.append(",".join(columns) + "\n")
        if rows:
            line = ",".join(f"%({c}).17g" if isinstance(v, float) else f"%({c})s"
                            for c, v in rows[0].items()) + "\n"
            texts = [c for c, v in rows[0].items() if isinstance(v, str)]
            for row in rows:
                for c in texts:
                    if row[c]:
                        row = {**row, c: _quoted(row[c])}
                lines.append(line % row)
        text = "".join(lines)
    else:
        text = json.dumps({"metadata": result.metadata, "rows": result.rows},
                          indent=1) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def read_csv_rows(path):
    """Parse an emitted CSV back into row dicts (floats where possible)."""
    import csv      # here, so that sweeps and their output do not import it

    with open(path, newline="") as fh:
        body = itertools.dropwhile(lambda line: line.startswith("#"), fh)
        records = [record for record in csv.reader(body) if record]
    rows = []
    for record in records[1:]:
        row = {}
        for key, raw in zip(records[0], record):
            try:
                row[key] = float(raw)
            except ValueError:
                row[key] = raw
        rows.append(row)
    return rows


def _preset_specs(name):
    """Sweep specs for a named reproduction recipe."""
    w0 = resonance_frequency(bst())

    def fig1(temperature):
        return [SweepSpec(arrangement="rr",
                          omega_a_grid=np.linspace(0.0, 4.0 * w0, 200),
                          omega_b_rule="fixed", omega_b_value=0.0,
                          temperature=temperature)]

    def fig2(ratio):
        grid = np.linspace(0.0, 5.0 * w0, 200)
        return [SweepSpec(arrangement="uu", omega_a_grid=grid,
                          omega_b_rule="ratio", omega_b_ratio=rho,
                          temperature=1500.0)
                for rho in (ratio, -ratio)]   # co-rotating, then counter

    table = {
        "fig1_300K": lambda: fig1(300.0),
        "fig1_1500K": lambda: fig1(1500.0),
        "fig2a": lambda: fig2(0.5),
        "fig2b": lambda: fig2(0.9),
        "fig2c": lambda: fig2(1.0),
    }
    if name not in table and name != "baseline_static":
        raise ConfigError(f"unknown preset {name!r}; choose from "
                          f"{sorted(list(table) + ['baseline_static'])}")
    return table[name]() if name != "baseline_static" else None


PRESETS = ("fig1_300K", "fig1_1500K", "fig2a", "fig2b", "fig2c",
           "baseline_static")


def run_preset(name, rel_tol=None, points=None):
    """Run a named preset and return its result.

    ``points`` overrides the grid length (for quick runs and tests);
    ``baseline_static`` returns a key/value table instead of a sweep.
    """
    if name == "baseline_static":
        return _baseline_result()
    specs = _preset_specs(name)
    rows, metadata = [], {}
    for spec in specs:
        if points is not None:
            grid = np.linspace(spec.omega_a_grid[0], spec.omega_a_grid[-1], points)
            spec = replace(spec, omega_a_grid=grid)
        if rel_tol is not None:
            spec = replace(spec, rel_tol=rel_tol)
        result = run_sweep(spec, _context_for(spec))
        rows.extend(result.rows)
        metadata = result.metadata
    metadata["preset"] = name
    return SweepResult(rows, metadata)


def _baseline_result(temperature=DEFAULT_TEMPERATURE, hamaker_ref=5e-20):
    """Static baseline quantities as a key/value table."""
    spec = SweepSpec(omega_a_grid=(0.0,), temperature=temperature)
    ctx = _context_for(spec)
    mspec = baseline.MatsubaraSpec(temperature)
    h_model = baseline.hamaker_constant(ctx.sphere_a.material, mspec)
    e_matsubara = baseline.matsubara_static_energy(ctx, mspec)
    f_ref = baseline.static_force_estimate(hamaker_ref, spec.radius_a,
                                           spec.separation)
    rows = [
        {"quantity": "matsubara_static_energy_J", "value": e_matsubara},
        {"quantity": "hamaker_constant_model_J", "value": h_model},
        {"quantity": "hamaker_constant_reference_J", "value": hamaker_ref},
        {"quantity": "static_energy_reference_J",
         "value": baseline.static_energy_estimate(hamaker_ref, spec.radius_a,
                                                  spec.separation)},
        {"quantity": "static_force_reference_N", "value": f_ref},
        {"quantity": "static_force_reference_fN", "value": f_ref * 1e15},
    ]
    metadata = {"artifact": "spinvdw", "version": VERSION,
                "preset": "baseline_static",
                "temperature_K": temperature,
                "radius_m": spec.radius_a, "separation_m": spec.separation}
    return SweepResult(rows, metadata)


def _run_checks(rel_tol=1e-7):
    """Cheap end-to-end invariant checks; returns a list of (name, ok, info)."""
    spec = SweepSpec(omega_a_grid=(0.0,))
    ctx = _context_for(spec)
    w0 = resonance_frequency(ctx.sphere_a.material)
    checks = []

    def record(name, ok, info=""):
        checks.append((name, bool(ok), info))

    energies = [configurations.energy(ctx, Arrangement(k), 0.0, 0.0, rel_tol)
                for k in ("rr", "uu", "ur", "uo")]
    spread = (max(energies) - min(energies)) / abs(energies[0])
    record("zero_rotation_identity", spread < 1e-10, f"spread={spread:.2e}")

    rr = Arrangement("rr")
    e1 = configurations.energy(ctx, rr, 1.2 * w0, 0.4 * w0, rel_tol)
    e2 = configurations.energy(ctx, rr, 1.5 * w0, 0.7 * w0, rel_tol)
    dev = abs(e2 / e1 - 1.0)
    record("rr_shift_invariance", dev < 1e-9, f"dev={dev:.2e}")

    for kind in ("rr", "uu", "ur", "uo"):
        arr = Arrangement(kind)
        ep = configurations.energy(ctx, arr, 1.3 * w0, -0.6 * w0, rel_tol)
        em = configurations.energy(ctx, arr, -1.3 * w0, 0.6 * w0, rel_tol)
        dev = abs(em / ep - 1.0)
        record(f"parity_{kind}", dev < 1e-9, f"dev={dev:.2e}")

    # an identical pair would compare a cache entry with itself; these
    # spheres differ in material, radius and temperature
    pair = PairContext(
        SpinningSphere(50e-9, ctx.sphere_a.material, 300.0),
        SpinningSphere(70e-9, MaterialModel(8.0, 6.5e9, 4e8), 900.0),
        spec.separation)
    ea = spectral.aux_energy(pair, 0.8 * w0, rel_tol)
    eb = spectral.aux_energy(pair.swapped(), 0.8 * w0, rel_tol)
    dev = abs(eb / ea - 1.0)
    record("exchange_symmetry", dev < 1e-9, f"dev={dev:.2e}")

    # a proper rotation (orthonormal rows, det +1) that moves every axis
    uu = Arrangement("uu")
    m = np.array([[2.0, -1.0, 2.0], [2.0, 2.0, -1.0], [-1.0, 2.0, 2.0]]) / 3.0
    turned = Arrangement("general", *(m @ v for v in (uu.axis_a, uu.axis_b, uu.rhat)))
    e_turned = configurations.energy(ctx, turned, 0.9 * w0, -0.3 * w0, rel_tol)
    e_uu = configurations.energy(ctx, uu, 0.9 * w0, -0.3 * w0, rel_tol)
    dev = abs(e_turned / e_uu - 1.0)
    record("general_rotation_invariance", dev < 1e-12, f"dev={dev:.2e}")

    # each route of the closed form's Matsubara sum against an independent
    # value. 0 K (logarithms): E/E0 of a nearly undamped rr pair against the
    # undamped oracle, which it approaches linearly in gamma0 (measured
    # 0.06 gamma0/w0 at 0.8 w0), with gamma0/w0 as the bound. 300 K (the
    # zeta series) and 0.05 K (digamma, |z| = 0.31 at rest): the rest
    # energy against the Matsubara sum of the static baseline, whose
    # truncation is set below 1e-9 at 0.05 K
    weak = bst(gamma_scale=1e-3)
    pair = _context_for(replace(spec, temperature=0.0), weak)
    w0_weak = resonance_frequency(weak)
    ratio = (configurations.energy(pair, rr, 0.8 * w0_weak, 0.0, rel_tol)
             / configurations.energy(pair, rr, 0.0, 0.0, rel_tol))
    dev = abs(ratio / oracle.ratio_rr(w0_weak, 0.8 * w0_weak) - 1.0)
    bound = weak.gamma0 / w0_weak
    record("undamped_limit_0K", dev <= bound, f"dev={dev:.2e} (bound gamma0/w0 = {bound:.1e})")
    for temperature in (300.0, 0.05):
        pair = _context_for(replace(spec, temperature=temperature))
        e0 = configurations.energy(pair, rr, 0.0, 0.0, rel_tol)
        mats = baseline.matsubara_static_energy(
            pair, baseline.MatsubaraSpec(temperature, term_tol=1e-14))
        dev = abs(e0 / mats - 1.0)
        record(f"rest_energy_vs_matsubara_{temperature:g}K", dev <= 1e-9, f"dev={dev:.2e}")
    return checks


def _point_args(sub):
    sub.add_argument("--arrangement", default="rr",
                     choices=["rr", "uu", "ur", "uo"])
    sub.add_argument("--omega-a", type=float, default=0.0, metavar="X",
                     help="Omega_A in units of the polaritonic resonance omega0")
    sub.add_argument("--omega-b", type=float, default=0.0, metavar="X",
                     help="Omega_B in units of omega0")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinvdw",
        description="van der Waals energies and forces between spinning nanospheres")
    parser.add_argument("--config", help="JSON config with flat dotted keys")
    parser.add_argument("--rel-tol", type=float,
                        help="relative tolerance: a value whose roundoff estimate "
                             "exceeds it fails")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 if any point fails to converge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="energy at one rotation point")
    _point_args(p_energy)
    p_force = sub.add_parser("force", help="force at one rotation point")
    _point_args(p_force)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a config or preset")
    p_sweep.add_argument("--preset", choices=list(PRESETS))
    p_sweep.add_argument("--out", help="output path (default from config)")
    p_sweep.add_argument("--format", choices=["csv", "json"], dest="fmt")
    p_sweep.add_argument("--points", type=int,
                         help="override preset grid length")

    p_oracle = sub.add_parser("oracle", help="dissipationless closed-form ratios")
    p_oracle.add_argument("--omega-a", type=float, required=True,
                          help="Omega_A in units of omega0")
    p_oracle.add_argument("--omega-b", type=float, default=0.0,
                          help="Omega_B in units of omega0")

    p_base = sub.add_parser("baseline", help="static baseline quantities")
    p_base.add_argument("--hamaker", type=float, default=5e-20,
                        help="reference Hamaker constant in J (default 5e-20)")
    p_base.add_argument("--out", help="write the table instead of printing")
    p_base.add_argument("--format", choices=["csv", "json"], dest="fmt",
                        default="csv")

    sub.add_parser("check", help="run fast invariant checks")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    spec, ctx = parse_config(args.config)
    if args.rel_tol is not None:
        spec = replace(spec, rel_tol=args.rel_tol)
    w0 = resonance_frequency(ctx.sphere_a.material)

    if args.command in ("energy", "force"):
        arrangement = Arrangement(args.arrangement)
        wa, wb = args.omega_a * w0, args.omega_b * w0
        # the energy change first: its one lookup evaluates every shift
        # that E and E0 then look up
        de = configurations.delta_energy(ctx, arrangement, wa, wb, spec.rel_tol)
        e = configurations.energy(ctx, arrangement, wa, wb, spec.rel_tol)
        e0 = configurations.energy(ctx, arrangement, 0.0, 0.0, spec.rel_tol)
        print(f"omega0_rad_s = {w0:.6e}")
        if args.command == "energy":
            print(f"E_J      = {e:.10e}")
            print(f"E0_J     = {e0:.10e}")
            print(f"deltaE_J = {de:.10e}")
        else:
            f, f0 = 6.0 * e / ctx.separation, 6.0 * e0 / ctx.separation
            print(f"F_N       = {f:.10e}")
            print(f"F0_N      = {f0:.10e}")
            print(f"deltaF_fN = {6.0 * de / ctx.separation * 1e15:.10e}")
        return 0

    if args.command == "sweep":
        if args.preset:
            result = run_preset(args.preset, rel_tol=args.rel_tol,
                                points=args.points)
            out = args.out or f"{args.preset}.{args.fmt or 'csv'}"
        else:
            if args.config is None:
                raise ConfigError("sweep needs --preset or --config")
            result = run_sweep(spec, ctx)
            out = args.out or spec.out_path
            if not out:
                raise ConfigError("output.path: no output path given")
        fmt = args.fmt or (spec.out_format if not args.preset else "csv")
        emit(result, fmt, out)
        failures = [r for r in result.rows if r.get("error")]
        print(f"wrote {out} ({len(result.rows)} rows, {len(failures)} failed)")
        if failures and args.strict:
            return 3
        return 0

    if args.command == "oracle":
        pair = oracle.LorentzPair(1.0e-33, 1.0e-33, w0, w0, ctx.separation)
        wa, wb = args.omega_a * w0, args.omega_b * w0
        print(f"ratio_aux(Omega_A - Omega_B) = {oracle.ratio_aux(pair, wa - wb):.12g}")
        print(f"ratio_rr                     = {oracle.ratio_rr(w0, wa - wb):.12g}")
        print(f"ratio_uu                     = {oracle.ratio_uu(w0, wa, wb):.12g}")
        return 0

    if args.command == "baseline":
        result = _baseline_result(spec.temperature, args.hamaker)
        if args.out:
            emit(result, args.fmt, args.out)
            print(f"wrote {args.out}")
        else:
            for row in result.rows:
                print(f"{row['quantity']:32s} = {row['value']:.6e}")
        return 0

    if args.command == "check":
        checks = _run_checks()
        ok = True
        for name, passed, info in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name:34s} {info}")
            ok &= passed
        return 0 if ok else 1

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
