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
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from . import baseline, configurations, oracle, spectral
from .configurations import Arrangement, _number
from .response import MaterialModel, SpinningSphere, _Value, bst, resonance_frequency
from .spectral import ConvergenceError, PairContext

__all__ = ["ConfigError", "SweepSpec", "SweepResult", "parse_config",
           "run_sweep", "emit", "run_preset", "PRESETS", "main"]

VERSION = "0.1.0"

CSV_COLUMNS = ("omega_A_rad_s", "omega_B_rad_s", "omega_A_over_omega0",
               "E_J", "E0_J", "deltaE_J", "F_N", "deltaF_fN", "error")

DEFAULT_RADIUS = 60e-9
DEFAULT_SEPARATION = 180e-9
DEFAULT_TEMPERATURE = 300.0
AXIS_KEYS = ("arrangement.axis_a", "arrangement.axis_b", "arrangement.rhat")


class ConfigError(ValueError):
    """Bad or inconsistent configuration; the message names the key."""


class SweepSpec(_Value):
    """One rotation-rate sweep: arrangement, the rates of its rows, and output.

    The spheres, their temperature and their distance are not part of it:
    they are the :class:`PairContext` that :func:`run_sweep` evaluates on.
    ``omega_a`` and ``omega_b`` hold the (Omega_A, Omega_B) of each row in
    rad/s, as tuples of finite Python floats of one non-empty length; a
    config's ``sweep.omega_b_rule`` is expanded into them by
    :func:`parse_config`. A "general" arrangement takes ``axes`` =
    (axis_a, axis_b, rhat), unit 3-vectors stored as float tuples; a missing
    (None) or malformed one is a ConfigError that names its key in
    ``AXIS_KEYS``. The canonical arrangements fix their axes, and take none:
    given axes are a ConfigError that names their keys.
    """

    def __init__(self, arrangement="rr", omega_a=(), omega_b=(),
                 rel_tol=spectral.DEFAULT_REL_TOL, out_path="", out_format="csv", axes=()):
        super().__init__(arrangement, omega_a, omega_b, rel_tol, out_path, out_format, axes)
        # Python floats, whatever built the rates: rows then skip numpy
        # scalar arithmetic, and emit writes their rates as floats
        for name in ("omega_a", "omega_b"):
            object.__setattr__(self, name, _floats(getattr(self, name), name))
        if not self.omega_a:
            raise ConfigError("omega_a: no rates")
        if len(self.omega_b) != len(self.omega_a):
            raise ConfigError(f"omega_b: {len(self.omega_b)} rates for "
                              f"{len(self.omega_a)} of omega_a")
        if self.arrangement not in ("rr", "uu", "ur", "uo", "general"):
            raise ConfigError(f"arrangement: unknown value {self.arrangement!r}")
        if self.arrangement != "general" and self.axes:
            named = [key for key, v in zip(AXIS_KEYS, self.axes) if v is not None]
            raise ConfigError(f"{', '.join(named) or 'axes'}: the "
                              f"{self.arrangement} arrangement has fixed axes; axes need "
                              f"arrangement general")
        if self.arrangement == "general":
            if len(self.axes) > 3:
                raise ConfigError(f"axes: (axis_a, axis_b, rhat) expected, got {self.axes!r}")
            axes = []
            for key, v in itertools.zip_longest(AXIS_KEYS, self.axes):
                if v is None:
                    raise ConfigError(f"general arrangement needs {key}")
                try:
                    axes.append(configurations._unit_vector(v, key))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
            object.__setattr__(self, "axes", tuple(axes))
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format: must be csv or json, got {self.out_format!r}")
        if not self.rel_tol > 0.0:      # NaN too; inf stays valid
            raise ConfigError(f"quadrature.rel_tol: must be > 0, got {self.rel_tol}")

    def replace(self, **changes):
        """A new spec with ``changes`` to these fields, checked as a new spec is."""
        return SweepSpec(**dict(zip(self._fields, self._values()), **changes))

    def make_arrangement(self):
        if self.arrangement == "general":
            return Arrangement("general", *self.axes)
        return Arrangement(self.arrangement)


class SweepResult:
    """Computed sweep points as columns, plus run metadata.

    ``columns`` maps each column name, in output order, to a list with one
    value per row (for a sweep, the ``CSV_COLUMNS``); ``rows`` is the same
    table as one dict per row, built from the columns on first use.
    """

    def __init__(self, columns, metadata):
        self.columns = columns
        self.metadata = metadata

    @functools.cached_property
    def rows(self):
        """One dict per row, column name to value, in column order."""
        return [dict(zip(self.columns, values)) for values in zip(*self.columns.values())]


def _length(columns):
    """The number of rows of a table of columns."""
    return len(next(iter(columns.values()), ()))


def _floats(values, name):
    """``values``, all numbers, as a tuple of finite floats; a ConfigError named ``name`` if not."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64 and values.ndim == 1:
            # a grid built in numpy: one check and one conversion for all its values
            if not np.isfinite(values).all():
                raise ConfigError(f"{name}: non-finite value")
            return tuple(values.tolist())
        values = values.tolist()        # one call, not one numpy scalar per value
    try:
        values = tuple(map(_number, values))
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name}: non-finite value")
    return values


def _text(value):
    """A JSON string as it is; anything else, null included, is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _array(value):
    """A JSON array as it is; anything else, a string included, is a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"must be an array, got {value!r}")
    return value


def _count(value):
    """A JSON integer as it is; anything else, a bool or a float included, is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


# every config key but the general axes, to the cast of its JSON value:
# parse_config casts each key that is given, whether the config uses it or not
_KEYS = {
    **{f"{prefix}.{name}": _number for prefix in ("material", "material_b")
       for name in ("f0", "omega_tilde0_rad_s", "gamma0_rad_s")},
    "geometry.radius_a_m": _number, "geometry.radius_b_m": _number,
    "geometry.separation_m": _number, "temperature_K": _number,
    "arrangement": _text,
    "sweep.omega_a_grid_rad_s": _array, "sweep.omega_a_start_over_omega0": _number,
    "sweep.omega_a_stop_over_omega0": _number, "sweep.omega_a_count": _count,
    "sweep.omega_b_rule": _text, "sweep.omega_b_value_rad_s": _number,
    "sweep.omega_b_ratio": _number, "sweep.omega_b_grid_rad_s": _array,
    "quadrature.rel_tol": _number, "output.path": _text, "output.format": _text,
}


def _material_from(cfg, prefix, default):
    try:
        return MaterialModel(cfg.get(f"{prefix}.f0", default.f0),
                             cfg.get(f"{prefix}.omega_tilde0_rad_s", default.omega_tilde0),
                             cfg.get(f"{prefix}.gamma0_rad_s", default.gamma0))
    except ValueError as exc:
        raise ConfigError(f"{prefix}.*: {exc}") from None


def parse_config(source=None):
    """Build a (SweepSpec, PairContext) pair from a config file or dict.

    ``source`` may be a path, an already-parsed dict, or None (defaults).
    Unknown keys are rejected so typos fail loudly, and every key that is
    given is cast by its entry in ``_KEYS`` before any is used (the axes
    are checked by the SweepSpec), so a key that the config's rules do not
    read is checked too; the first bad key in the config's order is named.
    The spec takes the arrangement, sweep, quadrature and output keys; the
    context, the materials, geometry and temperature (both spheres at
    ``temperature_K``).
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

    for key, value in cfg.items():
        if key in _KEYS:
            try:
                cfg[key] = _KEYS[key](value)
            except (TypeError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from None
        elif key not in AXIS_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    mat_a = _material_from(cfg, "material", bst())
    mat_b = _material_from(cfg, "material_b", mat_a) if any(
        k.startswith("material_b.") for k in cfg) else mat_a

    radius_a = cfg.get("geometry.radius_a_m", DEFAULT_RADIUS)
    radius_b = cfg.get("geometry.radius_b_m", radius_a)
    separation = cfg.get("geometry.separation_m", DEFAULT_SEPARATION)
    temperature = cfg.get("temperature_K", DEFAULT_TEMPERATURE)

    w0 = resonance_frequency(mat_a)
    where = "sweep.omega_a_grid_rad_s"            # the keys that give Omega_A
    if where in cfg:
        omega_a = cfg[where]
    else:
        where = "sweep.omega_a_start_over_omega0, sweep.omega_a_stop_over_omega0"
        count = cfg.get("sweep.omega_a_count", 200)
        if count < 1:
            raise ConfigError("sweep.omega_a_count: must be >= 1")
        omega_a = np.linspace(cfg.get("sweep.omega_a_start_over_omega0", 0.0) * w0,
                              cfg.get("sweep.omega_a_stop_over_omega0", 4.0) * w0, count)
    arrangement = cfg.get("arrangement", "rr")
    rule = cfg.get("sweep.omega_b_rule", "fixed")
    value = cfg.get("sweep.omega_b_value_rad_s", 0.0)
    ratio = cfg.get("sweep.omega_b_ratio", 0.0)
    omega_a = _floats(omega_a, where)
    # the keys of every rule are checked, whichever rule the sweep takes
    grid_b = _floats(cfg.get("sweep.omega_b_grid_rad_s", ()), "sweep.omega_b_grid_rad_s")
    if not math.isfinite(value):
        raise ConfigError(f"sweep.omega_b_value_rad_s: non-finite value {value}")
    if rule == "fixed":
        omega_b = [value] * len(omega_a)
    elif rule == "ratio":
        if not abs(ratio) <= 1.0:
            raise ConfigError(f"sweep.omega_b_ratio: |rho| <= 1 required, got {ratio}")
        omega_b = [ratio * wa for wa in omega_a]
    elif rule == "grid":
        if not grid_b:
            raise ConfigError("sweep.omega_b_grid_rad_s: empty grid")
        omega_a, omega_b = [wa for wa in omega_a for _ in grid_b], grid_b * len(omega_a)
    else:
        raise ConfigError(f"sweep.omega_b_rule: unknown value {rule!r}")
    if not omega_a:
        raise ConfigError("sweep.omega_a_grid_rad_s: empty grid")
    axes = (tuple(map(cfg.get, AXIS_KEYS)) if any(key in cfg for key in AXIS_KEYS)
            or arrangement == "general" else ())
    spec = SweepSpec(arrangement, omega_a, omega_b,
                     cfg.get("quadrature.rel_tol", spectral.DEFAULT_REL_TOL),
                     cfg.get("output.path", ""), cfg.get("output.format", "csv"), axes)

    if 0.0 < temperature < math.inf:    # the spheres judge the others, by their own messages
        try:
            spectral._theta(w0, temperature)        # as the context judges it, named for its key
        except ValueError as exc:
            raise ConfigError(f"temperature_K: {exc}") from None
    try:
        ctx = PairContext(SpinningSphere(radius_a, mat_a, temperature),
                          SpinningSphere(radius_b, mat_b, temperature), separation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, ctx


def _default_pair(temperature=DEFAULT_TEMPERATURE, material=None):
    """Two equal spheres of ``material`` (BST) at the default radius and separation."""
    sphere = SpinningSphere(DEFAULT_RADIUS, bst() if material is None else material,
                            temperature)
    return PairContext(sphere, sphere, DEFAULT_SEPARATION)


def run_sweep(spec, ctx):
    """Evaluate every row of ``spec`` on the pair ``ctx``; failures go to the error column.

    One :func:`spectral.sweep_energies` call evaluates the rows, in order,
    and the zero-rotation reference F(0,0) that they share; a row whose
    value fails its checks gets that failure in its error column, and
    every row gets the reference's if the reference fails. Rates whose
    Doppler images leave the non-retarded regime, or whose shifts overflow,
    are a ConfigError. The metadata describes the pair that was computed,
    all of it read from ``ctx``: sphere A's material and temperature, both
    radii and the separation, and sphere B's material and temperature where
    either differs from A's.
    """
    w0 = resonance_frequency(ctx.sphere_a.material)
    omega_a = np.array(spec.omega_a)
    try:
        energies, e0, errors = spectral.sweep_energies(
            ctx, spec.make_arrangement()._terms, omega_a, spec.omega_b, spec.rel_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    n = len(omega_a)
    rest = errors.pop(None, None)
    if rest is not None:
        energies = np.full(n, math.nan)     # and every value that follows from them
        error = [f"ConvergenceError: zero-rotation reference failed: "
                 f"{type(rest).__name__}: {rest}"] * n
    else:
        error = [""] * n
        for k, exc in errors.items():
            error[k] = f"{type(exc).__name__}: {exc}"
    f0 = 6.0 * e0 / ctx.separation
    # each column in numpy, by the operations of one float at a time, and
    # converted once; an overflow is a value, as it is in Python's floats
    with np.errstate(all="ignore"):
        forces = 6.0 * energies / ctx.separation
        columns = {
            "omega_A_rad_s": list(spec.omega_a), "omega_B_rad_s": list(spec.omega_b),
            "omega_A_over_omega0": (omega_a / w0).tolist(),
            "E_J": energies.tolist(), "E0_J": [e0] * n, "deltaE_J": (energies - e0).tolist(),
            "F_N": forces.tolist(), "deltaF_fN": ((forces - f0) * 1e15).tolist(),
            "error": error,
        }

    sa, ma = ctx.sphere_a, ctx.sphere_a.material
    metadata = {
        "artifact": "spinvdw", "version": VERSION,
        "arrangement": spec.arrangement,
        "material_f0": ma.f0, "material_omega_tilde0_rad_s": ma.omega_tilde0,
        "material_gamma0_rad_s": ma.gamma0,
        "omega0_rad_s": w0,
        "radius_a_m": sa.radius, "radius_b_m": ctx.sphere_b.radius,
        "separation_m": ctx.separation, "temperature_K": sa.temperature,
        "rel_tol": spec.rel_tol,
    }
    sb, mb = ctx.sphere_b, ctx.sphere_b.material
    if (mb, sb.temperature) != (ma, sa.temperature):
        metadata.update(material_b_f0=mb.f0, material_b_omega_tilde0_rad_s=mb.omega_tilde0,
                        material_b_gamma0_rad_s=mb.gamma0, temperature_b_K=sb.temperature)
    return SweepResult(columns, metadata)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quoted(text):
    """A CSV text field, quoted per RFC 4180 if it holds a comma, quote or newline."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _constant(column):
    """Whether every value equals the first with its sign bit; NaN never does."""
    first = column[0]
    return (first == first and column[-1] == first and column.count(first) == len(column)
            and (first != 0.0 or len({math.copysign(1.0, v) for v in column}) == 1))


def emit(result, fmt, path):
    """Write a result as CSV (metadata in '#' comments) or JSON.

    CSV columns are fixed: omega_A_rad_s, omega_B_rad_s,
    omega_A_over_omega0, E_J, E0_J, deltaE_J, F_N, deltaF_fN, error.
    Floats carry 17 significant digits so a re-read reproduces them exactly.
    Every row is written with one line format, built from the columns and
    the types of their first values (floats as %.17g, anything else as
    text), and filled from the columns' values; a text field
    that holds a comma, quote or newline is quoted. A float column that
    holds one value on every row (``E0_J`` of a sweep) is formatted once,
    as a literal of that format. JSON, which has no NaN (RFC 8259), writes
    a non-finite float (the values of a failed row) as null.

    An existing regular file with one link, which the user may write, is
    replaced: it is unlinked and ``path`` is created anew, owned by the
    user, with the old file's permission bits (narrowed by the umask; its
    group and ACLs are not kept). Any other path (a symlink, a file with
    more links, a FIFO or device such as /dev/stdout) is written in place,
    as is a file that cannot be unlinked; a write-protected file still
    fails as "cannot write". The reason is ext4's ``auto_da_alloc``:
    rewriting a non-empty file through O_TRUNC makes it allocate the
    blocks and start writeback at close, and so does renaming a temporary
    file over the path; a new file pays neither (timings in
    BENCH_emit.json). Neither way makes the data durable, and no fsync is
    made; the unlink gives up that heuristic's protection of the old
    contents in a crash, which regenerable output does not need. A reader
    that holds the old file open keeps reading the old bytes.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format: must be csv or json, got {fmt!r}")
    if fmt == "csv":
        columns, n = result.columns, _length(result.columns)
        lines = [f"# {key} = {_fmt(value)}\n" for key, value in result.metadata.items()]
        lines.append(",".join(columns or CSV_COLUMNS) + "\n")
        if n:
            fields, varying = [], []
            for column in columns.values():
                first = column[0]
                if isinstance(first, float) and _constant(column):
                    fields.append(format(first, ".17g"))
                    continue
                if isinstance(first, str):
                    column = [_quoted(text) if text else text for text in column]
                fields.append("%.17g" if isinstance(first, float) else "%s")
                varying.append(column)
            line = ",".join(fields) + "\n"
            lines += [line % values for values in (zip(*varying) if varying else [()] * n)]
        text = "".join(lines)
    else:
        safe = [{key: None if isinstance(value, float) and not math.isfinite(value) else value
                 for key, value in fields.items()} for fields in (result.metadata, *result.rows)]
        text = json.dumps({"metadata": safe[0], "rows": safe[1:]}, indent=1,
                          allow_nan=False) + "\n"
    mode = 0o666                # open()'s own mode for a file it creates
    try:
        info = os.lstat(path)
        if (stat.S_ISREG(info.st_mode) and info.st_nlink == 1
                and os.access(path, os.W_OK)):
            os.unlink(path)
            mode = info.st_mode & 0o777
    except OSError:
        pass        # absent (open creates it), or not ours to unlink: written in place
    try:
        with open(path, "w", opener=lambda name, flags: os.open(name, flags, mode)) as fh:
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


# name: (temperature K, arrangement, last Omega_A / omega0, the Omega_B /
# Omega_A of each sweep); a fig2 preset's co-rotating rows come first
_PRESET_TABLE = {
    "fig1_300K": (300.0, "rr", 4.0, (0.0,)),
    "fig1_1500K": (1500.0, "rr", 4.0, (0.0,)),
    "fig2a": (1500.0, "uu", 5.0, (0.5, -0.5)),
    "fig2b": (1500.0, "uu", 5.0, (0.9, -0.9)),
    "fig2c": (1500.0, "uu", 5.0, (1.0, -1.0)),
}
PRESETS = (*_PRESET_TABLE, "baseline_static")


def run_preset(name, rel_tol=None, points=None):
    """Run a named preset and return its result.

    ``points`` overrides the grid length (for quick runs and tests);
    ``baseline_static`` returns a key/value table instead of a sweep. A
    sweep preset is one :func:`run_sweep` on a new context of two BST
    spheres, so what ran before does not change its rows: its Omega_A grid
    runs from 0, once for each ratio Omega_B / Omega_A, in table order.
    """
    if points is not None and points < 1:
        raise ConfigError(f"--points: must be >= 1, got {points}")
    if name == "baseline_static":
        return _baseline_result(_default_pair())
    if name not in _PRESET_TABLE:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    temperature, arrangement, last, ratios = _PRESET_TABLE[name]
    grid = np.linspace(0.0, last * resonance_frequency(bst()), points or 200)
    spec = SweepSpec(arrangement, np.tile(grid, len(ratios)),
                     np.multiply.outer(ratios, grid).ravel(),
                     spectral.DEFAULT_REL_TOL if rel_tol is None else rel_tol)
    result = run_sweep(spec, _default_pair(temperature))
    result.metadata["preset"] = name
    return result


def _baseline_result(ctx, hamaker_ref=5e-20):
    """Static baseline quantities of a context as a key/value table.

    The model Hamaker constant is sphere A's material's, and the reference
    estimates take sphere A's radius. The Matsubara sums need T > 0.
    """
    temperature = ctx.sphere_a.temperature
    radius, separation = ctx.sphere_a.radius, ctx.separation
    try:
        h_model = baseline.hamaker_constant(ctx.sphere_a.material, temperature)
        e_matsubara = baseline.matsubara_static_energy(ctx)
    except ValueError as exc:
        raise ConfigError(f"temperature_K: {exc}") from None
    f_ref = baseline.static_force_estimate(hamaker_ref, radius, separation)
    table = {
        "matsubara_static_energy_J": e_matsubara,
        "hamaker_constant_model_J": h_model,
        "hamaker_constant_reference_J": hamaker_ref,
        "static_energy_reference_J":
            baseline.static_energy_estimate(hamaker_ref, radius, separation),
        "static_force_reference_N": f_ref,
        "static_force_reference_fN": f_ref * 1e15,
    }
    metadata = {"artifact": "spinvdw", "version": VERSION,
                "preset": "baseline_static",
                "temperature_K": temperature,
                "radius_m": radius, "separation_m": separation}
    return SweepResult({"quantity": list(table), "value": list(table.values())}, metadata)


def _run_checks(rel_tol=1e-7):
    """Cheap end-to-end invariant checks; returns a list of (name, ok, info)."""
    ctx = _default_pair()
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

    # an identical pair would compare a value with itself; these
    # spheres differ in material, radius and temperature
    pair = PairContext(
        SpinningSphere(50e-9, ctx.sphere_a.material, 300.0),
        SpinningSphere(70e-9, MaterialModel(8.0, 6.5e9, 4e8), 900.0),
        DEFAULT_SEPARATION)
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
    # energy against the Matsubara sum of the static baseline, which shares
    # the pair sums but none of the closure's residues at the poles of eta
    weak = bst(gamma_scale=1e-3)
    pair = _default_pair(0.0, weak)
    w0_weak = resonance_frequency(weak)
    ratio = (configurations.energy(pair, rr, 0.8 * w0_weak, 0.0, rel_tol)
             / configurations.energy(pair, rr, 0.0, 0.0, rel_tol))
    dev = abs(ratio / oracle.ratio_rr(w0_weak, 0.8 * w0_weak) - 1.0)
    bound = weak.gamma0 / w0_weak
    record("undamped_limit_0K", dev <= bound, f"dev={dev:.2e} (bound gamma0/w0 = {bound:.1e})")
    for temperature in (300.0, 0.05):
        pair = _default_pair(temperature)
        e0 = configurations.energy(pair, rr, 0.0, 0.0, rel_tol)
        dev = abs(e0 / baseline.matsubara_static_energy(pair) - 1.0)
        record(f"rest_energy_vs_matsubara_{temperature:g}K", dev <= 1e-12, f"dev={dev:.2e}")
    return checks


def _point_args(sub):
    sub.add_argument("--arrangement", choices=["rr", "uu", "ur", "uo"],
                     help="overrides the config's arrangement (default rr)")
    sub.add_argument("--omega-a", type=float, default=0.0, metavar="X",
                     help="Omega_A in units of the polaritonic resonance omega0 "
                          "(a negative value with an exponent takes '=': --omega-a=-5e-1)")
    sub.add_argument("--omega-b", type=float, default=0.0, metavar="X",
                     help="Omega_B in units of omega0 (likewise --omega-b=-5e-1)")


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
                         help="override preset grid length (>= 1)")

    p_oracle = sub.add_parser("oracle", help="dissipationless closed-form ratios")
    p_oracle.add_argument("--omega-a", type=float, required=True,
                          help="Omega_A in units of omega0 (a negative value with "
                               "an exponent takes '=': --omega-a=-5e-1)")
    p_oracle.add_argument("--omega-b", type=float, default=0.0,
                          help="Omega_B in units of omega0 (likewise --omega-b=-5e-1)")

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


def _rates(args, w0):
    """(Omega_A, Omega_B) in rad/s from ``--omega-a``/``--omega-b``; both must be finite."""
    for flag, rate in (("--omega-a", args.omega_a), ("--omega-b", args.omega_b)):
        if not math.isfinite(rate * w0):
            raise ConfigError(f"{flag}: non-finite value {rate} omega0 = {rate * w0} rad/s")
    return args.omega_a * w0, args.omega_b * w0


def _dispatch(args):
    spec, ctx = parse_config(args.config)
    if args.rel_tol is not None:
        spec = spec.replace(rel_tol=args.rel_tol)
    w0 = resonance_frequency(ctx.sphere_a.material)

    if args.command in ("energy", "force"):
        if args.arrangement:
            spec = spec.replace(arrangement=args.arrangement, axes=())
        wa, wb = _rates(args, w0)
        row = run_sweep(spec.replace(omega_a=(wa,), omega_b=(wb,)), ctx).rows[0]
        if row["error"]:
            # main's message names the ConvergenceError that the CSV's text leads with
            raise ConvergenceError(row["error"].removeprefix("ConvergenceError: "))
        print(f"omega0_rad_s = {w0:.6e}")
        if args.command == "energy":
            print(f"E_J      = {row['E_J']:.10e}")
            print(f"E0_J     = {row['E0_J']:.10e}")
            print(f"deltaE_J = {row['deltaE_J']:.10e}")
        else:
            print(f"F_N       = {row['F_N']:.10e}")
            print(f"F0_N      = {6.0 * row['E0_J'] / ctx.separation:.10e}")
            print(f"deltaF_fN = {row['deltaF_fN']:.10e}")
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
        failed = sum(map(bool, result.columns.get("error", ())))
        print(f"wrote {out} ({_length(result.columns)} rows, {failed} failed)")
        if failed and args.strict:
            return 3
        return 0

    if args.command == "oracle":
        pair = oracle.LorentzPair(1.0e-33, 1.0e-33, w0, w0, ctx.separation)
        wa, wb = _rates(args, w0)
        try:
            ratios = {"ratio_aux(Omega_A - Omega_B)": oracle.ratio_aux(pair, wa - wb),
                      "ratio_rr": oracle.ratio_rr(w0, wa - wb),
                      "ratio_uu": oracle.ratio_uu(w0, wa, wb)}
        except oracle.PoleError as exc:
            raise ConfigError(f"--omega-a, --omega-b: {args.omega_a:g}, {args.omega_b:g} "
                              f"omega0 is at a pole of the undamped model: {exc}") from None
        for name, ratio in ratios.items():
            print(f"{name:28s} = {ratio:.12g}")
        return 0

    if args.command == "baseline":
        if not 0.0 < args.hamaker < math.inf:
            raise ConfigError(f"--hamaker: must be finite and > 0, got {args.hamaker}")
        result = _baseline_result(ctx, args.hamaker)
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
