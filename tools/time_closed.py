"""Time the closed-form block (L2), one-point energies (L3) and sweeps (L4).

Times one cold ``spectral._closed`` evaluation per route of its rows (log
at T = 0, the zeta series at 300 K, digamma at 0.05 K, and a T = 0 row
stacked with a 300 K row) at 1, 4 and 64 shifts in (0.05, 3.9) w0, with
one row (the BST pair) and with two (BST and a second material), one
``spectral._closed_kinds`` of the BST pair at 300 K at 97 and at 303
shifts (a general-axis sweep's and three times that), the construction of
``Arrangement("general", ...)`` (100 per call), one
``configurations.delta_force`` per canonical arrangement (BST pair at
300 K, Omega = (1.3, -0.4) w0; ``uo`` also at T = 0 and for unequal
materials at 300 and 900 K), repeated ``configurations.energy`` calls of
the same BST pair and rates for each canonical arrangement and the general
axes (0.6, 0, 0.8), (0, 0.6, 0.8), x (each call of such a case makes one
untimed call, then times 100), the energies of the ``fig2a`` preset's 400
rows, one ``spectral.sweep_energies`` call as ``cli.run_sweep`` makes it,
four general-axis sweeps, each from ``cli.parse_config``
through ``cli.run_sweep`` to ``cli.emit`` of a CSV into a temporary
directory (seeded axes at 0, 300, 1500 and 300 K, 25 rates up to 4.5 w0,
Omega_B a fixed ratio of Omega_A, shaped like the benchmark's
``general_axes`` workload), and ``cli.run_preset`` of each of the six
presets in turn (the benchmark's ``fig_presets`` pass without its CSVs).
Each of 21 rounds makes 20 calls of every case in turn (and of both
packages with ``--against``, alternating which goes first), and the JSON
printed holds each case's median and quartiles over the rounds of its
mean time per call, in microseconds; with ``--against``, also the ratio
of the two medians, the median and quartiles of the ratios of the two
packages' times in the same round (``round_ratio``, which a change of the
host's speed between rounds moves less), and the rounds in which this
checkout was faster. A ratio over a zero time is null. A case is timed
around its call unless it is marked ``self_timed``, and then its call
returns its own mean seconds per timed run.

    python tools/time_closed.py                      # this checkout's src/spinvdw
    python tools/time_closed.py --against OLD/src    # and another checkout's, interleaved
    python tools/time_closed.py --smoke              # a few repeats; exit 0

``--against`` names a directory that holds a ``spinvdw`` package, such as
the ``src`` of ``git archive`` of an earlier commit; it is loaded under
another name, so both packages share one process and one host state.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SHIFT_COUNTS = (1, 4, 64)
ROUNDS, NUMBER = 21, 20   # rounds, and calls per case and round (2 and 2 with --smoke)
WARM = 100                # timed energies per call of a warm case
A, B, R = 60e-9, 50e-9, 180e-9
OMEGA = (1.3, -0.4)       # (Omega_A, Omega_B) of the energies, in w0


def load(src, name):
    """The spinvdw package under ``src`` as the module ``name``."""
    path = os.path.join(src, "spinvdw", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[os.path.dirname(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def self_timed(call):
    """Mark ``call`` as a case that returns its own mean seconds per timed run."""
    call.self_timed = True
    return call


def shifts(count):
    return [1.3] if count == 1 else np.linspace(0.05, 3.9, count).tolist()


def cases(package, scratch):
    """(name, call) of every case, for one package; sweeps write into ``scratch``."""
    spectral, configurations = package.spectral, package.configurations
    response = package.response
    bst = response.bst()
    other = response.MaterialModel(8.0, 6.5e9, 4e8)

    def context(mat_b, t_a, t_b):
        return spectral.PairContext(response.SpinningSphere(A, bst, t_a),
                                    response.SpinningSphere(B, mat_b, t_b), R)

    def block(ctx, rows, count):
        (poles_a, poles_b), ws = ctx._poles, ctx._scaled[0]
        t_a, t_b = ctx.sphere_a.temperature, ctx.sphere_b.temperature
        both = [(poles_a, poles_b, t_b), (poles_b, poles_a, t_a)][:rows]
        grid = shifts(count)
        return lambda: spectral._closed(both, ws, grid)

    out = []
    for route, t_a, t_b in (("log", 0.0, 0.0), ("series", 300.0, 300.0),
                            ("digamma", 0.05, 0.05), ("log+series", 300.0, 0.0)):
        for rows in (1, 2):
            if route == "log+series" and rows == 1:
                continue
            ctx = context(bst if route != "log+series" and rows == 1 else other, t_a, t_b)
            for count in SHIFT_COUNTS:
                out.append((f"closed {route}, {rows} row{'s' * (rows > 1)}, {count} shift"
                            f"{'s' * (count > 1)}", block(ctx, rows, count)))
    bst300 = context(bst, 300.0, 300.0)
    for count in (97, 303):
        grid = shifts(count)
        out.append((f"closed_kinds series, 1 row, {count} shifts",
                     lambda grid=grid: spectral._closed_kinds(bst300, grid)))
    general_axes = ((0.6, 0.0, 0.8), (0.0, 0.6, 0.8), (1.0, 0.0, 0.0))

    @self_timed
    def arrangements():
        start = time.perf_counter()
        for _ in range(WARM):
            configurations.Arrangement("general", *general_axes)
        return (time.perf_counter() - start) / WARM

    out.append(("Arrangement general", arrangements))

    w0 = response.resonance_frequency(bst)
    energies = [(kind, context(bst, 300.0, 300.0)) for kind in ("rr", "uu", "ur", "uo")]
    energies += [("uo at T = 0", context(bst, 0.0, 0.0)),
                 ("uo, unequal materials at 300 and 900 K", context(other, 300.0, 900.0))]
    for name, ctx in energies:
        arrangement = configurations.Arrangement(name[:2])

        out.append((f"delta_force {name}",
                    lambda ctx=ctx, arrangement=arrangement: configurations.delta_force(
                        ctx, arrangement, OMEGA[0] * w0, OMEGA[1] * w0)))

    repeated = [(kind, configurations.Arrangement(kind)) for kind in ("rr", "uu", "ur", "uo")]
    repeated.append(("general", configurations.Arrangement("general", *general_axes)))
    for name, arrangement in repeated:

        @self_timed
        def again(arrangement=arrangement):
            rates = OMEGA[0] * w0, OMEGA[1] * w0
            configurations.energy(bst300, arrangement, *rates)
            start = time.perf_counter()
            for _ in range(WARM):
                configurations.energy(bst300, arrangement, *rates)
            return (time.perf_counter() - start) / WARM

        out.append((f"repeated energy {name}", again))

    cli = importlib.import_module(package.__name__ + ".cli")
    # the fig2a preset: equal BST spheres at 1500 K, uu, Omega_B = +-0.5 Omega_A,
    # its rows as a SweepSpec holds them (rates built here, so that a checkout
    # with another SweepSpec runs the same case)
    sphere = response.SpinningSphere(cli.DEFAULT_RADIUS, bst, 1500.0)
    fig2a = spectral.PairContext(sphere, sphere, cli.DEFAULT_SEPARATION)
    grid = np.linspace(0.0, 5.0 * w0, 200).tolist()
    omega_a, omega_b = grid * 2, [rho * wa for rho in (0.5, -0.5) for wa in grid]
    terms = configurations.Arrangement("uu")._terms
    out.append(("fig2a sweep energies",
                lambda: spectral.sweep_energies(fig2a, terms, omega_a, omega_b,
                                                spectral.DEFAULT_REL_TOL)))

    configs = general_configs(w0)

    def general_sweeps():
        for k, config in enumerate(configs):
            spec, ctx = cli.parse_config(config)
            path = os.path.join(scratch, f"{package.__name__}_general_{k}.csv")
            cli.emit(cli.run_sweep(spec, ctx), "csv", path)

    out.append(("general-axis sweeps, parse_config to emit", general_sweeps))
    out.append(("six presets by run_preset",
                lambda: [cli.run_preset(name) for name in cli.PRESETS]))
    return out


def general_configs(w0, seed=5):
    """Four general-axis sweep configs: seeded axes, 0/300/1500/300 K, 25 rates."""
    rng = random.Random(seed)

    def unit():
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in v) ** 0.5
        return [c / norm for c in v]

    grid = [4.5 * w0 * k / 24 for k in range(25)]
    return [{"arrangement": "general", "arrangement.axis_a": unit(),
             "arrangement.axis_b": unit(), "arrangement.rhat": unit(),
             "temperature_K": t, "sweep.omega_a_grid_rad_s": grid,
             "sweep.omega_b_rule": "ratio", "sweep.omega_b_ratio": ratio}
            for t, ratio in zip((0.0, 300.0, 1500.0, 300.0), (0.55, -0.35, 0.75, -0.95))]


def measure(call, number):
    """Mean seconds per call of ``number`` calls, or of the times a self-timed call returns."""
    timed = getattr(call, "self_timed", False)
    total = 0.0
    for _ in range(number):
        start = time.perf_counter()
        took = call()
        total += took if timed else time.perf_counter() - start
    return total / number


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="SRC",
                        help="directory of another spinvdw package to time alongside")
    parser.add_argument("--smoke", action="store_true", help="2 rounds of 2 calls")
    args = parser.parse_args(argv)
    rounds, number = (2, 2) if args.smoke else (ROUNDS, NUMBER)

    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    import spinvdw
    packages = {"working": spinvdw}
    if args.against:
        packages["against"] = load(args.against, "spinvdw_against")
    with tempfile.TemporaryDirectory() as scratch:
        table = {label: cases(package, scratch) for label, package in packages.items()}
        times = {label: {name: [] for name, _ in entries} for label, entries in table.items()}
        for k in range(rounds):
            labels = list(table) if k % 2 == 0 else list(table)[::-1]
            for index in range(len(table["working"])):
                for label in labels:
                    name, call = table[label][index]
                    times[label][name].append(measure(call, number))

    def summary(seconds):
        q1, median, q3 = (round(1e6 * q, 2) for q in statistics.quantiles(seconds, n=4))
        return {"median": median, "quartiles": [q1, q3]}

    result = {
        "unit": "us per call, median and quartiles over rounds",
        "rounds": rounds, "calls_per_round": number,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpu_count": os.cpu_count(), "machine": platform.machine()},
        "packages": {label: os.path.dirname(os.path.dirname(package.__file__))
                     for label, package in packages.items()},
        "timings": {name: {label: summary(times[label][name]) for label in table}
                    for name, _ in table["working"]},
    }
    if args.against:
        for name, row in result["timings"].items():
            against = row["against"]["median"]
            row["ratio"] = round(row["working"]["median"] / against, 3) if against else None
            ratios = [w / a for w, a in zip(times["working"][name], times["against"][name])
                      if a]
            row["round_ratio"] = None
            if len(ratios) > 1:
                q1, median, q3 = (round(q, 3) for q in statistics.quantiles(ratios, n=4))
                row["round_ratio"] = {"median": median, "quartiles": [q1, q3]}
            row["working_faster"] = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
