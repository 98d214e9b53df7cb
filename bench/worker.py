"""One pass of one workload, in the fresh interpreter ``run.py`` spawns.

Imports ``spinvdw.cli`` from the checkout's ``src``, does one warm-up
evaluation, clears the shift cache and prints ``ready`` (the parent times
set-up up to that line). It then runs the speed probe, which with the
pass's first probe rescales that set-up time, generates the seeded inputs,
runs the timed pass, runs the correctness gates and prints one JSON line
with the pass's measurements, rescaled to the reference probe speed and
raw. With ``--trace 1`` the pass runs under the span tracer, the spans are
written to ``<out>/spans.json`` and the public response kernels are timed
on a fixed frequency array.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import spinvdw.cli  # noqa: E402  (set-up cost is what the parent times)
from spinvdw import configurations, spectral  # noqa: E402

if not os.path.abspath(spinvdw.__file__).startswith(SRC + os.sep):
    sys.exit(f"spinvdw imported from {spinvdw.__file__}, not from {SRC}")

_spec, _ctx = spinvdw.cli.parse_config(None)
configurations.energy(_ctx, _spec.make_arrangement(), 0.0, 0.0)
spectral.clear_cache()
print("ready", flush=True)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spinvdw import baseline, response  # noqa: E402

SETUP_PROBE = workloads.probe()


def version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def kernel_ns_per_point(fn, sphere, omega, batches=5, min_s=0.05):
    """Median ns per frequency point of ``fn(sphere, omega)`` over batches.

    Each batch is rescaled to the reference probe speed by the probes on
    either side of it.
    """
    per_batch, before = [], workloads.probe()
    for _ in range(batches):
        reps, t0 = 0, time.perf_counter()
        while True:
            fn(sphere, omega)
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                break
        after = workloads.probe()
        factor = workloads.PROBE_REF_S / (0.5 * (before + after))
        per_batch.append(elapsed / (reps * omega.size) * 1e9 * factor)
        before = after
    return spans.percentile(per_batch, 50)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for CSVs and spans")
    args = p.parse_args()

    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(random.Random(args.seed), args.size)
    tracer = spans.Tracer() if args.trace else None
    result = workloads.Pass(tracer)
    if tracer:
        tracer.install({"cli": spinvdw.cli, "configurations": configurations,
                        "spectral": spectral, "baseline": baseline})
        with tracer.span("pass"):
            result.start()
            first_probe = result.last_probe
            run(inputs, args.out, result)
            result.stop()
        tracer.uninstall()
    else:
        result.start()
        first_probe = result.last_probe
        run(inputs, args.out, result)
        result.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check(inputs, result)
    attempted = workloads.attempted(args.workload, result)
    out = {
        "wall_s": result.wall_s(),
        "raw_wall_s": result.raw_wall_s(),
        "setup_factor": workloads.PROBE_REF_S / (0.5 * (SETUP_PROBE + first_probe)),
        "speed_factors": [seg[2] for seg in result.segments],
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": result.scaled_latencies_ms(),
        "raw_latencies_ms": result.latencies_ms,
        "attempted": attempted,
        "failed": len(result.failures),
        "failures": [result.failures[k] for k in sorted(result.failures)[:5]],
        "csv_sha256": workloads.sha256_of(result.files) if result.files else "",
        "emit_bytes": sum(os.path.getsize(f) for f in result.files),
        "versions": {"python": platform.python_version(),
                     **{pkg: version(pkg) for pkg in ("numpy", "scipy")}},
    }
    if tracer:
        sphere = response.SpinningSphere(60e-9, response.bst(), 300.0)
        omega = np.linspace(0.0, 5.0 * workloads.W0, 4096)
        out["kernels"] = {
            f"response.{name}.ns_per_point":
                kernel_ns_per_point(getattr(response, name), sphere, omega)
            for name in ("polarizability", "hadamard") if hasattr(response, name)}
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump({"absent": tracer.absent, "spans": tracer.spans,
                       "segments": [seg[:3] for seg in result.segments]}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
