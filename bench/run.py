"""spinvdw benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload fig_presets --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Every pass runs in a fresh interpreter (``worker.py``), so the shift cache
starts cold as in every CLI invocation. Passes repeat until ``--seconds``
would be exceeded (at least ``MIN_PASSES``). End-to-end times are
rescaled to a reference machine speed by a probe run between timed
segments (``workloads.probe``). With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` untraced
and traced passes alternate and it reports the per-layer metrics. The line
before it carries the run's metadata (seed, commit, versions, CPU, sample
counts, failures). See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("fig_presets", "material_scan", "general_axes")
MIN_PASSES = 3            # at least two passes compare CSV hashes
WORKER_TIMEOUT_S = 150.0
IMPORTTIME_REPEATS = 3
IMPORT_THEN_PROBE = ("import spinvdw.cli, workloads; "
                     "print(workloads.PROBE_REF_S / workloads.probe())")
COUNTS = ("spectral.shift.lookups", "spectral.shift.quadratures",
          "spectral.general.calls", "configurations.energy.calls", "cli.emit.bytes")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed point)."""


def run_pass(workload, seed, trace, size, out_dir):
    """Spawn one worker; return its result with the parent-timed set-up."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--size", size, "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} pass timed out after {WORKER_TIMEOUT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["raw_setup_s"] = setup_s
    result["setup_s"] = setup_s * result["setup_factor"]
    result["total_s"] = time.perf_counter() - t0
    return result


def import_ms():
    """setup.import_ms.* from ``python -X importtime``, median of repeats.

    numpy and scipy take the cumulative time of their outermost entries;
    spinvdw takes its cumulative time less the numpy and scipy inside it.
    Each repeat is rescaled by the speed probe run right after the import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    samples = {"numpy": [], "scipy": [], "spinvdw": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               IMPORT_THEN_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing spinvdw.cli failed: {proc.stderr[-500:]}")
        totals = importtime_totals(proc.stderr)
        factor = float(proc.stdout.split()[-1])
        for pkg in samples:
            samples[pkg].append(totals.get(pkg, 0.0) * factor)
    return {pkg: spans.percentile(v, 50) for pkg, v in samples.items()}


def importtime_totals(text):
    """Cumulative ms per top package from ``-X importtime`` output."""
    pending = {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        node = (m.group(4), int(m.group(2)) / 1e3, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = {}

    def walk(node, outer):
        name, cum, kids = node
        pkg = name.split(".", 1)[0]
        if pkg in ("numpy", "scipy") and outer != pkg:
            totals[pkg] = totals.get(pkg, 0.0) + cum
            if outer == "spinvdw":
                totals["spinvdw"] -= cum
            outer = pkg
        elif pkg == "spinvdw" and outer is None:
            totals["spinvdw"] = totals.get("spinvdw", 0.0) + cum
            outer = pkg
        for kid in kids:
            walk(kid, outer)

    for node in pending.get(0, []):
        walk(node, None)
    return totals


def read_commit():
    """HEAD's commit id, read from .git without running git; else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def point_latencies(per_pass):
    """Each point's median latency over passes, one value per point.

    Every pass of a run evaluates the same points in the same order, so the
    median over passes is the point's typical latency with preemption
    spikes removed. Percentiles are taken over these values. Pooled over
    all passes, the fig_presets p50, which sits where its cached and
    uncached rows meet, would follow the machine's speed during the few
    hundred milliseconds in which those rows ran.
    """
    if len({len(lat) for lat in per_pass}) != 1:
        raise BenchError("passes of one run evaluated different numbers of points")
    return [spans.percentile(list(point), 50) for point in zip(*per_pass)]


def measure(workload, seed, seconds, trace, size="full"):
    """Run passes for ``seconds``; return (result line, metadata).

    Passes reuse one output directory, so only the last pass's CSVs and
    spans stay in ``bench/out/<workload>``.
    """
    out_dir = os.path.join(HERE, "out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    untraced, traced, layers = [], [], []
    kinds = (0, 1) if trace else (0,)
    while True:
        done = len(untraced) + len(traced)
        if done >= (2 * len(kinds) if trace else MIN_PASSES):
            per_pass = spans.percentile([r["total_s"] for r in untraced + traced], 50)
            if time.perf_counter() - start + per_pass > seconds:
                break
        kind = kinds[done % len(kinds)]
        result = run_pass(workload, seed, kind, size, out_dir)
        (traced if kind else untraced).append(result)
        if kind:
            with open(os.path.join(out_dir, "spans.json")) as fh:
                dump = json.load(fh)
            values, samples, absent = spans.derive(dump["spans"], dump["absent"],
                                                   dump["segments"])
            values["cli.emit.bytes"] = (result["emit_bytes"], "bytes")
            values.update((name, (v, "ns")) for name, v in result["kernels"].items())
            layers.append(values)

    passes = untraced + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    failures = [m for r in passes for m in r["failures"]]
    for r in passes[1:]:
        # byte-deterministic output: a pass whose CSV differs fails whole
        if r["csv_sha256"] != passes[0]["csv_sha256"]:
            failed += r["attempted"] - r["failed"]
            failures.append("emitted CSV differs between passes of the same code")

    meta = {
        "workload": workload, "seed": seed, "trace": trace, "size": size,
        "commit": read_commit(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        **passes[0]["versions"],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "csv_sha256": passes[0]["csv_sha256"],
    }
    if not trace:
        lat = point_latencies([r["latencies_ms"] for r in untraced])
        metrics = {
            "wall_s": (spans.percentile([r["wall_s"] for r in untraced], 50), "s"),
            "point_ms_p50": (spans.percentile(lat, 50), "ms"),
            "point_ms_p90": (spans.percentile(lat, 90), "ms"),
            "setup_s": (spans.percentile([r["setup_s"] for r in untraced], 50), "s"),
            "peak_rss_mb": (spans.percentile([r["peak_rss_mb"] for r in untraced], 50),
                            "MB"),
        }
        meta["samples"] = {"point_ms": {"points": len(lat), "passes": len(untraced)},
                           "wall_s": len(untraced),
                           "setup_s": len(untraced), "peak_rss_mb": len(untraced)}
        raw_lat = point_latencies([r["raw_latencies_ms"] for r in untraced])
        meta["raw"] = {
            "wall_s": spans.percentile([r["raw_wall_s"] for r in untraced], 50),
            "point_ms_p50": spans.percentile(raw_lat, 50),
            "point_ms_p90": spans.percentile(raw_lat, 90),
            "setup_s": spans.percentile([r["raw_setup_s"] for r in untraced], 50),
        }
    else:
        for name in COUNTS:
            if name in layers[0] and any(v[name] != layers[0][name] for v in layers):
                failed += 1
                failures.append(f"count {name} differs between traced passes")
        # timings: median over traced passes; counts: exact, from the first
        metrics = {name: (spans.percentile([v[name][0] for v in layers], 50), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics.update((name, layers[0][name]) for name in COUNTS if name in metrics)
        metrics.update((f"setup.import_ms.{pkg}", (ms, "ms"))
                       for pkg, ms in import_ms().items())
        wall_u = spans.percentile([r["wall_s"] for r in untraced], 50)
        wall_t = spans.percentile([r["wall_s"] for r in traced], 50)
        metrics["trace.overhead_share"] = (wall_t / wall_u - 1.0, "ratio")
        metrics["error_rate"] = (failed / attempted, "ratio")
        meta["samples"] = {"per_traced_pass": samples,
                           "setup.import_ms": IMPORTTIME_REPEATS}
        meta["absent"] = absent
    factors = [f for r in passes for f in r["speed_factors"] + [r["setup_factor"]]]
    meta["speed_factor"] = {"min": min(factors), "p50": spans.percentile(factors, 50),
                            "max": max(factors)}
    meta["error_rate"] = failed / attempted
    meta["failures"] = failures[:10]

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return line, meta


def smoke():
    """Each workload at a tiny size, untraced and traced: schema and gates."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, meta = measure(workload, 1, 0, trace, size="smoke")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(line)}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
            if not (line["correct"] and line["failed"] == 0 and line["attempted"] > 0):
                problems.append(f"{workload} trace {trace}: gates failed: "
                                f"{meta['failures']}")
            print(json.dumps({"workload": workload, "trace": trace, **line}))
    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at a tiny size and check the schema")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spinvdw", "__init__.py")):
        print(f"no spinvdw sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        line, meta = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
