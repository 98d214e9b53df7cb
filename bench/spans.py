"""Span tracing around the public functions of each spinvdw layer.

``Tracer.install`` swaps each traced function for a wrapper at the module
attribute its callers look it up by; the wrapper records a span
``[name, parent, start, end]`` in memory and returns the wrapped result
unchanged. ``derive`` turns the spans of one pass into the per-layer
metrics. Both sides tolerate a missing function name: the metrics that
need it are left out and listed as absent.

This module imports nothing from spinvdw, so the parent process can use
``derive`` without loading numpy.
"""

import contextlib
import time

# (module, attribute) pairs; the span name is "module.attribute".
TRACED = (
    ("cli", "run_sweep"), ("cli", "emit"),
    ("configurations", "energy"),
    ("spectral", "aux_energy"), ("spectral", "energy_AB"),
    ("spectral", "energy_BA"), ("spectral", "general_energy"),
    ("spectral", "pair_quadrature_spec"),
    ("baseline", "matsubara_static_energy"), ("baseline", "hamaker_constant"),
    ("baseline", "static_energy_estimate"), ("baseline", "static_force_estimate"),
    ("baseline", "naive_fdt_energy_rr"),
)

LOOKUPS = ("spectral.energy_AB", "spectral.energy_BA")
QUADRATURE = "spectral.pair_quadrature_spec"
GENERAL = "spectral.general_energy"
ENERGY = "configurations.energy"

# Which traced names each derived metric needs.
NEEDS = {
    "spectral.shift.lookups": LOOKUPS,
    "spectral.shift.quadratures": LOOKUPS + (QUADRATURE,),
    "spectral.shift.hit_rate": LOOKUPS + (QUADRATURE,),
    "spectral.shift.miss_ms_p50": LOOKUPS + (QUADRATURE,),
    "spectral.shift.miss_ms_p90": LOOKUPS + (QUADRATURE,),
    "spectral.shift.hit_us_p50": LOOKUPS + (QUADRATURE,),
    "spectral.general.calls": (GENERAL,),
    "spectral.general.ms_p50": (GENERAL,),
    "spectral.general.ms_p90": (GENERAL,),
    "spectral.busy_share": (),
    "configurations.energy.calls": (ENERGY,),
    "configurations.energy.self_ms": (ENERGY,),
    "cli.run_sweep.self_ms": ("cli.run_sweep",),
    "cli.emit.ms": ("cli.emit",),
    "baseline.ms": (),
}


def percentile(values, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100); 0.0 if empty."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.installed = []
        self.absent = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self, modules):
        """Wrap every traced name present in ``modules`` (short name -> module)."""
        for mod_name, attr in TRACED:
            module = modules[mod_name]
            name = f"{mod_name}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))
            self.installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in self.installed:
            setattr(module, attr, fn)
        self.installed = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block, such as the whole pass."""
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), 0.0])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter()


def scaled_duration(start, end, segments):
    """Seconds of [start, end] inside the timed segments, each times its factor.

    ``segments`` rows are ``[start, end, factor]``. Time outside every
    segment, which is where the speed probes run, counts 0.
    """
    return sum(max(0.0, min(end, seg_end) - max(start, seg_start)) * factor
               for seg_start, seg_end, factor in segments)


def derive(spans, absent=(), segments=None):
    """Per-layer metrics of one traced pass from its spans.

    ``spans`` rows are ``[name, parent, start, end]`` and the first span is
    the whole pass. With ``segments`` (``[start, end, factor]`` rows from
    the pass), every duration is rescaled to the reference probe speed and
    leaves out the probes; without, durations are raw. Returns ``(metrics, samples, absent)``: metric name ->
    ``(value, unit)``, the sample count behind each percentile, and the
    metrics left out because a traced name is missing.
    """
    n = len(spans)
    if segments is None:
        dur = [s[3] - s[2] for s in spans]
    else:
        dur = [scaled_duration(s[2], s[3], segments) for s in spans]
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)
    self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def top_level(prefix):
        """Total time of spans of one layer not nested in the same layer."""
        total = 0.0
        for i in range(n):
            if layer(i) != prefix:
                continue
            p = spans[i][1]
            while p >= 0 and layer(p) != prefix:
                p = spans[p][1]
            if p < 0:
                total += dur[i]
        return total

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    lookups = [i for name in LOOKUPS for i in by_name.get(name, [])]
    miss = [i for i in lookups
            if any(spans[c][0] == QUADRATURE for c in children[i])]
    miss_set = set(miss)
    hits_us = [dur[i] * 1e6 for i in lookups if i not in miss_set]
    miss_ms = [dur[i] * 1e3 for i in miss]
    general_ms = [dur[i] * 1e3 for i in by_name.get(GENERAL, [])]
    energy = by_name.get(ENERGY, [])
    wall = dur[0]

    metrics = {
        "spectral.shift.lookups": (len(lookups), "count"),
        "spectral.shift.quadratures": (len(miss), "count"),
        "spectral.shift.hit_rate": (1.0 - len(miss) / len(lookups) if lookups else 0.0,
                                    "ratio"),
        "spectral.shift.miss_ms_p50": (percentile(miss_ms, 50), "ms"),
        "spectral.shift.miss_ms_p90": (percentile(miss_ms, 90), "ms"),
        "spectral.shift.hit_us_p50": (percentile(hits_us, 50), "us"),
        "spectral.general.calls": (len(general_ms), "count"),
        "spectral.general.ms_p50": (percentile(general_ms, 50), "ms"),
        "spectral.general.ms_p90": (percentile(general_ms, 90), "ms"),
        "spectral.busy_share": (top_level("spectral") / wall, "ratio"),
        "configurations.energy.calls": (len(energy), "count"),
        "configurations.energy.self_ms": (sum(self_t[i] for i in energy) * 1e3, "ms"),
        "cli.run_sweep.self_ms": (sum(self_t[i] for i in by_name.get("cli.run_sweep", []))
                                  * 1e3, "ms"),
        "cli.emit.ms": (sum(dur[i] for i in by_name.get("cli.emit", [])) * 1e3, "ms"),
        "baseline.ms": (top_level("baseline") * 1e3, "ms"),
    }
    samples = {"spectral.shift.miss_ms": len(miss_ms),
               "spectral.shift.hit_us": len(hits_us),
               "spectral.general.ms": len(general_ms)}
    gone = sorted(m for m, names in NEEDS.items() if set(names) & set(absent))
    for m in gone:
        metrics.pop(m)
    return metrics, samples, gone
