"""Tests of the benchmark itself; run with ``python -m pytest bench``.

They check the output schema, the metric names, the correctness gates and
that count metrics repeat, never timings.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in lines} == {
        (w, t) for w in run.WORKLOADS for t in (0, 1)}


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fig_presets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_derive_counts_misses_and_self_time():
    s = [["pass", -1, 0.0, 10.0],
         ["configurations.energy", 0, 1.0, 5.0],
         ["spectral.aux_energy", 1, 1.0, 4.0],
         ["spectral.energy_AB", 2, 1.0, 3.0],
         ["spectral.pair_quadrature_spec", 3, 1.0, 1.5],
         ["spectral.energy_BA", 2, 3.0, 3.5],
         ["cli.emit", 0, 6.0, 7.0]]
    metrics, samples, gone = spans.derive(s)
    assert metrics["spectral.shift.lookups"][0] == 2
    assert metrics["spectral.shift.quadratures"][0] == 1
    assert metrics["spectral.shift.hit_rate"][0] == 0.5
    assert metrics["configurations.energy.self_ms"][0] == 1e3
    assert metrics["spectral.busy_share"][0] == 0.3
    assert metrics["cli.emit.ms"][0] == 1e3
    assert samples["spectral.shift.miss_ms"] == 1 and gone == []


def test_derive_drops_metrics_of_absent_names():
    metrics, _, gone = spans.derive([["pass", -1, 0.0, 1.0]],
                                    absent=["spectral.general_energy"])
    assert "spectral.general.calls" not in metrics
    assert "spectral.general.calls" in gone
    assert metrics["spectral.shift.lookups"][0] == 0


def test_importtime_totals_separates_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |   scipy.constants",
        "import time:        40 |        500 | spinvdw",
    ])
    totals = run.importtime_totals(text)
    assert totals == {"numpy": 0.3, "scipy": 0.05, "spinvdw": 0.5 - 0.3 - 0.05}


def test_point_latencies_take_each_points_median_over_passes():
    assert run.point_latencies([[1.0, 5.0], [9.0, 6.0], [2.0, 4.0]]) == [2.0, 5.0]
    try:
        run.point_latencies([[1.0, 2.0], [1.0]])
    except run.BenchError:
        pass
    else:
        raise AssertionError("passes of different lengths were accepted")


def test_pass_rescales_each_segment_by_its_own_factor():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    p = workloads.Pass()
    p.latencies_ms = [1.0, 2.0, 4.0]
    p.segments = [(10.0, 10.5, 2.0, 0, 2), (11.0, 12.0, 3.0, 2, 3)]
    assert p.raw_wall_s() == 1.5
    assert p.wall_s() == 4.0
    assert p.scaled_latencies_ms() == [2.0, 4.0, 12.0]


def test_scaled_duration_rescales_each_segment_and_skips_the_gaps():
    segments = [[0.0, 1.0, 2.0], [2.0, 3.0, 0.5]]
    assert spans.scaled_duration(0.5, 2.5, segments) == 0.5 * 2.0 + 0.5 * 0.5
    assert spans.scaled_duration(1.2, 1.8, segments) == 0.0
    metrics, _, _ = spans.derive([["pass", -1, 0.0, 3.0],
                                  ["cli.emit", 0, 2.0, 3.0]], segments=segments)
    assert metrics["cli.emit.ms"][0] == 500.0
