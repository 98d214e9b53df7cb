"""The outputs' bytes against the sums recorded in ``tests/data/outputs.json``.

The file holds the sha256 of the six preset CSVs and of ``spinvdw check``'s
output, a sha256 over ``float.hex`` of material_scan's 300 ``delta_force``
values at seeds 7, 31 and 101 (the points of ``bench/workloads.py``'s own
generator, in order), and the numpy version and machine they were recorded
on. The bytes depend on numpy's complex ``log``, ``tanh`` and ``exp``, so
the byte check runs only on that numpy version and machine; elsewhere the
tests are skipped with a reason that names both hosts. A change that moves
these bits rewrites the file in the same commit and states the size of the
move::

    PYTHONPATH=src python tests/test_outputs.py     # rewrite tests/data/outputs.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import sys
import tempfile

import numpy as np
import pytest

from spinvdw import cli, configurations
from spinvdw.configurations import Arrangement

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "data", "outputs.json")
WORKLOADS = os.path.join(HERE, os.pardir, "bench", "workloads.py")
SEEDS = (7, 31, 101)


def host():
    return {"numpy": np.__version__, "machine": platform.machine()}


def preset_sums(directory):
    """Preset name -> sha256 of the CSV that ``spinvdw sweep --preset`` writes."""
    sums = {}
    for name in cli.PRESETS:
        path = os.path.join(directory, f"{name}.csv")
        cli.emit(cli.run_preset(name), "csv", path)
        with open(path, "rb") as fh:
            sums[name] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def check_sum():
    """sha256 of what ``spinvdw check`` prints."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(["check"]) == 0
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def material_scan_sums():
    """Seed -> sha256 over float.hex of material_scan's delta_force values, point by point."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sums = {}
    for seed in SEEDS:
        inputs = workloads.material_scan_prepare(random.Random(seed), "full")
        digest = hashlib.sha256()
        for ctx, kind, wa, wb in inputs["points"]:
            force = configurations.delta_force(ctx, Arrangement(kind), wa, wb)
            digest.update(float.hex(force).encode())
        sums[str(seed)] = digest.hexdigest()
    return sums


def record():
    with tempfile.TemporaryDirectory() as directory:
        presets = preset_sums(directory)
    return {"host": host(), "presets": presets, "check": check_sum(),
            "material_scan_delta_force": material_scan_sums()}


@pytest.fixture(scope="module")
def recorded():
    with open(PATH) as fh:
        data = json.load(fh)
    if data["host"] != host():
        pytest.skip(f"byte check not run: the sums were recorded on {data['host']}, "
                    f"this host is {host()}")
    return data


def test_preset_csvs_keep_their_bytes(recorded, tmp_path):
    assert preset_sums(str(tmp_path)) == recorded["presets"]


def test_check_output_keeps_its_bytes(recorded):
    assert check_sum() == recorded["check"]


def test_material_scan_forces_keep_their_bits(recorded):
    assert material_scan_sums() == recorded["material_scan_delta_force"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
    sys.exit(0)
