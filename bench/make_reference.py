"""Write reference_fig_presets.json: the values the fig_presets gate checks.

Run from the repository root with ``python3 bench/make_reference.py``. Each
sweep preset stores ``[E_J, E0_J]`` per row and ``baseline_static`` stores
``[quantity, value]`` per row, all as exact float reprs. Regenerate only
when the physics is meant to change, and say so in the change that does.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spinvdw import cli  # noqa: E402


def main():
    reference = {}
    for name in cli.PRESETS:
        rows = cli.run_preset(name).rows
        if name == "baseline_static":
            reference[name] = [[r["quantity"], r["value"]] for r in rows]
        else:
            assert not any(r["error"] for r in rows), name
            reference[name] = [[r["E_J"], r["E0_J"]] for r in rows]
    with open(os.path.join(HERE, "reference_fig_presets.json"), "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
