"""Rotation-induced modification of the vdW force between BST nanospheres.

Reproduces the published force-modification curves: spinning along the line
of centers gives a single resonance at a relative rotation rate of 2 w0
with an attraction-to-repulsion crossover just above it; spinning
transverse to the line adds a second resonance at the summed rate, nine
times stronger, whose position moves with the ratio |Omega_B|/|Omega_A|.

Writes the same CSV files the CLI presets produce and plots them when
matplotlib is available.

Run:  python demos/03_force_modification.py
"""

import numpy as np

from spinvdw.cli import emit, run_preset
from spinvdw.response import bst, resonance_frequency

w0 = resonance_frequency(bst())
print(f"polaritonic resonance w0 = {w0:.4e} rad/s")

curves = {}
for preset in ("fig1_300K", "fig1_1500K", "fig2a", "fig2c"):
    result = run_preset(preset)
    emit(result, "csv", f"demo03_{preset}.csv")
    x = np.array(result.columns["omega_A_over_omega0"])
    y = np.array(result.columns["deltaF_fN"])
    curves[preset] = (x, y)
    print(f"wrote demo03_{preset}.csv  ({len(x)} rows, "
          f"max repulsive deltaF = {y.max():.2f} fN)")

x, y = curves["fig1_1500K"]
cross = x[np.nonzero((y[:-1] < 0) & (y[1:] >= 0))[0]]
print(f"\nline-of-centers crossover (1500 K) bracketed at Omega_AB/w0 = "
      f"{cross[cross > 1.5][0]:.3f} (expect 2 within a couple of linewidths)")
print("beyond the crossover the rotation-induced contribution is repulsive"
      " and saturates; near Omega_AB = 2 w0 the attraction is resonantly"
      " enhanced instead")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ModuleNotFoundError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.6))
    for preset, color in (("fig1_300K", "C0"), ("fig1_1500K", "C3")):
        x, y = curves[preset]
        ax1.plot(x, y, color, label=preset.split("_")[1])
    ax1.axhline(0.0, color="k", lw=0.5)
    ax1.set_xlabel(r"$\Omega_{AB}/\omega_0$")
    ax1.set_ylabel(r"$\Delta F_{\rightarrow\rightarrow}$ (fN)")
    ax1.set_title("spins along the line of centers")
    ax1.legend()

    x, y = curves["fig2c"]
    half = len(x) // 2
    ax2.plot(x[:half], y[:half], "C3", label="co-rotating")
    ax2.plot(x[half:], y[half:], "C2", label="counter-rotating")
    ax2.axhline(0.0, color="k", lw=0.5)
    ax2.set_xlabel(r"$\Omega_A/\omega_0$")
    ax2.set_ylabel(r"$\Delta F_{\uparrow\uparrow}$ (fN)")
    ax2.set_title(r"transverse spins, $|\Omega_B| = |\Omega_A|$, 1500 K")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demo03_force_modification.png", dpi=150)
    print("\nwrote demo03_force_modification.png")
