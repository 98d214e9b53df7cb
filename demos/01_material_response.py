"""Material response of a BST nanosphere.

Walks through the three rest-frame ingredients every force calculation is
built from: the single-oscillator permittivity, the dipole polarizability
of a 60 nm sphere, and the thermal Hadamard (fluctuation) spectrum. The
polaritonic resonance sits at w0 = wt0*sqrt(1 + f0/3) ~ 2 GHz x 2pi-ish
scale (1.28e10 rad/s), low enough that realistic rotation rates can reach
twice it -- that is what makes BST interesting here.

Run:  python demos/01_material_response.py
"""

import numpy as np

from spinvdw import bst, hadamard, permittivity, polarizability, resonance_frequency
from spinvdw.response import SpinningSphere

material = bst()
w0 = resonance_frequency(material)
sphere = SpinningSphere(60e-9, material, temperature=300.0)

print("BST single-oscillator model")
print(f"  f0 = {material.f0}, wt0 = {material.omega_tilde0:.3e} rad/s, "
      f"gamma0 = {material.gamma0:.3e} rad/s")
print(f"  polaritonic resonance w0 = {w0:.4e} rad/s")
print(f"  static permittivity eps(0)/eps0 = {permittivity(material, 0.0).real:.3f}")
print(f"  static polarizability alpha(0) = {polarizability(sphere, 0.0).real:.4e} C m^2/V")

# the resonance is sharp: quality factor w0/gamma0 ~ 46
print(f"  quality factor w0/gamma0 = {w0 / material.gamma0:.1f}")

# thermal occupation is huge at GHz frequencies: hbar*w0 << k_B*T even at
# room temperature, so the fluctuation spectrum is strongly classical
from spinvdw.response import HBAR, K_B
print(f"  hbar*w0 / k_B*300K = {HBAR * w0 / (K_B * 300.0):.2e}")

w = np.linspace(-3.0, 3.0, 1201) * w0
alpha = polarizability(sphere, w)
eta300 = hadamard(sphere, w, 300.0)
eta1500 = hadamard(sphere, w, 1500.0)

print("\nHadamard spectrum at the resonance:")
print(f"  eta(w0, T=0)     = {hadamard(sphere, w0, 0.0):.4e}")
print(f"  eta(w0, T=300K)  = {hadamard(sphere, w0, 300.0):.4e}")
print(f"  eta(w0, T=1500K) = {hadamard(sphere, w0, 1500.0):.4e}")
print("  (the T=300K/T=0 ratio is the classical enhancement 2kT/hbar*w0 "
      f"= {2 * K_B * 300.0 / (HBAR * w0):.0f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ModuleNotFoundError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.2))
    axes[0].plot(w / w0, alpha.real * 1e32, label="Re")
    axes[0].plot(w / w0, alpha.imag * 1e32, label="Im")
    axes[0].set_title("polarizability (1e-32 C m$^2$/V)")
    axes[0].legend()
    axes[1].semilogy(w / w0, np.maximum(eta300, 1e-40))
    axes[1].set_title("Hadamard spectrum, 300 K")
    axes[2].semilogy(w / w0, np.maximum(eta1500, 1e-40))
    axes[2].set_title("Hadamard spectrum, 1500 K")
    for ax in axes:
        ax.set_xlabel(r"$\omega/\omega_0$")
    fig.tight_layout()
    fig.savefig("demo01_material_response.png", dpi=150)
    print("\nwrote demo01_material_response.png")
