"""Lab-frame response of a spinning sphere, in its projector form.

A sphere spinning at Omega about the unit axis n responds in the lab frame
as

    xi(w + Omega) P_+ + xi(w) P_0 + xi(w - Omega) P_-,

P_0 = n n^T, P_+ = (1 - n n^T - i [n]x)/2 and P_- = conj P_+, for its
polarizability and its Hadamard (fluctuation) spectrum alike. Its
transverse response splits into Doppler sidebands at w -/+ Omega. The
fluctuation spectrum shifts with it, so the off-diagonal part of eta no
longer follows from the lab-frame alpha through the equilibrium
fluctuation-dissipation relation. Contracting two spheres' projectors with
the dipole kernel g = 1 - 3 rhat rhat^T gives the weights
c_st = Tr(g P_s^A g P_t^B) that make every arrangement's energy
2 sum c_st E(s Omega_A - t Omega_B). This script shows the sidebands, the
off-diagonal fluctuations, and the weights of the four canonical
arrangements.

Run:  python demos/02_rotating_tensors.py
"""

import numpy as np

from spinvdw import (Arrangement, PairContext, aux_energy, bst, energy, hadamard,
                     polarizability, resonance_frequency)
from spinvdw.response import HBAR, K_B, SpinningSphere

SIGNS = (1, 0, -1)


def projectors(n):
    """P_+, P_0 and P_- of the unit spin axis n."""
    n = np.asarray(n, dtype=float)
    p0 = np.outer(n, n)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    plus = 0.5 * (np.eye(3) - p0 - 1j * cross)
    return plus, p0, plus.conj()


material = bst()
w0 = resonance_frequency(material)
temperature = 300.0
sphere = SpinningSphere(60e-9, material, temperature)

Omega = 0.8 * w0
print(f"spin rate Omega = 0.8 w0 = {Omega:.3e} rad/s\n")

# the transverse response alpha(w + Omega) P_+ + alpha(w - Omega) P_-
# resonates at w = w0 - Omega and w = w0 + Omega instead of w0
for frac in (1.0 - 0.8, 1.0, 1.0 + 0.8):
    w = frac * w0
    print(f"  w = {frac:.1f} w0:  |alpha(w + Omega)| = "
          f"{abs(polarizability(sphere, w + Omega)):.3e}   |alpha(w - Omega)| = "
          f"{abs(polarizability(sphere, w - Omega)):.3e}")
print("  (sidebands: one circular component peaks at each of w0 -/+ Omega)\n")

# about z the off-diagonal entry of eta is i[eta(w + Omega) - eta(w - Omega)]/2,
# the sideband asymmetry. A lab-frame equilibrium FDT would build it from the
# lab-frame alpha with the unshifted weight coth(hbar w/2kT) instead
Omega, w = w0, 0.5 * w0
eta_p, eta_m = hadamard(sphere, w + Omega), hadamard(sphere, w - Omega)
eta_xx, eta_xy = 0.5 * (eta_p + eta_m), 0.5 * (eta_p - eta_m)
im_p = polarizability(sphere, w + Omega).imag
im_m = polarizability(sphere, w - Omega).imag
naive_xy = (im_p - im_m) / np.tanh(HBAR * w / (2.0 * K_B * temperature))
print(f"at Omega = w0, w = w0/2:  Im eta_xy / eta_xx = {eta_xy / eta_xx:+.3f}, where")
print(f"  a lab-frame equilibrium FDT would give {naive_xy / eta_xx:+.3f}\n")

# the weights c_st of each canonical arrangement, and the energy they give
ctx = PairContext(sphere, sphere, 180e-9)
oa, ob = 1.3 * w0, -0.4 * w0
print("weights c_st = Tr(g P_s^A g P_t^B), rows s and columns t in (+, 0, -):")
for kind in ("rr", "uu", "ur", "uo"):
    arr = Arrangement(kind)
    g = np.eye(3) - 3.0 * np.outer(arr.rhat, arr.rhat)
    c = np.array([[np.trace(g @ pa @ g @ pb).real for pb in projectors(arr.axis_b)]
                  for pa in projectors(arr.axis_a)])
    e = 2.0 * sum(c[i, j] * aux_energy(ctx, s * oa - t * ob)
                  for i, s in enumerate(SIGNS) for j, t in enumerate(SIGNS))
    dev = abs(e / energy(ctx, arr, oa, ob) - 1.0)
    rows = "  ".join("[" + " ".join(f"{v:4.2f}" for v in row) + "]" for row in c)
    print(f"  {kind}: {rows}   sum {c.sum():.1f}; "
          f"energy at (1.3, -0.4) w0 matches to {dev:.1e}")
print("every arrangement's weights sum to Tr(g g) = 6, so at rest all give"
      " E0 = 12 E(0)")
