"""Static reference quantities for the non-rotating pair.

The single-resonance model used for the rotation physics underestimates the
total vdW attraction because it omits the (uncharacterized) IR/UV response.
This module provides the static anchors: the Matsubara-sum energy of the
oscillator model itself, the Hamaker-constant route to the total static
force, and the zero-temperature energy that a naive equilibrium
fluctuation-dissipation assumption would give for spinning spheres, used to
quantify the size of the nonequilibrium effects.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .response import EPS0, HBAR, K_B, permittivity, resonance_frequency
from .spectral import ConvergenceError, _alpha_reduced

__all__ = ["MatsubaraSpec", "matsubara_static_energy", "hamaker_constant",
           "static_energy_estimate", "static_force_estimate",
           "naive_fdt_energy_rr"]


@dataclass(frozen=True)
class MatsubaraSpec:
    """Controls for imaginary-frequency sums.

    The n-sum form requires T > 0; the T -> 0 integral limit is out of
    scope here. Terms are added until one falls below ``term_tol`` of the
    running sum or ``max_terms`` is hit (an error).
    """

    temperature: float
    max_terms: int = 10**7
    term_tol: float = 1e-10

    def __post_init__(self):
        if not (self.temperature > 0):
            raise ValueError("Matsubara sum needs temperature > 0")
        if not (self.max_terms >= 1 and self.term_tol > 0):
            raise ValueError("max_terms >= 1 and term_tol > 0 required")

    def frequency(self, n):
        """xi_n = 2 pi n k_B T / hbar (rad/s)."""
        return 2.0 * math.pi * n * K_B * self.temperature / HBAR


def _primed_sum(term, spec, what):
    """Sum_n' term(n) with the n = 0 term halved and tolerance truncation."""
    total = 0.5 * term(0)
    # batch the n >= 1 terms; for GHz resonances xi_1 already dwarfs the
    # oscillator frequency, so this usually stops in the first batch
    n0, batch = 1, 64
    while n0 <= spec.max_terms:
        ns = np.arange(n0, min(n0 + batch, spec.max_terms + 1))
        vals = term(ns)
        csum = total + np.cumsum(vals)
        small = np.abs(vals) <= spec.term_tol * np.abs(csum)
        if small.any():
            stop = int(np.argmax(small))
            return float(csum[stop])
        total = float(csum[-1])
        n0 += len(ns)
        batch = min(batch * 2, 1 << 20)
    raise ConvergenceError(
        f"{what}: Matsubara sum not converged after {spec.max_terms} terms",
        value=total, estimate=abs(float(vals[-1])))


def matsubara_static_energy(ctx, spec):
    """Static vdW energy of the oscillator-model pair via a Matsubara sum (J).

    E = -(6 k_B T a_A^3 a_B^3 / R^6) Sum_n' D_A(i xi_n) D_B(i xi_n), with
    D = (eps - eps0)/(eps + 2 eps0) the Clausius-Mossotti factor evaluated
    on the imaginary axis.
    """
    mat_a, mat_b = ctx.sphere_a.material, ctx.sphere_b.material

    def term(n):
        xi = spec.frequency(n)
        ea = np.real(permittivity(mat_a, 1j * xi))
        eb = np.real(permittivity(mat_b, 1j * xi))
        return ((ea - 1.0) / (ea + 2.0)) * ((eb - 1.0) / (eb + 2.0))

    s = _primed_sum(term, spec, "matsubara_static_energy")
    geom = ctx.sphere_a.radius**3 * ctx.sphere_b.radius**3 / ctx.separation**6
    return -6.0 * K_B * spec.temperature * geom * s


def hamaker_constant(material, spec):
    """Hamaker constant of two half-spaces of this material (J).

    H = (3/2) k_B T Sum_n' [(eps(i xi_n) - eps0)/(eps(i xi_n) + eps0)]^2
    (non-retarded, single round trip). Always positive.
    """
    def term(n):
        xi = spec.frequency(n)
        e = np.real(permittivity(material, 1j * xi))
        return ((e - 1.0) / (e + 1.0))**2

    s = _primed_sum(term, spec, "hamaker_constant")
    return 1.5 * K_B * spec.temperature * s


def static_energy_estimate(hamaker, radius, separation):
    """Total static vdW energy from a Hamaker constant: -(16/9) H (a/R)^6 (J)."""
    return -(16.0 / 9.0) * hamaker * (radius / separation)**6


def static_force_estimate(hamaker, radius, separation):
    """Total static vdW force from a Hamaker constant (N, negative = attractive)."""
    return 6.0 * static_energy_estimate(hamaker, radius, separation) / separation


def naive_fdt_energy_rr(ctx, Omega_A, Omega_B, rel_tol=None):
    """Zero-temperature energy along the line of centers under equilibrium FDT (J).

    Keeps the Doppler-shifted polarizability tensors but replaces the
    Hadamard tensors with the equilibrium relation in the lab frame
    (off-diagonal fluctuations forced to zero):

        E = -hbar/(16 pi^3 eps0^2 R^6) Im int_0^inf dw
            { [a_A(w+O_A) + a_A(w-O_A)][a_B(w+O_B) + a_B(w-O_B)]
              + 8 a_A(w) a_B(w) } / 4 .

    Unlike the full nonequilibrium result this is not a function of
    Omega_A - Omega_B alone, which is the inconsistency that motivates the
    nonequilibrium treatment. Exact at Omega_A = Omega_B = 0.
    """
    ws, mat_a, mat_b = ctx._scaled
    units = ctx.units()
    oa, ob = Omega_A / ws, Omega_B / ws

    def integrand(u):
        # only the imaginary part enters, so the tolerance applies to it
        sa = _alpha_reduced(mat_a, u + oa) + _alpha_reduced(mat_a, u - oa)
        sb = _alpha_reduced(mat_b, u + ob) + _alpha_reduced(mat_b, u - ob)
        return ((sa * sb
                 + 8.0 * _alpha_reduced(mat_a, u) * _alpha_reduced(mat_b, u)) / 4.0).imag

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega_A, Omega_B),
                                         rel_tol=rel_tol, lo=0.0)
    value = spectral.integrate_spectrum(integrand, spec)
    return -units.energy_scale * value.real / math.pi
