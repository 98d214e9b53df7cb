"""Static reference quantities for the non-rotating pair.

The single-resonance model used for the rotation physics underestimates the
total vdW attraction because it omits the (uncharacterized) IR/UV response.
This module provides the static anchors: the Matsubara-sum energy of the
oscillator model itself, the Hamaker-constant route to the total static
force, and the zero-temperature energy that a naive equilibrium
fluctuation-dissipation assumption would give for spinning spheres, used to
quantify the size of the nonequilibrium effects. All three are closed
forms: partial fractions over the poles of the polarizabilities turn each
Matsubara sum into digamma divided differences and the naive energy into
logarithmic ones, the pair sums of :mod:`spinvdw.spectral`.
"""

import math

import numpy as np

from . import spectral
from .response import HBAR, K_B, MaterialModel, resonance_frequency

__all__ = ["matsubara_static_energy", "hamaker_constant",
           "static_energy_estimate", "static_force_estimate",
           "naive_fdt_energy_rr"]


def _pair_sum(what, poles, rows, xi1=0.0, rest=0.0, rel_tol=None):
    """rest + sum_{n>=1} f(i n xi1), or int_0^inf dxi f(i xi) at xi1 = 0.

    f(u) = sum over rows (x, a, y, b) of sum_ij a_i b_j/((u - x_i)(u - y_j)),
    every pole in the lower half plane, frequencies in working units.
    Partial fractions make the sum

        -(1/xi1^2) sum_ij a_i b_j [psi(1 + w_j) - psi(1 + z_i)]/(w_j - z_i)

    with z = i x/xi1, w = i y/xi1 (Abramowitz & Stegun 6.3.16), and the
    integral -sum_ij a_i b_j [log(i y_j) - log(i x_i)]/(i y_j - i x_i):
    the pair sums of :func:`spinvdw.spectral._divided`, or of its zeta
    series when every |z|, |w| <= ``_RHO``. ``poles`` are the
    :func:`spinvdw.spectral._alpha_poles` of X and Y and ``rows`` maps the
    poles of the two at one of their :func:`spinvdw.spectral._pole_points`
    to its rows; the value is the real part of the mean over the points.
    Its roundoff estimate, the n = 0 term ``rest`` included, is checked
    against ``rel_tol`` by :func:`spinvdw.spectral._fails`; a ``rel_tol``
    that is not > 0 raises ValueError before any evaluation.
    """
    rel = spectral._positive(rel_tol, what)
    points = spectral._pole_points(*poles)
    x, a, y, b = map(np.array, zip(*(row for point in points for row in rows(*point))))
    warm = xi1 > 0.0
    step = xi1 if warm else 1.0             # at T = 0, w = i x takes log
    rho = max(np.abs(x).max(), np.abs(y).max()) / xi1 if warm else math.inf
    f = -2.0 / step
    if rho <= spectral._RHO:
        pairs = spectral._series(np.stack([y, x], axis=1) * (-1j / step), a, b * f, rho)
        size = spectral._series_size(rho) * np.abs(a).sum(1) * np.abs(b * f).sum(1)
    else:
        scale, offset = 1j / step, float(warm)
        pairs, size = spectral._divided((x * scale + offset)[:, None], y * scale + offset,
                                        (f * a)[:, None, :, None] * b[:, None, None, :],
                                        spectral._digamma if warm else spectral._log)
    scale = 0.5 / (len(points) * step)
    value = rest + scale * float(pairs.sum().real)
    roundoff = spectral._ROUNDOFF * (abs(rest) + scale * float(size.sum()))
    if spectral._fails(value, 0.0, roundoff, rel):
        raise spectral._failure(what, value, roundoff, 0.0, rel)
    return value


def _product(poles_x, poles_y):
    """The one row of alpha_X alpha_Y."""
    return [(*poles_x, *poles_y)]


def matsubara_static_energy(ctx):
    """Static vdW energy of the oscillator-model pair via a Matsubara sum (J).

    E = -(6 k_B T a_A^3 a_B^3 / R^6) Sum_n' D_A(i xi_n) D_B(i xi_n), with
    D = (eps - eps0)/(eps + 2 eps0) the Clausius-Mossotti factor evaluated
    on the imaginary axis, which is the reduced polarizability alpha, and
    D(0) = f0/(3 + f0). The sum needs both spheres at one temperature
    T > 0 (ValueError otherwise).
    """
    t_a, t_b = ctx.sphere_a.temperature, ctx.sphere_b.temperature
    if not t_a == t_b > 0.0:
        raise ValueError("the static Matsubara sum needs equal temperatures "
                         f"T > 0, got {t_a} and {t_b} K")
    f_a, f_b = ctx.sphere_a.material.f0, ctx.sphere_b.material.f0
    xi1 = 2.0 * math.pi * K_B * t_a / (HBAR * ctx._scaled[0])
    rest = 0.5 * (f_a / (3.0 + f_a)) * (f_b / (3.0 + f_b))
    s = _pair_sum("matsubara_static_energy", ctx._poles, _product, xi1, rest)
    geom = ctx.sphere_a.radius**3 * ctx.sphere_b.radius**3 / ctx.separation**6
    return -6.0 * K_B * t_a * geom * s


def hamaker_constant(material, temperature):
    """Hamaker constant of two half-spaces of this material at T > 0 (J).

    H = (3/2) k_B T Sum_n' [(eps(i xi_n) - eps0)/(eps(i xi_n) + eps0)]^2
    (non-retarded, single round trip). Always positive. The factor is
    exactly the reduced polarizability of the material with 1.5 f0.
    """
    if not temperature > 0.0:
        raise ValueError(f"the Hamaker sum needs temperature > 0, got {temperature} K")
    mirror = MaterialModel(1.5 * material.f0, material.omega_tilde0, material.gamma0)
    ws = resonance_frequency(mirror)
    poles = spectral._alpha_poles(mirror.scaled(ws))
    xi1 = 2.0 * math.pi * K_B * temperature / (HBAR * ws)
    d0 = material.f0 / (2.0 + material.f0)
    s = _pair_sum("hamaker_constant", (poles, poles), _product, xi1, 0.5 * d0 * d0)
    return 1.5 * K_B * temperature * s


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

    Both products are rational with every pole in the lower half plane, so
    the integral turns onto the imaginary axis, int_0^inf dw f(w) =
    i int_0^inf dxi f(i xi), whose real part is the T = 0 pair sum of log
    divided differences (coincident poles included). Near critical damping
    it is the mean over the circle of :func:`spinvdw.spectral._closed`.
    The roundoff estimate of the sum is checked against ``rel_tol`` as
    :func:`spinvdw.spectral.energy_BA` checks its own.
    """
    ws = ctx._scaled[0]
    oa, ob = Omega_A / ws, Omega_B / ws

    def rows(poles_a, poles_b):
        (pa, ra), (pb, rb) = (map(np.array, p) for p in (poles_a, poles_b))
        # the shifted product, then 8 a_A a_B as (4 a_A)(2 a_B) over doubled poles
        return [(np.r_[pa - oa, pa + oa], np.r_[ra, ra], np.r_[pb - ob, pb + ob], np.r_[rb, rb]),
                (np.r_[pa, pa], np.r_[2.0 * ra, 2.0 * ra], np.r_[pb, pb], np.r_[rb, rb])]

    s = _pair_sum("naive_fdt_energy_rr", ctx._poles, rows, rel_tol=rel_tol)
    return -ctx._energy_scale * s / (4.0 * math.pi)
