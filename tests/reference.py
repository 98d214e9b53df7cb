"""Independent references for the arrangement energies.

``tensor_energy`` is the direct 3x3 evaluation: it builds both spheres'
lab-frame polarizability and Hadamard tensors from the spin transform,
rotates them onto their axes, contracts them with the dipole kernel on
both sides and integrates over frequency in one quadrature. It shares the
material kernels with the program but neither the projector weights nor
the cached shift integrals, so it checks the production kernel of
:mod:`spinvdw.configurations`.

``CANONICAL`` holds the hand-derived integer combinations of E(Omega) for
the four canonical arrangements, as expected values.

``quadrature_shift_integral`` evaluates one reduced shift integral by the
adaptive Gauss-Kronrod quadrature, directly from the material kernels, as
the reference for the contour closure of :mod:`spinvdw.spectral`.

``closure_reference`` evaluates the contour closure itself at 30 digits,
its Matsubara pair sum through ``mpmath.psi``, as the reference for the
double-precision routes (series and digamma) that sum it.
"""

from dataclasses import replace

import mpmath
import numpy as np

from spinvdw import rotation, spectral
from spinvdw.response import HBAR, K_B, _alpha_reduced
from spinvdw.rotation import rotation_matrix_to_axis


def tensor_energy(ctx, arrangement, Omega_A, Omega_B, rel_tol=None):
    """Interaction energy (J) by the full tensor contraction.

    E = -(energy_scale / 8 pi) int du Tr(g a_A g eta_B^H) + Tr(g eta_A^* g a_B^T)
    with g = 1 - 3 rhat rhat^T and each lab-frame tensor the spin transform
    about z rotated onto its sphere's axis.
    """
    ws, mat_a, mat_b = ctx._scaled
    shift_a, shift_b = Omega_A / ws, Omega_B / ws
    rhat = np.asarray(arrangement.rhat, dtype=float)
    g = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    rot_a = rotation_matrix_to_axis(arrangement.axis_a)
    rot_b = rotation_matrix_to_axis(arrangement.axis_b)
    alpha_a = lambda u: _alpha_reduced(mat_a, u)
    alpha_b = lambda u: _alpha_reduced(mat_b, u)
    eta_a = spectral._eta_reduced(mat_a, ctx.sphere_a.temperature, ws)
    eta_b = spectral._eta_reduced(mat_b, ctx.sphere_b.temperature, ws)

    # Tr(g R_a X R_a^T g R_b Y R_b^T) = Tr(h X h^T Y) with h = R_b^T g R_a:
    # rotating the kernel once replaces rotating four tensors per frequency
    h = rot_b.T @ g @ rot_a

    def spun(fn, shift, u):
        return rotation._assemble(*rotation.spin_entries(fn, shift, u))

    def integrand(u):
        t1 = np.einsum("nij,nij->n", h @ spun(alpha_a, shift_a, u) @ h.T,
                       spun(eta_b, shift_b, u).conj())
        t2 = np.einsum("nij,nij->n", h @ spun(eta_a, shift_a, u).conj() @ h.T,
                       spun(alpha_b, shift_b, u))
        return t1 + t2

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega_A, Omega_B),
                                         rel_tol=rel_tol)
    value = spectral.integrate_spectrum(integrand, spec)
    assert abs(value.imag) <= 1e-6 * abs(value.real), value
    return -ctx.units().energy_scale * value.real / (8.0 * np.pi)


def _rr(aux, oa, ob):
    return 4.0 * (aux(oa - ob) + 2.0 * aux(0.0))


def _uu(aux, oa, ob):
    return aux(oa - ob) + 9.0 * aux(oa + ob) + 2.0 * aux(0.0)


def _ur(aux, oa, ob):
    return 8.0 * aux(oa) + 2.0 * aux(ob) + aux(oa - ob) + aux(oa + ob)


def _uo(aux, oa, ob):
    return 2.0 * aux(oa) + 2.0 * aux(ob) + 4.0 * aux(oa - ob) + 4.0 * aux(oa + ob)


CANONICAL = {"rr": _rr, "uu": _uu, "ur": _ur, "uo": _uo}


def canonical_energy(ctx, kind, Omega_A, Omega_B, rel_tol=None):
    """Hand-derived energy of a canonical arrangement (J)."""
    return CANONICAL[kind](lambda om: spectral.aux_energy(ctx, om, rel_tol),
                           Omega_A, Omega_B)


def quadrature_shift_integral(ctx, Omega, which, rel_tol=1e-10, abs_tol=None):
    """Reduced BA or AB shift integral (working units) by quadrature.

    BA = int du [alpha_A(u + s) + alpha_A(u - s)] eta_B(u) and
    AB = int du [eta_A(u + s) + eta_A(u - s)] alpha_B(u), s = |Omega|/w_s.
    """
    ws, mat_a, mat_b = ctx._scaled
    shift = abs(Omega) / ws
    if which == "BA":
        eta_b = spectral._eta_reduced(mat_b, ctx.sphere_b.temperature, ws)

        def integrand(u):
            return (_alpha_reduced(mat_a, u + shift)
                    + _alpha_reduced(mat_a, u - shift)) * eta_b(u)
    else:
        eta_a = spectral._eta_reduced(mat_a, ctx.sphere_a.temperature, ws)

        def integrand(u):
            return (eta_a(u + shift) + eta_a(u - shift)) * _alpha_reduced(mat_b, u)

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega,), rel_tol=rel_tol)
    if abs_tol is not None:
        spec = replace(spec, abs_tol=abs_tol)
    value = spectral.integrate_spectrum(integrand, spec)
    assert abs(value.imag) <= 1e-6 * abs(value.real) + spec.abs_tol, value
    return value.real


def closure_reference(row, omega_scale, shift, dps=30):
    """The two parts of one warm closed-form row's shift integral, at ``dps`` digits.

    ``row`` is (mat_x, mat_y, T_y) in working units, T_y > 0, as in
    :func:`spinvdw.spectral._closed`. With the poles x_i (coefficients a_i)
    of alpha_X(u + s) + alpha_X(u - s), the poles y_j (b_j) of
    alpha_Y(u) - alpha_Y(-u) and the upper poles q_k = -p_k of eta_Y:

        J = 2 pi sum_k coth(theta q_k) r_k^Y sum_i a_i/(q_k - x_i)
            - (2/xi1) sum_ij a_i b_j [psi(1 + z_j) - psi(1 + z_i)]/(z_j - z_i)

    with theta = hbar w_s/2kT, xi1 = pi/theta and z = i x/xi1; a pair with
    z_i = z_j takes psi'(1 + z_i). Returns the residue sum and the
    Matsubara pair sum, complex numbers whose sum is J.
    """
    mat_x, mat_y, temperature = row
    with mpmath.workdps(dps):
        def poles(mat):
            wt, gamma = mpmath.mpf(mat.omega_tilde0), mpmath.mpf(mat.gamma0)
            w0sq = wt**2 * (1 + mpmath.mpf(mat.f0) / 3)
            wp = mpmath.sqrt(w0sq - gamma**2 / 4)
            r = mpmath.mpf(mat.f0) * wt**2 / (6 * wp)
            return [wp - 0.5j * gamma, -wp - 0.5j * gamma], [-r, r]

        (p1, p2), ry = poles(mat_y)
        px, rx = poles(mat_x)
        s = mpmath.mpf(shift)
        x, a = [p - s for p in px] + [p + s for p in px], rx + rx
        y, b = [p1, p2, -p1, -p2], ry + ry
        theta = mpmath.mpf(HBAR) * mpmath.mpf(omega_scale) / (2 * mpmath.mpf(K_B)
                                                              * mpmath.mpf(temperature))
        xi1 = mpmath.pi / theta
        residues = pairs = mpmath.mpc(0)
        for q, r in zip((-p1, -p2), ry):
            residues += 2 * mpmath.pi * mpmath.coth(theta * q) * r * sum(
                ai / (q - xi) for ai, xi in zip(a, x))
        zx = [1j * v / xi1 for v in x]
        zy = [1j * v / xi1 for v in y]
        for ai, zi in zip(a, zx):
            for bj, zj in zip(b, zy):
                if zi == zj:
                    dd = mpmath.psi(1, 1 + zi)
                else:
                    dd = (mpmath.psi(0, 1 + zj) - mpmath.psi(0, 1 + zi)) / (zj - zi)
                pairs -= 2 / xi1 * ai * bj * dd
        return complex(residues), complex(pairs)
