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
"""

from dataclasses import replace

import numpy as np

from spinvdw import rotation, spectral
from spinvdw.response import _alpha_reduced
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
