"""Independent references for the arrangement energies.

The tensor view of a spinning sphere: a sphere spinning at Omega about z
turns its isotropic rest-frame response xi(w) into the lab-frame tensor

    xi_xx = xi_yy = [xi(w+Omega) + xi(w-Omega)]/2
    xi_xy = -xi_yx = i[xi(w+Omega) - xi(w-Omega)]/2
    xi_zz = xi(w),  all other entries zero

(``spin_entries``, ``spin_tensor``), for the polarizability and the
Hadamard spectrum alike, and ``axis_rotate`` turns it onto any axis with
the rotation of ``rotation_matrix_to_axis``. ``noneq_fdt_hadamard`` builds
the Hadamard tensor from the lab-frame polarizability instead, through the
modified fluctuation-dissipation relations of the rotating frame
(Manjavacas & Garcia de Abajo, PRL 105, 113601 (2010)). Every tensor is a
plain complex 3x3 array. ``projector_weights`` builds the weights c_st of
an axis triple from this view, as the reference for the closed-form
weights that :mod:`spinvdw.configurations` computes from the axes' dot
products.

``tensor_energy`` is the direct 3x3 evaluation: it builds both spheres'
lab-frame polarizability and Hadamard tensors from the spin transform,
rotates them onto their axes, contracts them with the dipole kernel on
both sides and integrates over frequency in one quadrature. It shares the
material kernels with the program but neither the projector weights nor
the closed-form shift integrals, so it checks the production kernel of
:mod:`spinvdw.configurations`.

``CANONICAL`` holds the hand-derived integer combinations of E(Omega) for
the four canonical arrangements, as expected values.

``integrate_spectrum`` is an adaptive Gauss-Kronrod (7/15) panel
quadrature with breakpoints seeded at every Doppler image of the
resonances (:func:`spinvdw.spectral.pair_quadrature_spec`) and fitted
power-law tails beyond a finite window. It shares no arithmetic with the
contour closure of :mod:`spinvdw.spectral`, which serves every production
value, and is its independent reference: ``quadrature_shift_integral``
evaluates one reduced shift integral with it, directly from the material
kernels, and ``naive_fdt_quadrature`` the equilibrium-FDT baseline of
:mod:`spinvdw.baseline`. ``shift_integral`` is the closed form's own value
of one such integral, with its roundoff estimate and no tolerance.

``closure_reference`` evaluates the contour closure itself at 30 digits,
its Matsubara pair sum through ``mpmath.psi`` (logarithms at T = 0), as
the reference for the double-precision routes (log, series and digamma)
that sum it. ``static_sum_reference`` adds up the static Matsubara sums of
:mod:`spinvdw.baseline` term by term with ``mpmath.nsum``, straight from
the permittivity.
"""

import functools
import math
from dataclasses import replace

import mpmath
import numpy as np

from spinvdw import spectral
from spinvdw.response import (HBAR, K_B, _alpha_reduced, _im_alpha_over_omega_reduced,
                              _omega_coth_kernel)
from spinvdw.spectral import ConvergenceError


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK dqk15 constants).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,  # center weight, halved below
])

_NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[[1, 3, 5]] = _WG_HALF[:3]      # Gauss nodes interleave the Kronrod set
_WG[7] = _WG_HALF[3]
_WG[[9, 11, 13]] = _WG_HALF[2::-1]


def _gk15(f, a, b):
    """Gauss-Kronrod 15 on a batch of panels; returns (integrals, errors, floors).

    The error estimate is the QUADPACK rescaling of |K15 - G7|: the raw
    difference grossly overestimates the true error on resolved panels, and
    the (200*uu/resasc)^1.5 form restores a realistic magnitude. It never
    drops below the panel's roundoff floor 50 eps int|f|, also returned.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    v = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    kronrod = h * (v @ _WK)
    gauss = h * (v @ _WG)
    uu = np.abs(kronrod - gauss)
    # kronrod/2h, without dividing by h: complex division by a subnormal
    # half-width overflows the reciprocal and turns the estimate into nan
    mean = 0.5 * (v @ _WK)[:, None]
    resabs = h * (np.abs(v) @ _WK)
    resasc = h * (np.abs(v - mean) @ _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * uu / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, uu)
    # roundoff floor: tolerances below it are honestly unreachable
    floor = 50.0 * np.finfo(float).eps * resabs
    return kronrod, np.maximum(err, floor), floor


def _initial_edges(spec):
    pts = {spec.lo, spec.hi}
    inner = [b for b in spec.breakpoints if spec.lo < b < spec.hi]
    pts.update(inner)
    if spec.seed_width > 0:
        span = spec.hi - spec.lo
        for b in inner + [spec.lo, spec.hi]:
            d = spec.seed_width
            while d < span:
                for s in (b - d, b + d):
                    if spec.lo < s < spec.hi:
                        pts.add(s)
                d *= 8.0
    return np.array(sorted(pts))


def _tails(f, spec):
    """Power-law tails beyond the window ends; returns (value, uncertainty).

    Each component of f is taken to decay as C|w|^-p beyond an end W, with
    p = log2|f(W/2)/f(W)| fitted per component, which adds f(W) W/(p - 1).
    The uncertainty is the change of that tail when p is fitted one octave
    further in instead; it is infinite where p <= 1 (no integrable tail).
    """
    value, err = 0.0j, 0.0
    for end in (spec.lo, spec.hi):
        if end == 0.0 or abs(abs(end) - spec.window) >= 1e-12 * spec.window:
            continue
        v = np.asarray(f(np.array([end, 0.5 * end, 0.25 * end])), dtype=complex)
        for part, unit in ((v.real, 1.0), (v.imag, 1j)):
            if part[0] == 0.0:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                p, p_in = np.log2(np.abs(part[1:] / part[:2]))
            if not (p > 1.0 and p_in > 1.0):
                err = math.inf
                continue
            tail = part[0] * abs(end) / (p - 1.0)
            value += unit * tail
            err += abs(tail - part[0] * abs(end) / (p_in - 1.0))
    return value, err


def _integrate(f, spec):
    """Adaptive panel quadrature; returns (value, error_estimate).

    The estimate sums the panels' Kronrod errors and the tails'
    uncertainty.
    """
    tail, tail_err = _tails(f, spec)
    edges = _initial_edges(spec)
    a, b = edges[:-1], edges[1:]
    vals, errs, floors = _gk15(f, a, b)

    for level in range(spec.max_levels + 1):
        # deterministic accumulation: panels summed in left-edge order
        order = np.argsort(a, kind="stable")
        total = vals[order].sum() + tail
        err = errs[order].sum() + tail_err
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err <= tol:
            break
        if level == spec.max_levels or tail_err > tol:
            raise ConvergenceError(
                f"no convergence after {level} refinement levels "
                f"(error estimate {err:.3e}, of which tail {tail_err:.3e}; "
                f"tolerance {tol:.3e})",
                value=total, estimate=err)
        mark = errs > (tol - tail_err) / (2.0 * len(a))
        if not mark.any():
            mark[np.argmax(errs)] = True
        # bisection cannot lower a panel's roundoff floor: once the panels
        # to split are resolved down to theirs and the floors alone exceed
        # the tolerance, no refinement reaches it
        if (errs[mark] <= floors[mark]).all() and floors.sum() + tail_err > tol:
            raise ConvergenceError(
                f"roundoff floor reached at {len(a)} panels "
                f"(error estimate {err:.3e}, tolerance {tol:.3e})",
                value=total, estimate=err)
        if len(a) + mark.sum() > spec.max_panels:
            raise ConvergenceError(
                f"panel budget exhausted at {len(a)} panels "
                f"(error estimate {err:.3e}, tolerance {tol:.3e})",
                value=total, estimate=err)
        mid = 0.5 * (a[mark] + b[mark])
        new_a = np.concatenate([a[~mark], a[mark], mid])
        new_b = np.concatenate([b[~mark], mid, b[mark]])
        ref_v, ref_e, ref_f = _gk15(f, np.concatenate([a[mark], mid]),
                                    np.concatenate([mid, b[mark]]))
        a, b = new_a, new_b
        vals = np.concatenate([vals[~mark], ref_v])
        errs = np.concatenate([errs[~mark], ref_e])
        floors = np.concatenate([floors[~mark], ref_f])
    return total, err


def integrate_spectrum(f, spec):
    """Integrate a spectral function over [lo, hi] with tail estimates.

    Parameters
    ----------
    f : callable
        Vectorized complex-valued integrand; smooth except at the listed
        breakpoints and decaying as a power |w|^-p, p > 1, beyond the
        window.
    spec : QuadratureSpec

    Returns
    -------
    complex

    Raises
    ------
    ConvergenceError
        If the refinement cap is reached or the tails alone exceed the
        tolerance; carries the achieved estimate.
    """
    value, _ = _integrate(f, spec)
    return value


def _eta_reduced(mat, temperature, omega_scale):
    """Reduced Hadamard spectrum as a vectorized closure of u = w/omega_scale."""
    def eta(u):
        kern = _omega_coth_kernel(u, temperature, omega_scale=omega_scale)
        return 2.0 * kern * _im_alpha_over_omega_reduced(mat, u)
    return eta


def spin_entries(scalar_fn, Omega, omega):
    """Doppler components (xx, xy, zz) of the spin transform; vectorized in omega."""
    plus = scalar_fn(omega + Omega)
    minus = scalar_fn(omega - Omega)
    xx = 0.5 * (np.asarray(plus, dtype=complex) + minus)
    xy = 0.5j * (np.asarray(plus, dtype=complex) - minus)
    zz = np.asarray(scalar_fn(omega), dtype=complex)
    return xx, xy, zz


def _assemble(xx, xy, zz):
    out = np.zeros(np.shape(xx) + (3, 3), dtype=complex)
    out[..., 0, 0] = xx
    out[..., 1, 1] = xx
    out[..., 0, 1] = xy
    out[..., 1, 0] = -xy
    out[..., 2, 2] = zz
    return out


def spin_tensor(scalar_fn, Omega, omega):
    """Lab-frame tensor of a sphere spinning at ``Omega`` about z, at ``omega``.

    ``scalar_fn`` is the rest-frame response (alpha or eta) and must accept
    arrays; an array ``omega`` gives a stack of tensors.
    """
    return _assemble(*spin_entries(scalar_fn, Omega, omega))


def rotation_matrix_to_axis(axis, spin=0.0):
    """A proper rotation mapping z to ``axis``.

    ``spin`` adds an extra rotation about z before tilting; any value gives
    a valid map, and results of :func:`axis_rotate` are independent of it
    because the source tensor is axially symmetric about z.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"axis must be a unit vector, |axis| = {n}")
    cs, ss = math.cos(spin), math.sin(spin)
    r_spin = np.array([[cs, -ss, 0.0], [ss, cs, 0.0], [0.0, 0.0, 1.0]])
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, axis))
    if c > 1.0 - 1e-15:
        tilt = np.eye(3)
    elif c < -1.0 + 1e-15:
        tilt = np.diag([1.0, -1.0, -1.0])  # pi rotation about x
    else:
        k = np.cross(z, axis)
        k /= np.linalg.norm(k)
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        s = math.sqrt(max(0.0, 1.0 - c * c))
        tilt = np.eye(3) + s * kx + (1.0 - c) * (kx @ kx)
    return tilt @ r_spin


def axis_rotate(tensor, axis, spin=0.0):
    """Re-express a z-axis tensor for a spin axis along ``axis``: R t R^T.

    R is a proper rotation mapping z to axis; the choice of R (the ``spin``
    freedom) does not affect the result.
    """
    r = rotation_matrix_to_axis(axis, spin)
    return r @ tensor @ r.T


# The coefficients of xi(w + s Omega), s = +1, 0, -1, in spin_tensor
_Z_PROJECTORS = np.array([_assemble(0.5, 0.5j, 0.0), _assemble(0.0, 0.0, 1.0),
                          _assemble(0.5, -0.5j, 0.0)])


def projector_weights(axis_a, axis_b, rhat):
    """Weights c_st = Tr(g P_s^A g P_t^B) of an axis triple from the tensor view.

    Each P_s is the coefficient of xi(w + s Omega) in the spin tensor about
    z, rotated onto its sphere's axis; rows s and columns t in the order
    (+1, 0, -1).
    """
    rhat = np.asarray(rhat, dtype=float)
    g = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    ra, rb = rotation_matrix_to_axis(axis_a), rotation_matrix_to_axis(axis_b)
    pa = ra @ _Z_PROJECTORS @ ra.T
    pb = rb @ _Z_PROJECTORS @ rb.T
    return np.einsum("ij,sjk,kl,tli->st", g, pa, g, pb).real


def fdt_weights(omega, Omega, temperature):
    """Thermal weights f, g of the modified fluctuation-dissipation relation.

    f = [coth(hbar*(w-Omega)/2kT) + coth(hbar*(w+Omega)/2kT)]/2 and g the
    half-difference. At T = 0 these are exact sign-function branches:
    f = sgn(w), g = 0 for |Omega| < |w|; f = 0, g = -sgn(Omega) otherwise.
    """
    w = np.asarray(omega, dtype=float)
    if temperature == 0.0:
        sm = np.sign(w - Omega)
        sp = np.sign(w + Omega)
    else:
        beta_half = HBAR / (2.0 * K_B * temperature)
        with np.errstate(divide="ignore"):
            sm = 1.0 / np.tanh(beta_half * (w - Omega))
            sp = 1.0 / np.tanh(beta_half * (w + Omega))
    return 0.5 * (sm + sp), 0.5 * (sm - sp)


def noneq_fdt_hadamard(alpha_fn, Omega, omega, temperature,
                       im_alpha_slope=None):
    """Hadamard tensor of a spinning sphere from the modified FDT relations.

    Builds the lab-frame polarizability tensor of the spinning sphere and
    converts it to the fluctuation spectrum through

        eta_xx = 2 f Im[alpha_xx] + 2 g Re[alpha_xy]
        eta_xy = -2i f Re[alpha_xy] - 2i g Im[alpha_xx]
        eta_zz = 2 coth(hbar w / 2kT) Im[alpha_zz]

    with f, g from :func:`fdt_weights`. This is the independent counterpart
    to transforming the rest-frame eta directly with :func:`spin_tensor`;
    the two constructions agree identically (a consistency theorem of the
    rotating-frame treatment) and tests hold them to ~1e-12.

    At T > 0 the weights have poles at w = +/-Omega and w = 0 where the
    corresponding Im alpha vanishes; exactly-on-pole evaluations are
    regularized through the finite limit, using ``im_alpha_slope`` (the
    analytic limit of Im alpha(w)/w at w = 0) when supplied and a central
    difference of ``alpha_fn`` otherwise. Returns the 3x3 Hadamard tensor,
    rotation axis along z.
    """
    w = float(omega)
    a_xx, a_xy, a_zz_alpha = spin_entries(alpha_fn, Omega, w)

    if temperature > 0.0:
        beta_half = HBAR / (2.0 * K_B * temperature)

        def lim_coth_im():
            # finite limit of coth(hbar*nu/2kT)*Im alpha(nu) as nu -> 0
            if im_alpha_slope is not None:
                slope = im_alpha_slope
            else:
                h = 1e-7 * (abs(Omega) + abs(w) + 1.0)
                slope = complex(alpha_fn(h) - alpha_fn(-h)).imag / (2.0 * h)
            return slope / beta_half

        # Near the branch points w = -/+Omega the diverging weights multiply
        # a vanishing combination of tensor entries; the literal f,g form
        # loses all precision there to cancellation. Inside a narrow strip
        # use the identical regrouped pairing coth(nu)*Im alpha(nu) instead
        # (exact limit at nu = 0).
        strip = 1e-3 * max(abs(w), abs(Omega), 1e-300)
        if abs(w - Omega) < strip or abs(w + Omega) < strip:
            def term(nu):
                if nu == 0.0:
                    return lim_coth_im()
                return complex(alpha_fn(nu)).imag / math.tanh(beta_half * nu)

            tm, tp = term(w - Omega), term(w + Omega)
            e_xx = tm + tp
            e_xy = 1j * (tp - tm)
        else:
            f, g = fdt_weights(w, Omega, temperature)
            e_xx = 2.0 * f * np.imag(a_xx) + 2.0 * g * np.real(a_xy)
            e_xy = -2.0j * f * np.real(a_xy) - 2.0j * g * np.imag(a_xx)
        if w == 0.0:
            e_zz = 2.0 * lim_coth_im()
        else:
            e_zz = 2.0 * np.imag(a_zz_alpha) / math.tanh(beta_half * w)
    else:
        f, g = fdt_weights(w, Omega, temperature)
        e_xx = 2.0 * f * np.imag(a_xx) + 2.0 * g * np.real(a_xy)
        e_xy = -2.0j * f * np.real(a_xy) - 2.0j * g * np.imag(a_xx)
        e_zz = 2.0 * np.sign(w) * np.imag(a_zz_alpha)

    return _assemble(complex(e_xx), complex(e_xy), complex(e_zz))


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
    eta_a = _eta_reduced(mat_a, ctx.sphere_a.temperature, ws)
    eta_b = _eta_reduced(mat_b, ctx.sphere_b.temperature, ws)

    # Tr(g R_a X R_a^T g R_b Y R_b^T) = Tr(h X h^T Y) with h = R_b^T g R_a:
    # rotating the kernel once replaces rotating four tensors per frequency
    h = rot_b.T @ g @ rot_a

    def integrand(u):
        t1 = np.einsum("nij,nij->n", h @ spin_tensor(alpha_a, shift_a, u) @ h.T,
                       spin_tensor(eta_b, shift_b, u).conj())
        t2 = np.einsum("nij,nij->n", h @ spin_tensor(eta_a, shift_a, u).conj() @ h.T,
                       spin_tensor(alpha_b, shift_b, u))
        return t1 + t2

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega_A, Omega_B),
                                         rel_tol=rel_tol)
    value = integrate_spectrum(integrand, spec)
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


def quadrature_shift_integral(ctx, Omega, which, rel_tol=1e-10, abs_tol=None,
                              with_error=False):
    """Reduced BA or AB shift integral (working units) by quadrature.

    BA = int du [alpha_A(u + s) + alpha_A(u - s)] eta_B(u) and
    AB = int du [eta_A(u + s) + eta_A(u - s)] alpha_B(u), s = |Omega|/w_s.
    ``with_error`` also returns the quadrature's error estimate.
    """
    ws, mat_a, mat_b = ctx._scaled
    shift = abs(Omega) / ws
    if which == "BA":
        eta_b = _eta_reduced(mat_b, ctx.sphere_b.temperature, ws)

        def integrand(u):
            return (_alpha_reduced(mat_a, u + shift)
                    + _alpha_reduced(mat_a, u - shift)) * eta_b(u)
    else:
        eta_a = _eta_reduced(mat_a, ctx.sphere_a.temperature, ws)

        def integrand(u):
            return (eta_a(u + shift) + eta_a(u - shift)) * _alpha_reduced(mat_b, u)

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega,), rel_tol=rel_tol)
    if abs_tol is not None:
        spec = replace(spec, abs_tol=abs_tol)
    value, error = _integrate(integrand, spec)
    assert abs(value.imag) <= 1e-6 * abs(value.real) + spec.abs_tol, value
    return (value.real, error) if with_error else value.real


def shift_integral(ctx, Omega, which):
    """The closed form's reduced BA or AB shift integral and its roundoff estimate.

    One :func:`spinvdw.spectral._closed_kinds` evaluation at s = |Omega|/w_s,
    with no tolerance; the imaginary residue is checked against the
    estimate (ArithmeticError, as the energies raise it) and dropped.
    """
    values, roundoff = spectral._closed_kinds(ctx, [abs(Omega) / ctx._scaled[0]])
    k = spectral._KINDS.index(which)
    value, estimate = complex(values[k, 0]), float(roundoff[k, 0])
    if abs(value.imag) > estimate:
        raise spectral._failure(f"energy_{which}", value.real, estimate, value.imag, math.inf)
    return value.real, estimate


def naive_fdt_quadrature(ctx, Omega_A, Omega_B, rel_tol=1e-10):
    """Zero-temperature equilibrium-FDT energy of the rr pair (J) by quadrature.

    The integral of :func:`spinvdw.baseline.naive_fdt_energy_rr` over the
    half line, its integrand built from the material kernels.
    """
    ws, mat_a, mat_b = ctx._scaled
    oa, ob = Omega_A / ws, Omega_B / ws

    def integrand(u):
        # only the imaginary part enters, so the tolerance applies to it
        sa = _alpha_reduced(mat_a, u + oa) + _alpha_reduced(mat_a, u - oa)
        sb = _alpha_reduced(mat_b, u + ob) + _alpha_reduced(mat_b, u - ob)
        return ((sa * sb
                 + 8.0 * _alpha_reduced(mat_a, u) * _alpha_reduced(mat_b, u)) / 4.0).imag

    spec = spectral.pair_quadrature_spec(ctx, shifts=(Omega_A, Omega_B),
                                         rel_tol=rel_tol, lo=0.0)
    value = integrate_spectrum(integrand, spec)
    return -ctx.units().energy_scale * value.real / math.pi


@functools.lru_cache(maxsize=None)
def _psi(order, z, dps):
    """psi^(order)(1 + z) at ``dps`` digits; the y poles repeat across shifts."""
    with mpmath.workdps(dps):
        return mpmath.psi(order, 1 + z)


def closure_reference(row, omega_scale, shift, dps=30, total=False):
    """The two parts of one closed-form row's shift integral, at ``dps`` digits.

    ``row`` is (mat_x, mat_y, T_y) in working units, as in
    :func:`spinvdw.spectral._closed`, for any damping but the exact
    critical one. With the poles x_i (coefficients a_i) of
    alpha_X(u + s) + alpha_X(u - s), the poles y_j (b_j) of
    alpha_Y(u) - alpha_Y(-u) and the upper poles q_k = -p_k of eta_Y:

        J = 2 pi sum_k coth(theta q_k) r_k^Y sum_i a_i/(q_k - x_i)
            - (2/xi1) sum_ij a_i b_j [psi(1 + z_j) - psi(1 + z_i)]/(z_j - z_i)

    with theta = hbar w_s/2kT, xi1 = pi/theta and z = i x/xi1; a pair with
    z_i = z_j takes psi'(1 + z_i). At T = 0, coth -> sgn Re q, xi1 = 1 and
    psi(1 + z) -> log z, the principal value log|z| on the cut, where the
    upper poles of an overdamped alpha (W' = sqrt(w0^2 - gamma^2/4)
    imaginary) put z and make sgn Re q = 0. Returns the residue sum and the
    Matsubara pair sum, complex numbers whose sum is J, or with ``total`` J
    itself, summed before rounding: near critical damping the two parts
    cancel digits.
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
        if temperature == 0:
            xi1 = 1

            def coth(q):
                return mpmath.sign(mpmath.re(q))

            def F(order, z):
                if order:
                    return 1 / z
                on_cut = mpmath.im(z) == 0 and mpmath.re(z) < 0
                return mpmath.log(abs(z)) if on_cut else mpmath.log(z)
        else:
            theta = mpmath.mpf(HBAR) * mpmath.mpf(omega_scale) / (
                2 * mpmath.mpf(K_B) * mpmath.mpf(temperature))
            xi1 = mpmath.pi / theta

            def coth(q):
                return mpmath.coth(theta * q)

            def F(order, z):
                return _psi(order, z, dps)

        residues = pairs = mpmath.mpc(0)
        for q, r in zip((-p1, -p2), ry):
            residues += 2 * mpmath.pi * coth(q) * r * sum(
                ai / (q - xi) for ai, xi in zip(a, x))
        zx = [1j * v / xi1 for v in x]
        zy = [1j * v / xi1 for v in y]
        fx, fy = [F(0, z) for z in zx], [F(0, z) for z in zy]
        for ai, zi, fi in zip(a, zx, fx):
            for bj, zj, fj in zip(b, zy, fy):
                if zi == zj:
                    dd = F(1, zi)
                else:
                    dd = (fj - fi) / (zj - zi)
                pairs -= 2 / xi1 * ai * bj * dd
        if total:
            return complex(residues + pairs)
        return complex(residues), complex(pairs)


def static_sum_reference(materials, temperature, denominator, dps=30):
    """Sum_n' prod over ``materials`` of (eps(i xi_n) - 1)/(eps(i xi_n) + denominator).

    The n = 0 term is halved, xi_n = 2 pi n k_B T/hbar and eps is the
    Lorentz permittivity on the imaginary axis, 1 + f0 wt0^2/(wt0^2 +
    xi^2 + gamma0 xi). ``denominator`` 2 gives the Clausius-Mossotti factor
    of :func:`spinvdw.baseline.matsubara_static_energy`, 1 the factor of
    :func:`spinvdw.baseline.hamaker_constant`. The tail is summed by
    ``mpmath.nsum`` at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        xi1 = 2 * mpmath.pi * mpmath.mpf(K_B) * mpmath.mpf(temperature) / mpmath.mpf(HBAR)

        def factor(mat, xi):
            wt2 = mpmath.mpf(mat.omega_tilde0) ** 2
            eps = 1 + mpmath.mpf(mat.f0) * wt2 / (wt2 + xi * xi + mpmath.mpf(mat.gamma0) * xi)
            return (eps - 1) / (eps + denominator)

        def term(n):
            return mpmath.fprod([factor(mat, n * xi1) for mat in materials])

        return float(term(0) / 2 + mpmath.nsum(term, [1, mpmath.inf]))
