"""Spectral integrals of the dipole-dipole interaction.

The interaction energy of two spinning spheres reduces to frequency
integrals of products of one sphere's (Doppler-shifted) polarizability with
the other's Hadamard spectrum. The integrands are smooth but sharply peaked
at every Doppler image of the polaritonic resonances, so the quadrature
here is an adaptive Gauss-Kronrod panel scheme with breakpoints seeded at
all of those peaks and a power-law estimate for the tails beyond a finite
window.

All integration happens in nondimensional units (frequencies in units of
sphere A's resonance, polarizabilities in units of 4*pi*eps0*a^3); SI
joules appear only in the returned values.
"""

from dataclasses import dataclass

import numpy as np

from . import response
from .response import (HBAR, UnitSystem, _alpha_reduced,
                       _im_alpha_over_omega_reduced, _omega_coth_kernel,
                       resonance_frequency)

__all__ = [
    "ConvergenceError", "QuadratureSpec", "PairContext",
    "integrate_spectrum", "pair_quadrature_spec",
    "energy_BA", "energy_AB", "aux_energy", "general_energy",
    "clear_cache", "DEFAULT_REL_TOL", "DEFAULT_ABS_TOL",
]

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12   # in working (nondimensional) energy units
MAX_SEPARATION = 1e-2     # non-retarded regime sanity bound (m)


class ConvergenceError(RuntimeError):
    """Adaptive quadrature hit its refinement cap before reaching tolerance."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


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
    """Gauss-Kronrod 15 on a batch of panels; returns (integrals, errors).

    The error estimate is the QUADPACK rescaling of |K15 - G7|: the raw
    difference grossly overestimates the true error on resolved panels, and
    the (200*uu/resasc)^1.5 form restores a realistic magnitude.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    v = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    kronrod = h * (v @ _WK)
    gauss = h * (v @ _WG)
    uu = np.abs(kronrod - gauss)
    mean = kronrod[:, None] / (2.0 * h[:, None])
    resabs = h * (np.abs(v) @ _WK)
    resasc = h * (np.abs(v - mean) @ _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * uu / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, uu)
    # roundoff floor: tolerances below it are honestly unreachable
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return kronrod, err


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for one spectral integral.

    Panels split [lo, hi] at every breakpoint, with extra edges placed
    geometrically (factors of 8) out from each breakpoint starting at
    ``seed_width``, so Lorentzian peaks of width gamma are resolved from
    the first pass when ``seed_width ~ gamma/8``. Refinement bisects
    offending panels until the Kronrod error estimate drops below
    max(abs_tol, rel_tol*|integral|). A C/w^4 tail is appended at any
    domain end that sits at +/-window.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    breakpoints: tuple = (0.0,)
    window: float = 100.0
    seed_width: float = 0.0
    lo: float = None
    hi: float = None
    max_levels: int = 30
    max_panels: int = 1 << 18

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be > 0")
        bps = tuple(sorted(float(b) for b in self.breakpoints))
        if bps and self.window < max(abs(b) for b in bps):
            raise ValueError("window must cover all breakpoints")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "lo", -self.window if self.lo is None else float(self.lo))
        object.__setattr__(self, "hi", self.window if self.hi is None else float(self.hi))
        if not self.lo < self.hi:
            raise ValueError("empty integration domain")


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


def _integrate(f, spec):
    """Adaptive panel quadrature; returns (value, error_estimate)."""
    edges = _initial_edges(spec)
    a, b = edges[:-1], edges[1:]
    vals, errs = _gk15(f, a, b)

    for level in range(spec.max_levels + 1):
        # deterministic accumulation: panels summed in left-edge order
        order = np.argsort(a, kind="stable")
        total = vals[order].sum()
        err = errs[order].sum()
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err <= tol:
            break
        if level == spec.max_levels:
            raise ConvergenceError(
                f"no convergence after {spec.max_levels} refinement levels "
                f"(error estimate {err:.3e}, tolerance {tol:.3e})",
                value=total, estimate=err)
        mark = errs > tol / (2.0 * len(a))
        if not mark.any():
            mark[np.argmax(errs)] = True
        if len(a) + mark.sum() > spec.max_panels:
            raise ConvergenceError(
                f"panel budget exhausted at {len(a)} panels "
                f"(error estimate {err:.3e}, tolerance {tol:.3e})",
                value=total, estimate=err)
        mid = 0.5 * (a[mark] + b[mark])
        new_a = np.concatenate([a[~mark], a[mark], mid])
        new_b = np.concatenate([b[~mark], mid, b[mark]])
        keep_v, keep_e = vals[~mark], errs[~mark]
        ref_v, ref_e = _gk15(f, np.concatenate([a[mark], mid]),
                             np.concatenate([mid, b[mark]]))
        a, b = new_a, new_b
        vals = np.concatenate([keep_v, ref_v])
        errs = np.concatenate([keep_e, ref_e])

    # analytic |w|^-4 tails beyond the window
    for end, sgn in ((spec.lo, -1.0), (spec.hi, 1.0)):
        if abs(abs(end) - spec.window) < 1e-12 * spec.window and end != 0.0:
            total += complex(np.asarray(f(np.array([end])))[0]) * abs(end) / 3.0
    return total, err


def integrate_spectrum(f, spec):
    """Integrate a spectral function over [lo, hi] with tail estimates.

    Parameters
    ----------
    f : callable
        Vectorized complex-valued integrand; smooth except at the listed
        breakpoints and decaying at least as |w|^-4 beyond the window.
    spec : QuadratureSpec

    Returns
    -------
    complex

    Raises
    ------
    ConvergenceError
        If the refinement cap is reached; carries the achieved estimate.
    """
    value, _ = _integrate(f, spec)
    return value


@dataclass(frozen=True)
class PairContext:
    """Two spheres and their distance; everything the shift integrals need.

    The directions (spin axes and line of centers) live in
    :class:`spinvdw.configurations.Arrangement` and the spin rates are
    arguments of the energy functions, so one context serves every
    arrangement and rotation state.

    Parameters
    ----------
    sphere_a, sphere_b : response.SpinningSphere
    separation : float
        Center-to-center distance R (m); must exceed the summed radii
        (dipole approximation) and stay below ~1 cm (non-retarded regime).
    """

    sphere_a: object
    sphere_b: object
    separation: float

    def __post_init__(self):
        if self.separation <= self.sphere_a.radius + self.sphere_b.radius:
            raise ValueError("separation must exceed the summed radii")
        if self.separation > MAX_SEPARATION:
            raise ValueError(
                f"separation {self.separation} m is outside the non-retarded regime")

    def units(self):
        """Working unit system anchored to sphere A's resonance."""
        ws = resonance_frequency(self.sphere_a.material)
        a3 = self.sphere_a.radius**3 * self.sphere_b.radius**3
        return UnitSystem(ws, HBAR * ws * a3 / self.separation**6)

    def _key(self):
        ma, mb = self.sphere_a.material, self.sphere_b.material
        return (ma.f0, ma.omega_tilde0, ma.gamma0,
                mb.f0, mb.omega_tilde0, mb.gamma0,
                self.sphere_a.radius, self.sphere_b.radius,
                self.sphere_a.temperature, self.sphere_b.temperature,
                self.separation)

    def swapped(self):
        return PairContext(self.sphere_b, self.sphere_a, self.separation)


def _scaled_pair(ctx):
    """Materials and thermal parameters in working units (w0A = 1)."""
    ws = resonance_frequency(ctx.sphere_a.material)
    mat_a = ctx.sphere_a.material.scaled(ws)
    mat_b = ctx.sphere_b.material.scaled(ws)
    return ws, mat_a, mat_b


def _eta_reduced(mat, temperature, omega_scale):
    """Reduced Hadamard spectrum as a vectorized closure of u = w/omega_scale."""
    def eta(u):
        kern = _omega_coth_kernel(u, temperature, omega_scale=omega_scale)
        return 2.0 * kern * _im_alpha_over_omega_reduced(mat, u)
    return eta


def pair_quadrature_spec(ctx, shifts=(0.0,), rel_tol=None, lo=None, hi=None):
    """Quadrature controls for a pair integral with the given Doppler shifts.

    Breakpoints sit at 0, at both polaritonic resonances, and at every
    Doppler image resonance +/- shift; the window extends 50x beyond the
    outermost relevant scale so the tail estimate only sees the w^-4 decay.
    """
    ws, mat_a, mat_b = _scaled_pair(ctx)
    u0a = resonance_frequency(mat_a)   # = 1 by construction
    u0b = resonance_frequency(mat_b)
    shifts = [abs(s) / ws for s in shifts]
    bps = {0.0}
    for r in (u0a, u0b):
        for s in [0.0] + shifts:
            bps.update((r + s, r - s, -r + s, -r - s))
    window = 50.0 * max(u0a, u0b, *(s + max(u0a, u0b) for s in shifts))
    gammas = [g for g in (mat_a.gamma0, mat_b.gamma0) if g > 0]
    seed = min(gammas) / 8.0 if gammas else 1e-3
    return QuadratureSpec(
        rel_tol=DEFAULT_REL_TOL if rel_tol is None else rel_tol,
        abs_tol=DEFAULT_ABS_TOL,
        breakpoints=tuple(sorted(bps)),
        window=window, seed_width=seed, lo=lo, hi=hi)


def _realize(value, errest, spec, what):
    """Drop the imaginary residue of an energy integral after checking it."""
    bound = max(spec.rel_tol * abs(value.real), 10.0 * errest, 10.0 * spec.abs_tol)
    if abs(value.imag) > bound:
        raise ArithmeticError(
            f"{what}: imaginary residue {value.imag:.3e} exceeds {bound:.3e}; "
            "tensor symmetry violated")
    return value.real


# Sweeps revisit the same few shifts (E(0) on every row, sums and
# differences of the grid rates), so most lookups hit. Single-threaded;
# nothing is ever evicted.
_cache = {}


def clear_cache():
    _cache.clear()


def _cached_shift_integral(ctx, Omega, rel_tol, which):
    """Core integral of energy_BA/energy_AB in working units, memoized.

    Both integrals are even in Omega, so the cache key uses |Omega|
    quantized to 1e-12 of the working frequency unit.
    """
    ws, mat_a, mat_b = _scaled_pair(ctx)
    shift = abs(Omega) / ws
    rel = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    key = (ctx._key(), which, round(shift / 1e-12), rel)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    spec = pair_quadrature_spec(ctx, shifts=(Omega,), rel_tol=rel)
    if which == "BA":
        eta_b = _eta_reduced(mat_b, ctx.sphere_b.temperature, ws)

        def integrand(u):
            return (_alpha_reduced(mat_a, u + shift)
                    + _alpha_reduced(mat_a, u - shift)) * eta_b(u)
    else:
        eta_a = _eta_reduced(mat_a, ctx.sphere_a.temperature, ws)

        def integrand(u):
            return (eta_a(u + shift) + eta_a(u - shift)) * _alpha_reduced(mat_b, u)

    value, errest = _integrate(integrand, spec)
    result = _realize(value, errest, spec, f"energy_{which}")
    _cache[key] = result
    return result


def energy_BA(ctx, Omega, rel_tol=None):
    """Energy from dipole fluctuations in B driving a Doppler-shifted A (J).

    -A/R^6 * integral dw [alpha_A(w+Omega) + alpha_A(w-Omega)] eta_B(w)
    with A = hbar/(512 pi^3 eps0^2). Real by symmetry; the imaginary
    residue of the quadrature is checked against the tolerance before
    being discarded.
    """
    units = ctx.units()
    red = _cached_shift_integral(ctx, Omega, rel_tol, "BA")
    return -units.energy_scale * red / (32.0 * np.pi)


def energy_AB(ctx, Omega, rel_tol=None):
    """Energy from Doppler-shifted fluctuations in A driving B (J)."""
    units = ctx.units()
    red = _cached_shift_integral(ctx, Omega, rel_tol, "AB")
    return -units.energy_scale * red / (32.0 * np.pi)


def aux_energy(ctx, Omega, rel_tol=None):
    """Auxiliary building-block energy E(Omega) = E_{A->B} + E_{B->A} (J).

    Even in Omega; the energy of every arrangement is a weighted sum of
    values of this function (see :mod:`spinvdw.configurations`).
    """
    return energy_AB(ctx, Omega, rel_tol) + energy_BA(ctx, Omega, rel_tol)


def general_energy(ctx, terms, Omega_A, Omega_B, rel_tol=None):
    """Interaction energy of any arrangement from its projector weights (J).

    ``terms`` holds the arrangement's ``(s, t, c)`` weights (see
    :mod:`spinvdw.configurations`); the energy is
    2 sum c E(|s Omega_A - t Omega_B|). Terms with equal shifts are merged,
    so each distinct shift costs one cached auxiliary integral.
    """
    weights = {}
    for s, t, c in terms:
        shift = abs(s * Omega_A - t * Omega_B)
        weights[shift] = weights.get(shift, 0.0) + c
    return 2.0 * sum(c * aux_energy(ctx, shift, rel_tol) for shift, c in weights.items())

