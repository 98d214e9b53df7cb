"""Spectral integrals of the dipole-dipole interaction.

The interaction energy of two spinning spheres reduces to the shift
integrals

    J(s) = int du [alpha_X(u + s) + alpha_X(u - s)] eta_Y(u),

with (X, Y) = (A, B) for the "BA" integral and (B, A) for "AB", where
eta = 2 coth(theta u) Im alpha is the Hadamard spectrum at the temperature
of Y. On the production path they are evaluated exactly by closing the
contour in the upper half plane: the residues at the two upper poles of
eta plus the Matsubara sum over the poles of coth. One evaluation stacks
both integrals of a pair as rows, at a block of shifts; identical spheres
(equal materials at equal temperatures) make the two integrals one row.
The Matsubara sum of a row takes one of three closed forms: logarithms at
T = 0; at T > 0, a power series with zeta-function coefficients when every
Matsubara argument z = i x/xi1 has |z| <= 1/4 (GHz resonances at kelvin
temperatures and above); otherwise digamma functions.
The result carries a roundoff estimate; a tolerance below it raises
:class:`ConvergenceError` at once. The closed form needs two distinct
poles off the imaginary axis, 0 < gamma0 < 2 w0 for both materials;
outside that domain the integrals fall back to an adaptive Gauss-Kronrod
panel quadrature with breakpoints seeded at every Doppler image of the
resonances and fitted power-law tails beyond a finite window. The
quadrature also serves the static baselines and the cross-checks.

All integration happens in nondimensional units (frequencies in units of
sphere A's resonance, polarizabilities in units of 4*pi*eps0*a^3); SI
joules appear only in the returned values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .response import (HBAR, K_B, UnitSystem, _alpha_reduced,
                       _im_alpha_over_omega_reduced, _omega_coth_kernel,
                       resonance_frequency)

__all__ = [
    "ConvergenceError", "QuadratureSpec", "PairContext",
    "integrate_spectrum", "pair_quadrature_spec", "shift_integral",
    "energy_BA", "energy_AB", "aux_energy", "general_energy",
    "prefetch", "clear_cache", "cache_info", "DEFAULT_REL_TOL", "DEFAULT_ABS_TOL",
]

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12   # in working (nondimensional) energy units
MAX_SEPARATION = 1e-2     # non-retarded regime sanity bound (m)


class ConvergenceError(RuntimeError):
    """A spectral integral cannot meet its tolerance.

    Raised when the adaptive quadrature hits its refinement cap, or when
    the roundoff estimate of the closed form exceeds the tolerance.
    """

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for one spectral integral.

    Panels split [lo, hi] at every breakpoint, with extra edges placed
    geometrically (factors of 8) out from each breakpoint starting at
    ``seed_width``, so Lorentzian peaks of width gamma are resolved from
    the first pass when ``seed_width ~ gamma/8``. Refinement bisects
    offending panels until the Kronrod error estimate drops below
    max(abs_tol, rel_tol*|integral|). A power-law tail, its exponent fitted
    over the last octave, is appended at any domain end that sits at
    +/-window.
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


@dataclass(frozen=True)
class PairContext:
    """Two spheres and their distance; everything the shift integrals need.

    The directions (spin axes and line of centers) live in
    :class:`spinvdw.configurations.Arrangement` and the spin rates are
    arguments of the energy functions, so one context serves every
    arrangement and rotation state. What the integrals derive from the
    spheres (the unit system, the materials in working units, the cache key
    and whether the closed form applies) is computed once, here.

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
        ma, mb = self.sphere_a.material, self.sphere_b.material
        ws = resonance_frequency(ma)
        a3 = self.sphere_a.radius**3 * self.sphere_b.radius**3
        derived = {
            "_units": UnitSystem(ws, HBAR * ws * a3 / self.separation**6),
            "_scaled": (ws, ma.scaled(ws), mb.scaled(ws)),
            "_key": (ma.f0, ma.omega_tilde0, ma.gamma0,
                     mb.f0, mb.omega_tilde0, mb.gamma0,
                     self.sphere_a.radius, self.sphere_b.radius,
                     self.sphere_a.temperature, self.sphere_b.temperature,
                     self.separation),
            "closed_form": _closed_form_applies(ma) and _closed_form_applies(mb),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def units(self):
        """Working unit system anchored to sphere A's resonance."""
        return self._units

    def swapped(self):
        return PairContext(self.sphere_b, self.sphere_a, self.separation)


def _closed_form_applies(material):
    """0 < gamma0 < 2 w0: two distinct poles of alpha, off the imaginary axis."""
    return 0.0 < material.gamma0 < 2.0 * resonance_frequency(material)


def _eta_reduced(mat, temperature, omega_scale):
    """Reduced Hadamard spectrum as a vectorized closure of u = w/omega_scale."""
    def eta(u):
        kern = _omega_coth_kernel(u, temperature, omega_scale=omega_scale)
        return 2.0 * kern * _im_alpha_over_omega_reduced(mat, u)
    return eta


def pair_quadrature_spec(ctx, shifts=(0.0,), rel_tol=None, lo=None, hi=None):
    """Quadrature controls for a pair integral with the given Doppler shifts.

    Breakpoints sit at 0, at both polaritonic resonances, at every
    Doppler image resonance +/- shift, and at +/- shift, where a shifted
    zero-temperature spectrum has its kink; the window extends 50x beyond the
    outermost relevant scale so the tail fit only sees the power-law decay.
    """
    ws, mat_a, mat_b = ctx._scaled
    u0a = resonance_frequency(mat_a)   # = 1 by construction
    u0b = resonance_frequency(mat_b)
    shifts = [abs(s) / ws for s in shifts]
    bps = {0.0}
    for r in (0.0, u0a, u0b):
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
            "the shift integral is not real")
    return value.real


def _alpha_poles(mat):
    """Poles p_k and residues r_k of alpha(u) = sum_k r_k/(u - p_k).

    p = +/-W' - i gamma/2 with W' = sqrt(w0^2 - gamma^2/4): both in the
    lower half plane (causality), distinct and off the imaginary axis
    inside the closed-form domain.
    """
    w0sq = mat.omega_tilde0**2 * (1.0 + mat.f0 / 3.0)
    half = 0.5 * mat.gamma0
    wp = math.sqrt(w0sq - half * half)
    r = mat.f0 * mat.omega_tilde0**2 / (6.0 * wp)
    return (wp - 1j * half, -wp - 1j * half), (-r, r)


# Bernoulli numbers B_2 ... B_16 for the Stirling series of psi and psi',
# highest order first, one (psi, psi') column per Horner step
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
                       7 / 6, -3617 / 510])
_STIRLING = np.stack([_BERNOULLI[::-1] / np.arange(16, 1, -2),
                      _BERNOULLI[::-1]], axis=1)[:, :, None]


def _digamma(w):
    """Complex digamma psi(w) and trigamma psi'(w) of a 1-d array.

    Reflection maps Re w < 1/2 onto 1 - w, the upward recurrence lifts |w|
    to at least 10, and the Stirling series through B_16 finishes. Accurate
    to about 1e-15 relative away from the poles at w = 0, -1, -2, ...
    """
    w = np.asarray(w, dtype=complex)
    flip = w.real < 0.5
    z = np.where(flip, 1.0 - w, w)
    # one common shift for all entries; shifting further than needed is exact
    steps = int(np.ceil(10.0 - z.real[np.abs(z) < 10.0].min(initial=10.0)))
    # in place: one (entries, steps) array at a time bounds the transient
    recur = z[..., None] + np.arange(steps)
    np.divide(1.0, recur, out=recur)
    psi = -recur.sum(axis=-1)
    tri = np.multiply(recur, recur, out=recur).sum(axis=-1)
    z = z + steps
    inv = 1.0 / z
    inv2 = inv * inv
    # both series in one (2, entries) Horner, in place
    series = np.empty((2, inv2.size), dtype=complex)
    series[...] = _STIRLING[0]
    for c in _STIRLING[1:]:
        np.multiply(series, inv2, out=series)
        np.add(series, c, out=series)
    psi += np.log(z) - 0.5 * inv - inv2 * series[0]
    tri += inv + 0.5 * inv2 + inv * inv2 * series[1]
    if flip.any():
        # psi(w) = psi(1 - w) - pi cot(pi w), psi'(w) = pi^2/sin^2(pi w) - psi'(1 - w),
        # through e = exp(2 pi i w sgn Im w), |e| <= 1, which stays exact
        # where cot and 1/sin^2 saturate at large |Im w|
        frac = w - np.round(w.real)
        sgn = np.where(frac.imag < 0.0, -1.0, 1.0)
        e = np.exp(2j * np.pi * sgn * frac)
        psi = np.where(flip, psi + 1j * np.pi * sgn * (1.0 + e) / (1.0 - e), psi)
        tri = np.where(flip, -tri - 4.0 * np.pi**2 * e / (1.0 - e) ** 2, tri)
    return psi, tri


def _log(w):
    """log(w) and its derivative, the T = 0 limit of the digamma terms."""
    return np.log(w), 1.0 / w


_NEAR = 2e-3                    # |w_j - w_i| < _NEAR |w|: nearly coincident
_GAUSS2 = 0.5 / math.sqrt(3.0)  # two-point Gauss-Legendre nodes, half-spacing
_EPS = np.finfo(float).eps
_ROUNDOFF = 10.0 * _EPS


def _zeta_table(count, n=10):
    """zeta(2), ..., zeta(count + 1) in plain floats.

    Euler-Maclaurin: the first n - 1 terms summed, the rest as
    n^(1-s)/(s-1) + n^-s/2 plus the corrections through B_16, whose
    remainder is below 1e-17 for every s >= 2 at n = 10.
    """
    table = []
    for s in range(2, count + 2):
        terms = [k ** -s for k in range(1, n)]
        terms += [n ** (1 - s) / (s - 1), 0.5 * n ** -s]
        rising, factorial = s, 2                # (s)_(2k-1) and (2k)!
        for k, bernoulli in enumerate(_BERNOULLI.tolist(), 1):
            terms.append(bernoulli / factorial * rising * n ** (1 - s - 2 * k))
            rising *= (s + 2 * k - 1) * (s + 2 * k)
            factorial *= (2 * k + 1) * (2 * k + 2)
        table.append(math.fsum(terms))
    return table


def _series_terms(rho):
    """Moments per pole of a zeta series whose arguments have |z| <= rho."""
    return math.ceil(math.log(_EPS) / math.log(rho)) + 1


# Warm rows whose Matsubara arguments all satisfy |z| <= _RHO sum their pairs
# as a power series (radius of convergence 1). At 1/4 it needs at most 27
# moments per pole and covers GHz resonances from about a kelvin up
_RHO = 0.25
_TERMS = _series_terms(_RHO)
_ZETA = np.array(_zeta_table(2 * _TERMS - 1))          # zeta(2) ... zeta(2 _TERMS)
_HANKEL = _ZETA[np.add.outer(np.arange(_TERMS), np.arange(_TERMS))]
_POWERS = np.arange(_TERMS)

# The kinds in the row order of the closed form's results
_KINDS = ("BA", "AB")


def _closed(rows, omega_scale, shifts):
    """Shift integrals of alpha_X against eta_Y by contour closure.

    Each row (mat_x, mat_y, T_y) is one kind of integral, and all rows are
    evaluated at all ``shifts`` (in working units) together. With
    alpha = sum_k r_k/(u - p_k), S(u) = alpha_X(u + s) + alpha_X(u - s) has
    poles x_i with coefficients a_i, and alpha_Y(u) - alpha_Y(-u) has poles
    y_j with coefficients b_j. Closing the contour in the upper half plane
    picks up the two upper poles q = -p_k of eta_Y and the poles of coth at
    the Matsubara frequencies i n xi1, whose sum is a digamma difference:

        J = 2 pi sum_k coth(theta q_k) S(q_k) r_k^Y
            - (2/xi1) sum_ij a_i b_j [F(w_j) - F(w_i)]/(w_j - w_i),

    with theta = hbar w_s/2kT, xi1 = pi/theta, w = 1 + z, z = i x/xi1 and
    F = digamma. At T = 0, coth -> sgn Re q, xi1 -> 1, w = i x and F = log.
    The residues of all rows come from one pass. The pair sum of a row
    takes one of three routes, chosen before evaluating from its largest
    |z|, rho = (max|p_X| + the largest shift, |p_Y|)/xi1:

    - T = 0 rows take F = log;
    - warm rows with rho > _RHO take F = digamma. In these two routes,
      nearly coincident w_i, w_j (equal dampings of X and Y) take the divided difference as two-point Gauss-Legendre quadrature
      of F' over the segment, which cancels nothing, and the F values of
      all their rows come from one call of each of log and digamma;
    - warm rows with rho <= _RHO expand psi(1 + z) = -gamma +
      sum_k (-1)^(k+1) zeta(k+1) z^k (Abramowitz & Stegun 6.3.14), so the
      pair sum is sum_mn (-1)^(m+n) zeta(m+n+2) A_m B_n over the moments
      A_m = sum_i a_i z_i^m of each shift and B_n = sum_j b_j z_j^n of the
      row, for m, n < K = ceil(log eps/log rho) + 1 with the largest rho
      of these rows. The terms left out sum to less than
      eps zeta(2) sum|a| sum|b|, a tenth of the roundoff estimate below,
      and no digamma is evaluated.

    Returns complex J and its roundoff estimate 10 eps sum|terms|, arrays
    of shape (rows, shifts); Im J vanishes up to roundoff. A series counts
    sum_mn zeta(m+n+2) with the moments of |a|, |b| and |z|. The estimate
    leaves out the conditioning of J in the shift and the material
    constants, which every double-precision evaluation shares: at the
    resonant zero crossing of BA the error reaches about 1.4 times it.
    """
    reach = max(map(abs, shifts))
    built = []
    for mat_x, mat_y, temperature in rows:
        poles_x, rx = _alpha_poles(mat_x)
        (p1, p2), ry = _alpha_poles(mat_y)
        if temperature == 0.0:
            route, theta, xi1, rho = 0, 1.0, 1.0, 0.0       # theta unused: coth -> sgn Re q
        else:
            theta = HBAR * omega_scale / (2.0 * K_B * temperature)
            xi1 = np.pi / theta
            rho = max(abs(poles_x[0]) + reach, abs(p1)) / xi1   # the largest |z|
            route = 1 if rho > _RHO else 2
        built.append((route, poles_x, rx + rx, (p1, p2, -p1, -p2), ry + ry,
                      theta, xi1, rho))
    # rows by route: T = 0, digamma, series; log and digamma each take the
    # arguments of one contiguous run of rows
    order = sorted(range(len(rows)), key=lambda r: built[r][0])
    route, px, a, y, b, theta, xi1, rho = zip(*(built[r] for r in order))
    c = route.count(0)                                  # rows [0, c) are at T = 0
    d = c + route.count(1)                              # rows [d, rows) sum a series
    px, y = np.array(px)[:, None, :], np.array(y)       # (rows, 1, 2), (rows, 4)
    a, b = np.array(a), np.array(b)
    xi1 = np.array(xi1)[:, None]
    q = y[:, 2:]                                        # -p_k^Y, (rows, 2)
    coth = 1.0 / np.tanh(np.array(theta)[:, None] * q)
    if c:
        coth[:c] = np.sign(q[:c].real)
    weight = (2.0 * np.pi * coth * b[:, :2])[:, :, None] * a[:, None, :]

    s = np.asarray(shifts, dtype=float)[:, None]
    x = np.concatenate([px - s, px + s], axis=2)        # (rows, shifts, 4)
    residues = weight[:, None] / (q[:, None, :, None] - x[:, :, None, :])
    parts = []
    if d:
        parts.append(_divided(x[:d], y[:d], a[:d], b[:d], xi1[:d], c))
    if d < len(rows):
        parts.append(_series(x[d:], y[d:], a[d:], b[d:], xi1[d:], max(rho[d:])))
    pairs, pair_size = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    total = residues.sum(axis=(2, 3)) + pairs
    roundoff = _ROUNDOFF * (np.abs(residues).sum(axis=(2, 3)) + pair_size)
    if order != sorted(order):
        back = np.argsort(order)
        total, roundoff = total[back], roundoff[back]
    return total, roundoff


def _divided(x, y, a, b, xi1, c):
    """Pair sums of rows that take F directly: (sum, sum of term sizes).

    Rows [0, c) are at T = 0 (F = log, w = z), the rest warm (F = digamma,
    w = 1 + z).
    """
    wy = 1j * y / xi1
    ab = ((-2.0 / xi1[:, :, None]) * a[:, :, None] * b[:, None, :])[:, None]
    wx = 1j * x / xi1[:, :, None]
    if c < len(x):
        wy[c:] += 1.0
        wx[c:] += 1.0
    wi = wx[..., None]
    h = wy[:, None, None, :] - wi                       # (rows, shifts, 4, 4)
    mid = wi + 0.5 * h
    near = np.abs(h) < _NEAR * np.abs(mid)
    m, d = mid[near], _GAUSS2 * h[near]
    lo, hi = m - d, m + d                               # row by row, as near
    # one call each of log and digamma, on the arguments of their rows
    k = np.count_nonzero(near[:c]) if c else 0
    groups = []
    if c:
        groups.append(_values(_log, wx[:c], wy[:c], lo[:k], hi[:k]))
    if c < len(x):
        groups.append(_values(_digamma, wx[c:], wy[c:], lo[k:], hi[k:]))
    fx, fy, dlo, dhi = groups[0] if len(groups) == 1 else map(np.concatenate, zip(*groups))
    fx, fy = fx[..., None], fy[:, None, None, :]
    h = np.where(near, 1.0, h)
    dd = (fy - fx) / h
    if m.size:
        dd[near] = 0.5 * (dlo + dhi)
    pairs = ab * dd
    # terms cancel by up to five orders of magnitude (near the resonant zero
    # crossing of BA, and as gamma -> 0); a digamma difference counts with
    # both of its values
    pair_size = np.where(near, np.abs(pairs),
                         np.abs(ab) * (np.abs(fy) + np.abs(fx)) / np.abs(h))
    return pairs.sum(axis=(2, 3)), pair_size.sum(axis=(2, 3))


def _series(x, y, a, b, xi1, rho):
    """Pair sums of warm rows with every |z| <= rho <= _RHO, as a zeta series.

    With t = -z the signs (-1)^(m+n) go into the moments:
    sum_mn zeta(m+n+2) sum_i a_i t_i^m sum_j b_j t_j^n. Returns the sum
    times -2/xi1 and the same sum over |a|, |b| and |t|.
    """
    terms = _series_terms(rho)
    hankel, powers = _HANKEL[:terms, :terms], _POWERS[:terms]
    b = b * (-2.0 / xi1)
    tx = (x * (-1j / xi1[:, :, None]))[..., None] ** powers    # (rows, shifts, 4, terms)
    ty = (y * (-1j / xi1))[..., None] ** powers                # (rows, 4, terms)
    moments_y = (b[:, None, :] @ ty) @ hankel                  # (rows, 1, terms)
    sizes_y = (np.abs(b[:, None, :]) @ np.abs(ty)) @ hankel
    moments_x = a[:, None, None, :] @ tx                       # (rows, shifts, 1, terms)
    sizes_x = np.abs(a[:, None, None, :]) @ np.abs(tx)
    pairs = moments_x @ moments_y[..., None]
    pair_size = sizes_x @ sizes_y[..., None]
    return pairs[..., 0, 0], pair_size[..., 0, 0]


def _values(fn, wx, wy, lo, hi):
    """F = fn at wx and wy, and F' at lo and hi, from one call of fn."""
    f, df = fn(np.concatenate([wx.ravel(), wy.ravel(), lo, hi]))
    i, j, k = wx.size, wx.size + wy.size, wx.size + wy.size + lo.size
    return f[:i].reshape(wx.shape), f[i:j].reshape(wy.shape), df[j:k], df[k:]


def _closed_kinds(ctx, shifts):
    """Closed-form BA and AB integrals of a context at working-unit shifts.

    BA integrates alpha_A against eta_B at T_B, and AB alpha_B against
    eta_A at T_A. Equal scaled materials at equal temperatures make the two
    the same integral, evaluated as one row. Returns (complex values,
    roundoff), arrays of shape (2, shifts) with rows in ``_KINDS`` order,
    from one evaluation of :func:`_closed`.
    """
    ws, mat_a, mat_b = ctx._scaled
    ba = (mat_a, mat_b, ctx.sphere_b.temperature)
    ab = (mat_b, mat_a, ctx.sphere_a.temperature)
    rows = (ba,) if ba == ab else (ba, ab)
    values, roundoff = _closed(rows, ws, shifts)
    take = [0, len(rows) - 1]
    return values[take], roundoff[take]


def _residue_error(which, imag, roundoff):
    """The error of a closed-form value whose imaginary residue is too large."""
    return ArithmeticError(
        f"energy_{which}: imaginary residue {imag:.3e} exceeds the "
        f"roundoff estimate {roundoff:.3e}; closed form violated")


def _roundoff_error(which, rel_tol, value, roundoff):
    """The error of a closed-form value whose roundoff exceeds the tolerance."""
    return ConvergenceError(
        f"energy_{which}: rel_tol {rel_tol:.1e} is below the closed form's "
        f"roundoff estimate {roundoff:.3e} (value {value:.6e})",
        value=value, estimate=roundoff)


def _quadrature(ctx, shift, rel_tol, which):
    """Gauss-Kronrod reduced integral at one working-unit shift: (value, error)."""
    ws, mat_a, mat_b = ctx._scaled
    spec = pair_quadrature_spec(ctx, shifts=(shift * ws,), rel_tol=rel_tol)
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
    return _realize(value, errest, spec, f"energy_{which}"), errest


def shift_integral(ctx, Omega, which, method, rel_tol=None):
    """One reduced shift integral and its error estimate, uncached.

    ``which`` is "BA" or "AB". ``method`` "closed" is the contour closure,
    whose estimate is its roundoff; "quadrature" is the Gauss-Kronrod
    quadrature at ``rel_tol``, whose estimate covers panels and tails.
    """
    shift = abs(Omega) / ctx._scaled[0]
    if method == "closed":
        values, roundoff = _closed_kinds(ctx, [shift])
        k = _KINDS.index(which)
        value, roundoff = complex(values[k, 0]), float(roundoff[k, 0])
        if abs(value.imag) > roundoff:
            raise _residue_error(which, value.imag, roundoff)
        return value.real, roundoff
    rel = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    value, errest = _quadrature(ctx, shift, rel, which)
    return float(value), float(errest)


# Sweeps revisit the same few shifts (E(0) on every row, sums and
# differences of the grid rates), so most lookups hit; a sweep evaluates
# all of its closed-form shifts up front (prefetch) and its rows only look
# them up. Single-threaded; nothing is ever evicted. Each pair has one
# table, found once per call under the context's ``_key``, so equal
# contexts share it (the presets share 420 values). A closed-form entry is
# keyed by slot and holds one evaluation flat, as the tuple (BA value,
# roundoff estimate, imaginary residue, AB value, roundoff estimate,
# imaginary residue), checked on every lookup, so a bad shift fails only
# the lookups that use it; a quadrature entry is keyed by (kind, slot,
# rel_tol), met its rel_tol when computed and stores (value, 0, 0).
_cache = {}
_stats = {"hits": 0, "misses": 0, "blocks": 0}

# Shifts per closed-form evaluation. It bounds the transient arrays of
# _closed, which a sweep evaluated in one piece would hold for hundreds of
# shifts at once. At 64 shifts their traced peak is about 1.5 kB per shift
# and row for series rows, 2.1 kB for T = 0 rows and 3 kB for digamma rows
# (BST at 0.05-0.3 K); a digamma row whose 16 pole pairs are all near, as
# every |z| << 1 makes them, takes 14 kB for their Gauss nodes.
_BLOCK = 64


def clear_cache():
    _cache.clear()
    _stats.update(hits=0, misses=0, blocks=0)


def cache_info():
    """Shift-cache counters since the last :func:`clear_cache`.

    ``entries`` cached values (a closed-form slot holds two, one per kind),
    ``hits`` and ``misses`` of the lookups (one per kind and distinct
    shift), and ``blocks``, the stacked closed-form evaluations of both
    kinds at up to ``_BLOCK`` shifts each.
    """
    entries = sum(2 if isinstance(key, int) else 1
                  for table in _cache.values() for key in table)
    return dict(entries=entries, **_stats)


def _slot(shift):
    """Cache slot of a working-unit shift: |shift| quantized to 1e-12."""
    return round(shift / 1e-12)


def _fill_closed(ctx, table, shifts):
    """Evaluate the closed-form entries of ``shifts``, a slot -> shift map.

    Both kinds of every shift are evaluated together, in blocks of at most
    ``_BLOCK`` shifts, one :func:`_closed_kinds` call each, and stored in
    ``table`` as flat tuples. Nothing is checked here; lookups check.
    """
    slots = list(shifts)
    for start in range(0, len(slots), _BLOCK):
        block = slots[start:start + _BLOCK]
        values, roundoff = _closed_kinds(ctx, [shifts[n] for n in block])
        _stats["blocks"] += 1
        fields = np.empty((6, len(block)))     # rows: BA's three fields, then AB's
        fields[0::3], fields[1::3], fields[2::3] = values.real, roundoff, values.imag
        table.update(zip(block, zip(*fields.tolist())))


def prefetch(ctx, terms, rate_pairs):
    """Evaluate every shift integral that energies at ``rate_pairs`` will need.

    ``terms`` are an arrangement's ``(s, t, c)`` weights (see
    :func:`general_energy`) and ``rate_pairs`` its (Omega_A, Omega_B)
    points; the distinct |s Omega_A - t Omega_B| and 0 (the rest energy)
    are evaluated in a few blocked closed-form passes, so the energies that
    follow are pure lookups. Quadrature-domain contexts evaluate nothing
    here: their values depend on rel_tol and stay per lookup.
    """
    if not ctx.closed_form:
        return
    ws = ctx._scaled[0]
    table = _cache.setdefault(ctx._key, {})
    shifts = {_slot(0.0): 0.0}
    for omega_a, omega_b in rate_pairs:
        for s, t, _ in terms:
            shift = abs(s * omega_a - t * omega_b) / ws
            shifts.setdefault(_slot(shift), shift)
    _fill_closed(ctx, table, {n: x for n, x in shifts.items() if n not in table})


def _lookup(ctx, weights, rel_tol, kinds=_KINDS):
    """Weighted sum of reduced shift integrals, sum c (sum of ``kinds``).

    ``weights`` maps each Omega to its weight c. Both integrals are even in
    Omega, so the cache key uses the slot of |Omega|. Closed-form values do
    not depend on rel_tol, so their key is the slot alone, and the misses
    of one call are evaluated, both kinds at once, in one blocked pass.
    Quadrature values keep rel_tol in the key and met it when computed; a
    call on quadrature entries, or for one kind, reads them through a
    per-call table in the closed-form layout. One walk over the shifts then
    checks both kinds' imaginary residue and roundoff estimate, the latter
    against max(abs_tol, rel_tol |value|), and sums.
    """
    rel = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    ws = ctx._scaled[0]
    table = _cache.setdefault(ctx._key, {})
    slots = [_slot(abs(om) / ws) for om in weights]
    distinct = set(slots)
    closed = ctx.closed_form
    misses = 0
    if not (closed and table.keys() >= distinct):
        shifts = {}                     # the shift evaluated for each slot
        for om, n in zip(weights, slots):
            shifts.setdefault(n, abs(om) / ws)
        if closed:
            missing = {n: x for n, x in shifts.items() if n not in table}
            misses = len(kinds) * len(missing)
            _fill_closed(ctx, table, missing)
        else:
            missing = [(which, n) for which in kinds for n in shifts
                       if (which, n, rel) not in table]
            misses = len(missing)
            for which, n in missing:
                value, _ = _quadrature(ctx, shifts[n], rel, which)
                table[which, n, rel] = (float(value), 0.0, 0.0)
    _stats["misses"] += misses
    _stats["hits"] += len(kinds) * len(distinct) - misses
    if not closed or kinds != _KINDS:
        # the closed-form layout, with zeros for a kind not asked for
        def part(which, n):
            if which not in kinds:
                return (0.0, 0.0, 0.0)
            if closed:
                k = 3 * _KINDS.index(which)
                return table[n][k:k + 3]
            return table[which, n, rel]

        table = {n: part("BA", n) + part("AB", n) for n in distinct}
    total = 0.0
    for n, c in zip(slots, weights.values()):
        ba, ba_round, ba_imag, ab, ab_round, ab_imag = table[n]
        if abs(ba_imag) > ba_round:
            raise _residue_error("BA", ba_imag, ba_round)
        if ba_round > DEFAULT_ABS_TOL and ba_round > rel * abs(ba):
            raise _roundoff_error("BA", rel, ba, ba_round)
        if abs(ab_imag) > ab_round:
            raise _residue_error("AB", ab_imag, ab_round)
        if ab_round > DEFAULT_ABS_TOL and ab_round > rel * abs(ab):
            raise _roundoff_error("AB", rel, ab, ab_round)
        total += c * (ba + ab)
    return total


def _to_joules(ctx):
    """Factor from a reduced shift integral to its energy (J)."""
    return -ctx._units.energy_scale / (32.0 * np.pi)


def energy_BA(ctx, Omega, rel_tol=None):
    """Energy from dipole fluctuations in B driving a Doppler-shifted A (J).

    -A/R^6 * integral dw [alpha_A(w+Omega) + alpha_A(w-Omega)] eta_B(w)
    with A = hbar/(512 pi^3 eps0^2). Real by symmetry; the imaginary
    residue is checked against the error estimate before being discarded.
    """
    return _to_joules(ctx) * _lookup(ctx, {Omega: 1.0}, rel_tol, ("BA",))


def energy_AB(ctx, Omega, rel_tol=None):
    """Energy from Doppler-shifted fluctuations in A driving B (J)."""
    return _to_joules(ctx) * _lookup(ctx, {Omega: 1.0}, rel_tol, ("AB",))


def aux_energy(ctx, Omega, rel_tol=None):
    """Auxiliary building-block energy E(Omega) = E_{A->B} + E_{B->A} (J).

    Even in Omega; the energy of every arrangement is a weighted sum of
    values of this function (see :mod:`spinvdw.configurations`).
    """
    return _to_joules(ctx) * _lookup(ctx, {Omega: 1.0}, rel_tol)


def general_energy(ctx, terms, Omega_A, Omega_B, rel_tol=None):
    """Interaction energy of any arrangement from its projector weights (J).

    ``terms`` holds the arrangement's ``(s, t, c)`` weights (see
    :mod:`spinvdw.configurations`); the energy is
    2 sum c E(|s Omega_A - t Omega_B|). Terms with equal shifts are merged,
    and the BA and AB integrals of all distinct shifts are looked up, and
    their misses evaluated, in one call.
    """
    weights = {}
    for s, t, c in terms:
        shift = abs(s * Omega_A - t * Omega_B)
        weights[shift] = weights.get(shift, 0.0) + c
    return 2.0 * _to_joules(ctx) * _lookup(ctx, weights, rel_tol)
