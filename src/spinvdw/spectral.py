"""Spectral integrals of the dipole-dipole interaction.

The interaction energy of two spinning spheres reduces to the shift
integrals

    J(s) = int du [alpha_X(u + s) + alpha_X(u - s)] eta_Y(u),

with (X, Y) = (A, B) for the "BA" integral and (B, A) for "AB", where
eta = 2 coth(theta u) Im alpha is the Hadamard spectrum at the temperature
of Y. The polarizabilities are Lorentz oscillators, so the integrands are
rational up to coth, and the integrals are evaluated exactly by closing the
contour in the upper half plane: the residues at the two upper poles of
eta plus the Matsubara sum over the poles of coth. One evaluation stacks
both integrals of a pair as rows, at a block of shifts; identical spheres
(equal materials at equal temperatures) make them one row. The Matsubara
sum of a row is logarithms at T = 0, and at T > 0 a zeta-function power
series when every argument z = i x/xi1 has |z| <= 1/4 (GHz resonances at
kelvin temperatures and above), else digamma functions.

The closure serves every damping gamma0 > 0. Below critical damping
(gamma0 < 2 w0) the two poles of alpha lie off the imaginary axis; above
it they lie on it, where the logarithms of T = 0 take their principal
value. Near critical damping, where the poles merge and their residues
diverge, a row is the mean of the closure over a small circle in the
squared pole splitting. gamma0 = 0 puts the poles on the real axis and is
rejected; :mod:`spinvdw.oracle` covers it. The result carries a roundoff
estimate; a tolerance below it raises :class:`ConvergenceError` at once.
Nothing is cached: a sweep evaluates all of its shifts in one call of
:func:`sweep_energies`, and every one-point energy evaluates its own.
Every entry point checks its inputs with :func:`_check` before it
evaluates, and every value is judged by :func:`_fails`.

All integration happens in nondimensional units (frequencies in units of
sphere A's resonance, polarizabilities in units of 4*pi*eps0*a^3); SI
joules appear only in the returned values.
"""

import cmath
import math

import numpy as np

from .response import C_LIGHT, HBAR, K_B, _Value, resonance_frequency

__all__ = [
    "ConvergenceError", "PairContext", "pair_quadrature_spec",
    "energy_BA", "energy_AB", "aux_energy", "general_energy", "sweep_energies",
    "clear_cache", "DEFAULT_REL_TOL", "DEFAULT_ABS_TOL",
]

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12   # in working (nondimensional) energy units
# The largest R w/c of the non-retarded regime, w the fastest frequency of
# the spheres or of their Doppler images: the leading retardation
# correction, of order (w R/c)^2, stays within 1% (Casimir & Polder, Phys.
# Rev. 73, 360 (1948))
MAX_RETARDATION = 0.1


class ConvergenceError(RuntimeError):
    """A spectral value cannot meet its tolerance.

    Raised when the roundoff estimate of a closed-form value exceeds the
    tolerance. Carries the value and its estimate.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class PairContext(_Value):
    """Two spheres and their distance; everything the shift integrals need.

    The directions (spin axes and line of centers) live in
    :class:`spinvdw.configurations.Arrangement` and the spin rates are
    arguments of the energy functions, so one context serves every
    arrangement and rotation state. What the integrals derive from the
    spheres (the materials in working units, the energy unit, the poles of
    their polarizabilities and the closed form's rows of them, the factor to
    joules, and the reach R w/c of the materials and of a unit shift) is
    computed once, here.

    Parameters
    ----------
    sphere_a, sphere_b : response.SpinningSphere
    separation : float
        Center-to-center distance R (m); must exceed the summed radii
        (dipole approximation) and keep R w/c <= ``MAX_RETARDATION`` = 0.1,
        with w the largest resonance or damping rate of the two materials
        (non-retarded regime; 2.3 mm for BST). Both materials need gamma0 > 0,
        and both temperatures a theta = hbar w/2kT that :func:`_theta` accepts.
        The energies at rates (Omega_A, Omega_B) add their largest shift
        |s Omega_A - t Omega_B| to w, as their Doppler images do, and raise
        ValueError where that sum passes the bound.
    """

    def __init__(self, sphere_a, sphere_b, separation):
        super().__init__(sphere_a, sphere_b, separation)
        if self.separation <= self.sphere_a.radius + self.sphere_b.radius:
            raise ValueError("separation must exceed the summed radii")
        ma, mb = self.sphere_a.material, self.sphere_b.material
        if not (ma.gamma0 > 0 and mb.gamma0 > 0):
            raise ValueError("gamma0 = 0 puts the poles of alpha on the real axis; "
                             "the undamped limit is spinvdw.oracle")
        ws = resonance_frequency(ma)
        reach = self.separation * max(ws, resonance_frequency(mb),
                                      ma.gamma0, mb.gamma0) / C_LIGHT
        if not reach <= MAX_RETARDATION:        # NaN too
            raise ValueError(
                f"separation {self.separation} m is outside the non-retarded regime: "
                f"R w/c = {reach:.3g} exceeds {MAX_RETARDATION}, w the largest "
                f"resonance or damping rate of the spheres")
        t_a, t_b = self.sphere_a.temperature, self.sphere_b.temperature
        for t in (t_a, t_b):
            _theta(ws, t)
        a3 = self.sphere_a.radius**3 * self.sphere_b.radius**3
        scaled = (ma.scaled(ws), mb.scaled(ws))
        energy_scale = HBAR * ws * a3 / self.separation**6
        poles = tuple(map(_alpha_poles, scaled))
        ba = (*poles, t_b)
        derived = {
            "_scaled": (ws, *scaled),
            # hbar ws (a_A a_B / R^2)^3, the energy unit of the working units
            "_energy_scale": energy_scale,
            "_poles": poles,
            # the rows of _closed for BA and AB, one if equal spheres make them one
            "_rows": (ba,) if (scaled[0], t_b) == (scaled[1], t_a) else (
                ba, (poles[1], poles[0], t_a)),
            # a reduced shift integral times this is its energy (J)
            "_joules": -energy_scale / (32.0 * np.pi),
            # R w/c is _reach + _reach_shift x at a largest shift x (working units)
            "_reach": reach,
            "_reach_shift": self.separation * ws / C_LIGHT,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def swapped(self):
        return PairContext(self.sphere_b, self.sphere_a, self.separation)


def pair_quadrature_spec(ctx, shifts=(0.0,)):
    """Quadrature controls for a pair integral with the given Doppler shifts.

    ``breakpoints``, ``window`` and ``seed_width`` of the tests' reference
    quadrature; no production value uses them, and this stays here only
    because the benchmark's tracer wraps its name. Breakpoints sit at 0, at
    both polaritonic resonances, at every Doppler image resonance +/- shift,
    and at +/- shift, where a shifted zero-temperature spectrum has its
    kink; the window extends 50x beyond the outermost relevant scale (a
    Doppler image, or the damping of an overdamped material, whose spectrum
    reaches out to gamma0) so the tail fit only sees the power-law decay.
    """
    ws, mat_a, mat_b = ctx._scaled
    u0a = resonance_frequency(mat_a)   # = 1 by construction
    u0b = resonance_frequency(mat_b)
    shifts = [abs(s) / ws for s in shifts]
    bps = {0.0}
    for r in (0.0, u0a, u0b):
        for s in [0.0] + shifts:
            bps.update((r + s, r - s, -r + s, -r - s))
    window = 50.0 * max(u0a, u0b, mat_a.gamma0, mat_b.gamma0,
                        *(s + max(u0a, u0b) for s in shifts))
    return {"breakpoints": tuple(sorted(bps)), "window": window,
            "seed_width": min(mat_a.gamma0, mat_b.gamma0) / 8.0}


# Within _CRITICAL w0^2 of critical damping (W'^2 = 0) the two poles of alpha
# merge and their residues, ~ 1/W', cancel ever more digits. Every integral
# depends on W' only through W'^2, analytically, so it is taken as the mean
# over the points _CIRCLE of the circle of radius 2 _CRITICAL w0^2 about the
# material's own W'^2; there |W'^2| > _CRITICAL w0^2. The mean misses J by
# the Taylor terms of order 8 and up, (2 _CRITICAL w0^2/R)^8 of J for the
# distance R ~ w0^2 at which a pole would reach the real axis. The points
# come in conjugate pairs and avoid the real axis, so the mean of a real J
# stays real and no W' lands on the imaginary axis.
_CRITICAL = 1e-3
_CIRCLE = 2.0 * _CRITICAL * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)


def _alpha_poles(mat):
    """Poles p_k and residues r_k of alpha(u) = sum_k r_k/(u - p_k).

    p = +/-W' - i gamma/2 with W' = sqrt(w0^2 - gamma^2/4): both in the
    lower half plane (causality). Below critical damping they are distinct
    and off the imaginary axis; above it W' is imaginary and both lie on
    the imaginary axis. Returns a tuple of ((p1, p2), (r1, r2)), one entry,
    or near critical damping one per point of ``_CIRCLE``.
    """
    w0sq = mat.omega_tilde0**2 * (1.0 + mat.f0 / 3.0)
    half = 0.5 * mat.gamma0
    split = w0sq - half * half
    near = abs(split) < _CRITICAL * w0sq
    points = []
    for t in _CIRCLE if near else (0.0,):
        # real below critical damping, so the arrays of such rows stay real
        wp = math.sqrt(split) if split > 0.0 and not near else cmath.sqrt(split + t * w0sq)
        r = mat.f0 * mat.omega_tilde0**2 / (6.0 * wp)
        p2 = -wp - 1j * half
        # overdamped: -i(gamma/2 - |W'|) would cancel digits; p1 p2 = -w0^2
        p1 = -w0sq / p2 if split < 0.0 and not near else wp - 1j * half
        points.append(((p1, p2), (-r, r)))
    return tuple(points)


def _pole_points(sets_x, sets_y):
    """(poles and residues of X, of Y) at each point of an integral of the two.

    ``sets_x`` and ``sets_y`` are their :func:`_alpha_poles`: one point, or
    the points of ``_CIRCLE`` when either is near critical damping. Two such
    take each point together: J is analytic in both W'^2, so its mean along
    the one circle through both is still its centre value.
    """
    n = max(len(sets_x), len(sets_y))
    return list(zip(sets_x * (n // len(sets_x)), sets_y * (n // len(sets_y))))


# Bernoulli numbers B_2 ... B_16 for the Stirling series of psi and psi',
# highest order first, one (psi, psi') column per Horner step
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
                       7 / 6, -3617 / 510])
_STIRLING = np.stack([_BERNOULLI[::-1] / np.arange(16, 1, -2),
                      _BERNOULLI[::-1]], axis=1)[:, :, None]


def _digamma(w, start=0):
    """Complex digamma psi(w) of a 1-d array, and trigamma psi'(w) of w[start:].

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
    tail = recur[start:]
    tri = np.multiply(tail, tail, out=tail).sum(axis=-1)
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
    inv_n, inv2_n = inv[start:], inv2[start:]
    tri += inv_n + 0.5 * inv2_n + inv_n * inv2_n * series[1, start:]
    if flip.any():
        # psi(w) = psi(1 - w) - pi cot(pi w), psi'(w) = pi^2/sin^2(pi w) - psi'(1 - w),
        # through e = exp(2 pi i w sgn Im w), |e| <= 1, which stays exact
        # where cot and 1/sin^2 saturate at large |Im w|
        frac = w - np.round(w.real)
        sgn = np.where(frac.imag < 0.0, -1.0, 1.0)
        e = np.exp(2j * np.pi * sgn * frac)
        psi = np.where(flip, psi + 1j * np.pi * sgn * (1.0 + e) / (1.0 - e), psi)
        e = e[start:]
        tri = np.where(flip[start:], -tri - 4.0 * np.pi**2 * e / (1.0 - e) ** 2, tri)
    return psi, tri


def _log(w, start=0):
    """log(w), and its derivative at w[start:]: the T = 0 limit of the digamma terms.

    On the cut, w real and negative, log takes its principal value log|w|,
    the mean of its limits from either side. The upper poles of an
    overdamped alpha land there, and their residues take coth -> sgn Re q,
    which is 0 on the imaginary axis: the jumps of the two cancel.
    """
    f = np.log(w)
    f.imag[w.imag == 0.0] = 0.0       # changes nothing for w > 0
    return f, 1.0 / w[start:]


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
# complex, as the moments and the powers of t that they meet, so that no call casts them
_HANKEL = _ZETA[np.add.outer(np.arange(_TERMS), np.arange(_TERMS))].astype(complex)
_POWERS = np.arange(_TERMS, dtype=complex)


def _series_size(rho):
    """sum_mn zeta(m+n+2) |A_m| |B_n| <= zeta(2)/(1 - rho)^2 sum|a| sum|b| at |z| <= rho."""
    return float(_ZETA[0]) / (1.0 - rho) ** 2


def _theta(omega_scale, temperature):
    """theta = hbar w_s/2kT at a temperature, in the working units of ``omega_scale``.

    As :func:`_closed` forms it for each row, on the temperatures of a
    context that this has judged; 0 at T = 0, where coth -> sgn Re q. A
    temperature T > 0 at which theta or the Matsubara spacing xi1 =
    pi/theta overflows is outside the closed form's range and raises
    ValueError: kT underflows below about 2e-301 K, and xi1 overflows above
    about 3e306 K for BST. theta underflows to 0, and is taken as T = 0,
    only where hbar w_s itself does (w_s below about 2e-290 rad/s).
    """
    if not temperature:
        return 0.0
    kt = 2.0 * K_B * temperature
    theta = HBAR * omega_scale / kt if kt else math.inf
    if theta == math.inf or theta and math.pi / theta == math.inf:
        raise ValueError(f"temperature {temperature} K is outside the range of the closed "
                         f"form: theta = hbar w/2kT = {theta:.3g} and the Matsubara spacing "
                         f"pi/theta must be finite")
    return theta


# The kinds in the row order of the closed form's results
_KINDS = ("BA", "AB")

_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])       # x = (p1, p2, p1, p2) of X + signs * s


def _closed(rows, omega_scale, shifts):
    """Shift integrals of alpha_X against eta_Y by contour closure.

    Each row (poles_x, poles_y, T_y), the :func:`_alpha_poles` of X and Y,
    is one kind of integral; all rows are evaluated at all ``shifts`` (in
    working units, a list or a 1-d array) together. With
    alpha = sum_k r_k/(u - p_k), S(u) = alpha_X(u + s) + alpha_X(u - s) has
    poles x_i with coefficients a_i, and alpha_Y(u) - alpha_Y(-u) has poles
    y_j with coefficients b_j.
    Closing the contour in the upper half plane picks up the two upper
    poles q = -p_k of eta_Y and the poles of coth at the Matsubara
    frequencies i n xi1, whose sum is a digamma difference:

        J = 2 pi sum_k coth(theta q_k) S(q_k) r_k^Y
            - (2/xi1) sum_ij a_i b_j [F(w_j) - F(w_i)]/(w_j - w_i),

    with theta = hbar w_s/2kT, xi1 = pi/theta, w = 1 + z, z = i x/xi1 and
    F = digamma. At T = 0, coth -> sgn Re q, xi1 -> 1, w = i x and F = log,
    whose principal value on the cut serves the upper poles of an
    overdamped eta_Y, where sgn Re q = 0 (see :func:`_log`). The pair sum
    of a row takes one of three routes, chosen from its largest |z|,
    rho = (max|p_X| + the largest shift, max|p_Y|)/xi1: F = log at T = 0
    and digamma at rho > _RHO (:func:`_divided`, one call of F per route);
    at rho <= _RHO, psi(1 + z) = -gamma + sum_k (-1)^(k+1) zeta(k+1) z^k
    (Abramowitz & Stegun 6.3.14) makes it the series of :func:`_series`, of
    K = ceil(log eps/log rho) + 1 moments per pole at the largest rho of its
    rows, whose left-out terms sum to less than eps zeta(2) sum|a| sum|b|.
    A row with a material near critical damping is the mean of the closure
    over ``_CIRCLE`` (see there), its points evaluated as rows of the pass.

    What does not depend on the shifts is assembled in Python and passed
    to numpy as one packed complex array, nine lines of four per point of
    a row, so that a block costs the same few numpy calls whatever its
    rows, routes and size. Line 0 holds the poles of S at s = 0,
    (p1, p2, p1, p2) of X, to which the shifts add once, as (-s, -s, s, s);
    lines 1 and 2 the residue weights 2 pi coth(theta q_k) b_k a_i, with
    coth from numpy's tanh; line 3 q1, q2, the scale from x to the
    argument of F (-i/xi1 for a series, giving t = -z; i/xi1 otherwise)
    and a series' bound on the sizes of its pair terms (0 otherwise);
    line 4 the y_j at that scale, plus 1 in a digamma row; lines 5 to 8 a
    series' a_i and b_j (-2/xi1), or the products -2/xi1 a_i b_j, i by j.
    Each value takes the floating-point operations, in their order, of an
    evaluation that builds these arrays in numpy, except that the complex
    residues near critical damping take Python's complex products, which
    round once more than numpy's fused ones.

    Returns complex J and its roundoff estimate 10 eps sum|terms| (a
    series' pair terms by :func:`_series_size`, a circle's as the mean of
    its points'), arrays of shape (rows, shifts); Im J vanishes up to
    roundoff. The estimate leaves out the conditioning of J in the shift
    and the material constants. Near the rotational resonance s ~ 2W' that
    dominates: against a 40-digit evaluation of the same closure, warm rows
    within 2W' +/- 3 gamma erred by up to 3.2 times the estimate for BST
    (gamma0/wt0 = 0.049) and 861 times at gamma0/wt0 = 1e-4 (1.7e-7 of J).
    """
    # a sweep's shifts come as an array, a one-point call's as a short list
    reach = (float(np.abs(shifts).max()) if isinstance(shifts, np.ndarray)
             else max(map(abs, shifts)))
    points = [(_pole_points(px, py), t and HBAR * omega_scale / (2.0 * K_B * t))
              for px, py, t in rows]            # as _theta forms it, 0 at T = 0
    coth = iter((1.0 / np.tanh([theta * -p for row_points, theta in points if theta
                                for _, (poles_y, _) in row_points for p in poles_y])).tolist())
    flat, runs, rhos = [], {}, []
    for row_points, theta in points:
        xi1 = np.pi / theta if theta else 1.0
        for ((x1, x2), (r1, r2)), ((p1, p2), (b1, b2)) in row_points:
            q1, q2 = -p1, -p2
            route = rho = 0
            if theta:
                # the largest |z|; the poles differ in modulus above critical damping
                rho = max(max(abs(x1), abs(x2)) + reach, abs(p1), abs(p2)) / xi1
                route = 1 if rho > _RHO else 2
                k1, k2 = next(coth), next(coth)
            else:
                k1, k2 = (q1.real > 0.0) - (q1.real < 0.0), (q2.real > 0.0) - (q2.real < 0.0)
            runs.setdefault(route, []).append(len(rhos))
            rhos.append(rho)
            w1, w2 = 2.0 * np.pi * k1 * b1, 2.0 * np.pi * k2 * b2
            u11, u12, u21, u22 = w1 * r1, w1 * r2, w2 * r1, w2 * r2
            f, m = -2.0 / xi1, (-1j if route == 2 else 1j) / xi1
            flat += (x1, x2, x1, x2, u11, u12, u11, u12, u21, u22, u21, u22, q1, q2, m)
            if route == 2:
                b1, b2 = b1 * f, b2 * f
                size = _series_size(rho) * 4.0 * (abs(r1) + abs(r2)) * (abs(b1) + abs(b2))
                flat += (size, p1 * m, p2 * m, q1 * m, q2 * m, r1, r2, r1, r2, b1, b2, b1, b2,
                         *(0.0,) * 8)
            else:
                v11, v12, v21, v22 = f * r1 * b1, f * r1 * b2, f * r2 * b1, f * r2 * b2
                flat += (0.0, p1 * m + route, p2 * m + route, q1 * m + route, q2 * m + route,
                         *(v11, v12, v11, v12, v21, v22, v21, v22) * 2)
    n = len(rhos)
    packed = np.array(flat, dtype=complex).reshape(n, 9, 4)

    x = packed[:, None, 0] + np.multiply.outer(shifts, _SIGNS)    # (rows, shifts, 4)
    residues = packed[:, None, 1:3] / (packed[:, None, 3, :2, None] - x[:, :, None])
    total = residues.sum(axis=(2, 3))
    size = np.abs(residues).sum(axis=(2, 3)) + packed[:, 3, 3, None].real
    w = x * packed[:, 3, 2, None, None]
    for route, run in runs.items():
        # the points of a route, as a slice where they are contiguous
        rho = max(rhos[point] for point in run)
        if run[-1] - run[0] == len(run) - 1:
            run = slice(run[0], run[-1] + 1)
        if route == 2:
            t = np.concatenate((packed[run, None, 4], w[run]), axis=1)
            total[run] += _series(t, packed[run, 5], packed[run, 6], rho)
        else:
            wx = w[run] + 1.0 if route else w[run]      # w = 1 + z for digamma
            pairs, pair_size = _divided(wx, packed[run, 4], packed[run, None, 5:],
                                        (_log, _digamma)[route])
            total[run] += pairs
            size[run] += pair_size
    roundoff = _ROUNDOFF * size
    if n > len(rows):                                   # each row's mean over its points
        sizes = np.array([max(len(px), len(py)) for px, py, _ in rows])
        starts = np.cumsum(sizes) - sizes
        total = np.add.reduceat(total, starts) / sizes[:, None]
        roundoff = np.add.reduceat(roundoff, starts) / sizes[:, None]
    return total, roundoff


def _divided(wx, wy, ab, fn):
    """Pair sums of rows that take F = ``fn`` directly: (sum, sum of term sizes).

    ``wx`` (rows, shifts, poles) and ``wy`` (rows, poles) are the arguments
    w of the poles of X at each shift and of Y, and ``ab`` (rows, 1, poles,
    poles) the products -2/xi1 a_i b_j. F is log at T = 0 (w = z) and
    digamma otherwise (w = 1 + z). Nearly coincident w_i, w_j (equal
    dampings of X and Y) take the divided difference as two-point
    Gauss-Legendre quadrature of F' over the segment, which cancels
    nothing; one call of ``fn`` gives F at every w and F' at those nodes,
    which come last in its arguments.
    """
    wi = wx[..., None]
    h = wy[:, None, None, :] - wi                       # (rows, shifts, poles, poles)
    mid = wi + 0.5 * h
    near = np.abs(h) < _NEAR * np.abs(mid)
    m, d = mid[near], _GAUSS2 * h[near]
    i, j = wx.size, wx.size + wy.size
    f, df = fn(np.concatenate([wx.ravel(), wy.ravel(), m - d, m + d]), j)
    fx, fy = f[:i].reshape(wx.shape)[..., None], f[i:j].reshape(wy.shape)[:, None, None, :]
    h = np.where(near, 1.0, h)
    dd = (fy - fx) / h
    if m.size:
        dd[near] = 0.5 * (df[:m.size] + df[m.size:])
    pairs = ab * dd
    # terms cancel by up to five orders of magnitude (near the resonant zero
    # crossing of BA, and as gamma -> 0); a digamma difference counts with
    # both of its values
    pair_size = np.where(near, np.abs(pairs),
                         np.abs(ab) * (np.abs(fy) + np.abs(fx)) / np.abs(h))
    return pairs.sum(axis=(2, 3)), pair_size.sum(axis=(2, 3))


def _series(t, a, b, rho):
    """Pair sums of warm rows with every |z| <= rho <= _RHO, as a zeta series.

    With t = -z the signs (-1)^(m+n) go into the moments: the sums, shape
    (rows, shifts), are sum_mn zeta(m+n+2) sum_i a_i t_i^m sum_j b_j t_j^n
    over the coefficients ``a`` and ``b`` (rows, poles; b times -2/xi1). ``t``
    (rows, 1 + shifts, poles) holds the t of Y and then of X at each shift,
    so that one call raises all of them to their powers.
    """
    terms = _series_terms(rho)
    powers = t[..., None] ** _POWERS[:terms]           # (rows, 1 + shifts, poles, terms)
    moments_y = (b[:, None, None, :] @ powers[:, :1]) @ _HANKEL[:terms, :terms]
    moments_x = a[:, None, None, :] @ powers[:, 1:]    # (rows, shifts, 1, terms)
    return (moments_x @ moments_y[:, :, 0, :, None])[..., 0, 0]


def _closed_kinds(ctx, shifts):
    """Closed-form BA and AB integrals of a context at working-unit shifts.

    BA integrates alpha_A against eta_B at T_B, and AB alpha_B against
    eta_A at T_A; equal scaled materials at equal temperatures make them one
    row of ``ctx._rows``. Returns (complex values, roundoff) of shape
    (2, shifts), rows in ``_KINDS`` order, from one evaluation of :func:`_closed`.
    """
    values, roundoff = _closed(ctx._rows, ctx._scaled[0], shifts)
    if len(ctx._rows) == 1:                 # one row serves both kinds
        values, roundoff = np.concatenate((values, values)), np.concatenate((roundoff, roundoff))
    return values, roundoff


def _positive(rel_tol, what):
    """``rel_tol``, or DEFAULT_REL_TOL for None; ValueError, named for ``what``, unless > 0."""
    rel = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    if not rel > 0.0:
        raise ValueError(f"{what}: rel_tol must be > 0, got {rel}")
    return rel


def _fails(real, imag, roundoff, rel):
    """Whether closed-form values fail rel_tol ``rel``; floats or arrays alike.

    A value fails if it is not finite (at any rel_tol, inf included), if
    its imaginary residue exceeds its roundoff estimate, or if the estimate
    exceeds both ``DEFAULT_ABS_TOL`` and rel |value|; rel_tol inf passes
    every finite value's estimate.
    """
    # inf times a zero value would warn
    bound = np.maximum(DEFAULT_ABS_TOL, rel * abs(real)) if rel < math.inf else math.inf
    return ~np.isfinite(real) | (abs(imag) > roundoff) | (roundoff > bound)


def _failure(what, value, roundoff, imag, rel):
    """The error of a failing closed-form value: not finite, its residue, then rel_tol."""
    if not math.isfinite(value):
        return ConvergenceError(f"{what}: value is not finite ({value})",
                                value=value, estimate=roundoff)
    if abs(imag) > roundoff:
        return ArithmeticError(
            f"{what}: imaginary residue {imag:.3e} exceeds the "
            f"roundoff estimate {roundoff:.3e}; closed form violated")
    return ConvergenceError(
        f"{what}: rel_tol {rel:.1e} is below the closed form's "
        f"roundoff estimate {roundoff:.3e} (value {value:.6e})",
        value=value, estimate=roundoff)


# Points per closed-form evaluation: its shifts times a shift's points, one per
# kind row and closure point (8 near critical damping), so 64 shifts at the
# most points a shift has. It bounds the transient arrays of _closed, whose
# traced peak at the cap is about 1.0 MB for series rows, 1.9 MB for T = 0
# rows and 2.2 MB for digamma rows (BST at 300, 0 and 0.05 K), and 5.1 MB for
# a digamma row whose pole pairs are all near (shifts near 0).
_BLOCK = 1024


def clear_cache():
    """Do nothing: no shift integral is cached. Kept because the benchmark's worker calls it."""


def _check(ctx, what, shifts, omega_a, omega_b, rel_tol):
    """The rel_tol of an energy call, once its inputs are checked; nothing is evaluated.

    ``shifts`` are the working-unit shifts of the rates ``omega_a``,
    ``omega_b`` (rad/s): the rates of a one-point call, or a sweep's row
    with the largest shift. Raises ValueError, in this order, for a
    non-finite rate or shift, for a largest shift that takes the Doppler
    images out of the non-retarded regime, and for a rel_tol that is not
    > 0, named for ``what``.
    """
    if not all(map(math.isfinite, shifts)):     # max() would skip a NaN
        for name, rate in (("Omega_A", omega_a), ("Omega_B", omega_b)):
            if not math.isfinite(rate):
                raise ValueError(f"{name} = {rate} rad/s: rotation rates must be finite")
        raise ValueError(f"Omega_A = {omega_a} rad/s, Omega_B = {omega_b} rad/s: "
                         f"a shift |s Omega_A - t Omega_B| overflows")
    # a Doppler image of a resonance sits up to the shift above it, so the
    # largest shift adds to the fastest rate w of the spheres in R w/c
    reach = ctx._reach + ctx._reach_shift * max(shifts)
    if not reach <= MAX_RETARDATION:
        raise ValueError(
            f"Omega_A = {omega_a} rad/s, Omega_B = {omega_b} rad/s: the Doppler images "
            f"leave the non-retarded regime: R w/c = {reach:.3g} exceeds "
            f"{MAX_RETARDATION}, w the largest resonance or damping rate of the "
            f"spheres plus the largest shift |s Omega_A - t Omega_B|")
    return _positive(rel_tol, what)


def _checked(ctx, shifts, rel):
    """BA + AB at each working-unit shift in ``shifts``, checked at ``rel``.

    ``shifts`` is a list or a 1-d array. Both kinds of every shift are
    evaluated in blocks of at most ``_BLOCK`` points, one :func:`_closed`
    call on the context's rows each, and judged by :func:`_fails`, one
    array call per block; a row that serves both kinds (identical spheres)
    is judged once, as BA, and counts twice in the sum. Returns the sums,
    an array, and a dict from the index of each shift that fails to the
    error of its first failing kind, BA before AB, as :func:`_failure`
    builds it.
    """
    sums, failures = np.empty(len(shifts)), {}
    rows, omega_scale = ctx._rows, ctx._scaled[0]
    step = _BLOCK // (len(rows) * max(map(len, ctx._poles)))
    for start in range(0, len(shifts), step):
        values, roundoff = _closed(rows, omega_scale, shifts[start:start + step])
        real, imag = values.real, values.imag
        fails = _fails(real, imag, roundoff, rel)
        sums[start:start + step] = real[0] + real[-1]
        if fails.any():
            for j in np.flatnonzero(fails.any(axis=0)).tolist():
                k = 0 if fails[0, j] else 1
                failures[start + j] = _failure(f"energy_{_KINDS[k]}",
                                               *(float(a[k, j]) for a in (real, roundoff, imag)),
                                               rel)
    return sums, failures


def sweep_energies(ctx, terms, omega_a, omega_b, rel_tol=None):
    """Energies (J) of an arrangement at many rate pairs, and at rest, from one evaluation.

    ``terms`` are the arrangement's ``(s, t, c)`` weights (see
    :func:`general_energy`) and ``omega_a``, ``omega_b`` the rates of each
    row (rad/s). The shifts x = |s Omega_A - t Omega_B|/ws of every row and
    term, and 0 for the rest energy E(0, 0), are evaluated once each, in
    blocks, and checked at ``rel_tol`` as :func:`_checked` checks them; a
    row is 2 sum c (BA + AB) over its terms, in term order.

    Returns ``(energies, rest, errors)``: the energy of each row as a 1-d
    float array, E(0, 0) as a float, and a dict from the index of each row
    that fails, or None for the rest energy, to the error of its first
    failing term in term order (its residue, then its rel_tol), as
    :func:`general_energy` raises it. A failing row's energy is NaN. The
    rates may be arrays or sequences of floats. The inputs are checked as
    :func:`_check` checks them, at the first row with a non-finite shift,
    else the first with the largest shift, before any evaluation.
    """
    s, t, c = zip(*terms)
    wa, wb = np.append(omega_a, 0.0), np.append(omega_b, 0.0)    # the rest energy last
    # an overflow reaches no value unjudged: _check rejects a non-finite
    # shift and _fails every non-finite value, so numpy need not warn of it;
    # the rows' sums are inside too, where values that failed may overflow
    with np.errstate(all="ignore"):
        x = np.abs(np.multiply.outer(wa, s) - np.multiply.outer(wb, t)) / ctx._scaled[0]
        # the row of the largest shift; if that is NaN or infinite, the first row not finite
        top = int(x.argmax())
        k = top // x.shape[1]
        if not math.isfinite(x.flat[top]):
            k = int(np.isfinite(x).all(axis=1).argmin())
        rel = _check(ctx, "sweep_energies", x[k].tolist(), float(wa[k]), float(wb[k]), rel_tol)
        shifts, inverse = np.unique(x, return_inverse=True)
        inverse = inverse.reshape(x.shape)
        sums, failures = _checked(ctx, shifts, rel)
        values = sums[inverse]                              # (rows + 1, terms)
        total = np.zeros(len(wa))
        for j, weight in enumerate(c):
            total += weight * values[:, j]
        energies = 2.0 * ctx._joules * total
    errors = {}
    if failures:
        failed = np.zeros(len(shifts), dtype=bool)
        failed[list(failures)] = True
        hits = failed[inverse]
        for k in np.flatnonzero(hits.any(axis=1)).tolist():
            first = int(inverse[k, hits[k].argmax()])
            errors[k if k < len(wa) - 1 else None] = failures[first]
            energies[k] = math.nan
    return energies[:-1], float(energies[-1]), errors


def general_energy(ctx, terms, Omega_A, Omega_B, rel_tol=None):
    """Interaction energy of any arrangement from its weights (J).

    ``terms`` holds the arrangement's ``(s, t, c)`` weights (see
    :mod:`spinvdw.configurations`); the energy is
    2 sum c E(|s Omega_A - t Omega_B|), E the sum of the BA and AB
    integrals. One pass over the terms merges their weights by their exact
    shift, in first-seen order, as a sweep's shifts are keyed; the inputs
    are checked as :func:`_check` checks them, the distinct shifts
    evaluated and checked at ``rel_tol`` as :func:`_checked` checks them,
    in one evaluation, and c (BA + AB) summed over them. The first shift
    that fails raises what it failed (its residue, then its rel_tol).
    """
    ws = ctx._scaled[0]
    Omega_A, Omega_B = float(Omega_A), float(Omega_B)   # numpy's 0 * inf would warn
    weights = {}                        # shift -> summed c
    for s, t, c in terms:
        x = abs(s * Omega_A - t * Omega_B) / ws
        weights[x] = weights.get(x, 0.0) + c
    shifts = list(weights)
    rel = _check(ctx, "general_energy", shifts, Omega_A, Omega_B, rel_tol)
    sums, failures = _checked(ctx, shifts, rel)
    if failures:
        raise failures[min(failures)]
    total = 0.0
    for c, value in zip(weights.values(), sums.tolist()):
        total += c * value
    return 2.0 * ctx._joules * total


def _single(ctx, Omega, which, rel_tol):
    """The energy (J) of the ``which`` integral alone, checked as a weighted sum's terms."""
    x = abs(Omega) / ctx._scaled[0]
    rel = _check(ctx, f"energy_{which}", [x], Omega, 0.0, rel_tol)
    values, roundoff = _closed_kinds(ctx, [x])
    k = _KINDS.index(which)
    value, roundoff = complex(values[k, 0]), float(roundoff[k, 0])
    if _fails(value.real, value.imag, roundoff, rel):
        raise _failure(f"energy_{which}", value.real, roundoff, value.imag, rel)
    return ctx._joules * value.real


def energy_BA(ctx, Omega, rel_tol=None):
    """Energy from dipole fluctuations in B driving a Doppler-shifted A (J).

    -A/R^6 * integral dw [alpha_A(w+Omega) + alpha_A(w-Omega)] eta_B(w)
    with A = hbar/(512 pi^3 eps0^2). Real by symmetry; the imaginary
    residue is checked against the error estimate before being discarded,
    and the estimate against ``rel_tol``, as :func:`general_energy` checks them.
    """
    return _single(ctx, Omega, "BA", rel_tol)


def energy_AB(ctx, Omega, rel_tol=None):
    """Energy from Doppler-shifted fluctuations in A driving B (J); checked as energy_BA."""
    return _single(ctx, Omega, "AB", rel_tol)


def aux_energy(ctx, Omega, rel_tol=None):
    """Auxiliary building-block energy E(Omega) = E_{A->B} + E_{B->A} (J).

    Even in Omega; the energy of every arrangement is a weighted sum of
    values of this function (see :mod:`spinvdw.configurations`).
    """
    return general_energy(ctx, ((1.0, 0.0, 0.5),), Omega, 0.0, rel_tol)     # 2 c = 1
