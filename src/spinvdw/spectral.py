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
(equal materials at equal temperatures) make the two integrals one row.
The Matsubara sum of a row takes one of three closed forms: logarithms at
T = 0; at T > 0, a power series with zeta-function coefficients when every
Matsubara argument z = i x/xi1 has |z| <= 1/4 (GHz resonances at kelvin
temperatures and above); otherwise digamma functions.

The closure serves every damping gamma0 > 0. Below critical damping
(gamma0 < 2 w0) the two poles of alpha lie off the imaginary axis; above
it they lie on it, and at T = 0 the logarithms take their principal value
there. Near critical damping, where the two poles merge and their residues
diverge, a row is the mean of the closure over a small circle in the
squared pole splitting (see :func:`_closed`). gamma0 = 0 puts the poles on
the real axis and is rejected; :mod:`spinvdw.oracle` covers that limit.
The result carries a roundoff estimate; a tolerance below it raises
:class:`ConvergenceError` at once.

All integration happens in nondimensional units (frequencies in units of
sphere A's resonance, polarizabilities in units of 4*pi*eps0*a^3); SI
joules appear only in the returned values.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .response import HBAR, K_B, UnitSystem, resonance_frequency

__all__ = [
    "ConvergenceError", "QuadratureSpec", "PairContext",
    "pair_quadrature_spec", "shift_integral",
    "energy_BA", "energy_AB", "aux_energy", "general_energy",
    "prefetch", "clear_cache", "cache_info", "DEFAULT_REL_TOL", "DEFAULT_ABS_TOL",
]

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12   # in working (nondimensional) energy units
MAX_SEPARATION = 1e-2     # non-retarded regime sanity bound (m)


class ConvergenceError(RuntimeError):
    """A spectral value cannot meet its tolerance.

    Raised when the roundoff estimate of a closed-form value exceeds the
    tolerance, and when a Matsubara sum of :mod:`spinvdw.baseline` hits its
    term cap. Carries the value and its estimate.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


# QuadratureSpec and pair_quadrature_spec describe the Gauss-Kronrod
# quadrature that serves as the tests' independent reference; no production
# value uses them. They stay here because the benchmark's tracer wraps
# spectral.pair_quadrature_spec by name and its smoke run requires the
# metrics derived from that span; the benchmark's next schema retires the name.
@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for one spectral integral by panel quadrature.

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


@dataclass(frozen=True)
class PairContext:
    """Two spheres and their distance; everything the shift integrals need.

    The directions (spin axes and line of centers) live in
    :class:`spinvdw.configurations.Arrangement` and the spin rates are
    arguments of the energy functions, so one context serves every
    arrangement and rotation state. What the integrals derive from the
    spheres (the unit system, the materials in working units, the poles of
    their polarizabilities and the cache key) is computed once, here.

    Parameters
    ----------
    sphere_a, sphere_b : response.SpinningSphere
    separation : float
        Center-to-center distance R (m); must exceed the summed radii
        (dipole approximation) and stay below ~1 cm (non-retarded regime).
        Both materials need gamma0 > 0.
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
        if not (ma.gamma0 > 0 and mb.gamma0 > 0):
            raise ValueError("gamma0 = 0 puts the poles of alpha on the real axis; "
                             "the undamped limit is spinvdw.oracle")
        ws = resonance_frequency(ma)
        a3 = self.sphere_a.radius**3 * self.sphere_b.radius**3
        scaled = (ma.scaled(ws), mb.scaled(ws))
        derived = {
            "_units": UnitSystem(ws, HBAR * ws * a3 / self.separation**6),
            "_scaled": (ws, *scaled),
            "_poles": tuple(map(_alpha_poles, scaled)),
            "_key": (ma.f0, ma.omega_tilde0, ma.gamma0,
                     mb.f0, mb.omega_tilde0, mb.gamma0,
                     self.sphere_a.radius, self.sphere_b.radius,
                     self.sphere_a.temperature, self.sphere_b.temperature,
                     self.separation),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def units(self):
        """Working unit system anchored to sphere A's resonance."""
        return self._units

    def swapped(self):
        return PairContext(self.sphere_b, self.sphere_a, self.separation)


def pair_quadrature_spec(ctx, shifts=(0.0,), rel_tol=None, lo=None, hi=None):
    """Quadrature controls for a pair integral with the given Doppler shifts.

    Breakpoints sit at 0, at both polaritonic resonances, at every
    Doppler image resonance +/- shift, and at +/- shift, where a shifted
    zero-temperature spectrum has its kink; the window extends 50x beyond the
    outermost relevant scale (a Doppler image, or the damping of an
    overdamped material, whose spectrum reaches out to gamma0) so the tail
    fit only sees the power-law decay.
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
    return QuadratureSpec(
        rel_tol=DEFAULT_REL_TOL if rel_tol is None else rel_tol,
        abs_tol=DEFAULT_ABS_TOL,
        breakpoints=tuple(sorted(bps)),
        window=window, seed_width=min(mat_a.gamma0, mat_b.gamma0) / 8.0, lo=lo, hi=hi)


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
    """The poles of two materials at each point an integral of them is taken at.

    ``sets_x`` and ``sets_y`` are :func:`_alpha_poles` of the two. A list of
    (poles and residues of X, of Y): one point, or the points of
    ``_CIRCLE`` when either material is near critical damping. Two such
    materials take the same point together: J is analytic in both W'^2, so
    its mean along the one circle through both is still its centre value.
    """
    n = max(len(sets_x), len(sets_y))
    return list(zip(sets_x * (n // len(sets_x)), sets_y * (n // len(sets_y))))


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
    """log(w) and its derivative, the T = 0 limit of the digamma terms.

    On the cut, w real and negative, log takes its principal value log|w|,
    the mean of its limits from either side. The upper poles of an
    overdamped alpha land there, and their residues take coth -> sgn Re q,
    which is 0 on the imaginary axis: the jumps of the two cancel.
    """
    f = np.log(w)
    f.imag[w.imag == 0.0] = 0.0       # changes nothing for w > 0
    return f, 1.0 / w


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

    Each row (poles_x, poles_y, T_y), the :func:`_alpha_poles` of X and Y,
    is one kind of integral, and all rows are evaluated at all ``shifts``
    (in working units) together. With
    alpha = sum_k r_k/(u - p_k), S(u) = alpha_X(u + s) + alpha_X(u - s) has
    poles x_i with coefficients a_i, and alpha_Y(u) - alpha_Y(-u) has poles
    y_j with coefficients b_j. Closing the contour in the upper half plane
    picks up the two upper poles q = -p_k of eta_Y and the poles of coth at
    the Matsubara frequencies i n xi1, whose sum is a digamma difference:

        J = 2 pi sum_k coth(theta q_k) S(q_k) r_k^Y
            - (2/xi1) sum_ij a_i b_j [F(w_j) - F(w_i)]/(w_j - w_i),

    with theta = hbar w_s/2kT, xi1 = pi/theta, w = 1 + z, z = i x/xi1 and
    F = digamma. At T = 0, coth -> sgn Re q, xi1 -> 1, w = i x and F = log,
    whose principal value on the cut serves the upper poles of an
    overdamped eta_Y, where sgn Re q = 0 (see :func:`_log`). The residues of all rows come from one pass. The pair sum of a row
    takes one of three routes, chosen before evaluating from its largest
    |z|, rho = (max|p_X| + the largest shift, max|p_Y|)/xi1:

    - T = 0 rows take F = log;
    - warm rows with rho > _RHO take F = digamma. In these two routes,
      nearly coincident w_i, w_j (equal dampings of X and Y) take the
      divided difference as two-point Gauss-Legendre quadrature of F'
      over the segment, which cancels nothing, and the F values of all
      their rows come from one call of each of log and digamma;
    - warm rows with rho <= _RHO expand psi(1 + z) = -gamma +
      sum_k (-1)^(k+1) zeta(k+1) z^k (Abramowitz & Stegun 6.3.14), so the
      pair sum is sum_mn (-1)^(m+n) zeta(m+n+2) A_m B_n over the moments
      A_m = sum_i a_i z_i^m of each shift and B_n = sum_j b_j z_j^n of the
      row, for m, n < K = ceil(log eps/log rho) + 1 with the largest rho
      of these rows. The terms left out sum to less than
      eps zeta(2) sum|a| sum|b|, a tenth of the roundoff estimate below,
      and no digamma is evaluated.

    A row with a material near critical damping is the mean of the
    closure over ``_CIRCLE`` (see there), its eight points evaluated as
    rows of the same pass.

    Returns complex J and its roundoff estimate 10 eps sum|terms|, arrays
    of shape (rows, shifts); Im J vanishes up to roundoff. A series counts
    sum_mn zeta(m+n+2) with the moments of |a|, |b| and |z|; a mean over
    the circle takes the mean of its points' estimates. The estimate leaves
    out the conditioning of J in the shift and the material constants,
    which every double-precision evaluation shares. Near the rotational
    resonance s ~ 2W' that conditioning dominates: against a 40-digit
    evaluation of the same closure, warm rows within 2W' +/- 3 gamma erred
    by up to 3.2 times the estimate for BST (gamma0/wt0 = 0.049) and 861
    times at gamma0/wt0 = 1e-4, a relative error of 1.7e-7.
    """
    reach = max(map(abs, shifts))
    points = [_pole_points(poles_x, poles_y) for poles_x, poles_y, _ in rows]
    built = []
    for (_, _, temperature), row_points in zip(rows, points):
        for (poles_x, rx), ((p1, p2), ry) in row_points:
            if temperature == 0.0:
                route, theta, xi1, rho = 0, 1.0, 1.0, 0.0   # theta unused: coth -> sgn Re q
            else:
                theta = HBAR * omega_scale / (2.0 * K_B * temperature)
                xi1 = np.pi / theta
                # the largest |z|; the poles differ in modulus above critical damping
                rho = max(max(map(abs, poles_x)) + reach, abs(p1), abs(p2)) / xi1
                route = 1 if rho > _RHO else 2
            built.append((route, poles_x, rx + rx, (p1, p2, -p1, -p2), ry + ry,
                          theta, xi1, rho))
    # rows by route: T = 0, digamma, series; log and digamma each take the
    # arguments of one contiguous run of rows
    order = sorted(range(len(built)), key=lambda r: built[r][0])
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
    if d < len(built):
        parts.append(_series(x[d:], y[d:], a[d:], b[d:], xi1[d:], max(rho[d:])))
    pairs, pair_size = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    total = residues.sum(axis=(2, 3)) + pairs
    roundoff = _ROUNDOFF * (np.abs(residues).sum(axis=(2, 3)) + pair_size)
    if order != sorted(order):
        back = np.argsort(order)
        total, roundoff = total[back], roundoff[back]
    if len(built) > len(rows):
        # each row's mean over its points
        sizes = np.array([len(row_points) for row_points in points])
        starts = np.cumsum(sizes) - sizes
        total = np.add.reduceat(total, starts) / sizes[:, None]
        roundoff = np.add.reduceat(roundoff, starts) / sizes[:, None]
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
    poles_a, poles_b = ctx._poles
    t_a, t_b = ctx.sphere_a.temperature, ctx.sphere_b.temperature
    ba = (poles_a, poles_b, t_b)
    rows = (ba,) if (mat_a, t_b) == (mat_b, t_a) else (ba, (poles_b, poles_a, t_a))
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


def shift_integral(ctx, Omega, which):
    """One reduced shift integral and its roundoff estimate, uncached.

    ``which`` is "BA" or "AB"; the value is the contour closure's, with its
    imaginary residue checked against the estimate and dropped.
    """
    values, roundoff = _closed_kinds(ctx, [abs(Omega) / ctx._scaled[0]])
    k = _KINDS.index(which)
    value, roundoff = complex(values[k, 0]), float(roundoff[k, 0])
    if abs(value.imag) > roundoff:
        raise _residue_error(which, value.imag, roundoff)
    return value.real, roundoff


# Sweeps revisit the same few shifts (E(0) on every row, sums and
# differences of the grid rates), so most lookups hit; a sweep evaluates
# all of its shifts up front (prefetch) and its rows only look them up.
# Single-threaded; nothing is ever evicted. Each pair has one table, found
# once per call under the context's ``_key``, so equal contexts share it
# (the presets share 420 values). An entry is keyed by slot and holds one
# evaluation flat, as the tuple (BA value, roundoff estimate, imaginary
# residue, AB value, roundoff estimate, imaginary residue), checked on
# every lookup against that lookup's rel_tol, so a bad shift fails only the
# lookups that use it.
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

    ``entries`` cached values (a slot holds two, one per kind), ``hits``
    and ``misses`` of the lookups (one per kind and distinct shift), and
    ``blocks``, the stacked closed-form evaluations of both kinds at up to
    ``_BLOCK`` shifts each.
    """
    entries = 2 * sum(map(len, _cache.values()))
    return dict(entries=entries, **_stats)


def _slot(shift):
    """Cache slot of a working-unit shift: |shift| quantized to 1e-12."""
    return round(shift / 1e-12)


def _table(ctx):
    """The pair's shift table, made on its first use."""
    table = _cache.get(ctx._key)
    if table is None:
        table = _cache[ctx._key] = {}
    return table


def _fill_closed(ctx, table, shifts):
    """Evaluate the entries of ``shifts``, a slot -> shift map.

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
    are evaluated in a few blocked passes, so the energies that follow are
    pure lookups.
    """
    ws = ctx._scaled[0]
    table = _table(ctx)
    shifts = {_slot(0.0): 0.0}
    for omega_a, omega_b in rate_pairs:
        for s, t, _ in terms:
            shift = abs(s * omega_a - t * omega_b) / ws
            shifts.setdefault(_slot(shift), shift)
    _fill_closed(ctx, table, {n: x for n, x in shifts.items() if n not in table})


def _lookup(ctx, weights, rel_tol, kinds=_KINDS):
    """Weighted sum of reduced shift integrals, sum c (sum of ``kinds``).

    ``weights`` maps each Omega to its weight c. Both integrals are even in
    Omega, so the cache key is the slot of |Omega|, and the misses of one
    call are evaluated, both kinds at once, in one blocked pass. A call for
    one kind reads the entries through a per-call table with zeros for the
    other. One walk over the shifts then checks both kinds' imaginary
    residue and roundoff estimate, the latter against
    max(abs_tol, rel_tol |value|), and sums.
    """
    rel = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    ws = ctx._scaled[0]
    table = _table(ctx)
    slots = [_slot(abs(om) / ws) for om in weights]
    distinct = set(slots)
    misses = 0
    if not table.keys() >= distinct:
        missing = {}                    # the shift evaluated for each slot
        for om, n in zip(weights, slots):
            if n not in table:
                missing.setdefault(n, abs(om) / ws)
        misses = len(kinds) * len(missing)
        _fill_closed(ctx, table, missing)
    _stats["misses"] += misses
    _stats["hits"] += len(kinds) * len(distinct) - misses
    if kinds == ("BA",):
        table = {n: table[n][:3] + (0.0, 0.0, 0.0) for n in distinct}
    elif kinds == ("AB",):
        table = {n: (0.0, 0.0, 0.0) + table[n][3:] for n in distinct}
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
