"""Electromagnetic response of a nanosphere at rest.

Single-oscillator Lorentz permittivity, the dipole polarizability of a small
sphere made of that material, and the thermal Hadamard (symmetrized
fluctuation) spectrum obtained from the equilibrium fluctuation-dissipation
relation. Everything here is rest-frame and isotropic; the rotational
Doppler shifts enter through the weights of :mod:`spinvdw.configurations`
and the shifted integrals of :mod:`spinvdw.spectral`.
"""

import math

import numpy as np

__all__ = [
    "HBAR", "K_B", "EPS0", "C_LIGHT",
    "PoleProximityError", "MaterialModel", "SpinningSphere",
    "bst", "permittivity", "polarizability", "hadamard",
    "resonance_frequency", "im_polarizability_over_omega",
]

# CODATA 2022 values; HBAR is h/2pi in double precision.
HBAR = 1.0545718176461565e-34   # J s
K_B = 1.380649e-23              # J/K (exact)
EPS0 = 8.8541878188e-12         # F/m
C_LIGHT = 299792458.0           # m/s (exact)

# Barium strontium titanate, polaritonic resonance only (GHz range).
BST_F0 = 12.2
BST_OMEGA_TILDE0 = 5.7e9   # rad/s
BST_GAMMA0 = 2.8e8         # rad/s


class PoleProximityError(ArithmeticError):
    """Response function evaluated at (or numerically on top of) a pole."""


class _Value:
    """Equality, hash, repr and read-only fields of a value class.

    What ``dataclass(frozen=True)`` gives, without the cost of generating
    its methods at import. The fields are the parameters of a subclass's
    ``__init__``, which passes their values, in order, to this one, then
    checks them.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MaterialModel(_Value):
    """Single Lorentz oscillator: eps(w)/eps0 = 1 + f0*wt0^2/(wt0^2 - w^2 - i*g0*w).

    Parameters
    ----------
    f0 : float
        Dimensionless oscillator strength, > 0.
    omega_tilde0 : float
        Bare oscillator angular frequency (rad/s), > 0.
    gamma0 : float
        Damping rate (rad/s), >= 0. Zero gives the dissipationless model.
    """

    def __init__(self, f0, omega_tilde0, gamma0):
        super().__init__(f0, omega_tilde0, gamma0)
        if not (self.f0 > 0):
            raise ValueError(f"f0 must be > 0, got {self.f0}")
        if not (self.omega_tilde0 > 0):
            raise ValueError(f"omega_tilde0 must be > 0, got {self.omega_tilde0}")
        if not (self.gamma0 >= 0):
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")

    def scaled(self, omega_scale):
        """Same material with all frequencies expressed in units of omega_scale."""
        return MaterialModel(self.f0, self.omega_tilde0 / omega_scale,
                             self.gamma0 / omega_scale)


def bst(gamma_scale=1.0):
    """BST material model; gamma_scale rescales the damping (for oracle checks)."""
    return MaterialModel(BST_F0, BST_OMEGA_TILDE0, BST_GAMMA0 * gamma_scale)


class SpinningSphere(_Value):
    """A nanosphere with an internal temperature.

    Its spin axis belongs to the arrangement and its spin rate is an
    argument of the energy functions (:mod:`spinvdw.configurations`).

    Parameters
    ----------
    radius : float
        Sphere radius (m), > 0.
    material : MaterialModel
    temperature : float
        Internal temperature (K), finite and >= 0. Zero is treated exactly
        (coth -> sgn).
    """

    def __init__(self, radius, material, temperature=300.0):
        super().__init__(radius, material, temperature)
        if not (self.radius > 0):
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if not (self.temperature >= 0):
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        # theta = hbar w/2kT would be 0, which the closed form takes for T = 0
        if self.temperature == math.inf:
            raise ValueError(f"temperature must be finite, got {self.temperature}")


def resonance_frequency(material):
    """Polaritonic resonance w0 = wt0*sqrt(1 + f0/3) of a sphere of this material."""
    return material.omega_tilde0 * math.sqrt(1.0 + material.f0 / 3.0)


def permittivity(material, omega):
    """Relative permittivity eps(w)/eps0 of the single-oscillator model.

    Accepts real, complex, or array ``omega``. On the positive imaginary
    axis (w = i*xi, xi > 0) the result is real and >= 1.

    Raises
    ------
    PoleProximityError
        If the oscillator denominator vanishes (dissipationless pole hit).
    """
    w = np.asarray(omega)
    denom = material.omega_tilde0**2 - w * w - 1j * material.gamma0 * w
    scale = material.omega_tilde0**2 + np.abs(w) ** 2
    if np.any(np.abs(denom) < np.maximum(1e-300, 1e-13 * scale)):
        raise PoleProximityError(
            f"permittivity pole hit at omega={omega!r} "
            f"(material wt0={material.omega_tilde0}, gamma0={material.gamma0})")
    eps = 1.0 + material.f0 * material.omega_tilde0**2 / denom
    return complex(eps) if np.isscalar(omega) else eps


def _alpha_reduced(material, omega):
    """Polarizability in units of 4*pi*eps0*a^3 (Clausius-Mossotti form)."""
    w0sq = material.omega_tilde0**2 * (1.0 + material.f0 / 3.0)
    denom = w0sq - omega * omega - 1j * material.gamma0 * omega
    scale = w0sq + np.abs(omega) ** 2
    if np.any(np.abs(denom) < np.maximum(1e-300, 1e-13 * scale)):
        raise PoleProximityError(
            f"polarizability pole hit at omega={omega!r}")
    return material.f0 * material.omega_tilde0**2 / (3.0 * denom)


def polarizability(sphere, omega):
    """Dipole polarizability alpha(w) of the sphere (SI, C m^2/V).

    alpha(w) = 4*pi*eps0*a^3 * f0*wt0^2 / [3*(w0^2 - w^2 - i*g0*w)] with
    w0 the polaritonic resonance. Re alpha is even in w, Im alpha is odd,
    and Im alpha(w) > 0 for w > 0 whenever gamma0 > 0 (passivity).
    """
    scale = 4.0 * np.pi * EPS0 * sphere.radius**3
    a = scale * _alpha_reduced(sphere.material, np.asarray(omega, dtype=float))
    return complex(a) if np.isscalar(omega) else a


def _im_alpha_over_omega_reduced(material, omega):
    """Im alpha(w)/w in reduced units; finite and even, no w=0 singularity."""
    w = np.asarray(omega, dtype=float)
    w0sq = material.omega_tilde0**2 * (1.0 + material.f0 / 3.0)
    dsq = (w0sq - w * w)**2 + (material.gamma0 * w)**2
    return material.f0 * material.omega_tilde0**2 * material.gamma0 / (3.0 * dsq)


def im_polarizability_over_omega(sphere, omega):
    """Im alpha(w)/w in SI units; the w -> 0 limit is the dc noise slope."""
    scale = 4.0 * np.pi * EPS0 * sphere.radius**3
    return scale * _im_alpha_over_omega_reduced(sphere.material, omega)


def _omega_coth_kernel(omega, temperature, omega_scale=1.0):
    """w*coth(hbar*w/2kT), smooth and even; equals |w| at T = 0.

    ``omega`` is measured in units of ``omega_scale``. The small-argument
    branch keeps the kernel finite and accurate through w = 0.
    """
    w = np.asarray(omega, dtype=float)
    if temperature == 0.0:
        return np.abs(w)
    theta = HBAR * omega_scale / (2.0 * K_B * temperature)
    x = theta * w
    small = np.abs(x) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = w / np.tanh(x)
    series = (1.0 + x * x / 3.0) / theta
    return np.where(small, series, direct)


def hadamard(sphere, omega, temperature=None):
    """Rest-frame Hadamard spectrum eta(w) = 2*coth(hbar*w/2kT)*Im alpha(w).

    Real, even in w, and >= 0. At w = 0 and T > 0 the coth pole cancels
    against Im alpha ~ w; the implementation uses the product form
    eta = 2*[w*coth(hbar*w/2kT)]*[Im alpha(w)/w], which is smooth through
    zero, so no special-casing is needed at w = 0. At T = 0 exactly this
    reduces to 2*sgn(w)*Im alpha(w).

    Parameters
    ----------
    sphere : SpinningSphere
        Evaluated at rest; this is the isotropic scalar eta.
    omega : float or ndarray
        Angular frequency (rad/s).
    temperature : float, optional
        Defaults to ``sphere.temperature``.
    """
    if temperature is None:
        temperature = sphere.temperature
    if temperature > 0 and sphere.material.gamma0 == 0.0:
        raise ValueError("finite-temperature Hadamard needs gamma0 > 0")
    kernel = _omega_coth_kernel(omega, temperature)
    eta = 2.0 * kernel * im_polarizability_over_omega(sphere, omega)
    return float(eta) if np.isscalar(omega) else eta
