"""Dissipationless single-resonance closed forms.

For undamped Lorentz spheres at zero temperature the spectral integrals
collapse to rational functions of the rotation rate. These expressions are
kept deliberately independent of the contour closure of
:mod:`spinvdw.spectral` so they can serve as analytic references for it
(its damped integrals approach them linearly in gamma0). The model
diverges at the rotational resonances Omega = +/-(w0A +/- w0B);
evaluation inside a small exclusion radius of a pole is rejected rather
than returning huge numbers, since the divergence is an artifact of
neglecting dissipation.
"""

import math

from .response import EPS0, HBAR, _Value

__all__ = ["LorentzPair", "eba_closed", "eab_closed", "aux_closed",
           "ratio_aux", "ratio_rr", "ratio_uu", "PoleError"]

POLE_EXCLUSION = 1e-6  # in units of max(w0A, w0B)


class PoleError(ArithmeticError):
    """Closed-form evaluation requested inside the pole exclusion radius."""


class LorentzPair(_Value):
    """Two undamped Lorentz spheres: alpha(w) = alpha0*w0^2/(w0^2 - w^2).

    Parameters
    ----------
    alpha0A, alpha0B : float
        Static polarizabilities (SI, C m^2/V), > 0.
    omega0A, omega0B : float
        Resonance angular frequencies (rad/s), > 0.
    separation : float
        Center-to-center distance R (m), > 0.
    """

    def __init__(self, alpha0A, alpha0B, omega0A, omega0B, separation):
        super().__init__(alpha0A, alpha0B, omega0A, omega0B, separation)
        for name in self._fields:
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")

    def swapped(self):
        return LorentzPair(self.alpha0B, self.alpha0A, self.omega0B,
                           self.omega0A, self.separation)

    def _check_poles(self, Omega, poles):
        eps = POLE_EXCLUSION * max(self.omega0A, self.omega0B)
        for p in poles:
            if abs(abs(Omega) - abs(p)) < eps:
                raise PoleError(
                    f"Omega={Omega:g} within exclusion radius {eps:g} of the "
                    f"rotational resonance at {p:g} (undamped model diverges)")


def eba_closed(pair, Omega):
    """Energy contribution from B's fluctuations driving A, undamped model.

    E_{B->A}(Omega) =
        -hbar*a0A*a0B*w0A^2*w0B / (128 pi^2 eps0^2 R^6)
        * (w0A^2 - w0B^2 - Omega^2)
          / {[Omega^2 - (w0A+w0B)^2][Omega^2 - (w0A-w0B)^2]}

    For identical resonances the difference pole at Omega = 0 is removable
    (the Omega^2 factors cancel) and the reduced form
    -hbar*a0A*a0B*w0^3 / [128 pi^2 eps0^2 R^6 (4 w0^2 - Omega^2)] is used.
    The A->B companion follows by exchanging the spheres; see
    :func:`eab_closed`.
    """
    wa, wb = pair.omega0A, pair.omega0B
    pref = (HBAR * pair.alpha0A * pair.alpha0B * wa**2 * wb
            / (128.0 * math.pi**2 * EPS0**2 * pair.separation**6))
    if abs(wa - wb) <= 1e-12 * max(wa, wb):
        pair._check_poles(Omega, (wa + wb,))
        return -pref / (4.0 * wa**2 - Omega**2)
    pair._check_poles(Omega, (wa + wb, wa - wb))
    num = wa**2 - wb**2 - Omega**2
    den = (Omega**2 - (wa + wb)**2) * (Omega**2 - (wa - wb)**2)
    return -pref * num / den


def eab_closed(pair, Omega):
    """Energy contribution from A's Doppler-shifted fluctuations driving B."""
    return eba_closed(pair.swapped(), Omega)


def aux_closed(pair, Omega):
    """Auxiliary energy E(Omega) = E_{A->B} + E_{B->A}, undamped model (J)."""
    return eba_closed(pair, Omega) + eab_closed(pair, Omega)


def ratio_aux(pair, Omega):
    """E(Omega)/E(0) = (w0A+w0B)^2 / [(w0A+w0B)^2 - Omega^2]; R-independent."""
    s = pair.omega0A + pair.omega0B
    pair._check_poles(Omega, (s,))
    return s**2 / (s**2 - Omega**2)


def ratio_rr(omega0, Omega_AB):
    """E/E0 for both spheres spinning along the line of centers.

    (1/3)*[4 w0^2/(4 w0^2 - Omega_AB^2) + 2], identical undamped spheres;
    diverges at Omega_AB = +/-2 w0.
    """
    if abs(abs(Omega_AB) - 2.0 * omega0) < POLE_EXCLUSION * omega0:
        raise PoleError(f"Omega_AB={Omega_AB:g} at the 2*w0 resonance")
    return (4.0 * omega0**2 / (4.0 * omega0**2 - Omega_AB**2) + 2.0) / 3.0


def ratio_uu(omega0, Omega_A, Omega_B):
    """E/E0 for spheres spinning perpendicular to the line of centers.

    (w0^2/3)/(4 w0^2 - (Omega_A-Omega_B)^2)
    + 3 w0^2/(4 w0^2 - (Omega_A+Omega_B)^2) + 1/6,
    identical undamped spheres; poles where either combination hits 2 w0.
    """
    eps = POLE_EXCLUSION * omega0
    diff, tot = Omega_A - Omega_B, Omega_A + Omega_B
    for comb in (diff, tot):
        if abs(abs(comb) - 2.0 * omega0) < eps:
            raise PoleError(f"|Omega_A {'-' if comb is diff else '+'} Omega_B|"
                            f"={abs(comb):g} at the 2*w0 resonance")
    return ((omega0**2 / 3.0) / (4.0 * omega0**2 - diff**2)
            + 3.0 * omega0**2 / (4.0 * omega0**2 - tot**2) + 1.0 / 6.0)
