"""Arrangement energies, forces, and rotation-induced changes.

A sphere spinning at Omega about the unit axis n responds in the lab frame
as xi(w + Omega) P_+ + xi(w) P_0 + xi(w - Omega) P_-, for its
polarizability and its Hadamard spectrum alike. P_0 = n n^T, and

    P_+ = (1 - n n^T - i [n]x)/2,   P_- = conj P_+

are the circular-polarisation projectors about n, with [n]x the
cross-product matrix ([n]x v = n x v). Contracting both
spheres' tensors with the dipole kernel g = 1 - 3 rhat rhat^T makes the
energy of every arrangement a weighted sum of the auxiliary spectral
function E(Omega) of :func:`spinvdw.spectral.aux_energy`:

    E = 2 sum_{s,t in {+,0,-}} c_st E(s Omega_A - t Omega_B),
    c_st = Tr(g P_s^A g P_t^B)   (real and >= 0).

With Q = 1 - n n^T and N = [n]x, P_s = (Q - i s N)/2 for s = +-1, and
Tr(g Q_A g N_B) = Tr(g N_A g Q_B) = 0 (symmetric times antisymmetric), so
c_st = (T_QQ - s t T_NN)/4 with T_XY = Tr(g X_A g Y_B). In the dot products
p = a.b, u = a.rhat and v = b.rhat of the axes a, b, and q = p - 3uv = a^T g b,
g g = 1 + 3 rhat rhat^T and [a]x [b]x = b a^T - p give

    T_QQ = 4 - 3u^2 - 3v^2 + q^2,   T_NN = 4p - 6uv,
    c_00 = q^2,   c_0t = (1 + 3u^2 - q^2)/2,   c_s0 = (1 + 3v^2 - q^2)/2.

The weights depend only on the axis triple, so they are computed once per
arrangement. Since P_-s = conj P_s and g is real, c_(-s)(-t) = c_st, and E
is even, so each weight is folded into its mirror: an arrangement carries at
most five terms, (+,+), (+,0), (+,-), (0,+) and (0,0), and the canonical
kinds two, three, four and four. For the four canonical arrangements the
weights give

    rr (spins along the line):        4[E(dO) + 2E(0)]
    uu (spins transverse, parallel):  E(dO) + 9E(sO) + 2E(0)
    ur (one along, one transverse):   8E(O_A) + 2E(O_B) + E(dO) + E(sO)
    uo (transverse, crossed):         2E(O_A) + 2E(O_B) + 4E(dO) + 4E(sO)

with dO = Omega_A - Omega_B and sO = Omega_A + Omega_B. At rest all
arrangements reduce to E0 = 12 E(0), since the weights sum to Tr(g g) = 6.
Forces follow exactly from the R^-6 law: no numerical differentiation
anywhere.
"""

import enum
import math

from . import spectral

__all__ = ["ArrangementKind", "Arrangement", "energy", "rest_energy", "force",
           "delta_energy", "delta_force"]

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


class ArrangementKind(enum.Enum):
    RR = "rr"   # both spins along the line of centers
    UU = "uu"   # spins parallel, transverse to the line
    UR = "ur"   # A transverse, B along the line
    UO = "uo"   # spins crossed, both transverse
    GENERAL = "general"


# (axis_A, axis_B, rhat) for the canonical kinds
_CANONICAL_AXES = {
    ArrangementKind.RR: (Z_AXIS, Z_AXIS, Z_AXIS),
    ArrangementKind.UU: (Z_AXIS, Z_AXIS, X_AXIS),
    ArrangementKind.UR: (Z_AXIS, X_AXIS, X_AXIS),
    ArrangementKind.UO: (Z_AXIS, Y_AXIS, X_AXIS),
}


def _terms(axis_a, axis_b, rhat):
    """Non-negligible folded weights of an axis triple as (s, t, c) tuples.

    Each c_st is folded into its mirror c_(-s)(-t), which weighs the same
    shift, leaving (+,+), (+,0), (+,-), (0,+) and (0,0) (see the module
    docstring). Weights below 1e-14 of their sum, 6, are roundoff of exact
    zeros; dropping them spares the shift integrals they would multiply.
    """
    (a1, a2, a3), (b1, b2, b3), (r1, r2, r3) = axis_a, axis_b, rhat
    p = a1 * b1 + a2 * b2 + a3 * b3
    u = a1 * r1 + a2 * r2 + a3 * r3
    v = b1 * r1 + b2 * r2 + b3 * r3
    q = p - 3.0 * u * v
    t_qq = 4.0 - 3.0 * u * u - 3.0 * v * v + q * q
    t_nn = 4.0 * p - 6.0 * u * v
    folded = ((1.0, 1.0, 0.5 * (t_qq - t_nn)), (1.0, 0.0, 1.0 + 3.0 * v * v - q * q),
              (1.0, -1.0, 0.5 * (t_qq + t_nn)), (0.0, 1.0, 1.0 + 3.0 * u * u - q * q),
              (0.0, 0.0, q * q))
    return tuple(term for term in folded if term[2] > 6e-14)


_CANONICAL_TERMS = {kind: _terms(*axes) for kind, axes in _CANONICAL_AXES.items()}


def _unit_vector(v, name):
    try:
        u = tuple(float(c) for c in v)
    except (TypeError, ValueError):
        u = ()
    if len(u) != 3 or not abs(math.sqrt(sum(c * c for c in u)) - 1.0) <= 1e-12:    # NaN too
        raise ValueError(f"{name} must be a unit 3-vector, got {v!r}")
    return u


class Arrangement:
    """Geometric configuration of the two spin axes and the line of centers.

    ``axis_a`` and ``axis_b`` are the spin axes and ``rhat`` the unit vector
    from A to B; the canonical kinds fix all three.
    """

    def __init__(self, kind, axis_a=None, axis_b=None, rhat=None):
        kind = ArrangementKind(kind)
        if kind is ArrangementKind.GENERAL:
            if axis_a is None or axis_b is None or rhat is None:
                raise ValueError("general arrangement needs axis_a, axis_b, rhat")
            self.axis_a = _unit_vector(axis_a, "axis_a")
            self.axis_b = _unit_vector(axis_b, "axis_b")
            self.rhat = _unit_vector(rhat, "rhat")
            self._terms = _terms(self.axis_a, self.axis_b, self.rhat)
        else:
            if any(v is not None for v in (axis_a, axis_b, rhat)):
                raise ValueError(f"{kind.value} arrangement has fixed axes")
            self.axis_a, self.axis_b, self.rhat = _CANONICAL_AXES[kind]
            self._terms = _CANONICAL_TERMS[kind]
        self.kind = kind

    def __repr__(self):
        return f"Arrangement({self.kind.value})"


def energy(ctx, arrangement, Omega_A, Omega_B, rel_tol=None):
    """Interaction energy for any arrangement (J).

    Evaluates the arrangement's weights with
    :func:`spinvdw.spectral.general_energy`: one auxiliary integral per
    distinct shift |s Omega_A - t Omega_B|, all in one evaluation, each
    checked at ``rel_tol``.
    """
    return spectral.general_energy(ctx, arrangement._terms, Omega_A, Omega_B, rel_tol)


def rest_energy(ctx, rel_tol=None):
    """vdW energy of the non-rotating pair, E0 = 12 E(0) (J)."""
    return 12.0 * spectral.aux_energy(ctx, 0.0, rel_tol)


def force(ctx, arrangement, Omega_A, Omega_B, rel_tol=None):
    """Radial force component (N); negative = attraction.

    Every energy term scales exactly as R^-6, so F = -dE/dR = 6E/R with no
    numerical differentiation.
    """
    return 6.0 * energy(ctx, arrangement, Omega_A, Omega_B, rel_tol) / ctx.separation


def delta_energy(ctx, arrangement, Omega_A, Omega_B, rel_tol=None):
    """Rotation-induced energy change E(Omega) - E(0,0) (J).

    One weighted shift sum: the arrangement's weights plus -sum c at zero
    shift, since every term of the rest energy sits there. Its shifts and 0
    are evaluated together.
    """
    rest = (0.0, 0.0, -sum(c for _, _, c in arrangement._terms))
    delta = spectral.general_energy(ctx, arrangement._terms + (rest,),
                                    Omega_A, Omega_B, rel_tol)
    # at rest the weights cancel exactly, and a zero sum times the negative
    # energy scale is -0.0; report it as 0.0, as E - E0 would
    return delta + 0.0


def delta_force(ctx, arrangement, Omega_A, Omega_B, rel_tol=None):
    """Rotation-induced force modification F(Omega) - F(0,0) (N).

    Positive values are a repulsive contribution relative to the static
    pair.
    """
    return 6.0 * delta_energy(ctx, arrangement, Omega_A, Omega_B, rel_tol) / ctx.separation
