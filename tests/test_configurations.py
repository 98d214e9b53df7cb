import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (canonical_energy, projector_weights, rotation_matrix_to_axis,
                       tensor_energy)
from spinvdw import spectral
from spinvdw.configurations import (Arrangement, ArrangementKind, _terms, delta_force,
                                    energy, force, rest_energy)
from spinvdw.oracle import ratio_rr, ratio_uu
from spinvdw.response import MaterialModel, SpinningSphere, resonance_frequency
from spinvdw.spectral import PairContext, aux_energy, general_energy

KINDS = ["rr", "uu", "ur", "uo"]
RR, UU, UR, UO = (Arrangement(k) for k in KINDS)
SIGNS = (1.0, 0.0, -1.0)        # the rows and columns of projector_weights

# Energies are ~1e-23 J: pytest.approx's default absolute tolerance of
# 1e-12 would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)


class TestZeroRotation:
    def test_all_arrangements_agree(self, ctx300):
        e0 = rest_energy(ctx300)
        for kind in KINDS:
            e = energy(ctx300, Arrangement(kind), 0.0, 0.0)
            assert abs(e / e0 - 1.0) < 1e-10

    def test_rest_energy_is_12_aux(self, ctx300):
        assert rest_energy(ctx300) == approx(
            12.0 * aux_energy(ctx300, 0.0), rel=1e-14)


class TestCanonicalFormulas:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_hand_formula(self, ctx300, w0, kind):
        for oa, ob in [(1.3, -0.4), (0.7, 0.0), (0.0, 2.1), (1.1, 1.1), (-2.2, 0.9)]:
            assert energy(ctx300, Arrangement(kind), oa * w0, ob * w0) == approx(
                canonical_energy(ctx300, kind, oa * w0, ob * w0), rel=1e-12)

    @pytest.mark.parametrize("kind, count", [("rr", 2), ("uu", 3), ("ur", 4),
                                             ("uo", 4)])
    def test_one_aux_call_per_distinct_shift(self, ctx300, w0, monkeypatch,
                                             kind, count):
        # zero weights are dropped and equal shifts merged, so generic rates
        # hand the shift integrals exactly the shifts the hand formula
        # names, BA and AB in a single call
        calls = []
        inner = spectral._closed

        def counting(rows, omega_scale, shifts):
            calls.append(list(shifts))
            return inner(rows, omega_scale, shifts)

        monkeypatch.setattr(spectral, "_closed", counting)
        for _ in range(2):          # nothing is kept: each call evaluates its shifts
            energy(ctx300, Arrangement(kind), 1.3 * w0, -0.4 * w0)
            [shifts] = calls
            assert len(shifts) == len(set(shifts)) == count
            calls.clear()


class TestRR:
    def test_equal_rotation_is_static(self, ctx300, w0):
        assert energy(ctx300, RR, 1.3 * w0, 1.3 * w0) == approx(
            rest_energy(ctx300), rel=1e-12)

    @pytest.mark.parametrize("delta_frac", [0.3, 1.7])
    def test_shift_invariance(self, ctx300, w0, delta_frac):
        d = delta_frac * w0
        e1 = energy(ctx300, RR, 1.2 * w0, 0.4 * w0)
        e2 = energy(ctx300, RR, 1.2 * w0 + d, 0.4 * w0 + d)
        assert abs(e2 / e1 - 1.0) < 1e-9

    def test_small_gamma_matches_lorentz_ratio(self, ctx_smallgamma, w0):
        # identical nearly-undamped spheres at T = 0: E/E0 follows the
        # closed-form rational function; at Omega_AB = w0 it equals 10/9
        got = energy(ctx_smallgamma, RR, w0, 0.0) / rest_energy(ctx_smallgamma)
        assert got == approx(ratio_rr(w0, w0), rel=1e-3)
        assert got == approx(10.0 / 9.0, rel=1e-3)


class TestUU:
    def test_counter_rotating_structure(self, ctx300, w0):
        # Omega_B = -Omega_A: E = E(2 Omega_A) + 11 E(0)
        oa = 0.8 * w0
        want = aux_energy(ctx300, 2.0 * oa) + 11.0 * aux_energy(ctx300, 0.0)
        assert energy(ctx300, UU, oa, -oa) == approx(want, rel=1e-12)

    def test_small_gamma_matches_lorentz_ratio(self, ctx_smallgamma, w0):
        got = energy(ctx_smallgamma, UU, 0.9 * w0, 0.3 * w0) / rest_energy(ctx_smallgamma)
        assert got == approx(ratio_uu(w0, 0.9 * w0, 0.3 * w0), rel=1e-3)

    def test_zero_rotation_unity_weights(self, ctx300):
        # weights 1 + 9 + 2 reproduce the 12 E(0) static value
        assert energy(ctx300, UU, 0.0, 0.0) == approx(
            rest_energy(ctx300), rel=1e-14)


class TestUR:
    def test_resting_b_reduction(self, ctx300, w0):
        # Omega_B = 0: 8E(O) + 2E(0) + 2E(O) = 10E(O) + 2E(0)
        oa = 1.1 * w0
        want = 10.0 * aux_energy(ctx300, oa) + 2.0 * aux_energy(ctx300, 0.0)
        assert energy(ctx300, UR, oa, 0.0) == approx(want, rel=1e-12)

    def test_matches_general(self, ctx300, w0):
        oa, ob = 0.9 * w0, -0.5 * w0
        assert energy(ctx300, UR, oa, ob) == approx(
            tensor_energy(ctx300, UR, oa, ob), rel=1e-6)


class TestUO:
    def test_symmetric_in_rates(self, ctx300, w0):
        assert energy(ctx300, UO, 0.7 * w0, -1.2 * w0) == approx(
            energy(ctx300, UO, -1.2 * w0, 0.7 * w0), rel=1e-12)

    def test_matches_general(self, ctx300, w0):
        oa, ob = 0.9 * w0, -0.5 * w0
        assert energy(ctx300, UO, oa, ob) == approx(
            tensor_energy(ctx300, UO, oa, ob), rel=1e-6)


class TestParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_simultaneous_sign_flip(self, ctx300, w0, kind):
        arr = Arrangement(kind)
        for oa, ob in [(1.3, -0.6), (2.4, 0.9)]:
            ep = energy(ctx300, arr, oa * w0, ob * w0)
            em = energy(ctx300, arr, -oa * w0, -ob * w0)
            assert abs(em / ep - 1.0) < 1e-9


class TestForce:
    def test_exact_power_law(self, ctx300, w0):
        arr = Arrangement("uu")
        e = energy(ctx300, arr, 0.9 * w0, 0.2 * w0)
        f = force(ctx300, arr, 0.9 * w0, 0.2 * w0)
        assert f == 6.0 * e / ctx300.separation

    def test_attractive_sign_convention(self, ctx300):
        f = force(ctx300, Arrangement("rr"), 0.0, 0.0)
        assert f < 0.0 and rest_energy(ctx300) < 0.0

    def test_delta_force_zero_at_rest(self, ctx300):
        assert delta_force(ctx300, Arrangement("uo"), 0.0, 0.0) == 0.0

    def test_delta_force_repulsive_beyond_resonance(self, ctx300, w0):
        # rr crossover: attraction enhanced just below 2 w0, repulsion above
        assert delta_force(ctx300, Arrangement("rr"), 1.9 * w0, 0.0) < 0.0
        assert delta_force(ctx300, Arrangement("rr"), 2.2 * w0, 0.0) > 0.0


class TestNeedleBehavior:
    def test_fast_rotation_suppression_ordering(self, ctx300, w0):
        # far above resonance the rr energy tends to 2/3 E0 and uu to E0/6
        # (the arrangement with the line of centers along the surviving zz
        # response is the stronger one)
        e0 = rest_energy(ctx300)
        err = energy(ctx300, RR, 30.0 * w0, 0.0) / e0
        euu = energy(ctx300, UU, 30.0 * w0, 0.0) / e0
        assert err == approx(2.0 / 3.0, abs=0.01)
        assert euu == approx(1.0 / 6.0, abs=0.01)
        assert err > euu


class TestArrangementType:
    def test_canonical_axes(self):
        arr = Arrangement("ur")
        assert arr.axis_a == (0.0, 0.0, 1.0)
        assert arr.axis_b == (1.0, 0.0, 0.0)
        assert arr.rhat == (1.0, 0.0, 0.0)

    def test_general_requires_axes(self):
        with pytest.raises(ValueError):
            Arrangement("general")
        arr = Arrangement("general", (0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert arr.kind is ArrangementKind.GENERAL
        with pytest.raises(ValueError, match="rhat"):
            Arrangement("general", (0, 0, 1), (0, 1, 0), (1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="axis_b"):
            Arrangement("general", (0, 0, 1), (0, 0, 1.0 + 1e-6), (1, 0, 0))

    @pytest.mark.parametrize("axes", [("001", "010", "100"), ((True, 0, 0), (0, 1, 0), (0, 0, 1))],
                             ids=["text", "bool"])
    def test_general_axes_must_be_numbers(self, axes):
        # float() once read "001" as z and true as 1; numpy numbers stay numbers
        with pytest.raises(ValueError, match="^axis_a must be a unit 3-vector, got "):
            Arrangement("general", *axes)
        arr = Arrangement("general", np.float64([0, 0, 1]), np.int64([0, 1, 0]), (1, 0, 0))
        assert arr.axis_a == (0.0, 0.0, 1.0) and arr.axis_b == (0.0, 1.0, 0.0)

    def test_canonical_rejects_axes(self):
        with pytest.raises(ValueError):
            Arrangement("rr", axis_a=(1, 0, 0))


# Random general geometries: unequal materials, radii and temperatures
# (T = 0 included) and rates up to 4.5 w0.

def _unit(v):
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


UNITS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2).map(_unit)
TEMPERATURES = st.one_of(st.just(0.0), st.floats(1.0, 2000.0))
RATES = st.floats(-4.5, 4.5)


@st.composite
def pairs(draw):
    def sphere():
        wt0 = draw(st.floats(4e9, 8e9))
        material = MaterialModel(draw(st.floats(4.0, 20.0)), wt0,
                                 wt0 * draw(st.floats(0.03, 0.1)))
        return SpinningSphere(draw(st.floats(40e-9, 80e-9)), material,
                              draw(TEMPERATURES))

    sa, sb = sphere(), sphere()
    gap = draw(st.floats(1.3, 2.5))
    return PairContext(sa, sb, gap * (sa.radius + sb.radius))


def _negated(v):
    return tuple(-c for c in v)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(ctx=pairs(), axes=st.tuples(UNITS, UNITS, UNITS), rates=st.tuples(RATES, RATES),
       turn_axis=UNITS, turn_spin=st.floats(0.0, 2.0 * math.pi))
def test_general_kernel_properties(ctx, axes, rates, turn_axis, turn_spin):
    w0 = resonance_frequency(ctx.sphere_a.material)
    oa, ob = rates[0] * w0, rates[1] * w0
    # E can pass through zero where the rotation-induced repulsion cancels
    # the static attraction, so deviations are measured against the larger
    # of |E| and |E0|
    scale = abs(rest_energy(ctx))

    def close(x, want, rel):
        return abs(x - want) <= rel * max(abs(want), scale)

    arr = Arrangement("general", *axes)
    e = energy(ctx, arr, oa, ob)
    assert close(e, tensor_energy(ctx, arr, oa, ob), 1e-6)

    m = rotation_matrix_to_axis(turn_axis, turn_spin)
    turned = Arrangement("general", *(m @ v for v in axes))
    assert close(energy(ctx, turned, oa, ob), e, 1e-12)

    a, b, rhat = axes
    flip_a = Arrangement("general", _negated(a), b, rhat)
    flip_b = Arrangement("general", a, _negated(b), rhat)
    assert close(energy(ctx, flip_a, -oa, ob), e, 1e-12)
    assert close(energy(ctx, flip_b, oa, -ob), e, 1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ctx=pairs(), kind=st.sampled_from(KINDS + ["general"]),
       axes=st.tuples(UNITS, UNITS, UNITS), rates=st.tuples(RATES, RATES))
def test_delta_force_is_force_difference(ctx, kind, axes, rates):
    # delta_force sums the arrangement's weights and -sum c at zero shift in
    # one pass; it must equal the difference of the two forces
    w0 = resonance_frequency(ctx.sphere_a.material)
    oa, ob = rates[0] * w0, rates[1] * w0
    arr = Arrangement(kind, *axes) if kind == "general" else Arrangement(kind)
    f, f0 = force(ctx, arr, oa, ob), force(ctx, arr, 0.0, 0.0)
    assert abs(delta_force(ctx, arr, oa, ob) - (f - f0)) <= 1e-12 * (abs(f) + abs(f0))


def _folded_reference(axis_a, axis_b, rhat):
    """projector_weights folded as _terms folds them: (s, t) -> c_st + c_(-s)(-t)."""
    c = projector_weights(axis_a, axis_b, rhat)
    return {(SIGNS[i], SIGNS[j]): c[i, j] + c[2 - i, 2 - j] if (i, j) != (1, 1) else c[i, j]
            for i, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))}


def test_weights_match_tensor_view():
    # the closed-form weights of each axis triple against the spin tensor's
    # projectors about z, rotated onto the axes: seeded random triples, and
    # every triple of the axes +-x, +-y, +-z (-z takes the rotation's pi turn
    # about x); a dropped weight must be roundoff of a zero
    rng = np.random.default_rng(20)
    triples = rng.normal(size=(300, 3, 3))
    triples /= np.linalg.norm(triples, axis=2, keepdims=True)
    signed = [sign * v for v in np.eye(3) for sign in (1.0, -1.0)]
    triples = list(triples) + [(a, b, r) for a in signed for b in signed for r in signed]
    for a, b, rhat in triples:
        want = _folded_reference(a, b, rhat)
        got = {(s, t): c for s, t, c in _terms(*(tuple(map(float, v)) for v in (a, b, rhat)))}
        assert set(got) <= set(want)
        assert max(abs(got.get(k, 0.0) - c) for k, c in want.items()) <= 1e-14 * 6.0


def test_canonical_term_counts():
    # mirror weights folded: rr, uu, ur and uo carry 2, 3, 4 and 4 terms
    assert [len(Arrangement(kind)._terms) for kind in KINDS] == [2, 3, 4, 4]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(axes=st.tuples(UNITS, UNITS, UNITS), rates=st.tuples(RATES, RATES))
def test_folded_weights(ctx300, w0, axes, rates):
    # c_st = c_(-s)(-t), so folding each weight into its mirror keeps the
    # energy of all nine terms of the tensor view's weights
    c = projector_weights(*axes)
    assert np.abs(c - c[::-1, ::-1]).max() <= 1e-15 * c.sum()
    oa, ob = rates[0] * w0, rates[1] * w0
    nine = tuple((SIGNS[s], SIGNS[t], float(c[s, t]))
                 for s in range(3) for t in range(3))
    want = general_energy(ctx300, nine, oa, ob)
    got = energy(ctx300, Arrangement("general", *axes), oa, ob)
    # E can pass through zero, so the scale is the larger of |E| and |E0|
    assert abs(got - want) <= 1e-14 * max(abs(want), abs(rest_energy(ctx300)))
