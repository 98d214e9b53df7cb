import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (closure_reference, integrate_spectrum, quadrature_shift_integral,
                       shift_integral, tensor_energy)
from spinvdw import oracle, spectral
from spinvdw.configurations import (Arrangement, delta_energy, delta_force, energy,
                                    rest_energy)
from spinvdw.response import (EPS0, HBAR, K_B, MaterialModel, SpinningSphere, bst,
                              polarizability, resonance_frequency)
from spinvdw.spectral import (ConvergenceError, PairContext, QuadratureSpec,
                              aux_energy, energy_AB, energy_BA, pair_quadrature_spec)

# SI energies, forces and polarizabilities are far below pytest.approx's
# default absolute tolerance of 1e-12, which would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)

A = 60e-9
R = 180e-9


def _poles_row(row):
    """A (mat_x, mat_y, T_y) row as the (poles_x, poles_y, T_y) row of spectral._closed."""
    mat_x, mat_y, temperature = row
    return spectral._alpha_poles(mat_x), spectral._alpha_poles(mat_y), temperature


def _record(monkeypatch, name="_closed"):
    """Wrap ``spectral.<name>``; returns a list of its first arguments' lengths."""
    calls = []
    inner = getattr(spectral, name)

    def recording(first, *args):
        calls.append(len(first))
        return inner(first, *args)

    monkeypatch.setattr(spectral, name, recording)
    return calls


class TestIntegrateSpectrum:
    """The Gauss-Kronrod quadrature of tests/reference.py, the closure's reference."""

    def test_lorentzian_normalization(self):
        # int gamma/pi/(w^2+gamma^2) = 1; beyond the window the tail decays
        # as w^-2, an exponent the tail fit must find
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14, breakpoints=(0.0,),
                              window=1e9, seed_width=0.125)
        val = integrate_spectrum(lambda w: 1.0 / np.pi / (w * w + 1.0), spec)
        assert val.real == approx(1.0, rel=1e-8)
        assert val.imag == 0.0

    def test_subnormal_panels(self):
        # breakpoints at +/- a subnormal shift (a spin rate of about
        # 1e-300 rad/s) leave panels narrower than the smallest normal
        # float; their error estimates must stay finite
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14,
                              breakpoints=(-1e-310, 0.0, 1e-310),
                              window=1e9, seed_width=0.125)
        val = integrate_spectrum(lambda w: 1.0 / np.pi / (w * w + 1.0), spec)
        assert val.real == approx(1.0, rel=1e-8)

    def test_odd_function_vanishes(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-13, breakpoints=(0.0,),
                              window=50.0, seed_width=0.1)
        val = integrate_spectrum(lambda w: w * np.exp(-w * w), spec)
        assert abs(val) < 1e-13

    def test_gaussian_reference(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, breakpoints=(0.0,),
                              window=40.0, seed_width=0.5)
        val = integrate_spectrum(lambda w: np.exp(-w * w), spec)
        assert val.real == approx(math.sqrt(math.pi), rel=1e-10)

    def test_im_alpha_sum_rule(self, material, w0):
        # int sgn(w) Im alpha = C*gamma*(1/c)*(pi/2 + atan(b/c)) with
        # b = w0^2 - gamma^2/2, c^2 = w0^2 gamma^2 - gamma^4/4 (x = w^2
        # substitution); equals pi*C/w0 to leading order in gamma/w0
        s = SpinningSphere(A, material, 0.0)
        g = material.gamma0
        c_num = 4.0 * np.pi * EPS0 * A**3 * material.f0 * material.omega_tilde0**2 / 3.0
        b = w0**2 - 0.5 * g * g
        c = math.sqrt(w0**2 * g * g - 0.25 * g**4)
        exact = c_num * g * (math.pi / 2.0 + math.atan(b / c)) / c

        # abs_tol far below the value, so the quadrature has to refine to
        # rel_tol instead of accepting its first pass
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12 * abs(exact),
                              breakpoints=(-w0, 0.0, w0), window=100 * w0,
                              seed_width=g / 8.0)
        val = integrate_spectrum(
            lambda w: np.sign(w) * polarizability(s, w).imag, spec)
        assert val.real == approx(exact, rel=1e-8)
        assert exact == approx(math.pi * c_num / w0, rel=2.0 * g / w0)

    def test_half_line_domain(self):
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14, breakpoints=(0.0, 1.0),
                              window=200.0, seed_width=0.25, lo=0.0)
        val = integrate_spectrum(lambda w: 1.0 / (1.0 + w * w) ** 2, spec)
        assert val.real == approx(math.pi / 4.0, rel=1e-8)

    def test_convergence_error_carries_estimate(self):
        # |w|^(-1/2) kink not at any breakpoint, absurd tolerance, few levels
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300,
                              breakpoints=(0.0,), window=10.0, max_levels=4)
        with pytest.raises(ConvergenceError) as err:
            integrate_spectrum(lambda w: np.sqrt(np.abs(w - 0.4327)), spec)
        assert err.value.estimate > 0.0
        assert err.value.value is not None

    def test_unreachable_tolerance_fails_fast(self, ctx0, w0, monkeypatch):
        # BA at T = 0 next to its resonant zero crossing is 3e-3 of J(0), so
        # rel_tol 1e-10 falls to abs_tol, below the panels' roundoff floor,
        # which bisection cannot lower; without the floor check the
        # refinement ran to 150k panels before the budget stopped it
        panels = []
        inner = reference._gk15

        def counting(f, a, b):
            panels.append(len(a))
            return inner(f, a, b)

        monkeypatch.setattr(reference, "_gk15", counting)
        with pytest.raises(ConvergenceError, match="roundoff floor") as err:
            quadrature_shift_integral(ctx0, 2.0 * w0, "BA", rel_tol=1e-10)
        assert sum(panels) < 5000
        assert err.value.estimate > spectral.DEFAULT_ABS_TOL
        assert err.value.value is not None

    def test_breakpoints_outside_window_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(breakpoints=(0.0, 5.0), window=2.0)


class TestPairQuadratureSpec:
    def test_breakpoints_cover_doppler_images(self, ctx300, w0):
        om = 0.75 * w0
        spec = pair_quadrature_spec(ctx300, shifts=(om,))
        bps = np.array(spec.breakpoints)
        shift = om / w0
        for want in (0.0, 1.0, -1.0, 1.0 - shift, 1.0 + shift,
                     -1.0 + shift, -1.0 - shift):
            assert np.min(np.abs(bps - want)) < 1e-12
        assert spec.window >= np.abs(bps).max() + 10.0


class TestEnergyIntegrals:
    def test_small_gamma_matches_closed_form(self, ctx_smallgamma):
        mat = ctx_smallgamma.sphere_a.material
        w0s = 5.7e9 * math.sqrt(1.0 + 12.2 / 3.0)
        alpha0 = polarizability(ctx_smallgamma.sphere_a, 0.0).real
        pair = oracle.LorentzPair(alpha0, alpha0, w0s, w0s, R)
        got = energy_BA(ctx_smallgamma, 0.5 * w0s)
        want = oracle.eba_closed(pair, 0.5 * w0s)
        assert got == approx(want, rel=0.01)

    def test_symmetric_at_zero_shift(self, ctx300):
        assert energy_BA(ctx300, 0.0) == approx(energy_AB(ctx300, 0.0),
                                                       rel=1e-10)

    def test_identical_spheres_equal_contributions_small_gamma(self, ctx_smallgamma, w0):
        # the two driving directions coincide for identical spheres in the
        # nearly-undamped limit, at any rotation rate
        om = 1.4 * w0
        assert energy_AB(ctx_smallgamma, om) == approx(
            energy_BA(ctx_smallgamma, om), rel=1e-3)

    def test_small_gamma_convergence_rate(self, w0):
        # deviation from the undamped closed form shrinks ~linearly with
        # gamma away from resonance
        alpha0 = 0.8026315789473684 * 4.0 * np.pi * EPS0 * A**3
        pair = oracle.LorentzPair(alpha0, alpha0, w0, w0, R)
        want = oracle.aux_closed(pair, 0.5 * w0)
        devs = []
        for gamma_scale in (1e-1, 1e-2, 1e-3):
            sphere = SpinningSphere(A, bst(gamma_scale=gamma_scale), 0.0)
            ctx = PairContext(sphere, sphere, R)
            devs.append(abs(aux_energy(ctx, 0.5 * w0) / want - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[1] == approx(10.0, rel=0.5)
        assert devs[1] / devs[2] == approx(10.0, rel=0.5)

    def test_ab_contributes_half_at_rest(self, ctx300):
        assert energy_AB(ctx300, 0.0) == approx(
            0.5 * aux_energy(ctx300, 0.0), rel=1e-10)

    def test_change_of_variables_identity(self, ctx300, w0):
        # moving the Doppler shift from eta_A onto alpha_B is a pure
        # substitution; evaluate the shifted-alpha form directly
        from reference import _eta_reduced, _integrate
        from spinvdw.response import _alpha_reduced
        om = 0.8 * w0
        ws, mat_a, mat_b = ctx300._scaled
        shift = om / ws
        eta_a = _eta_reduced(mat_a, ctx300.sphere_a.temperature, ws)
        spec = pair_quadrature_spec(ctx300, shifts=(om,))
        moved, _ = _integrate(
            lambda u: eta_a(u) * (_alpha_reduced(mat_b, u + shift)
                                  + _alpha_reduced(mat_b, u - shift)), spec)
        direct, _ = _integrate(
            lambda u: (eta_a(u + shift) + eta_a(u - shift))
            * _alpha_reduced(mat_b, u), spec)
        assert direct.real == approx(moved.real, rel=1e-8)

    def test_aux_even(self, ctx300, w0):
        for om in (0.4 * w0, 1.9 * w0):
            assert aux_energy(ctx300, om) == approx(
                aux_energy(ctx300, -om), rel=1e-12)

    def test_ratio_distance_independent(self, ctx300, w0):
        far = PairContext(ctx300.sphere_a, ctx300.sphere_b, 2.0 * R)
        r_near = aux_energy(ctx300, 1.3 * w0) / aux_energy(ctx300, 0.0)
        r_far = aux_energy(far, 1.3 * w0) / aux_energy(far, 0.0)
        assert abs(r_near / r_far - 1.0) < 1e-10

    def test_r_scaling_exponent(self, ctx300, w0):
        e1 = aux_energy(ctx300, 0.7 * w0)
        e2 = aux_energy(PairContext(ctx300.sphere_a, ctx300.sphere_b, 2.0 * R),
                        0.7 * w0)
        exponent = math.log(e2 / e1) / math.log(2.0)
        assert exponent == approx(-6.0, abs=1e-8)

    def test_exchange_symmetry(self, w0):
        # different radii and temperatures; swapping the spheres must not
        # change the total
        sa = SpinningSphere(50e-9, bst(), 300.0)
        sb = SpinningSphere(80e-9, bst(), 900.0)
        ctx = PairContext(sa, sb, R)
        e = aux_energy(ctx, 0.9 * w0)
        e_swapped = aux_energy(ctx.swapped(), 0.9 * w0)
        assert e_swapped == approx(e, rel=1e-9)

    def test_attractive_at_rest(self, ctx300):
        assert aux_energy(ctx300, 0.0) < 0.0


class TestGeneralEnergy:
    # the direct tensor contraction of tests/reference.py against the
    # shift integrals and the projector-weighted kernel
    def test_at_rest_matches_12_aux(self, ctx300):
        gen = tensor_energy(ctx300, Arrangement("rr"), 0.0, 0.0)
        assert gen == approx(12.0 * aux_energy(ctx300, 0.0), rel=1e-8)

    def test_matches_rr_assembly(self, ctx300, w0):
        oa, ob = 1.4 * w0, -0.3 * w0
        arr = Arrangement("rr")
        assert tensor_energy(ctx300, arr, oa, ob) == approx(
            energy(ctx300, arr, oa, ob), rel=1e-6)

    def test_matches_uu_assembly(self, ctx300, w0):
        oa, ob = 1.4 * w0, -0.3 * w0
        arr = Arrangement("uu")
        assert tensor_energy(ctx300, arr, oa, ob) == approx(
            energy(ctx300, arr, oa, ob), rel=1e-6)

    def test_parity_exact(self, ctx300, w0):
        arr = Arrangement("uo")
        ep = tensor_energy(ctx300, arr, 1.1 * w0, 0.6 * w0)
        em = tensor_energy(ctx300, arr, -1.1 * w0, -0.6 * w0)
        assert em == approx(ep, rel=1e-9)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


TEMPERATURES = st.one_of(st.just(0.0), _log_uniform(1e-3, 3000.0))


def _split(mat):
    """Half the distance between the two poles of alpha, W' = sqrt(w0^2 - g^2/4)."""
    return math.sqrt(resonance_frequency(mat) ** 2 - 0.25 * mat.gamma0**2)


class TestClosedForm:
    """The contour closure against quadrature and mpmath, and its tolerance gate."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_quadrature(self, data):
        # unequal materials, radii and temperatures (T = 0 included), any
        # shift up to 9 w0, and the degenerate shifts where poles of the
        # integrand coincide: s = 0 for identical spheres, and
        # s = W'_A +/- W'_B, exact coincidences when the dampings agree
        def material(wt):
            return MaterialModel(data.draw(st.floats(4.0, 20.0)), wt,
                                 wt * data.draw(_log_uniform(1e-3, 0.5)))

        mat_a = material(5.7e9)
        mat_b = material(5.7e9 * data.draw(st.floats(0.5, 2.0)))
        if data.draw(st.booleans()):
            mat_b = MaterialModel(mat_b.f0, mat_b.omega_tilde0, mat_a.gamma0)
        sphere_a = SpinningSphere(data.draw(st.floats(30e-9, 80e-9)), mat_a,
                                  data.draw(TEMPERATURES))
        sphere_b = SpinningSphere(data.draw(st.floats(30e-9, 80e-9)), mat_b,
                                  data.draw(TEMPERATURES))
        case = data.draw(st.sampled_from(["any", "rest", "sum", "difference"]))
        if case == "rest":
            sphere_b = sphere_a
        ctx = PairContext(sphere_a, sphere_b, R)
        ws, sa, sb = ctx._scaled
        shift = {"any": data.draw(st.floats(0.0, 9.0)), "rest": 0.0,
                 "sum": _split(sa) + _split(sb),
                 "difference": abs(_split(sa) - _split(sb))}[case]
        for which in ("BA", "AB"):
            # J can cross zero, so the bound is relative to max(|J|, |J(0)|)
            scale = abs(quadrature_shift_integral(ctx, 0.0, which, 5e-10))
            want = quadrature_shift_integral(ctx, shift * ws, which, 5e-10,
                                             abs_tol=5e-10 * scale)
            got, roundoff = shift_integral(ctx, shift * ws, which)
            assert abs(got - want) <= 1e-9 * max(abs(want), scale), (which, got, want)
            # a divided difference taken by the wrong branch would cancel
            # digits, and the estimate would show it
            assert roundoff <= 1e-10 * max(abs(want), scale), (which, roundoff)

    def test_matches_mpmath_at_zero_temperature(self, ctx0):
        # 30-digit quadrature of the T = 0 BA integrand of the BST pair,
        # [alpha(u + s) + alpha(u - s)] 2 sgn(u) Im alpha(u), which is even
        # in u for identical spheres; s = 2 w0 sits next to the resonant
        # zero crossing of BA, where J is 3e-3 of J(0)
        ws, mat, _ = ctx0._scaled
        with mpmath.workdps(30):
            c = mpmath.mpf(mat.f0) * mpmath.mpf(mat.omega_tilde0) ** 2 / 3
            w0sq = mpmath.mpf(mat.omega_tilde0) ** 2 * (1 + mpmath.mpf(mat.f0) / 3)

            def alpha(u):
                return c / (w0sq - u * u - 1j * mpmath.mpf(mat.gamma0) * u)

            def reference(s):
                def f(u):
                    return mpmath.re((alpha(u + s) + alpha(u - s)) * 2 * mpmath.im(alpha(u)))
                ends = sorted({p for p in (1 + s, 1 - s, s - 1, 1) if p > 0})
                return float(2 * mpmath.quad(f, [0] + ends + [mpmath.inf]))

            want0 = reference(mpmath.mpf(0))
            for s in ("0", "1", "2", "2.05"):
                want = reference(mpmath.mpf(s))
                got, _ = shift_integral(ctx0, float(s) * ws, "BA")
                assert abs(got - want) <= 1e-12 * max(abs(want), abs(want0)), (s, got, want)

    def test_digamma_matches_mpmath(self):
        # low temperatures put the upper-half-plane poles at Re w << 0 with
        # large |Im w|, where the reflection formula takes over
        grid = [complex(x, y)
                for x in (-350.3, -40.7, -3.2, 0.2, 0.5, 1.0, 3.7, 12.0, 900.0)
                for y in (-1500.0, -45.0, -2.5, 0.3, 7.0, 60.0, 1500.0)]
        psi, tri = spectral._digamma(np.array(grid))
        for w, p, t in zip(grid, psi, tri):
            want_p, want_t = complex(mpmath.psi(0, w)), complex(mpmath.psi(1, w))
            assert abs(p - want_p) <= 1e-13 * abs(want_p), (w, p, want_p)
            assert abs(t - want_t) <= 1e-13 * abs(want_t), (w, t, want_t)

    @pytest.mark.parametrize("damping", [2.0, 2.5])
    def test_overdamped_material_matches_quadrature(self, w0, damping):
        # gamma0 = 2 w0 merges the two poles of alpha (the mean over the
        # circle) and 2.5 w0 puts them on the imaginary axis; the cached
        # energies against the quadrature of their integrands
        mat = MaterialModel(12.2, 5.7e9, damping * w0)
        ctx = PairContext(SpinningSphere(A, mat, 300.0),
                          SpinningSphere(A, bst(), 300.0), R)
        to_reduced = -32.0 * np.pi / ctx.units().energy_scale
        for which, fn in (("BA", energy_BA), ("AB", energy_AB)):
            want = quadrature_shift_integral(ctx, 0.7 * w0, which, 1e-10)
            assert fn(ctx, 0.7 * w0) * to_reduced == approx(want, rel=1e-9)

    def test_tolerance_below_roundoff_raises(self, ctx300, w0):
        value, roundoff = shift_integral(ctx300, 1.3 * w0, "BA")
        with pytest.raises(ConvergenceError) as err:
            energy_BA(ctx300, 1.3 * w0, rel_tol=0.1 * roundoff / abs(value))
        assert err.value.estimate == roundoff
        # a tolerance above the estimate is served
        to_reduced = -32.0 * np.pi / ctx300.units().energy_scale
        looser = energy_BA(ctx300, 1.3 * w0, rel_tol=10.0 * roundoff / abs(value))
        assert looser * to_reduced == approx(value, rel=1e-15)

    def test_residue_above_its_estimate_fails(self, monkeypatch, ctx300, w0):
        # a residue fails from one roundoff estimate up, not from a
        # multiple: here about three estimates, where the other residue
        # tests inject a residue of 1
        assert spectral._fails(1.0, 3e-16, 1e-16, 1e-8)
        assert not spectral._fails(1.0, 1e-16, 1e-16, 1e-8)
        inner = spectral._closed

        def tilt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 3j * roundoff, roundoff

        monkeypatch.setattr(spectral, "_closed", tilt)
        with pytest.raises(ArithmeticError, match="^energy_BA: imaginary residue"):
            spectral.general_energy(ctx300, Arrangement("uu")._terms, 0.7 * w0, -0.3 * w0)


class TestStackedClosedForm:
    """One evaluation serves both kinds of a context, one row when they agree."""

    @pytest.mark.parametrize("case", ["cold", "equal", "cold_a", "cold_b", "warm"])
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_rows_match_each_kind_alone(self, case, data):
        # T = 0 on both sides, equal T > 0, one side at T = 0, and unequal
        # T > 0; equal or unequal materials in each
        def material():
            wt = 5.7e9 * data.draw(st.floats(0.5, 2.0))
            return MaterialModel(data.draw(st.floats(4.0, 20.0)), wt,
                                 wt * data.draw(_log_uniform(1e-3, 0.5)))

        mat_a = material()
        mat_b = mat_a if data.draw(st.booleans()) else material()
        warm = _log_uniform(1e-3, 3000.0)
        if case in ("cold", "equal"):
            t_a = t_b = 0.0 if case == "cold" else data.draw(warm)
        else:
            t_a = 0.0 if case == "cold_a" else data.draw(warm)
            t_b = 0.0 if case == "cold_b" else data.draw(warm)
        ctx = PairContext(SpinningSphere(A, mat_a, t_a),
                          SpinningSphere(50e-9, mat_b, t_b), R)
        ws, sa, sb = ctx._scaled
        shifts = data.draw(st.lists(st.floats(0.0, 9.0), min_size=1, max_size=6))
        values, roundoff = spectral._closed_kinds(ctx, shifts)
        for k, row in enumerate([(sa, sb, t_b), (sb, sa, t_a)]):
            [alone], _ = spectral._closed([_poles_row(row)], ws, shifts)
            # a row stacked with another shares its digamma recurrence depth,
            # which changes roundoff only
            assert np.all(np.abs(values[k] - alone) <= roundoff[k]), (k, values[k], alone)

    @pytest.mark.parametrize("count", [1, 5, 64])
    def test_mixed_temperature_rows_bit_identical(self, count):
        # one row at T = 0 (log) and one at T > 0 (digamma): each function
        # sees exactly the arguments of its own row, as in a one-row call
        ctx = PairContext(SpinningSphere(A, bst(), 0.0),
                          SpinningSphere(50e-9, MaterialModel(8.0, 6.5e9, 4e8), 300.0), R)
        ws, sa, sb = ctx._scaled
        shifts = list(np.linspace(0.05, 4.0, count))
        values, roundoff = spectral._closed_kinds(ctx, shifts)
        for k, row in enumerate([(sa, sb, 300.0), (sb, sa, 0.0)]):
            [alone], [alone_roundoff] = spectral._closed([_poles_row(row)], ws, shifts)
            assert np.array_equal(values[k], alone), k
            assert np.array_equal(roundoff[k], alone_roundoff), k

    @pytest.mark.parametrize("cold_call, evaluations", [
        (lambda ctx, w0: delta_force(ctx, Arrangement("uo"), 1.3 * w0, -0.4 * w0), 1),
        (lambda ctx, w0: aux_energy(ctx, 0.7 * w0), 1),
        (lambda ctx, w0: rest_energy(ctx), 1),
        # the single-kind energies are uncached: one evaluation each
        (lambda ctx, w0: energy_BA(ctx, 0.7 * w0) + energy_AB(ctx, 0.7 * w0), 2),
    ], ids=["delta_force", "aux_energy", "rest_energy", "BA_then_AB"])
    def test_one_evaluation_per_cold_call(self, monkeypatch, w0, cold_call, evaluations):
        ctx = PairContext(SpinningSphere(A, bst(), 300.0),
                          SpinningSphere(50e-9, MaterialModel(8.0, 6.5e9, 4e8), 0.0), R)
        calls = _record(monkeypatch)
        cold_call(ctx, w0)
        assert calls == [2] * evaluations

    @pytest.mark.parametrize("mat_b, t_b, rows", [
        (bst(), 300.0, 1),                            # equal materials and T
        (bst(), 900.0, 2),                            # equal materials, unequal T
        (MaterialModel(8.0, 6.5e9, 4e8), 300.0, 2),   # unequal materials, equal T
    ], ids=["equal", "unequal_T", "unequal_materials"])
    def test_rows_per_evaluation(self, monkeypatch, w0, mat_b, t_b, rows):
        # the radii enter only the energy scale, not the rows
        ctx = PairContext(SpinningSphere(A, bst(), 300.0),
                          SpinningSphere(50e-9, mat_b, t_b), R)
        calls = _record(monkeypatch)
        aux_energy(ctx, 0.7 * w0)
        assert calls == [rows]


SHIFTS = (0.0, 0.5, 1.3, 3.1)     # working units


def _temperature_at(rho, mat_x, mat_y, omega_scale, shifts=SHIFTS):
    """T_Y at which the largest Matsubara argument |z| of a row is rho."""
    [((p_x, _), _)] = spectral._alpha_poles(mat_x)
    [((p_y, _), _)] = spectral._alpha_poles(mat_y)
    reach = max(abs(p_x) + max(shifts), abs(p_y))
    return reach / rho * HBAR * omega_scale / (2.0 * math.pi * K_B)


class TestMatsubaraRoutes:
    """Series, digamma and log routes of the pair sum, against mpmath."""

    def test_zeta_table_matches_mpmath(self):
        # the largest series, at |z| = _RHO, reaches the last entry
        assert spectral._HANKEL[-1, -1] == spectral._ZETA[-1]
        for k, value in enumerate(spectral._ZETA):
            want = mpmath.zeta(k + 2)
            assert abs(value - want) <= 1e-15 * want, (k + 2, value, want)

    @pytest.mark.parametrize("rho, route", [
        (1e-4, "series"), (0.1, "series"), (0.249, "series"),
        (0.26, "digamma"), (0.7, "digamma")])
    @pytest.mark.parametrize("pair", ["identical", "unequal"])
    def test_matches_mpmath_closure(self, monkeypatch, pair, rho, route):
        # each row at its own temperature with largest |z| = rho, at several
        # shifts including 0 (where identical spheres make poles coincide):
        # J within its roundoff estimate, and a series' pair sum also within
        # the estimate of its own terms
        mat_b = bst() if pair == "identical" else MaterialModel(8.0, 6.5e9, 4e8)
        probe = PairContext(SpinningSphere(A, bst(), 1.0),
                            SpinningSphere(50e-9, mat_b, 1.0), R)
        ws, sa, sb = probe._scaled
        t_b, t_a = _temperature_at(rho, sa, sb, ws), _temperature_at(rho, sb, sa, ws)
        if pair == "identical":
            assert t_a == t_b
        ctx = PairContext(SpinningSphere(A, bst(), t_a),
                          SpinningSphere(50e-9, mat_b, t_b), R)
        digamma = _record(monkeypatch, "_digamma")
        series = []
        inner = spectral._series
        monkeypatch.setattr(spectral, "_series",
                            lambda *args: series.append((args, inner(*args))) or series[-1][1])
        values, roundoff = spectral._closed_kinds(ctx, list(SHIFTS))
        assert len(digamma) == (route == "digamma")
        assert len(series) == (route == "series")
        for k, row in enumerate([(sa, sb, t_b), (sb, sa, t_a)]):
            for n, shift in enumerate(SHIFTS):
                residues, pairs = closure_reference(row, ws, shift)
                assert abs(values[k, n] - (residues + pairs)) <= roundoff[k, n], (k, shift)
                if series:
                    [((_, a, b, rho), got)] = series
                    r = min(k, len(got) - 1)    # identical spheres: one row
                    size = spectral._series_size(rho) * np.abs(a[r]).sum() * np.abs(b[r]).sum()
                    assert abs(got[r, n] - pairs) <= spectral._ROUNDOFF * size, (k, shift)

    @pytest.mark.parametrize("pair", ["identical", "unequal"])
    def test_series_is_not_cut_short(self, monkeypatch, pair):
        # the pair sum is about 1e-4 of the sizes of its own terms, so only a
        # bound scaled by the sum itself sees a truncated series. At shift 0
        # alone every Matsubara argument of a row has |z| near rho = 0.249,
        # where the moments decay slowest: the full series is within 4e-15
        # of the sum, one cut a term short misses it by 2-4e-14
        mat_b = bst() if pair == "identical" else MaterialModel(8.0, 6.5e9, 4e8)
        probe = PairContext(SpinningSphere(A, bst(), 1.0),
                            SpinningSphere(50e-9, mat_b, 1.0), R)
        ws, sa, sb = probe._scaled
        series = []
        inner = spectral._series
        monkeypatch.setattr(spectral, "_series",
                            lambda *args: series.append(inner(*args)) or series[-1])
        for mat_x, mat_y in ((sa, sb), (sb, sa)):
            row = (mat_x, mat_y, _temperature_at(0.249, mat_x, mat_y, ws, (0.0,)))
            series.clear()
            spectral._closed([_poles_row(row)], ws, [0.0])
            [got] = series
            _, pairs = closure_reference(row, ws, 0.0)
            assert abs(got[0, 0] - pairs) <= 1e-14 * abs(pairs), (got[0, 0], pairs)

    def test_series_bound_enters_the_estimate(self, monkeypatch):
        # a series row's estimate counts its pair terms by _series_size, at
        # rho = 0.249 up to a few percent of the estimate
        probe = PairContext(SpinningSphere(A, bst(), 1.0), SpinningSphere(A, bst(), 1.0), R)
        ws, sa, _ = probe._scaled
        row = _poles_row((sa, sa, _temperature_at(0.249, sa, sa, ws)))
        series, size_of = [], spectral._series_size
        inner = spectral._series
        monkeypatch.setattr(spectral, "_series", lambda *args: series.append(args) or inner(*args))
        _, counted = spectral._closed([row], ws, list(SHIFTS))
        monkeypatch.setattr(spectral, "_series_size", lambda rho: 0.0)
        _, uncounted = spectral._closed([row], ws, list(SHIFTS))
        [(_, a, b, rho), _] = series
        bound = spectral._ROUNDOFF * size_of(rho) * np.abs(a[0]).sum() * np.abs(b[0]).sum()
        assert np.allclose(counted[0] - uncounted[0], bound, rtol=1e-9, atol=0.0)
        assert bound > 0.01 * counted.min()

    @pytest.mark.parametrize("rho", [1e-3, 0.1, 0.25])
    def test_series_size_bounds_the_worst_case(self, rho):
        # with every t = rho, sum_mn zeta(m+n+2) |A_m| |B_n| per unit
        # sum|a| sum|b| is sum_mn zeta(m+n+2) rho^(m+n), the largest sum that
        # _series_size bounds: the bound holds, and is at most 4/3 of it
        # (0.9995, 0.947 and 0.869 of the bound at these rho)
        n = 80                                      # 0.25^80 < 1e-48
        zeta = [float(mpmath.zeta(k + 2)) for k in range(2 * n)]
        worst = math.fsum(zeta[m + k] * rho ** (m + k) for m in range(n) for k in range(n))
        assert 0.75 <= worst / spectral._series_size(rho) <= 1.0

    def test_warm_sweep_sums_series(self, monkeypatch, w0):
        # the presets' BST pair at 300 K: |z| stays below 1e-3, so the
        # sweep's one evaluation calls no digamma
        ctx = PairContext(SpinningSphere(A, bst(), 300.0),
                          SpinningSphere(A, bst(), 300.0), R)
        arrangement = Arrangement("uu")
        rates = [(om * w0, -0.5 * om * w0) for om in np.linspace(0.0, 5.0, 20)]
        closed, digamma = _record(monkeypatch), _record(monkeypatch, "_digamma")
        spectral.sweep_energies(ctx, arrangement._terms, *zip(*rates))
        assert closed == [1] and digamma == []

    def test_sub_kelvin_context_calls_digamma(self, monkeypatch, w0):
        # BST at 0.05 K: |z| reaches 0.72 at 1.3 w0
        ctx = PairContext(SpinningSphere(A, bst(), 0.05),
                          SpinningSphere(A, bst(), 0.05), R)
        closed, digamma = _record(monkeypatch), _record(monkeypatch, "_digamma")
        aux_energy(ctx, 1.3 * w0)
        assert closed == [1] and len(digamma) == 1

    def test_three_routes_in_one_block(self, monkeypatch):
        # a T = 0 row, a series row and a digamma row stay one evaluation,
        # with one call each of log and digamma, and each row matches its
        # one-row evaluation
        other = MaterialModel(8.0, 6.5e9, 4e8)
        ctx = PairContext(SpinningSphere(A, bst(), 1.0),
                          SpinningSphere(50e-9, other, 1.0), R)
        ws, sa, sb = ctx._scaled
        rows = [(sb, sa, _temperature_at(0.7, sb, sa, ws)), (sa, sb, 0.0),
                (sa, sb, _temperature_at(0.1, sa, sb, ws))]
        closed = _record(monkeypatch)
        log, digamma = _record(monkeypatch, "_log"), _record(monkeypatch, "_digamma")
        values, roundoff = spectral._closed([_poles_row(row) for row in rows], ws,
                                            list(SHIFTS))
        assert closed == [3] and len(log) == 1 and len(digamma) == 1
        for k, row in enumerate(rows):
            [alone], _ = spectral._closed([_poles_row(row)], ws, list(SHIFTS))
            assert np.all(np.abs(values[k] - alone) <= roundoff[k]), (k, values[k], alone)


def _scan_material(rng, damping="typical"):
    """A single-oscillator material drawn as the material_scan benchmark draws
    them (gamma0/wt0 log-uniform in 0.03-0.1), or at gamma0/wt0 = 1e-3
    ("small"), or overdamped (gamma0 = 2.5-10 w0)."""
    f0 = math.exp(rng.uniform(math.log(4.0), math.log(20.0)))
    wt0 = 4e9 * math.exp(rng.uniform(0.0, math.log(2.0)))
    if damping == "small":
        gamma0 = 1e-3 * wt0
    elif damping == "over":
        gamma0 = rng.uniform(2.5, 10.0) * wt0 * math.sqrt(1.0 + f0 / 3.0)
    else:
        gamma0 = wt0 * math.exp(rng.uniform(math.log(0.03), math.log(0.1)))
    return MaterialModel(f0, wt0, gamma0)


class TestSeededColdBlocks:
    """Cold blocks as the material_scan benchmark evaluates them, seeded.

    A numpy generator draws them, so the draws stay where they are when a
    literal in the package changes, unlike derandomized hypothesis examples.
    """

    def test_blocks_match_closure_and_one_row_evaluations(self):
        # equal and unequal materials, T_A and T_B independently 0 or
        # log-uniform in 1-2000 K (the log and series routes), blocks of 1, 2,
        # 3 and 5 shifts with 0 among them and one of 64: every row and shift
        # within its roundoff estimate of the 30-digit closure, and each row
        # of the stacked evaluation within it of its one-row evaluation
        rng = np.random.default_rng(20261019)
        dampings = ["typical"] * 6 + ["small"] * 2 + ["over"] * 2
        blocks = [1, 2, 3, 5] * len(dampings)
        blocks[rng.integers(len(blocks))] = 64
        for k, damping in enumerate(dampings):
            mat_a = _scan_material(rng, damping)
            mat_b = mat_a if rng.random() < 0.5 else _scan_material(rng)
            t_a, t_b = (0.0 if rng.random() < 0.3 else math.exp(rng.uniform(0.0, math.log(2000.0)))
                        for _ in range(2))
            ctx = PairContext(SpinningSphere(A, mat_a, t_a), SpinningSphere(50e-9, mat_b, t_b), R)
            ws, sa, sb = ctx._scaled
            for count in blocks[4 * k:4 * k + 4]:
                shifts = [0.0, *rng.uniform(0.0, 9.0, count - 1).tolist()]
                values, roundoff = spectral._closed_kinds(ctx, shifts)
                for kind, row in enumerate([(sa, sb, t_b), (sb, sa, t_a)]):
                    [alone], _ = spectral._closed([_poles_row(row)], ws, shifts)
                    assert np.all(np.abs(values[kind] - alone) <= roundoff[kind]), (k, kind)
                    for n, shift in enumerate(shifts):
                        want = closure_reference(row, ws, shift, total=True)
                        assert abs(values[kind, n] - want) <= roundoff[kind, n], (
                            k, damping, kind, (t_a, t_b), shift, values[kind, n], want)


# gamma0/2 w0 of the damping grid: around critical damping, then overdamped
DAMPINGS = tuple(1.0 + d for d in (0.0, -1e-9, 1e-9, -1e-7, 1e-7, -1e-5, 1e-5,
                                   -1e-3, 1e-3)) + (1.25, 2.0, 5.0)
GRID_SHIFTS = (0.0, 0.7, 1.3, 2.05, 3.1)     # working units


def _damped(ratio, w0):
    """BST's oscillator with gamma0 = ratio * 2 w0."""
    return MaterialModel(12.2, 5.7e9, ratio * 2.0 * w0)


class TestEveryDamping:
    """The closure for every gamma0 > 0: critical damping and overdamped poles."""

    @pytest.mark.parametrize("ratio, temperature", [
        (2.0, 0.0), (5.0, 0.0), (1.0 - 5e-8, 0.0), (1.0 - 5e-8, 300.0)])
    def test_heavy_damping_delta_force(self, w0, ratio, temperature):
        # gamma0 = 4 w0 and 10 w0 at T = 0 raised ConvergenceError when a
        # quadrature evaluated them (its tail uncertainty alone exceeded the
        # tolerance), and 2 w0 (1 - 5e-8), just below critical damping, when
        # the closure's residues ~ 1/W' left a roundoff of 2-3e-7 of J
        mat = _damped(ratio, w0)
        ctx = PairContext(SpinningSphere(A, mat, temperature),
                          SpinningSphere(A, mat, temperature), R)
        df = delta_force(ctx, Arrangement("rr"), 1.3 * w0, 0.0)
        assert math.isfinite(df) and df != 0.0
        ws = ctx._scaled[0]
        for shift in (0.0, 1.3):
            value, roundoff = shift_integral(ctx, shift * ws, "BA")
            assert roundoff <= 1e-8 * abs(value), (shift, value, roundoff)

    @pytest.mark.parametrize("temperature", [0.0, 0.3, 300.0, 1500.0])
    def test_seeded_grid(self, w0, temperature):
        # every damping of DAMPINGS as sphere A, with a partner drawn from a
        # seeded generator (the same material, or another one), at every
        # shift of GRID_SHIFTS: the log route at 0 K, digamma at 0.3 K (and
        # the series where every |z| stays below 1/4), the series at 300 and
        # 1500 K. Against the 50-digit closure, J is within its roundoff
        # estimate; at T > 0 it is also within that estimate plus the
        # quadrature's own estimate of the quadrature at rel_tol 1e-10; and
        # the estimate stays below 1e-8 |J|, the default rel_tol
        rng = np.random.default_rng(20261018)
        for ratio in DAMPINGS:
            mat_a = _damped(ratio, w0)
            if rng.random() < 0.5:
                mat_b = mat_a
            else:
                wt = 5.7e9 * rng.uniform(0.5, 2.0)
                mat_b = MaterialModel(rng.uniform(4.0, 20.0), wt,
                                      wt * math.exp(rng.uniform(math.log(1e-2), math.log(0.5))))
            ctx = PairContext(SpinningSphere(A, mat_a, temperature),
                              SpinningSphere(50e-9, mat_b, temperature), R)
            ws, sa, sb = ctx._scaled
            values, roundoff = spectral._closed_kinds(ctx, list(GRID_SHIFTS))
            for k, (which, row) in enumerate([("BA", (sa, sb, temperature)),
                                              ("AB", (sb, sa, temperature))]):
                for n, shift in enumerate(GRID_SHIFTS):
                    got, estimate = values[k, n], roundoff[k, n]
                    where = (ratio, which, shift)
                    assert estimate <= 1e-8 * abs(got.real), where
                    assert abs(got.imag) <= estimate, where
                    want = closure_reference(row, ws, shift, dps=50, total=True)
                    assert abs(got - want) <= estimate, (where, got, want, estimate)
                    if temperature > 0.0:
                        gk, gk_error = quadrature_shift_integral(
                            ctx, shift * ws, which, 1e-10, with_error=True)
                        assert abs(got.real - gk) <= estimate + gk_error, (where, got, gk)

    def test_log_takes_principal_value_on_the_cut(self):
        # w = -2 +/- 0j: log|w| either side, where np.log gives +/- i pi
        w = np.array([complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-2.0, 1e-300),
                      complex(3.0, 0.0)])
        f, df = spectral._log(w)
        assert f[0] == f[1] == math.log(2.0)
        assert f[2] == complex(math.log(2.0), math.pi)
        assert f[3] == math.log(3.0)
        assert np.array_equal(df, 1.0 / w)

    def test_overdamped_poles_on_the_imaginary_axis(self, w0):
        # gamma0 = 10 w0: both poles of alpha at -i(gamma/2 -/+ |W'|), the
        # slow one from p1 p2 = -w0^2 without cancellation; alpha itself
        # from them equals the material kernel
        from spinvdw.response import _alpha_reduced
        mat = _damped(5.0, w0).scaled(w0)
        [((p1, p2), (r1, r2))] = spectral._alpha_poles(mat)
        assert p1.real == p2.real == 0.0 and p1.imag < 0.0 and p2.imag < 0.0
        assert p1 * p2 == approx(-resonance_frequency(mat) ** 2, rel=1e-15)
        u = np.array([-3.0, -0.1, 0.0, 0.4, 2.0, 30.0])
        assert np.allclose(r1 / (u - p1) + r2 / (u - p2), _alpha_reduced(mat, u),
                           rtol=1e-14, atol=0.0)

    def test_near_critical_row_is_one_circle_pass(self, monkeypatch, w0):
        # a row at critical damping stacks the eight points of the circle
        # into the same pass, and the result keeps the row count
        mat = _damped(1.0, w0)
        ctx = PairContext(SpinningSphere(A, mat, 300.0),
                          SpinningSphere(50e-9, bst(), 300.0), R)
        series = _record(monkeypatch, "_series")
        values, roundoff = spectral._closed_kinds(ctx, [0.0, 1.3])
        assert values.shape == roundoff.shape == (2, 2)
        assert series == [2 * len(spectral._CIRCLE)]

    def test_undamped_material_rejected(self):
        sphere = SpinningSphere(A, MaterialModel(12.2, 5.7e9, 0.0), 0.0)
        with pytest.raises(ValueError, match="oracle"):
            PairContext(sphere, SpinningSphere(A, bst(), 0.0), R)


class TestShiftCache:
    """What one call evaluates: its exact distinct shifts, once; nothing is kept after it."""

    def test_clear_cache_drops_corrupted_entries(self, monkeypatch, w0):
        # no entry is kept, so a corrupted evaluation leaves nothing behind:
        # the corrupted context gives the good value again once the
        # corruption ends, before and after clear_cache, which evaluates nothing
        def context():
            return PairContext(SpinningSphere(A, bst(), 300.0),
                               SpinningSphere(50e-9, bst(), 900.0), R)

        good = aux_energy(context(), 0.7 * w0)
        corrupted = context()
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 1j, roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        with pytest.raises(ArithmeticError):
            aux_energy(corrupted, 0.7 * w0)
        monkeypatch.undo()
        calls = _record(monkeypatch)
        assert aux_energy(corrupted, 0.7 * w0) == good
        assert spectral.clear_cache() is None
        assert calls == [2]
        assert aux_energy(corrupted, 0.7 * w0) == good
        assert calls == [2, 2]

    def test_second_rel_tol_fills_its_own_table(self, monkeypatch, w0):
        # gamma0 = 2.5 w0, overdamped: each call evaluates and checks the
        # shift at its own rel_tol, so a second tolerance evaluates the shift
        # again and gives the same bits, and so does the first one again
        ctx = PairContext(SpinningSphere(A, MaterialModel(12.2, 5.7e9, 2.5 * w0), 300.0),
                          SpinningSphere(A, bst(), 300.0), R)
        calls = _record(monkeypatch)
        loose = aux_energy(ctx, 0.7 * w0, rel_tol=1e-4)
        assert aux_energy(ctx, 0.7 * w0, rel_tol=1e-8) == loose
        assert aux_energy(ctx, 0.7 * w0, rel_tol=1e-4) == loose
        assert calls == [2, 2, 2]

    def test_warm_ab_residue_names_energy_ab(self, monkeypatch, w0):
        # unequal spheres evaluate BA and AB as two rows; corrupt AB alone
        ctx = PairContext(SpinningSphere(A, bst(), 300.0),
                          SpinningSphere(50e-9, bst(), 900.0), R)
        good, total = energy_BA(ctx, 0.7 * w0), aux_energy(ctx, 0.7 * w0)
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            assert len(rows) == 2
            return value + 1j * (np.arange(2) == 1)[:, None], roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        message = r"^energy_AB: imaginary residue 1\.000e\+00 exceeds"
        with pytest.raises(ArithmeticError, match=message):
            aux_energy(ctx, 0.7 * w0)
        with pytest.raises(ArithmeticError, match=message):
            energy_AB(ctx, 0.7 * w0)
        # the single-kind energy of BA checks BA alone
        assert energy_BA(ctx, 0.7 * w0) == good
        monkeypatch.undo()
        assert aux_energy(ctx, 0.7 * w0) == total

    def test_adjacent_doubles_are_two_shifts(self, monkeypatch, ctx300, w0):
        # shifts one ulp apart are two shifts in a one-point call, as in a
        # sweep: each is evaluated once and weighs its own term
        ws = ctx300._scaled[0]
        wa = 0.7 * w0
        wb = math.nextafter(wa, math.inf)
        assert wa / ws != wb / ws
        shifts = []
        inner = spectral._closed

        def recording(rows, omega_scale, block):
            shifts.append(list(block))
            return inner(rows, omega_scale, block)

        monkeypatch.setattr(spectral, "_closed", recording)
        terms = ((1.0, 0.0, 0.25), (0.0, 1.0, 0.5))     # E(|Omega_A|), E(|Omega_B|)
        e = spectral.general_energy(ctx300, terms, wa, -wb)
        [swept], _, _ = spectral.sweep_energies(ctx300, terms, [wa], [-wb])
        assert shifts == [[wa / ws, wb / ws], [0.0, wa / ws, wb / ws]]
        assert e == approx(swept, rel=1e-15)
        assert e == approx(0.5 * aux_energy(ctx300, wa) + aux_energy(ctx300, wb), rel=1e-15)

    def test_miss_after_hit_in_one_call(self, monkeypatch, ctx300, w0):
        # a shift that an earlier call evaluated and a new one: nothing is
        # kept, so the call evaluates both, in one evaluation
        first = aux_energy(ctx300, 0.7 * w0)
        blocks = []
        inner = spectral._closed_kinds
        monkeypatch.setattr(spectral, "_closed_kinds",
                            lambda ctx, block: blocks.append(list(block)) or inner(ctx, block))
        terms = ((1.0, 0.0, 0.5), (0.0, 1.0, 0.5))
        e = spectral.general_energy(ctx300, terms, 0.7 * w0, 1.1 * w0)
        ws = ctx300._scaled[0]
        assert blocks == [[0.7 * w0 / ws, 1.1 * w0 / ws]]
        assert e == approx(first + aux_energy(ctx300, 1.1 * w0), rel=1e-15)

    def test_failed_hit_before_miss_fills_the_miss(self, monkeypatch, ctx300, w0):
        # a failing shift met before a passing one still raises, after the
        # one evaluation of both
        ws = ctx300._scaled[0]
        bad = 0.7 * w0 / ws
        blocks = []
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            blocks.append(list(shifts))
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 1j * (np.asarray(shifts) == bad), roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        terms = ((1.0, 0.0, 0.5), (0.0, 1.0, 0.5))
        with pytest.raises(ArithmeticError, match="^energy_BA: imaginary residue"):
            spectral.general_energy(ctx300, terms, 0.7 * w0, 1.1 * w0)
        assert blocks == [[bad, 1.1 * w0 / ws]]
        assert math.isfinite(spectral.general_energy(ctx300, terms, 1.1 * w0, 1.3 * w0))

    @pytest.mark.parametrize("t_b", [300.0, 900.0], ids=["one_row", "two_rows"])
    def test_kinds_sum_to_aux(self, w0, t_b):
        ctx = PairContext(SpinningSphere(A, bst(), 300.0),
                          SpinningSphere(50e-9, bst(), t_b), R)
        for omega in (0.0, 0.7 * w0, -2.3 * w0):
            total = aux_energy(ctx, omega)
            assert energy_BA(ctx, omega) + energy_AB(ctx, omega) == approx(total, rel=1e-15)

    @pytest.mark.parametrize("rates, name", [
        ((math.nan, 0.0), "Omega_A = nan"), ((1e10, math.inf), "Omega_B = inf"),
        ((-math.inf, math.nan), "Omega_A = -inf")])
    def test_non_finite_rate_names_it(self, ctx300, rates, name):
        # every term reads both rates, the rest term (s = t = 0) too, as in
        # a sweep, and the error names the non-finite one
        message = f"^{name} rad/s: rotation rates must be finite"
        general = Arrangement("general", (0.6, 0.0, 0.8), (0.0, 0.6, 0.8), (1.0, 0.0, 0.0))
        for arrangement in [Arrangement(kind) for kind in ("rr", "uu", "ur", "uo")] + [general]:
            with pytest.raises(ValueError, match=message):
                energy(ctx300, arrangement, *rates)
            with warnings.catch_warnings():     # numpy rates: no warning before the error
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    energy(ctx300, arrangement, *map(np.float64, rates))
            with pytest.raises(ValueError, match=message):
                delta_energy(ctx300, arrangement, *rates)
            with pytest.raises(ValueError, match=message):
                delta_force(ctx300, arrangement, *rates)
            with pytest.raises(ValueError, match=message):
                spectral.sweep_energies(ctx300, arrangement._terms, [0.0, rates[0]],
                                        [0.0, rates[1]])
        for terms in (((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)), ((0.0, 0.0, 1.0),)):
            with pytest.raises(ValueError, match=message):
                spectral.general_energy(ctx300, terms, *rates)
        if name.startswith("Omega_A"):
            with pytest.raises(ValueError, match=message):
                aux_energy(ctx300, rates[0])

    @pytest.mark.parametrize("rates", [(1e308, 0.0), (0.0, -1e308), (1e308, -1e308)])
    def test_overflowing_shift_names_both_rates(self, monkeypatch, ctx300, rates):
        # huge finite rates: a finite largest shift takes the Doppler images
        # out of the non-retarded regime, and Omega_A - Omega_B = 2e308
        # overflows. Neither rate is called non-finite, one-point calls and
        # sweeps raise the same text, naming both rates, and nothing is
        # evaluated
        both = f"Omega_A = {rates[0]} rad/s, Omega_B = {rates[1]} rad/s: "
        error = ("a shift |s Omega_A - t Omega_B| overflows" if rates == (1e308, -1e308)
                 else "the Doppler images leave the non-retarded regime")
        calls = _record(monkeypatch)
        for kind in ("rr", "uu", "ur", "uo"):
            arrangement = Arrangement(kind)
            entries = [lambda: energy(ctx300, arrangement, *rates),
                       lambda: delta_energy(ctx300, arrangement, *rates),
                       lambda: spectral.sweep_energies(ctx300, arrangement._terms,
                                                       [0.0, rates[0]], [0.0, rates[1]])]
            if rates[1] == 0.0:                     # aux_energy takes Omega_A alone
                entries.append(lambda: aux_energy(ctx300, rates[0]))
            raised = set()
            for call in entries:
                with pytest.raises(ValueError) as err:
                    call()
                raised.add(str(err.value))
            [text] = raised
            assert text.startswith(both + error), text
        assert calls == []

    def test_rest_term_is_one_entry_in_slot_zero(self, monkeypatch, ctx300, w0):
        # the rest term is evaluated once, at shift 0.0, in the one
        # evaluation of its call, as a shift that cancels to 0, with the same bits
        blocks = []
        inner = spectral._closed_kinds

        def recording(ctx, shifts):
            blocks.append(list(shifts))
            return inner(ctx, shifts)

        monkeypatch.setattr(spectral, "_closed_kinds", recording)
        rates = (0.9 * w0, 0.2 * w0)
        rr, uo = Arrangement("rr"), Arrangement("uo")
        for call in (lambda: energy(ctx300, rr, *rates),
                     lambda: delta_energy(ctx300, uo, *rates),
                     lambda: spectral.sweep_energies(ctx300, rr._terms, [rates[0]],
                                                     [rates[1]])):
            call()
            [shifts] = blocks
            assert shifts.count(0.0) == 1
            blocks.clear()
        rest = spectral.general_energy(ctx300, ((0.0, 0.0, 1.0),), *rates)
        assert blocks == [[0.0]]
        assert spectral.general_energy(ctx300, ((1.0, 1.0, 1.0),), 0.5 * w0, 0.5 * w0) == rest


def _outcome(call, rel):
    """A lookup's value, or the type and message of what it raised."""
    try:
        return call(rel)
    except (ArithmeticError, ConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


def _rel_tols(seed):
    """Seeded rel_tols in [1e-17, 1e-2], with repeats, a descending run, NaN, inf, 0 and -1."""
    draws = list(10.0 ** np.random.default_rng(seed).uniform(-17.0, -2.0, 40))
    return (draws[:15] + [draws[3], draws[3], draws[14]]
            + sorted(draws[15:25], reverse=True) + [math.nan, draws[3], math.inf, 0.0]
            + draws[25:] + [-1.0, draws[14]])


def _checked_sums(ctx, shifts, rel):
    """BA + AB of one evaluation of ``shifts``, each value checked as _check checks it.

    A shift that fails holds NaN and the (kind, value, roundoff, residue) of
    its first failing kind, BA before AB, in the second list.
    """
    values, roundoff = spectral._closed_kinds(ctx, shifts)
    sums, failures = [], []
    for j in range(len(shifts)):
        kinds = [(which, values[k, j].real, roundoff[k, j], values[k, j].imag)
                 for k, which in enumerate(spectral._KINDS)]
        failed = [kind for kind in kinds
                  if abs(kind[3]) > kind[2]
                  or kind[2] > spectral.DEFAULT_ABS_TOL and kind[2] > rel * abs(kind[1])]
        sums.append(math.nan if failed else kinds[0][1] + kinds[1][1])
        failures.append(failed[0] if failed else None)
    return sums, failures


class TestPassedTolerance:
    """Each call checks its own evaluation at its own rel_tol."""

    @pytest.mark.parametrize("t_a, mat_b, t_b, seed", [
        (300.0, bst(), 300.0, 1),
        (0.0, MaterialModel(8.0, 6.5e9, 4e8), 900.0, 2),
    ], ids=["bst_300K", "unequal_0K_900K"])
    def test_warm_lookups_match_cold(self, w0, t_a, mat_b, t_b, seed):
        # call by call, a context that the earlier calls used gives what a
        # fresh equal context gives; the roundoff estimates sit between
        # 3e-15 and 2e-13 of the values, so the draws pass and fail in turn
        def context():
            return PairContext(SpinningSphere(A, bst(), t_a),
                               SpinningSphere(50e-9, mat_b, t_b), R)

        rates = (1.3 * w0, -0.4 * w0)
        calls = [lambda ctx, rel, kind=kind: energy(ctx, Arrangement(kind), *rates, rel)
                 for kind in ("rr", "uu", "ur", "uo")]
        calls += [lambda ctx, rel: delta_force(ctx, Arrangement("uo"), *rates, rel),
                  lambda ctx, rel: aux_energy(ctx, 2.0 * w0, rel),
                  lambda ctx, rel: energy_BA(ctx, 0.7 * w0, rel)]
        warm = context()
        seen = set()
        for rel in _rel_tols(seed):
            for call in calls:
                cold = _outcome(functools.partial(call, context()), rel)
                got = _outcome(functools.partial(call, warm), rel)
                assert got == cold, (rel, got, cold)
                seen.add(got[0] if isinstance(got, tuple) else float)
        assert seen == {float, ConvergenceError, ValueError}     # ValueError: NaN, 0, -1

    @pytest.mark.parametrize("context", [
        "ctx300", "ctx0",
        lambda: PairContext(SpinningSphere(A, bst(), 0.0),
                            SpinningSphere(50e-9, MaterialModel(8.0, 6.5e9, 4e8), 900.0), R),
    ], ids=["bst_300K", "bst_0K", "unequal_0K_900K"])
    def test_table_holds_checked_sums(self, request, w0, context):
        # the table of row energies a sweep returns holds what one evaluation
        # of its shifts gives checked value by value: 2 sum c (BA + AB), or
        # NaN and the error of the row's first failing term. At 0 K the
        # roundoff estimates of BST sit below DEFAULT_ABS_TOL, so its rows
        # pass every rel_tol
        ctx = request.getfixturevalue(context) if isinstance(context, str) else context()
        grid = [(k * 0.3 * w0, -0.4 * k * 0.3 * w0) for k in range(15)]
        terms = Arrangement("uo")._terms
        ws = ctx._scaled[0]

        def shift(s, t, rates):
            return abs(s * rates[0] - t * rates[1]) / ws

        shifts = sorted({shift(s, t, rates) for rates in [*grid, (0.0, 0.0)] for s, t, _ in terms})
        failed = 0
        for rel in (1e-8, 1e-13, 3e-14, 1e-17):
            energies, rest, errors = spectral.sweep_energies(ctx, terms, *zip(*grid), rel)
            sums, first = map(dict, (zip(shifts, column)
                                     for column in _checked_sums(ctx, shifts, rel)))
            for k, (rates, e) in enumerate([*zip(grid, energies), ((0.0, 0.0), rest)]):
                row = [shift(s, t, rates) for s, t, _ in terms]
                failure = next((first[x] for x in row if first[x]), None)
                key = k if k < len(grid) else None
                if failure:
                    assert math.isnan(e)
                    error = errors.pop(key)
                    want = spectral._failure("energy_" + failure[0], *failure[1:], rel)
                    assert str(error) == str(want)
                    failed += 1
                else:
                    total = 0.0
                    for (_, _, c), x in zip(terms, row):
                        total += c * sums[x]
                    assert e == 2.0 * ctx._joules * total
            assert errors == {}
        assert (failed == 0) == (ctx is request.getfixturevalue("ctx0"))

    def test_tight_lookup_after_loose_pass_raises(self, ctx300, w0):
        # each tolerance checks its own evaluation: the shift fails at the
        # tight one whatever passed before, and each call gives the same bits
        loose = aux_energy(ctx300, 2.0 * w0, rel_tol=1e-2)
        with pytest.raises(ConvergenceError, match="^energy_BA: rel_tol 1.0e-17 is below") as err:
            aux_energy(ctx300, 2.0 * w0, rel_tol=1e-17)
        assert 2.0 * ctx300._joules * 0.5 * err.value.value != loose
        assert err.value.estimate > 1e-17 * abs(err.value.value)
        assert aux_energy(ctx300, 2.0 * w0, rel_tol=1e-2) == loose
        with pytest.raises(ConvergenceError, match="^energy_BA: rel_tol 1.0e-17 is below"):
            aux_energy(ctx300, 2.0 * w0, rel_tol=1e-17)

    def test_single_kind_lookups_leave_it_unset(self, monkeypatch, w0):
        # the single-kind energies check their own kind: they raise the
        # errors of the weighted sums, in the same order
        ctx = PairContext(SpinningSphere(A, bst(), 0.0),
                          SpinningSphere(50e-9, MaterialModel(8.0, 6.5e9, 4e8), 900.0), R)
        for which, lookup in (("BA", energy_BA), ("AB", energy_AB)):
            value, roundoff = shift_integral(ctx, 0.7 * w0, which)
            assert lookup(ctx, 0.7 * w0) == ctx._joules * value
            assert lookup(ctx, -0.7 * w0, rel_tol=1e-2) == ctx._joules * value
            with pytest.raises(ValueError, match="^Omega_A = nan rad/s"):
                lookup(ctx, math.nan)
            with pytest.raises(ValueError, match=f"^energy_{which}: rel_tol must be > 0"):
                lookup(ctx, 0.7 * w0, rel_tol=0.0)
        with pytest.raises(ConvergenceError, match="^energy_BA: rel_tol 1.0e-17"):
            energy_BA(ctx, 2.0 * w0, rel_tol=1e-17)
        # AB at T_A = 0 has a roundoff estimate below DEFAULT_ABS_TOL, which passes
        value, roundoff = shift_integral(ctx, 2.0 * w0, "AB")
        assert roundoff < spectral.DEFAULT_ABS_TOL
        assert energy_AB(ctx, 2.0 * w0, rel_tol=1e-17) == ctx._joules * value
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 1j, roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        for which, lookup in (("BA", energy_BA), ("AB", energy_AB)):
            # the residue before the tolerance, which BA at 2 w0 fails
            with pytest.raises(ArithmeticError, match=f"^energy_{which}: imaginary residue"):
                lookup(ctx, 2.0 * w0, rel_tol=1e-17)

    @pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1.0])
    def test_rel_tol_not_positive_raises_and_is_not_recorded(self, monkeypatch, ctx300, ctx0,
                                                             w0, rel_tol):
        # raised before any evaluation by every entry point, and after a
        # non-finite rate's error; the message names the entry point that
        # was called
        uo = Arrangement("uo")
        message = "^general_energy: rel_tol must be > 0"
        calls = _record(monkeypatch)
        for ctx in (ctx300, ctx0):
            calls.clear()
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    aux_energy(ctx, 2.0 * w0, rel_tol)
                with pytest.raises(ValueError, match=message):
                    energy(ctx, Arrangement("rr"), 2.0 * w0, 0.0, rel_tol)
                with pytest.raises(ValueError, match="^sweep_energies: rel_tol must be > 0"):
                    spectral.sweep_energies(ctx, uo._terms, [2.0 * w0], [0.0], rel_tol)
                with pytest.raises(ValueError, match="^energy_BA: rel_tol must be > 0"):
                    energy_BA(ctx, 2.0 * w0, rel_tol)
                with pytest.raises(ValueError, match="^energy_AB: rel_tol must be > 0"):
                    energy_AB(ctx, 2.0 * w0, rel_tol)
            assert calls == []
            aux_energy(ctx, 2.0 * w0)
            with pytest.raises(ValueError, match="^Omega_A = nan rad/s"):
                energy(ctx, uo, math.nan, 0.0, rel_tol)
            with pytest.raises(ValueError, match="^Omega_A = nan rad/s"):
                energy_BA(ctx, math.nan, rel_tol)

    @pytest.mark.parametrize("rel_tol", [1e-2, math.inf])
    def test_corrupted_residue_raises_after_passed_slots(self, monkeypatch, ctx300,
                                                         w0, rel_tol):
        # the passing shift 0.7 w0 comes first; the corrupted 1.1 w0 fails
        # at any rel_tol and raises each time. Nothing is kept: once the
        # corruption ends, the same context gives what a fresh one gives
        terms = ((1.0, 0.0, 0.5), (0.0, 1.0, 0.5))
        good = spectral.general_energy(ctx300, terms, 0.7 * w0, 1.1 * w0, rel_tol)
        bad = 1.1 * w0 / ctx300._scaled[0]
        inner = spectral._closed

        def corrupt(rows, omega_scale, shifts):
            value, roundoff = inner(rows, omega_scale, shifts)
            return value + 1j * (np.asarray(shifts) == bad), roundoff

        monkeypatch.setattr(spectral, "_closed", corrupt)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="^energy_BA: imaginary residue") as err:
                spectral.general_energy(ctx300, terms, 0.7 * w0, 1.1 * w0, rel_tol)
        assert "1.000e+00 exceeds" in str(err.value)
        assert math.isfinite(aux_energy(ctx300, 0.7 * w0, rel_tol))
        monkeypatch.undo()
        assert spectral.general_energy(ctx300, terms, 0.7 * w0, 1.1 * w0, rel_tol) == good
        fresh = PairContext(ctx300.sphere_a, ctx300.sphere_b, ctx300.separation)
        assert spectral.general_energy(fresh, terms, 0.7 * w0, 1.1 * w0, rel_tol) == good


class TestPairContext:
    def test_geometry_validation(self, material):
        sphere = SpinningSphere(A, material, 300.0)
        with pytest.raises(ValueError):
            PairContext(sphere, sphere, 100e-9)     # overlapping
        with pytest.raises(ValueError):
            PairContext(sphere, sphere, 0.05)       # retarded regime

    def test_non_retarded_bound_follows_the_material(self, material):
        # R w/c <= 0.1, w the largest resonance or damping rate: 2.3 mm for BST
        sphere = SpinningSphere(A, material, 300.0)
        assert PairContext(sphere, sphere, 1e-3).separation == 1e-3
        fast = SpinningSphere(A, MaterialModel(12.2, 5.7e12, 2.8e11), 300.0)
        for pair, separation, reach in (((sphere, sphere), 1e-2, "0.428"),
                                        ((sphere, fast), 5e-3, "214"),
                                        ((sphere, sphere), math.nan, "nan")):
            with pytest.raises(ValueError, match=rf"non-retarded regime: R w/c = {reach} "):
                PairContext(*pair, separation)
