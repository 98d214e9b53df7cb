import functools
import math

import numpy as np
import pytest

from reference import naive_fdt_quadrature
from spinvdw.baseline import (MatsubaraSpec, hamaker_constant,
                              matsubara_static_energy, naive_fdt_energy_rr,
                              static_energy_estimate, static_force_estimate)
from spinvdw.configurations import Arrangement, energy, rest_energy
from spinvdw.response import K_B, MaterialModel, SpinningSphere, bst, resonance_frequency
from spinvdw.spectral import ConvergenceError, PairContext

# SI energies, forces and polarizabilities are far below pytest.approx's
# default absolute tolerance of 1e-12, which would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)

A = 60e-9
R = 180e-9
RR = Arrangement("rr")


class TestMatsubara:
    def test_n0_term_value(self, ctx300):
        # n = 0 dominates for a GHz resonance: Delta(0)^2 = (12.2/15.2)^2
        d0sq = (12.2 / 15.2) ** 2
        want = -6.0 * K_B * 300.0 * (A / R) ** 6 * 0.5 * d0sq
        got = matsubara_static_energy(ctx300, MatsubaraSpec(300.0))
        assert got == approx(want, rel=1e-8)
        assert d0sq == approx(0.6442, abs=2e-4)

    def test_matches_spectral_rest_energy(self, ctx300):
        # Wick rotation consistency: the imaginary-axis sum reproduces the
        # real-axis nonequilibrium integral at zero rotation
        e_sum = matsubara_static_energy(ctx300, MatsubaraSpec(300.0))
        assert rest_energy(ctx300) == approx(e_sum, rel=1e-6)

    def test_exchange_symmetric(self, ctx300):
        spec = MatsubaraSpec(300.0)
        assert matsubara_static_energy(ctx300.swapped(), spec) == approx(
            matsubara_static_energy(ctx300, spec), rel=1e-14)

    def test_r_scaling(self, ctx300):
        spec = MatsubaraSpec(300.0)
        near = matsubara_static_energy(ctx300, spec)
        far = matsubara_static_energy(
            PairContext(ctx300.sphere_a, ctx300.sphere_b, 2.0 * R), spec)
        assert far == approx(near / 64.0, rel=1e-14)

    def test_terms_decreasing(self, material):
        from spinvdw.response import permittivity
        spec = MatsubaraSpec(300.0)
        xi = spec.frequency(np.arange(0, 6))
        eps = np.real(permittivity(material, 1j * xi))
        terms = ((eps - 1.0) / (eps + 2.0)) ** 2
        assert np.all(terms > 0.0)
        assert np.all(np.diff(terms) < 0.0)

    def test_zero_temperature_rejected(self):
        with pytest.raises(ValueError):
            MatsubaraSpec(0.0)

    def test_nonconvergence_reported(self, ctx300):
        with pytest.raises(ConvergenceError):
            matsubara_static_energy(ctx300, MatsubaraSpec(300.0, max_terms=2,
                                                          term_tol=1e-30))


class TestHamaker:
    def test_n0_hand_value(self, material):
        # [(13.2-1)/(13.2+1)]^2 = 0.738..., halved for n = 0
        want = 1.5 * K_B * 300.0 * 0.5 * (12.2 / 14.2) ** 2
        got = hamaker_constant(material, MatsubaraSpec(300.0))
        assert got == approx(want, rel=1e-8)
        assert (12.2 / 14.2) ** 2 == approx(0.738, abs=5e-4)

    def test_positive(self, material):
        assert hamaker_constant(material, MatsubaraSpec(300.0)) > 0.0
        assert hamaker_constant(material, MatsubaraSpec(1500.0)) > 0.0

    def test_consistency_with_matsubara_energy(self, ctx300):
        # the two routes to the static energy agree to order of magnitude
        spec = MatsubaraSpec(300.0)
        h = hamaker_constant(ctx300.sphere_a.material, spec)
        e_h = static_energy_estimate(h, A, R)
        e_m = matsubara_static_energy(ctx300, spec)
        assert 0.5 <= e_m / e_h <= 2.0


class TestStaticForce:
    def test_reference_magnitude(self):
        # H = 5e-20 J, a = 60 nm, R = 180 nm -> |F| = 4.06 fN
        f = static_force_estimate(5e-20, A, R)
        assert f < 0.0
        assert abs(f) == approx(4.0644e-15, abs=1e-19)

    def test_geometry_factor(self):
        assert (A / R) ** 6 == approx(1.0 / 729.0, rel=1e-12)

    def test_energy_estimate_sign(self):
        assert static_energy_estimate(5e-20, A, R) < 0.0


class TestNaiveFdt:
    def test_equals_full_result_at_rest(self, ctx0):
        naive = naive_fdt_energy_rr(ctx0, 0.0, 0.0)
        assert naive == approx(rest_energy(ctx0), rel=1e-8)

    @pytest.mark.parametrize("rates", [(0.0, 0.0), (1.5, 0.0), (2.0, 0.5), (1.3, -0.6)],
                             ids=["rest", "1.5_0", "2_0.5", "1.3_-0.6"])
    @pytest.mark.parametrize("partner", ["equal", "unequal"])
    def test_matches_quadrature(self, w0, rates, partner):
        # the sum of log divided differences against the quadrature of its
        # integrand; equal materials at rest make every pole pair coincide
        mat_b = bst() if partner == "equal" else MaterialModel(8.0, 6.5e9, 4e8)
        ctx = PairContext(SpinningSphere(A, bst(), 0.0), SpinningSphere(50e-9, mat_b, 0.0), R)
        oa, ob = rates[0] * w0, rates[1] * w0
        want = naive_fdt_quadrature(ctx, oa, ob, rel_tol=1e-10)
        assert naive_fdt_energy_rr(ctx, oa, ob) == approx(want, rel=1e-9)

    @pytest.mark.parametrize("damping", [2.0, 2.0 * (1.0 - 1e-7), 5.0])
    def test_heavy_damping_matches_quadrature(self, damping):
        # critical damping (the mean over the circle) and poles on the
        # imaginary axis, against an underdamped partner
        mat = MaterialModel(12.2, 5.7e9, damping * resonance_frequency(bst()))
        ctx = PairContext(SpinningSphere(A, mat, 0.0), SpinningSphere(A, bst(), 0.0), R)
        w0 = resonance_frequency(mat)
        want = naive_fdt_quadrature(ctx, 1.3 * w0, -0.4 * w0, rel_tol=1e-10)
        assert naive_fdt_energy_rr(ctx, 1.3 * w0, -0.4 * w0) == approx(want, rel=1e-9)

    def test_shift_non_invariance(self, ctx0, w0):
        # the equilibrium assumption breaks the relative-velocity property
        d = 0.5 * w0
        n1 = naive_fdt_energy_rr(ctx0, 1.5 * w0, 0.0)
        n2 = naive_fdt_energy_rr(ctx0, 1.5 * w0 + d, d)
        assert abs(n2 / n1 - 1.0) > 1e-3

    def test_full_result_keeps_invariance(self, ctx0, w0):
        d = 0.5 * w0
        f1 = energy(ctx0, RR, 1.5 * w0, 0.0)
        f2 = energy(ctx0, RR, 1.5 * w0 + d, d)
        assert abs(f2 / f1 - 1.0) < 1e-9

    def test_difference_vanishes_at_slow_rotation(self, ctx0, w0):
        gap_small = abs(naive_fdt_energy_rr(ctx0, 0.01 * w0, 0.0)
                        / energy(ctx0, RR, 0.01 * w0, 0.0) - 1.0)
        gap_large = abs(naive_fdt_energy_rr(ctx0, 1.5 * w0, 0.0)
                        / energy(ctx0, RR, 1.5 * w0, 0.0) - 1.0)
        assert gap_small < 1e-3
        assert gap_large > 1e-3   # clearly resolved gap once spinning
        assert gap_large > 10.0 * gap_small
