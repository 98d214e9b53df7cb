import functools
import math

import numpy as np
import pytest

from spinvdw.response import (EPS0, HBAR, K_B, MaterialModel, PoleProximityError,
                              SpinningSphere, bst, hadamard,
                              im_polarizability_over_omega, permittivity,
                              polarizability, resonance_frequency)

# SI energies, forces and polarizabilities are far below pytest.approx's
# default absolute tolerance of 1e-12, which would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)

A = 60e-9


def sphere(temperature=300.0, **kw):
    return SpinningSphere(A, bst(), temperature, **kw)


def alpha_scale(radius=A):
    return 4.0 * np.pi * EPS0 * radius**3


class TestPermittivity:
    def test_static_value(self, material):
        # eps(0)/eps0 = 1 + f0
        assert permittivity(material, 0.0) == approx(13.2, rel=1e-14)

    def test_transparency_limit(self, material):
        assert abs(permittivity(material, 1e16) - 1.0) < 1e-10

    def test_imaginary_axis_value(self, material):
        # hand evaluation at i*wt0: 1 + f0/(2 + gamma0/wt0)
        want = 1.0 + 12.2 / (2.0 + 2.8e8 / 5.7e9)
        got = permittivity(material, 1j * material.omega_tilde0)
        assert got == approx(6.953767123287671, rel=1e-12)
        assert got == approx(want, rel=1e-14)
        assert got.imag == 0.0

    def test_imaginary_axis_real_decreasing(self, material):
        xi = np.logspace(8, 12, 40)
        eps = permittivity(material, 1j * xi)
        assert np.all(np.abs(eps.imag) == 0.0)
        assert np.all(eps.real >= 1.0)
        assert np.all(np.diff(eps.real) < 0.0)

    def test_pole_rejected(self):
        lossless = MaterialModel(12.2, 5.7e9, 0.0)
        with pytest.raises(PoleProximityError):
            permittivity(lossless, lossless.omega_tilde0)


class TestPolarizability:
    def test_static_value(self):
        # f0/(3+f0) in units of 4*pi*eps0*a^3
        a0 = polarizability(sphere(), 0.0)
        assert a0.imag == 0.0
        assert a0.real / alpha_scale() == approx(12.2 / 15.2, rel=1e-12)

    def test_resonance_purely_imaginary(self, material, w0):
        val = polarizability(sphere(), w0)
        want = alpha_scale() * material.f0 * material.omega_tilde0**2 / (
            3.0 * material.gamma0 * w0)
        assert abs(val.real) < 1e-9 * abs(val)
        assert val.imag == approx(want, rel=1e-9)

    def test_reality_condition(self, w0):
        s = sphere()
        w = np.linspace(-4 * w0, 4 * w0, 31)
        a = polarizability(s, w)
        np.testing.assert_allclose(a[::-1], a.conj(), rtol=1e-14)

    def test_passivity(self, w0):
        s = sphere()
        w = np.linspace(-5 * w0, 5 * w0, 101)
        assert np.all(polarizability(s, w).imag * w >= 0.0)

    def test_dissipationless_pole(self, w0):
        s = SpinningSphere(A, MaterialModel(12.2, 5.7e9, 0.0), 0.0)
        with pytest.raises(PoleProximityError):
            polarizability(s, resonance_frequency(s.material))


class TestResonanceFrequency:
    def test_bst_value(self, material):
        assert resonance_frequency(material) == approx(
            5.7e9 * math.sqrt(1.0 + 12.2 / 3.0), rel=1e-15)
        assert resonance_frequency(material) == approx(1.2830276692e10, rel=1e-9)

    def test_limits(self):
        assert resonance_frequency(MaterialModel(1e-300, 5.0, 0.0)) == approx(5.0)
        assert resonance_frequency(MaterialModel(3.0, 5.0, 0.0)) == approx(
            5.0 * math.sqrt(2.0), rel=1e-15)


class TestHadamard:
    def test_zero_temperature_is_sign_branch(self, w0):
        s = sphere(0.0)
        for w in (0.3 * w0, -0.7 * w0, 2.0 * w0):
            want = 2.0 * np.sign(w) * polarizability(s, w).imag
            assert hadamard(s, w, 0.0) == approx(want, rel=1e-14)

    def test_even_and_nonnegative(self, w0):
        s = sphere(300.0)
        w = np.linspace(0.01 * w0, 5 * w0, 57)
        eta_p = hadamard(s, w)
        eta_m = hadamard(s, -w)
        np.testing.assert_allclose(eta_p, eta_m, rtol=1e-14)
        assert np.all(eta_p >= 0.0)

    def test_static_limit_1500K(self, material, w0):
        # series limit: (4 kT/hbar) * 4 pi eps0 a^3 f0 wt0^2 gamma0 / (3 w0^4)
        want = (4.0 * K_B * 1500.0 / HBAR) * alpha_scale() * material.f0 \
            * material.omega_tilde0**2 * material.gamma0 / (3.0 * w0**4)
        got = hadamard(sphere(1500.0), 0.0)
        assert got == approx(want, rel=1e-8)

    def test_monotone_in_temperature(self, w0):
        s = sphere()
        for w in (0.2 * w0, 1.1 * w0, 3.0 * w0):
            assert hadamard(s, w, 1500.0) > hadamard(s, w, 300.0) > 0.0

    def test_continuous_through_zero(self, w0):
        s = sphere(300.0)
        w = np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6]) * w0
        eta = hadamard(s, w)
        assert np.all(np.abs(eta / eta[2] - 1.0) < 1e-10)

    def test_im_alpha_over_omega_limit(self, w0):
        s = sphere()
        got = im_polarizability_over_omega(s, 0.0)
        fd = polarizability(s, 1e-3).imag / 1e-3
        assert got == approx(fd, rel=1e-10)


class TestValidation:
    def test_material_invariants(self):
        with pytest.raises(ValueError):
            MaterialModel(-1.0, 5.7e9, 2.8e8)
        with pytest.raises(ValueError):
            MaterialModel(12.2, 0.0, 2.8e8)
        with pytest.raises(ValueError):
            MaterialModel(12.2, 5.7e9, -1.0)
        # a constant that is not finite, or a resonance that overflows, names its field
        for constants, field in (((math.inf, 5.7e9, 2.8e8), "f0"),
                                 ((12.2, math.inf, 2.8e8), "omega_tilde0"),
                                 ((12.2, 5.7e9, math.inf), "gamma0"),
                                 ((12.2, 1.7e308, 2.8e8), "omega_tilde0")):
            with pytest.raises(ValueError, match=f"^{field} "):
                MaterialModel(*constants)

    def test_sphere_invariants(self):
        with pytest.raises(ValueError):
            SpinningSphere(-A, bst())
        with pytest.raises(ValueError):
            SpinningSphere(A, bst(), -5.0)
        # theta = hbar w/2kT would be 0, the closed form's mark of T = 0
        with pytest.raises(ValueError, match="^temperature must be finite, got inf$"):
            SpinningSphere(A, bst(), math.inf)

    def test_resonance_above_bare_frequency(self, material):
        assert resonance_frequency(material) > material.omega_tilde0
        assert math.isfinite(resonance_frequency(material))


class TestScaledMaterial:
    def test_scaled_material_consistency(self, material, w0):
        # evaluating the scaled material at w/ws must match the SI evaluation
        scaled = material.scaled(w0)
        for u in (0.0, 0.31, 2.7):
            assert permittivity(scaled, u) == approx(
                permittivity(material, u * w0), rel=1e-14)
