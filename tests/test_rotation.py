"""The tensor view of a spinning sphere, as the reference keeps it.

Every tensor is a plain 3x3 array; ``e[0, 0]``, ``e[0, 1]`` and ``e[2, 2]``
are its xx, xy and zz entries.
"""

import functools

import numpy as np
import pytest

from reference import axis_rotate, fdt_weights, noneq_fdt_hadamard, spin_tensor
from spinvdw.response import SpinningSphere, bst, hadamard, polarizability

# SI energies, forces and polarizabilities are far below pytest.approx's
# default absolute tolerance of 1e-12, which would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)

A = 60e-9


@pytest.fixture(scope="module")
def alpha_fn():
    s = SpinningSphere(A, bst(), 300.0)
    return lambda w: polarizability(s, w)


@pytest.fixture(scope="module")
def eta_fn_300():
    s = SpinningSphere(A, bst(), 300.0)
    return lambda w: hadamard(s, w, 300.0)


class TestSpinTransform:
    def test_no_rotation_is_isotropic(self, alpha_fn, w0):
        t = spin_tensor(alpha_fn, 0.0, 0.7 * w0)
        val = alpha_fn(0.7 * w0)
        np.testing.assert_allclose(t, np.eye(3) * val, rtol=1e-15)

    def test_structure(self, alpha_fn, w0):
        e = spin_tensor(alpha_fn, 1.3 * w0, -0.4 * w0)
        assert e[0, 0] == e[1, 1]
        assert e[0, 1] == -e[1, 0]
        for k in range(2):
            assert e[k, 2] == 0.0 and e[2, k] == 0.0
        # antisymmetric part consistent with the half-difference formula
        plus, minus = alpha_fn(0.9 * w0), alpha_fn(-1.7 * w0)
        assert e[0, 1] == approx(0.5j * (plus - minus), rel=1e-14)

    def test_resonant_entry_against_direct_evaluation(self, alpha_fn, w0):
        # Omega = 2 w0, w = -w0: xx = [alpha(w0) + alpha(-3 w0)]/2, dominated
        # by the resonant alpha(w0) which is finite because gamma0 > 0
        xx = spin_tensor(alpha_fn, 2.0 * w0, -w0)[0, 0]
        want = 0.5 * (alpha_fn(w0) + alpha_fn(-3.0 * w0))
        assert xx == approx(want, rel=1e-14)
        assert abs(xx.imag) > 10.0 * abs(alpha_fn(-3.0 * w0))

    def test_hadamard_entry_classes(self, eta_fn_300, w0):
        t = spin_tensor(eta_fn_300, 0.8 * w0, 1.1 * w0)
        mag = np.abs(t).max()
        assert abs(t[0, 0].imag) < 1e-13 * mag and abs(t[2, 2].imag) < 1e-13 * mag
        assert abs(t[0, 1].real) < 1e-13 * mag
        # xy odd under w -> -w
        tm = spin_tensor(eta_fn_300, 0.8 * w0, -1.1 * w0)
        assert tm[0, 1] == approx(-t[0, 1], rel=1e-13)


class TestAxisRotate:
    def test_z_axis_identity(self, alpha_fn, w0):
        t = spin_tensor(alpha_fn, w0, 0.5 * w0)
        r = axis_rotate(t, (0.0, 0.0, 1.0))
        np.testing.assert_array_equal(r, t)

    def test_x_axis_hand_case(self, alpha_fn, w0):
        t = spin_tensor(alpha_fn, w0, 0.5 * w0)
        p, s, q = t[0, 0], t[0, 1], t[2, 2]
        want = np.array([[q, 0, 0], [0, p, s], [0, -s, p]])
        got = axis_rotate(t, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(got, want, atol=1e-15 * abs(p))

    def test_rotation_choice_irrelevant(self, alpha_fn, w0):
        t = spin_tensor(alpha_fn, w0, 0.5 * w0)
        ax = np.array([1.0, 2.0, -0.5])
        ax /= np.linalg.norm(ax)
        r1 = axis_rotate(t, ax, spin=0.0)
        r2 = axis_rotate(t, ax, spin=2.1)
        scale = np.abs(r1).max()
        assert np.abs(r1 - r2).max() < 1e-13 * scale

    def test_non_unit_axis_rejected(self, alpha_fn, w0):
        t = spin_tensor(alpha_fn, w0, 0.5 * w0)
        with pytest.raises(ValueError):
            axis_rotate(t, (0.0, 0.0, 2.0))

    def test_minus_z(self, alpha_fn, w0):
        # flipping the axis flips the sense of rotation: xy changes sign
        t = spin_tensor(alpha_fn, w0, 0.5 * w0)
        r = axis_rotate(t, (0.0, 0.0, -1.0))
        assert r[0, 1] == approx(-t[0, 1], rel=1e-14)
        assert r[0, 0] == approx(t[0, 0], rel=1e-14)


class TestFdtWeights:
    def test_zero_temperature_branches(self, w0):
        f, g = fdt_weights(1.5 * w0, w0, 0.0)      # |w| > |Omega|
        assert (f, g) == (1.0, 0.0)
        f, g = fdt_weights(-1.5 * w0, w0, 0.0)
        assert (f, g) == (-1.0, 0.0)
        f, g = fdt_weights(0.5 * w0, w0, 0.0)      # |w| < |Omega|
        assert (f, g) == (0.0, -1.0)
        f, g = fdt_weights(0.5 * w0, -w0, 0.0)
        assert (f, g) == (0.0, 1.0)

    def test_omega_zero_reduces_to_coth(self, w0):
        from spinvdw.response import HBAR, K_B
        f, g = fdt_weights(0.9 * w0, 0.0, 300.0)
        assert g == 0.0
        assert f == approx(1.0 / np.tanh(HBAR * 0.9 * w0 /
                                                (2 * K_B * 300.0)), rel=1e-14)


class TestNoneqFdt:
    def test_paper_branch_above_rotation(self, alpha_fn, w0):
        # |w| > |Omega| at T = 0: eta_xy = -2i sgn(w) Re alpha_xy
        Om, w = 0.6 * w0, 1.7 * w0
        at = spin_tensor(alpha_fn, Om, w)
        ht = noneq_fdt_hadamard(alpha_fn, Om, w, 0.0)
        assert ht[0, 1] == approx(-2j * np.sign(w) * at[0, 1].real, rel=1e-13)
        assert ht[0, 0] == approx(2.0 * np.sign(w) * at[0, 0].imag, rel=1e-13)

    def test_no_rotation_reduces_to_equilibrium(self, alpha_fn, eta_fn_300, w0):
        ht = noneq_fdt_hadamard(alpha_fn, 0.0, 1.3 * w0, 300.0)
        np.testing.assert_allclose(ht, np.eye(3) * eta_fn_300(1.3 * w0),
                                   rtol=1e-12)

    @pytest.mark.parametrize("temperature", [0.0, 300.0, 1500.0])
    @pytest.mark.parametrize("om_frac", [0.0, 0.5, 1.0, 2.5])
    def test_consistency_with_direct_transform(self, alpha_fn, w0,
                                               temperature, om_frac):
        # the central identity: transforming eta directly equals rebuilding
        # it from the lab-frame alpha through the modified FDT relations
        s = SpinningSphere(A, bst(), temperature)
        eta_fn = lambda w: hadamard(s, w, temperature)
        Om = om_frac * w0
        for u in np.arange(-4.875, 5.0, 0.375):
            w = u * w0
            direct = spin_tensor(eta_fn, Om, w)
            built = noneq_fdt_hadamard(alpha_fn, Om, w, temperature)
            scale = np.abs(direct).max()
            assert np.abs(direct - built).max() <= 1e-12 * scale

    def test_branch_point_exact_hit(self, alpha_fn, w0):
        # measure-zero |w| = |Omega| evaluations stay finite and continuous
        s = SpinningSphere(A, bst(), 300.0)
        eta_fn = lambda w: hadamard(s, w, 300.0)
        Om = 0.5 * w0
        direct = spin_tensor(eta_fn, Om, Om)
        built = noneq_fdt_hadamard(alpha_fn, Om, Om, 300.0)
        scale = np.abs(direct).max()
        assert np.abs(direct - built).max() < 1e-9 * scale

    def test_naive_equilibrium_misses_offdiagonal(self, alpha_fn, eta_fn_300, w0):
        # a lab-frame equilibrium FDT would force eta_xy = 0; the direct
        # transform disagrees whenever the shifted arguments differ
        Om = w0
        w = w0 - 0.5 * Om
        t = spin_tensor(eta_fn_300, Om, w)
        assert abs(t[0, 1]) > 0.1 * abs(t[0, 0])

    def test_entry_reality_classes(self, alpha_fn, w0):
        ht = noneq_fdt_hadamard(alpha_fn, 0.7 * w0, 1.9 * w0, 1500.0)
        mag = np.abs(ht).max()
        assert abs(ht[0, 0].imag) < 1e-13 * mag
        assert abs(ht[0, 1].real) < 1e-13 * mag
