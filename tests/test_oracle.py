import functools

import numpy as np
import pytest

from spinvdw.oracle import (LorentzPair, PoleError, aux_closed, eab_closed,
                            eba_closed, ratio_aux, ratio_rr, ratio_uu)
from spinvdw.response import EPS0, HBAR

# SI energies, forces and polarizabilities are far below pytest.approx's
# default absolute tolerance of 1e-12, which would accept any two of them.
approx = functools.partial(pytest.approx, abs=0.0)

W0 = 1.2830276692261942e10
R = 180e-9
ALPHA0 = 0.8026315789473684 * 4.0 * np.pi * EPS0 * (60e-9) ** 3


def identical_pair():
    return LorentzPair(ALPHA0, ALPHA0, W0, W0, R)


class TestEbaClosed:
    def test_static_identical(self):
        # reduces to -hbar alpha0^2 w0 / (512 pi^2 eps0^2 R^6)
        want = -HBAR * ALPHA0**2 * W0 / (512.0 * np.pi**2 * EPS0**2 * R**6)
        assert eba_closed(identical_pair(), 0.0) == approx(want, rel=1e-14)

    def test_identical_spheres_equal_contributions(self):
        pair = identical_pair()
        for om in (0.0, 0.7 * W0, 3.1 * W0):
            assert eba_closed(pair, om) == approx(eab_closed(pair, om),
                                                         rel=1e-14)

    def test_opposite_signs_for_distinct_resonances(self):
        pair = LorentzPair(ALPHA0, ALPHA0, W0, 1.8 * W0, R)
        assert eba_closed(pair, 0.0) * eab_closed(pair, 0.0) < 0.0

    def test_pole_exclusion(self):
        pair = identical_pair()
        with pytest.raises(PoleError):
            eba_closed(pair, 2.0 * W0)
        distinct = LorentzPair(ALPHA0, ALPHA0, W0, 1.5 * W0, R)
        with pytest.raises(PoleError):
            eba_closed(distinct, 0.5 * W0)   # at w0B - w0A

    def test_attractive_below_resonance(self):
        pair = identical_pair()
        assert aux_closed(pair, 0.0) < 0.0
        assert aux_closed(pair, 2.5 * W0) > 0.0   # repulsive beyond 2 w0


class TestRatioAux:
    def test_reference_points(self):
        pair = identical_pair()
        assert ratio_aux(pair, 0.0) == 1.0
        assert ratio_aux(pair, W0) == approx(4.0 / 3.0, rel=1e-14)

    def test_even(self):
        pair = identical_pair()
        assert ratio_aux(pair, 1.3 * W0) == ratio_aux(pair, -1.3 * W0)

    def test_distance_independent(self):
        far = LorentzPair(ALPHA0, ALPHA0, W0, W0, 2 * R)
        assert ratio_aux(identical_pair(), 1.7 * W0) == ratio_aux(far, 1.7 * W0)

    def test_matches_energy_ratio(self):
        pair = LorentzPair(ALPHA0, 2.0 * ALPHA0, W0, 1.4 * W0, R)
        om = 0.9 * W0
        assert aux_closed(pair, om) / aux_closed(pair, 0.0) == approx(
            ratio_aux(pair, om), rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            ratio_aux(identical_pair(), 2.0 * W0)


class TestRatioRR:
    def test_reference_points(self):
        assert ratio_rr(W0, 0.0) == 1.0
        assert ratio_rr(W0, W0) == approx(10.0 / 9.0, rel=1e-14)

    def test_high_frequency_limit(self):
        # the equations give 2/3 (the prose in the source text swaps the
        # rr and uu limits; the equations win here)
        assert ratio_rr(W0, 1e4 * W0) == approx(2.0 / 3.0, rel=1e-6)

    def test_pole(self):
        with pytest.raises(PoleError):
            ratio_rr(W0, -2.0 * W0)


class TestRatioUU:
    def test_zero_rotation_unity(self):
        # 1/12 + 3/4 + 1/6 = 1
        assert ratio_uu(W0, 0.0, 0.0) == approx(1.0, rel=1e-15)

    def test_high_frequency_limit(self):
        assert ratio_uu(W0, 1e4 * W0, 0.0) == approx(1.0 / 6.0, rel=1e-5)

    def test_symmetric(self):
        assert ratio_uu(W0, 0.8 * W0, -0.3 * W0) == ratio_uu(W0, -0.3 * W0, 0.8 * W0)

    def test_corotating_single_pole(self):
        # equal rates: only the sum-frequency pole at Omega = w0 remains
        with pytest.raises(PoleError):
            ratio_uu(W0, W0, W0)
        assert np.isfinite(ratio_uu(W0, 0.9 * W0, 0.9 * W0))

    def test_unity_consistency_with_rr(self):
        assert ratio_rr(W0, 0.0) == ratio_uu(W0, 0.0, 0.0) == 1.0


class TestValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            LorentzPair(-ALPHA0, ALPHA0, W0, W0, R)
        with pytest.raises(ValueError):
            LorentzPair(ALPHA0, ALPHA0, 0.0, W0, R)
