import pytest

from spinvdw import bst, resonance_frequency
from spinvdw.response import SpinningSphere
from spinvdw.spectral import PairContext

RADIUS = 60e-9
SEPARATION = 180e-9


@pytest.fixture(scope="session")
def material():
    return bst()


@pytest.fixture(scope="session")
def w0(material):
    return resonance_frequency(material)


@pytest.fixture(scope="session")
def gamma0(material):
    return material.gamma0


def make_pair(material, temperature):
    sphere = SpinningSphere(RADIUS, material, temperature)
    return PairContext(sphere, sphere, SEPARATION)


@pytest.fixture(scope="session")
def ctx300(material):
    return make_pair(material, 300.0)


@pytest.fixture(scope="session")
def ctx1500(material):
    return make_pair(material, 1500.0)


@pytest.fixture(scope="session")
def ctx0(material):
    return make_pair(material, 0.0)


@pytest.fixture(scope="session")
def ctx_smallgamma():
    # nearly dissipationless pair at T = 0 for closed-form comparisons
    return make_pair(bst(gamma_scale=1e-3), 0.0)
