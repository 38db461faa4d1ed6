"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from repro.hw.platforms import DECSTATION_5000_200
from repro.sim.engine import Simulator
from repro.world.configs import build_network
from repro.world.network import Network

# Tier-1 and CI draw the same examples on every run (no example database
# carries a failure from one run into the next); the nightly job opts
# into random search with ``--hypothesis-profile nightly``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("nightly", derandomize=False, database=None)
settings.load_profile("tier1")


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def network():
    """A bare two-host network (no placement) on the DECstation platform."""
    net = Network()
    net.add_host("10.0.0.1", DECSTATION_5000_200, name="alpha")
    net.add_host("10.0.0.2", DECSTATION_5000_200, name="beta")
    return net


def build(config_key, platform="decstation"):
    """Convenience wrapper used across integration tests."""
    return build_network(config_key, platform=platform)


@pytest.fixture(params=["mach25", "ux", "library-shm-ipf"])
def any_placement_pair(request):
    """One representative of each placement style."""
    net, pa, pb = build_network(request.param)
    return request.param, net, pa, pb
