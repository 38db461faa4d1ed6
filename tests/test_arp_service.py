"""The host ARP service: resolution, retry, caching, invalidation."""

import random

import pytest

from repro.faults import BernoulliLoss, FaultPlan
from repro.hw.platforms import DECSTATION_5000_200
from repro.net.addr import ip_aton
from repro.net.arp import ArpTimeout
from repro.stack.context import ExecutionContext
from repro.world.network import Network

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")


def make_pair(**wire_kwargs):
    net = Network(**wire_kwargs)
    a = net.add_host("10.0.0.1", DECSTATION_5000_200, name="a")
    b = net.add_host("10.0.0.2", DECSTATION_5000_200, name="b")
    return net, a, b


def ctx_for(host):
    return ExecutionContext(host.sim, host.cpu)


def test_resolution_round_trip():
    net, a, b = make_pair()

    def prog():
        mac = yield from a.arp.resolve(ctx_for(a), IP2)
        return mac

    mac = net.sim.run_process(prog())
    assert mac == b.mac
    # And b passively learned a's mapping from the request.
    assert b.arp.cache.lookup(IP1) == a.mac


def test_cache_hit_avoids_network():
    net, a, b = make_pair()

    def prog():
        yield from a.arp.resolve(ctx_for(a), IP2)
        sent_before = a.nic.frames_sent
        mac = yield from a.arp.resolve(ctx_for(a), IP2)
        return mac, a.nic.frames_sent - sent_before

    mac, extra_frames = net.sim.run_process(prog())
    assert mac == b.mac
    assert extra_frames == 0


def test_absent_host_times_out():
    net, a, _b = make_pair()

    def prog():
        with pytest.raises(ArpTimeout):
            yield from a.arp.resolve(ctx_for(a), ip_aton("10.0.0.77"))
        return net.sim.now

    elapsed = net.sim.run_process(prog())
    assert elapsed >= 5_000_000  # the full retry budget was spent


def test_retry_survives_lossy_wire():
    rng = random.Random(13)
    net, a, b = make_pair(fault_plan=FaultPlan([BernoulliLoss(0.5)], rng=rng))

    def prog():
        mac = yield from a.arp.resolve(ctx_for(a), IP2)
        return mac

    mac = net.sim.run_process(prog(), until=60_000_000)
    assert mac == b.mac


def test_invalidation_reaches_registered_callbacks():
    net, a, _b = make_pair()
    invalidated = []
    a.arp.register_invalidation(invalidated.append)

    def prog():
        yield from a.arp.resolve(ctx_for(a), IP2)

    net.sim.run_process(prog())
    a.arp.invalidate(IP2)
    assert IP2 in invalidated
    assert a.arp.cache.lookup(IP2) is None


def test_generation_counter_tracks_changes():
    net, a, _b = make_pair()
    gen0 = a.arp.generation

    def prog():
        yield from a.arp.resolve(ctx_for(a), IP2)

    net.sim.run_process(prog())
    assert a.arp.generation > gen0


def test_hosts_answer_only_for_their_own_ip():
    net, a, b = make_pair()

    def prog():
        with pytest.raises(ArpTimeout):
            yield from a.arp.resolve(ctx_for(a), ip_aton("10.0.0.200"))

    net.sim.run_process(prog())
    # b saw the requests but never answered for a foreign address.
    assert b.arp.cache.lookup(IP1) == a.mac  # learned the sender though
