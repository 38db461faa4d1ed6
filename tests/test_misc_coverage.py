"""Coverage for the remaining corners: contexts, configs, events, robustness."""

import pytest

from repro.hw.cpu import CPU, Priority
from repro.hw.platforms import DECSTATION_5000_200, GATEWAY_486
from repro.sim.events import any_of
from repro.stack.context import ExecutionContext, light_locks, spl_locks
from repro.stack.instrument import LayerAccounting


# ----------------------------------------------------------------------
# ExecutionContext and lock packages
# ----------------------------------------------------------------------

def test_charge_attribution_to_layers(sim):
    cpu = CPU(sim, DECSTATION_5000_200)
    acct = LayerAccounting()
    ctx = ExecutionContext(sim, cpu, accounting=acct)

    def prog():
        yield ctx.charge("layerA", 10.0)
        yield ctx.charge("layerA", 5.0)
        yield ctx.charge("layerB", 7.0)

    sim.run_process(prog())
    assert acct.total("layerA") == 15.0
    assert acct.total("layerB") == 7.0
    assert acct.mean("layerA") == 7.5
    assert acct.mean("layerA", per=3) == 5.0
    acct.reset()
    assert acct.total("layerA") == 0.0


def test_charge_copy_and_checksum_scale_with_bytes(sim):
    cpu = CPU(sim, DECSTATION_5000_200)
    acct = LayerAccounting()
    ctx = ExecutionContext(sim, cpu, accounting=acct)

    def prog():
        yield ctx.charge_copy("c", 1000)
        yield ctx.charge("k", ctx.checksum_cost(1000))

    sim.run_process(prog())
    p = DECSTATION_5000_200
    assert acct.total("c") == pytest.approx(p.copy_fixed + 1000 * p.copy_per_byte)
    assert acct.total("k") == pytest.approx(
        p.checksum_fixed + 1000 * p.checksum_per_byte
    )
    assert ctx.crossings.data_copies == 1


def test_lock_packages_differ():
    light = light_locks(DECSTATION_5000_200)
    heavy = spl_locks(DECSTATION_5000_200)
    assert heavy.lock_cost > light.lock_cost
    assert heavy.wakeup_cost > light.wakeup_cost
    assert light.name == "light" and heavy.name == "spl"


# ----------------------------------------------------------------------
# Platform parameters
# ----------------------------------------------------------------------

def test_gateway_derives_from_decstation():
    assert GATEWAY_486.name == "Gateway 486"
    # CPU costs scaled up, NIC per-byte costs overridden, not scaled.
    assert GATEWAY_486.trap == pytest.approx(DECSTATION_5000_200.trap * 1.45)
    assert GATEWAY_486.devmem_read_per_byte == 1.05
    assert GATEWAY_486.devmem_write_per_byte == 0.95


def test_scaled_preserves_name_and_overrides():
    scaled = DECSTATION_5000_200.scaled(2.0, trap=99.0)
    assert scaled.trap == 99.0
    assert scaled.copy_per_byte == pytest.approx(
        DECSTATION_5000_200.copy_per_byte * 2.0
    )
    assert scaled.name == DECSTATION_5000_200.name


# ----------------------------------------------------------------------
# Configuration registry
# ----------------------------------------------------------------------

def test_config_registry_is_consistent():
    from repro.world.configs import (
        CONFIGS,
        DECSTATION_ROWS,
        GATEWAY_ROWS,
        build_network,
    )

    for key, spec in CONFIGS.items():
        assert spec.key == key
        assert spec.style in ("kernel", "server", "library")
        assert spec.best_rcvbuf_kb > 0
        if spec.style == "library":
            assert spec.pf_variant in ("ipc", "shm", "shm_ipf")
        if spec.pf_variant == "shm_ipf" and spec.style == "library":
            assert spec.integrated_filter
    assert set(DECSTATION_ROWS) <= set(CONFIGS)
    assert set(GATEWAY_ROWS) <= set(CONFIGS)
    with pytest.raises(KeyError):
        build_network("no-such-config")
    with pytest.raises(ValueError):
        build_network("mach25", platform="vax")


# ----------------------------------------------------------------------
# any_of combinator
# ----------------------------------------------------------------------

def test_any_of_returns_first_winner(sim):
    late = sim.timeout(100, value="late")
    early = sim.timeout(10, value="early")

    def prog():
        winner, value = yield any_of(sim, [late, early])
        return winner is early, value

    first, value = sim.run_process(prog())
    assert first
    assert value == "early"
    assert sim.now == 10


def test_any_of_ignores_later_firings(sim):
    a = sim.timeout(5)
    b = sim.timeout(6)
    combined = any_of(sim, [a, b])
    sim.run()
    assert combined.triggered  # and the second firing did not explode


def test_any_of_requires_events(sim):
    with pytest.raises(ValueError):
        any_of(sim, [])


def test_any_of_propagates_failure(sim):
    failing = sim.event()
    sim.call_later(5, failing.fail, RuntimeError("inner"))

    def prog():
        try:
            yield any_of(sim, [failing, sim.timeout(100)])
        except RuntimeError as exc:
            return str(exc)

    assert sim.run_process(prog()) == "inner"


# ----------------------------------------------------------------------
# Robustness against malformed input
# ----------------------------------------------------------------------

def test_engine_survives_garbage_frames():
    """Arbitrary junk handed to the input path must be dropped, never
    crash the protocol thread."""
    from repro.world.configs import build_network

    net, pa, _pb = build_network("mach25")
    stack = pa._backend.stack

    def prog():
        for junk in (b"", b"\x00" * 10, b"\xff" * 64, b"\x45" + b"\x00" * 70):
            yield from stack.input_frame(junk)
        return True

    assert net.sim.run_process(prog(), until=10_000_000)


def test_icmp_error_with_truncated_quote_ignored():
    from repro.net import icmp
    from repro.net.ip import IPHeader
    from repro.world.configs import build_network

    net, pa, _pb = build_network("mach25")
    stack = pa._backend.stack
    bogus = icmp.ICMPMessage(icmp.TYPE_DEST_UNREACHABLE, code=3,
                             payload=b"\x45\x00")  # far too short
    header = IPHeader(src=1, dst=pa.host.ip, proto=1, total_len=0)
    stack._icmp_error(header, bogus)  # must not raise


def test_priority_constants_ordered():
    assert (Priority.INTERRUPT < Priority.KERNEL < Priority.SERVER
            < Priority.PROTOCOL < Priority.APPLICATION)
