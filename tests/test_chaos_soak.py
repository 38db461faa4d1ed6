"""The chaos soak: everything at once, deterministically.

Each seeded run pushes multi-segment TCP transfers through a composed
fault pipeline — Gilbert–Elliott burst loss, reordering, duplication,
delay jitter, payload corruption — while the OS server crashes and
restarts mid-transfer with an accept RPC in flight.  The run must end
with byte-exact delivery on every connection, recovery counters
consistent with the injected faults, and every stack quiesced (no timer
processes alive, no sessions left in any TCP table).

It is the longest test in the repo by simulated time, yet it takes
under two seconds of wall clock, so the tier-1 suite runs it on every
push.
"""

import pytest

from repro.core.sockets import SOCK_STREAM
from repro.faults import (
    Corrupt,
    DelayJitter,
    Duplicate,
    FaultPlan,
    GilbertElliottLoss,
    Reorder,
)
from repro.net.addr import ip_aton
from repro.world.configs import build_network

IP1 = ip_aton("10.0.0.1")
BOUND = 1_200_000_000
PORT = 7500
NBYTES1 = 100_000  # conn1: the long transfer the crash lands inside
NBYTES2 = 20_000  # conn2: opened through the outage


def chaos_plan(seed):
    return FaultPlan(
        [
            GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3,
                               loss_bad=0.9),
            Reorder(rate=0.05, hold_us=3000.0),
            Duplicate(rate=0.02, gap_us=150.0),
            DelayJitter(jitter_us=400.0),
            Corrupt(rate=0.01),
        ],
        seed=seed * 7,
    )


def payload(n, salt):
    return bytes((i * 31 + salt) % 256 for i in range(n))


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_chaos_soak(seed):
    plan = chaos_plan(seed)
    net, pa, pb = build_network("library-shm-ipf", fault_plan=plan)
    api_a = pa.new_app(name="soak-srv")
    api_b = pb.new_app(name="soak-cli")
    payload1 = payload(NBYTES1, salt=seed)
    payload2 = payload(NBYTES2, salt=seed + 1)

    ready = net.sim.event()
    conn1_ready = net.sim.event()
    started = net.sim.event()
    crashed = net.sim.event()

    def acceptor():
        """Accept both connections; the second accept RPC is parked in the
        server when the crash hits and must survive via retry."""
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, PORT)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd1, _ = yield from api_a.accept(fd)
        conn1_ready.succeed(cfd1)
        cfd2, _ = yield from api_a.accept(fd)
        data2 = yield from api_a.recv_exactly(cfd2, NBYTES2)
        yield from api_a.close(cfd2)
        yield from api_a.close(fd)
        return data2

    def receiver1():
        cfd1 = yield conn1_ready
        started.succeed()
        data1 = yield from api_a.recv_exactly(cfd1, NBYTES1)
        yield from api_a.close(cfd1)
        return data1

    def client1():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, PORT))
        yield from api_b.send_all(fd, payload1)
        retransmits = api_b.fds.get(fd).payload.session.conn.stats.retransmits
        yield from api_b.close(fd)
        return retransmits

    def client2():
        # Connect while the server is down: the SYN retransmits until
        # re-registration has rebuilt the listener and its filter.
        yield crashed
        yield net.sim.timeout(100_000)
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, PORT))
        yield from api_b.send_all(fd, payload2)
        retransmits = api_b.fds.get(fd).payload.session.conn.stats.retransmits
        yield from api_b.close(fd)
        return retransmits

    def controller():
        yield started
        yield net.sim.timeout(30_000)  # land inside conn1's data stream
        pa.server.crash()
        crashed.succeed()
        yield net.sim.timeout(3_000_000)
        pa.server.restart()

    data2, data1, rexmt1, rexmt2, _none = net.run_all(
        [acceptor(), receiver1(), client1(), client2(), controller()],
        until=BOUND,
    )

    # --- Byte-exact delivery through every fault at once ---------------
    assert data1 == payload1
    assert data2 == payload2

    # --- The faults really fired, and recovery paid for them -----------
    assert plan.total("dropped") > 0
    assert plan.counters()["gilbert-elliott"]["bursts"] > 0
    assert rexmt1 + rexmt2 > 0  # losses forced retransmission
    assert plan.frames_in == net.wire.frames_carried

    # --- Crash recovery actually happened -------------------------------
    server = pa.server
    assert server.generation == 1 and server.crashes == 1
    assert api_a.reregistrations == 1
    assert server.rpc.retried_calls > 0  # the parked accept came back
    assert server.sessions_restored >= 1
    assert not server.rpc.broken

    # --- Teardown: drain TIME_WAIT, then everything must be quiet -------
    net.sim.run(until=net.sim.now + 70_000_000)
    stacks = [
        ("a-server", pa.server.stack),
        ("b-server", pb.server.stack),
        ("a-lib", api_a.stack),
        ("b-lib", api_b.stack),
    ]
    for label, stack in stacks:
        assert not stack._tcp, "%s still has TCP sessions: %r" % (
            label, stack._tcp)
    for _label, stack in stacks:
        stack.shutdown(interrupt=True)
    net.sim.run(until=net.sim.now + 1)
    for label, stack in stacks:
        assert not stack._timer_proc.alive, "%s timers still running" % label
    assert not pa.server._background  # no orphaned graceful closes
