"""Client-side control-plane resilience: the acceptance battery.

The contract under test (the PR's headline): a NetServer crash during
any proxied operation — connect, accept, send, select, close, migrate,
fork — either completes after restart via idempotent replay and
re-registration, or fails with a clean ``SocketError``-family error.
It never hangs.  On top of that: an op whose every attempt fails ends in
a clean error once the retry limit is spent, admission control sheds
load as ``ServerBusy`` (which the retry layer absorbs), and
``proxy_health`` exposes it all.
"""

import pytest

from repro.core.resilience import RETRY_LIMIT
from repro.core.sockets import SOCK_STREAM, SocketError
from repro.faults import (
    FaultPlan,
    RpcDrop,
    ServerCrashOnOp,
    ServerSlowOp,
)
from repro.kernel.ipc import DeadlineExpired, ServerBusy, ServerCrashed
from repro.net.addr import ip_aton
from repro.net.tcp.tcb import TCPError
from repro.stack.engine import SocketTimeout
from repro.world.configs import build_network

#: The documented clean-failure surface of a proxied operation: socket
#: errors, a crash observed mid-call, engine-level TCP errors (reset,
#: timed out), and SO_RCVTIMEO expiry.  Anything else is a bug.
CLEAN_ERRORS = (SocketError, ServerCrashed, TCPError, SocketTimeout)

IP1 = ip_aton("10.0.0.1")
IP2 = ip_aton("10.0.0.2")
BOUND = 1_200_000_000
N1 = 6_000  # received app-managed, before the migration
N2 = 6_000  # received server-managed, after the migration
OUT = bytes((i * 11 + 5) % 256 for i in range(2_000))
IN_PAYLOAD = bytes((i * 17 + 9) % 256 for i in range(N1 + N2))


def _supervisor(net, backend, stop):
    """Restart the server a fixed delay after any crash, until ``stop``."""
    def proc():
        while not stop.triggered:
            if not backend.alive:
                yield net.sim.timeout(600_000)
                backend.restart()
            else:
                yield net.sim.timeout(25_000)
    return proc()


# ----------------------------------------------------------------------
# The crash-during-every-op acceptance matrix
# ----------------------------------------------------------------------

#: Ops where the post-restart retry must fully complete: "before" leaves
#: no side effects, and for accept/return/close the replay + snapshot
#: machinery (re-registration, ``_migrating``, unknown-sid close as a
#: no-op) makes "after" safe too.
MUST_COMPLETE = {
    ("proxy_connect", "before"),
    ("proxy_accept", "before"),
    ("proxy_accept", "after"),
    ("proxy_return", "before"),
    ("proxy_return", "after"),
    ("proxy_close", "before"),
    ("proxy_close", "after"),
}

#: Server-managed data ops re-executed against a post-crash server may
#: find their session state gone (it lived only in the dead task): a
#: clean error is a documented acceptable outcome alongside success.
CRASH_MATRIX = sorted(MUST_COMPLETE | {
    ("proxy_connect", "after"),
    ("send", "before"),
    ("send", "after"),
    ("proxy_select", "before"),
    ("proxy_select", "after"),
})


@pytest.mark.parametrize("op,when", CRASH_MATRIX)
def test_crash_during_op_completes_or_fails_cleanly(op, when):
    """One odyssey through every proxied op with the server crashing
    inside the op under test; a supervisor restarts it.  The workload
    must finish — ``run_all`` raising Deadlock is the failure mode this
    PR exists to prevent — and every non-ok step must be a SocketError.
    """
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="srv-app")
    api_b = pb.new_app(name="cli-app")
    plan = FaultPlan([ServerCrashOnOp(op, when=when)], seed=1)
    plan.attach_server(pa.server, libraries=[api_a.library])

    ready_a = net.sim.event()
    ready_b = net.sim.event()
    a_done = net.sim.event()
    acked_ev = net.sim.event()
    outcome = {}

    def odyssey():
        lfd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(lfd, 7460)
        yield from api_a.listen(lfd)
        ready_a.succeed()
        yield ready_b
        try:
            ofd = yield from api_a.socket(SOCK_STREAM)
            yield from api_a.connect(ofd, (IP2, 7461))
            yield from api_a.send_all(ofd, OUT)
            yield from api_a.close(ofd)
            outcome["connect"] = "ok"
        except CLEAN_ERRORS as exc:
            outcome["connect"] = "error: %s" % exc
        # Serve inbound attempts until the client confirms the ACK came
        # back.  A connection the TCP level completed inside a since-
        # crashed incarnation is half-open — the client abandons it after
        # a bounded wait and reconnects — so the server must loop rather
        # than pin its hopes on one accept.
        deadline = net.sim.now + 30_000_000
        while not acked_ev.triggered and net.sim.now < deadline:
            try:
                r, _w = yield from api_a.select([lfd], timeout=300_000)
                if acked_ev.triggered:
                    break
                if not r:
                    continue
                cfd, _peer = yield from api_a.accept(lfd)
            except CLEAN_ERRORS as exc:
                outcome["inbound"] = "error: %s" % exc
                continue
            try:
                d1 = yield from api_a.recv_exactly(cfd, N1)
                yield from api_a.migrate_to_server(cfd)
                empty = 0
                while True:
                    r, _w = yield from api_a.select([cfd], timeout=500_000)
                    if r:
                        break
                    empty += 1
                    if empty >= 8:
                        raise SocketError("no data after migrate")
                d2 = yield from api_a.recv_exactly(cfd, N2)
                yield from api_a.send_all(cfd, b"ACK!")
                outcome["inbound"] = "ok"
                outcome["data"] = d1 + d2
            except CLEAN_ERRORS as exc:
                outcome["inbound"] = "error: %s" % exc
            try:
                yield from api_a.close(cfd)
            except CLEAN_ERRORS:
                pass
            if outcome.get("inbound") == "ok":
                # Give the client a beat to confirm before re-checking.
                yield net.sim.timeout(200_000)
        try:
            yield from api_a.close(lfd)
            outcome["lclose"] = "ok"
        except CLEAN_ERRORS as exc:
            outcome["lclose"] = "error: %s" % exc
        a_done.succeed()

    def b_client():
        yield ready_a
        acked = False
        while not acked and not a_done.triggered:
            fd = yield from api_b.socket(SOCK_STREAM)
            try:
                yield from api_b.connect(fd, (IP1, 7460))
                yield from api_b.send_all(fd, IN_PAYLOAD)
                # Bounded ACK wait: if this connection was completed by a
                # dead server incarnation it is half-open — every byte was
                # ACKed pre-crash, so no retransmit or RST will ever flag
                # it.  Abandon after a few quiet seconds and reconnect.
                r = []
                for _ in range(12):
                    r, _w = yield from api_b.select([fd], timeout=300_000)
                    if r or a_done.triggered:
                        break
                if r:
                    ack = yield from api_b.recv_exactly(fd, 4)
                    acked = ack == b"ACK!"
            except CLEAN_ERRORS:
                pass
            try:
                yield from api_b.close(fd)
            except CLEAN_ERRORS:
                pass
        if acked:
            acked_ev.succeed()
        return acked

    def b_server():
        lfd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.bind(lfd, 7461)
        yield from api_b.listen(lfd)
        ready_b.succeed()
        got = b""
        while len(got) < len(OUT):
            if a_done.triggered:
                break  # the faulted side is finished; stop waiting
            r, _w = yield from api_b.select([lfd], timeout=400_000)
            if not r:
                continue
            cfd, _peer = yield from api_b.accept(lfd)
            # A crash on the sending side can strand the tail of OUT in
            # the dead server's unfinished graceful close: bound every
            # read so a lost tail can't wedge this process.
            yield from api_b.setsockopt(cfd, "rcvtimeo", 500_000)
            try:
                while len(got) < len(OUT):
                    chunk = yield from api_b.recv(cfd, len(OUT) - len(got))
                    if not chunk:
                        break
                    got += chunk
            except CLEAN_ERRORS:
                pass
            yield from api_b.close(cfd)
        yield from api_b.close(lfd)
        return got

    _none, acked, got_out, _sup = net.run_all(
        [odyssey(), b_client(), b_server(),
         _supervisor(net, pa.server, a_done)],
        until=BOUND,
    )

    # The crash under test really fired, and the server came back.
    assert plan.counters()["server-crash-on-op"]["crashes"] == 1
    assert pa.server.crashes == 1 and pa.server.generation == 1
    assert pa.server.alive and not pa.server.rpc.broken

    # Every step either completed or failed with a clean SocketError.
    for step in ("connect", "inbound", "lclose"):
        assert outcome[step] == "ok" or outcome[step].startswith("error: "), (
            step, outcome)

    if (op, when) in MUST_COMPLETE:
        assert outcome["inbound"] == "ok", outcome
        assert outcome["data"] == IN_PAYLOAD
        assert acked
        if (op, when) == ("proxy_connect", "before"):
            assert outcome["connect"] == "ok" and got_out == OUT
    if outcome.get("data") is not None:
        assert outcome["data"] == IN_PAYLOAD


# ----------------------------------------------------------------------
# S1: crash in the middle of fork's migration sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("when", ["before", "after"])
def test_fork_survives_crash_mid_migration(when):
    """fork() migrates every open session to the server via proxy_return;
    the server dies inside that RPC.  The ``_migrating`` snapshot is
    re-reported at re-registration and the retried RPC replays the
    exported state — the fork completes and the connection keeps working
    from both the parent and the post-fork server-managed path."""
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="srv-app")
    api_b = pb.new_app(name="cli-app")
    plan = FaultPlan([ServerCrashOnOp("proxy_return", when=when)], seed=2)
    plan.attach_server(pa.server, libraries=[api_a.library])
    ready = net.sim.event()
    done = net.sim.event()
    half = len(IN_PAYLOAD) // 2

    def server():
        lfd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(lfd, 7470)
        yield from api_a.listen(lfd)
        ready.succeed()
        cfd, _peer = yield from api_a.accept(lfd)
        d1 = yield from api_a.recv_exactly(cfd, half)
        child = yield from api_a.fork()  # crashes inside proxy_return
        d2 = yield from api_a.recv_exactly(cfd, len(IN_PAYLOAD) - half)
        yield from api_a.close(cfd)
        yield from child.close(cfd)
        yield from api_a.close(lfd)
        yield from child.close(lfd)
        done.succeed()
        return d1 + d2

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7470))
        yield from api_b.send_all(fd, IN_PAYLOAD)
        yield from api_b.close(fd)

    data, _c, _s = net.run_all(
        [server(), client(), _supervisor(net, pa.server, done)], until=BOUND)
    assert data == IN_PAYLOAD
    assert plan.counters()["server-crash-on-op"]["crashes"] == 1
    assert api_a.reregistrations == 1
    assert pa.server.rpc.retried_calls > 0


# ----------------------------------------------------------------------
# S2: watcher races and graceful degradation
# ----------------------------------------------------------------------

def test_tight_crash_restart_race_with_inflight_accept():
    """Crash with an accept parked and restart almost immediately —
    the retry/backoff and the watcher's re-registration race; the
    retried accept must land on the rebuilt listener.  Twice."""
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="srv-app")
    api_b = pb.new_app(name="cli-app")
    ready = net.sim.event()
    kicked = net.sim.event()

    def server():
        lfd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(lfd, 7471)
        yield from api_a.listen(lfd)
        ready.succeed()
        cfd, _peer = yield from api_a.accept(lfd)  # parked through crashes
        data = yield from api_a.recv_exactly(cfd, 5)
        yield from api_a.close(cfd)
        yield from api_a.close(lfd)
        return data

    def controller():
        yield ready
        for _ in range(2):
            yield net.sim.timeout(30_000)
            pa.server.crash()
            yield net.sim.timeout(2_000)  # restart inside the backoff
            pa.server.restart()
        kicked.succeed()

    def client():
        yield kicked
        yield net.sim.timeout(50_000)
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7471))
        yield from api_b.send_all(fd, b"hello")
        yield from api_b.close(fd)

    data, _n, _c = net.run_all([server(), controller(), client()],
                               until=BOUND)
    assert data == b"hello"
    assert pa.server.crashes == 2
    assert api_a.reregistrations == 2
    assert not pa.server.rpc.broken


# ----------------------------------------------------------------------
# Admission control and health
# ----------------------------------------------------------------------

def test_admission_control_sheds_and_retry_absorbs():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = FaultPlan(
        [ServerSlowOp(rate=1.0, stall_us=300_000.0, ops=("proxy_status",))],
        seed=4)
    plan.attach_server(pa.server, libraries=[api.library])
    pa.server.rpc.max_pending = 1

    def slow():
        yield from api.rpc.call(api.ctx, "proxy_status", args=(api.app_id,))
        return "done"

    def shed():
        yield net.sim.timeout(5_000)
        try:
            yield from api.rpc.call(api.ctx, "proxy_status",
                                    args=(api.app_id,))
        except ServerBusy:
            return "shed"
        return "served"

    def retried():
        # The resilient layer treats ServerBusy as retryable: backoff,
        # try again, succeed once the stall clears.
        yield net.sim.timeout(6_000)
        yield from api.resilient.call("proxy_status", args=(api.app_id,))
        return True  # completed without error once the stall cleared

    first, second, absorbed = net.run_all([slow(), shed(), retried()],
                                          until=BOUND)
    assert first == "done"
    assert second == "shed"
    assert absorbed
    assert pa.server.rpc.requests_shed >= 1
    assert api.resilient.retries >= 1
    assert pa.server.health_snapshot()["requests_shed"] >= 1


def test_proxy_health_op_reports_counters():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")

    def worker():
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.close(fd)
        report = yield from api.server_health()
        return report

    report = net.sim.run_process(worker())
    for key in ("pending", "inflight", "max_pending", "requests_shed",
                "deadline_expiries", "replies_dropped", "retried_calls",
                "replays_served", "duplicates_held", "ops_stalled",
                "ops_failed", "generation", "crashes", "records", "apps"):
        assert key in report, key
    assert report["generation"] == 0 and report["crashes"] == 0
    assert report["apps"] >= 1


# ----------------------------------------------------------------------
# The retry limit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", ["library-shm-ipf", "ux"])
def test_doomed_op_ends_in_a_clean_error_at_the_retry_limit(config):
    """Every request is dropped: each attempt expires on the plan's
    deadline and is retried, and the last one's ``DeadlineExpired``
    reaches the app instead of a hang."""
    net, pa, _pb = build_network(config)
    api = pa.new_app(name="app")
    libraries = [api.library] if hasattr(api, "library") else []
    FaultPlan([RpcDrop(rate=1.0)], seed=1).attach_server(
        pa.server, libraries=libraries)

    def attempt():
        yield from api.socket(SOCK_STREAM)

    with pytest.raises(DeadlineExpired):
        net.sim.run_process(attempt())
    assert api.resilient.retries == RETRY_LIMIT - 1
    assert pa.server.rpc.deadline_expiries == RETRY_LIMIT
