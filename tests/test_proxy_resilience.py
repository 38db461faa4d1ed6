"""Client-side control-plane resilience: the acceptance battery.

The contract under test (the PR's headline): a NetServer crash during
any proxied operation — connect, accept, send, select, close, migrate,
fork — either completes after restart via idempotent replay and
re-registration, or fails with a clean ``SocketError``-family error.
It never hangs.  On top of that: circuit breaking fails fast and
recovers, ``select`` degrades instead of wedging when the server is
gone, closes are deferred and drained, admission control sheds load as
``ServerBusy`` (which the retry layer absorbs), and ``proxy_health``
exposes it all.
"""

import pytest

from repro.core.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ServerUnavailable,
)
from repro.core.sockets import SOCK_STREAM, SocketError
from repro.faults import ControlFaultPlan, ServerCrashOnOp, ServerSlowOp
from repro.kernel.ipc import ServerBusy, ServerCrashed
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
    plan = ControlFaultPlan([ServerCrashOnOp(op, when=when)], seed=1)
    plan.attach(pa.server, libraries=[api_a.library])

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
    plan = ControlFaultPlan([ServerCrashOnOp("proxy_return", when=when)],
                            seed=2)
    plan.attach(pa.server, libraries=[api_a.library])
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


def test_breaker_fast_fails_select_degrades_close_defers():
    """With a circuit breaker configured and the server dead: a failed
    op trips the breaker; select then reports the server-managed fds as
    ready immediately (server-down degradation) instead of wedging;
    close defers its server half.  After restart, the watcher resets the
    breaker and the deferred close drains."""
    policy = ResiliencePolicy(retry_limit=2, backoff_base_us=5_000.0,
                              breaker_threshold=2,
                              breaker_cooldown_us=500_000.0)
    net, pa, pb = build_network("library-shm-ipf")
    api_a = pa.new_app(name="srv-app", policy=policy)
    api_b = pb.new_app(name="cli-app")
    ready = net.sim.event()
    results = {}

    def server():
        lfd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(lfd, 7472)
        yield from api_a.listen(lfd)
        ready.succeed()
        cfd, _peer = yield from api_a.accept(lfd)
        yield from api_a.migrate_to_server(cfd)  # server-managed now

        pa.server.crash()
        # 1. A mutation against the dead server exhausts its retries and
        #    raises ServerCrashed cleanly; its failures trip the breaker.
        try:
            yield from api_a.setsockopt(cfd, "rcvbuf", 32768)
        except ServerCrashed:
            results["setsockopt"] = "failed-clean"
        assert api_a.resilient.breaker.state == "open"

        # 2. select on a server-managed fd fast-fails through the open
        #    breaker and degrades: the fd is reported ready so the app
        #    goes and discovers the error itself — no wedge.
        before = net.sim.now
        r, _w = yield from api_a.select([cfd], timeout=10_000_000)
        results["select"] = (r, net.sim.now - before)

        # 3. close defers its server half instead of blocking the app.
        yield from api_a.close(cfd)
        results["deferred"] = api_a.closes_deferred

        yield net.sim.timeout(400_000)
        pa.server.restart()
        yield net.sim.timeout(3_000_000)  # rereg + deferred drain
        results["breaker_after"] = api_a.resilient.breaker.state
        results["closing_after"] = dict(api_a._closing)
        yield from api_a.close(lfd)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, 7472))
        yield from api_b.send_all(fd, b"x" * 64)
        yield from api_b.close(fd)

    net.run_all([server(), client()], until=BOUND)
    assert results["setsockopt"] == "failed-clean"
    ready_fds, select_elapsed = results["select"]
    assert ready_fds  # degraded: reported ready, not blocked
    assert select_elapsed < 1_000_000  # fast, not the 10s timeout
    assert results["deferred"] == 1
    assert results["breaker_after"] == "closed"  # watcher reset it
    assert results["closing_after"] == {}  # the deferred close drained
    stats = api_a.control_stats()
    assert stats["breaker"]["trips"] >= 1
    assert stats["breaker"]["fast_fails"] >= 1


# ----------------------------------------------------------------------
# Admission control and health
# ----------------------------------------------------------------------

def test_admission_control_sheds_and_retry_absorbs():
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app")
    plan = ControlFaultPlan(
        [ServerSlowOp(rate=1.0, stall_us=300_000.0, ops=("proxy_status",))],
        seed=4)
    plan.attach(pa.server, libraries=[api.library])
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


def test_budget_exhaustion_raises_server_unavailable():
    policy = ResiliencePolicy(retry_limit=64, backoff_base_us=5_000.0,
                              op_budget_us=80_000.0)
    net, pa, _pb = build_network("library-shm-ipf")
    api = pa.new_app(name="app", policy=policy)
    pa.server.crash()

    def attempt():
        before = net.sim.now
        try:
            yield from api.socket(SOCK_STREAM)
        except ServerUnavailable:
            return net.sim.now - before
        return None

    elapsed = net.sim.run_process(attempt())
    assert elapsed is not None
    assert elapsed <= 200_000.0  # gave up near the budget, not 64 retries
    assert api.resilient.budget_exhaustions == 1


# ----------------------------------------------------------------------
# The breaker state machine, unit-level
# ----------------------------------------------------------------------

def test_circuit_breaker_lifecycle():
    b = CircuitBreaker(threshold=2, cooldown_us=1_000.0)
    assert b.admit(0.0)
    b.record_failure(0.0)
    assert b.state == "closed"
    b.record_failure(1.0)
    assert b.state == "open" and b.trips == 1

    assert not b.admit(2.0)  # still cooling down: fast-fail
    assert b.fast_fails == 1

    assert b.admit(1_001.0)  # cooldown over: the single probe
    assert b.state == "half-open" and b.probes == 1
    assert not b.admit(1_001.0)  # second caller is not admitted
    b.record_failure(1_001.0)  # probe failed: back to open
    assert b.state == "open"

    assert b.admit(2_002.0)  # next probe
    b.record_success()
    assert b.state == "closed"
    assert b.admit(2_003.0)
    snap = b.snapshot()
    assert snap["trips"] == 1 and snap["probes"] == 2
    assert snap["fast_fails"] >= 2


@pytest.mark.parametrize("config", ["ux", "library-shm-ipf"])
def test_fork_child_inherits_the_resilience_policy(config):
    """A forked child fails as fast as its parent was configured to: it
    used to come up on the default policy and park on the dead port for
    64 patient retries."""
    policy = ResiliencePolicy(retry_limit=4, backoff_base_us=5_000.0,
                              breaker_threshold=2,
                              breaker_cooldown_us=500_000.0)
    net, pa, _pb = build_network(config)
    api = pa.new_app(name="forker", policy=policy)

    def prog():
        child = yield from api.fork()
        assert child.resilient.policy is policy
        assert child.resilient.breaker is not api.resilient.breaker
        pa.server.rpc.down("server crashed")
        before = net.sim.now
        with pytest.raises(ServerUnavailable):
            yield from child.socket(SOCK_STREAM)
        return net.sim.now - before

    elapsed = net.run_all([prog()], until=BOUND)[0]
    assert elapsed < 100_000  # two backoff slices, not an outage's worth
