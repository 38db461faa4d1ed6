"""Seeded open-loop workload generation for scale-out worlds.

The tail-latency study needs traffic whose *offered* load is independent
of how the system responds — an open-loop generator: request times are
drawn up front from a Poisson process and sent at those absolute times
whether or not earlier requests have completed (the methodology that
exposes queueing tails; a closed loop self-throttles and hides them).

Everything random is precomputed into a *schedule* before the simulation
starts, from ``random.Random`` seeded per client, using only
``rng.random()`` arithmetic (inverse-CDF sampling) — no library
distribution helpers whose implementations might drift between Python
versions.  The schedule is canonically hashable
(:func:`schedule_fingerprint`), which is what the determinism tests pin
across interpreters.

Two RPC patterns over the existing socket placements:

* ``udp`` — each request fans out as datagrams to ``fanout`` seeded
  targets; every target echoes a reply of the requested size; the
  request completes when the *last* reply arrives (fan-in).
* ``tcp`` — each client keeps persistent framed connections to a fixed
  seeded target set and fans requests out over them.

Requests outstanding when the measurement window closes are *censored*:
counted, never turned into latency samples.
"""

import json
import struct
from dataclasses import dataclass, field
from hashlib import sha256
from math import log
from random import Random

from repro.core.sockets import SOCK_DGRAM, SOCK_STREAM, SocketError
from repro.stack.engine import PortUnreachable, SocketTimeout

#: Request/reply header: request id, reply length, request length.
_HEADER = struct.Struct("!IHH")
HEADER_BYTES = _HEADER.size

#: Idle poll granularity for dispatcher loops near the deadline.
_POLL_US = 50_000.0

#: Slack past the nominal workload end that runners grant wind-down
#: (client drains, timer expiry, straggler frames).  Telemetry snapshots
#: settle to exactly ``end + SETTLE_GRACE_US`` in every backend so
#: time-derived metrics (utilization = busy/now) agree bit-for-bit.
SETTLE_GRACE_US = 60_000_000.0


def settle_telemetry(sim, end):
    """Drive ``sim`` to the canonical telemetry instant for ``end``.

    Processes every event scheduled up to the instant (late timer pops,
    boundary straggler deliveries) and pins the clock exactly there, so
    a single-process run and each island worker export registry and
    trace snapshots from an identical ``sim.now``.
    """
    sim.run(until=end + SETTLE_GRACE_US)


# ----------------------------------------------------------------------
# Seeded samplers (hand-rolled, version-stable)
# ----------------------------------------------------------------------

def poisson_arrivals(rng, rate_per_us, window_us):
    """Absolute arrival offsets in [0, window_us) at ``rate_per_us``."""
    times = []
    t = 0.0
    while True:
        # Inverse CDF of the exponential inter-arrival distribution.
        t += -log(1.0 - rng.random()) / rate_per_us
        if t >= window_us:
            return times
        times.append(t)


def bounded_pareto(rng, alpha, lo, hi):
    """One draw from a bounded Pareto(alpha) on [lo, hi], by inverse CDF."""
    u = rng.random()
    la, ha = lo ** alpha, hi ** alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def _pick_targets(rng, n_hosts, me, fanout):
    """``fanout`` distinct host indices, none equal to ``me``."""
    chosen = []
    while len(chosen) < fanout:
        idx = int(rng.random() * (n_hosts - 1))
        if idx >= n_hosts - 1:  # guard the open interval's edge
            idx = n_hosts - 2
        if idx >= me:
            idx += 1
        if idx not in chosen:
            chosen.append(idx)
    return tuple(chosen)


# ----------------------------------------------------------------------
# Specs and schedules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible workload, fully determined by its fields."""

    proto: str = "udp"
    seed: int = 0
    clients: int = 0              # 0: every host is a client
    rate_per_client: float = 50.0  # requests per second per client
    fanout: int = 1
    request_bytes: int = 64
    reply_bytes: int = 64
    size_dist: str = "fixed"      # "fixed" | "pareto" (reply sizes)
    pareto_alpha: float = 1.3
    max_bytes: int = 1400         # reply-size cap (stays under one MTU)
    window_us: float = 2_000_000.0
    drain_us: float = 1_000_000.0
    port: int = 20123


@dataclass
class WorkloadResult:
    """Outcome of one open-loop run."""

    issued: int = 0
    completed: int = 0
    censored: int = 0
    #: Request latency samples (microseconds), one per completed
    #: request, measured send-time to last-reply (fan-in complete).
    latencies_us: list = field(default_factory=list)
    window_us: float = 0.0

    @property
    def completion_rate(self):
        return self.completed / self.issued if self.issued else 0.0


def build_schedules(spec, n_hosts):
    """Per-client request schedules: ``{client: [(t, id, targets, req,
    reply), ...]}``, deterministic in (spec, n_hosts)."""
    if n_hosts < 2:
        raise ValueError("a workload needs at least two hosts")
    n_clients = spec.clients or n_hosts
    n_clients = min(n_clients, n_hosts)
    fanout = max(1, min(spec.fanout, n_hosts - 1))
    rate_per_us = spec.rate_per_client / 1_000_000.0
    request_bytes = max(HEADER_BYTES, spec.request_bytes)
    schedules = {}
    for client in range(n_clients):
        rng = Random(spec.seed * 1_000_003 + client)
        times = poisson_arrivals(rng, rate_per_us, spec.window_us)
        requests = []
        for seq, t in enumerate(times):
            targets = _pick_targets(rng, n_hosts, client, fanout)
            if spec.size_dist == "pareto":
                reply = int(bounded_pareto(rng, spec.pareto_alpha,
                                           HEADER_BYTES, spec.max_bytes))
            elif spec.size_dist == "fixed":
                reply = spec.reply_bytes
            else:
                raise ValueError("unknown size_dist %r" % spec.size_dist)
            reply = max(HEADER_BYTES, min(reply, spec.max_bytes))
            req_id = client * 1_000_000 + seq + 1
            requests.append((t, req_id, targets, request_bytes, reply))
        schedules[client] = requests
    return schedules


def schedule_fingerprint(spec, n_hosts):
    """SHA-256 over the canonical schedule encoding (determinism pin)."""
    schedules = build_schedules(spec, n_hosts)
    canonical = json.dumps(
        [[(repr(t), req_id, list(targets), req, reply)
          for t, req_id, targets, req, reply in schedules[c]]
         for c in sorted(schedules)],
        separators=(",", ":"))
    return sha256(canonical.encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------

def _frame(req_id, reply_len, size):
    return _HEADER.pack(req_id, reply_len, size).ljust(size, b"\x00")


class _Tracker:
    """Fan-in bookkeeping shared by a client's sender and dispatcher."""

    def __init__(self, sim, result):
        self.sim = sim
        self.result = result
        self.pending = {}  # req_id -> [send_time, replies outstanding]

    def sent(self, req_id, fanout):
        self.result.issued += 1
        self.pending[req_id] = [self.sim.now, fanout]

    def reply(self, req_id):
        entry = self.pending.get(req_id)
        if entry is None:
            return  # duplicate or late reply after censoring
        entry[1] -= 1
        if entry[1] == 0:
            del self.pending[req_id]
            self.result.completed += 1
            self.result.latencies_us.append(self.sim.now - entry[0])

    def censor_remaining(self):
        self.result.censored += len(self.pending)
        self.pending.clear()


def run_workload(world, spec, request_tracer=None):
    """Run ``spec`` on ``world``; returns a :class:`WorkloadResult`.

    Servers run on every host; clients on the first ``spec.clients``
    hosts (all hosts when 0).  The call blocks until the window plus the
    drain period has elapsed and every client has wound down.

    ``request_tracer`` (a :class:`~repro.trace.request.RequestTracer`)
    observes the same send/reply edges the tracker sees — sampled
    requests get request-scoped traces; everything else is untouched.
    """
    if spec.proto not in ("udp", "tcp"):
        raise ValueError("proto must be 'udp' or 'tcp'")
    sim = world.sim
    schedules = build_schedules(spec, len(world.hosts))
    result = WorkloadResult(window_us=spec.window_us)
    start = sim.now + 1000.0  # one quiet millisecond to finish spawning
    end = start + spec.window_us + spec.drain_us
    rt = request_tracer

    if spec.proto == "udp":
        for host_index in range(len(world.hosts)):
            api = world.new_app(host_index)
            sim.spawn(_udp_server(api, sim, spec, end),
                      name="wl-srv-%d" % host_index)
        clients = [
            _udp_client(world.new_app(client), sim, spec,
                        schedules[client], world, start, end, result,
                        rt=rt)
            for client in sorted(schedules)
        ]
    else:
        listening = []
        for host_index in range(len(world.hosts)):
            api = world.new_app(host_index)
            ready = sim.event()
            listening.append(ready)
            sim.spawn(_tcp_server(api, sim, spec, ready, end),
                      name="wl-srv-%d" % host_index)
        clients = [
            _tcp_client(world.placements[client], sim, spec,
                        schedules[client], world, start, end, result,
                        listening, rt=rt)
            for client in sorted(schedules)
        ]
    world.run_all(clients, until=end + SETTLE_GRACE_US)
    return result


def spawn_udp_partition(world, spec, schedules, result, local_hosts,
                        request_tracer=None):
    """Spawn the UDP workload for ``local_hosts`` only; don't run it.

    The island backend (:mod:`repro.sim.parallel`) builds the full
    world in every worker but drives just its own islands: servers on
    local hosts, clients for local entries of ``schedules``.  The spawn
    order mirrors :func:`run_workload`'s UDP branch exactly — servers
    in host order, then clients in sorted schedule order — so the
    relative schedule of local processes is identical to the
    single-process run.  Returns ``(client_processes, start, end)``;
    the caller drives the simulator (in lookahead windows) until every
    client process has triggered.
    """
    sim = world.sim
    rt = request_tracer
    start = sim.now + 1000.0
    end = start + spec.window_us + spec.drain_us
    for host_index in range(len(world.hosts)):
        if host_index in local_hosts:
            api = world.new_app(host_index)
            sim.spawn(_udp_server(api, sim, spec, end),
                      name="wl-srv-%d" % host_index)
    clients = [
        sim.spawn(_udp_client(world.new_app(client), sim, spec,
                              schedules[client], world, start, end,
                              result, rt=rt),
                  name="wl-client-%d" % client)
        for client in sorted(schedules) if client in local_hosts
    ]
    return clients, start, end


# -- UDP ---------------------------------------------------------------

def _udp_server(api, sim, spec, end):
    fd = yield from api.socket(SOCK_DGRAM)
    yield from api.bind(fd, spec.port)
    yield from api.setsockopt(fd, "rcvtimeo", _POLL_US)
    while sim.now < end:
        try:
            data, src = yield from api.recvfrom(fd)
        except (SocketTimeout, PortUnreachable):
            # Unreachable: a reply met a client socket already closed
            # (library placements upcall the ICMP error to unconnected
            # sockets too); nothing to retract, keep serving.
            continue
        if len(data) < HEADER_BYTES:
            continue
        req_id, reply_len, _size = _HEADER.unpack_from(data)
        yield from api.sendto(fd, _frame(req_id, 0, reply_len), src)
    yield from api.close(fd)


def _udp_client(api, sim, spec, schedule, world, start, end, result,
                rt=None):
    fd = yield from api.socket(SOCK_DGRAM)
    yield from api.bind(fd, spec.port + 1)
    tracker = _Tracker(sim, result)

    def dispatcher():
        yield from api.setsockopt(fd, "rcvtimeo", _POLL_US)
        while sim.now < end:
            try:
                data, _src = yield from api.recvfrom(fd)
            except (SocketTimeout, PortUnreachable):
                # Unreachable: an overloaded request outlived the
                # servers' sockets.  It stays outstanding and is
                # censored at wind-down, like any unanswered request.
                continue
            except SocketError:
                return  # fd closed by the sender at wind-down
            if len(data) >= HEADER_BYTES:
                req_id = _HEADER.unpack_from(data)[0]
                tracker.reply(req_id)
                if rt is not None:
                    rt.observe_reply(req_id)

    dispatch_proc = sim.spawn(dispatcher(), name="wl-dispatch")
    for t, req_id, targets, req_bytes, reply_bytes in schedule:
        when = start + t
        if when > sim.now:
            yield sim.timeout(when - sim.now)
        tracker.sent(req_id, len(targets))
        if rt is not None:
            rt.observe_sent(req_id, len(targets))
        frame = _frame(req_id, reply_bytes, req_bytes)
        for target in targets:
            yield from api.sendto(
                fd, frame, (world.hosts[target].ip, spec.port))
        if rt is not None:
            rt.end_send()
    if end > sim.now:
        yield sim.timeout(end - sim.now)
    yield dispatch_proc
    tracker.censor_remaining()
    yield from api.close(fd)


# -- TCP ---------------------------------------------------------------

def _tcp_server(api, sim, spec, ready, end):
    fd = yield from api.socket(SOCK_STREAM)
    yield from api.bind(fd, spec.port)
    yield from api.listen(fd, 64)
    ready.succeed()

    def echo(cfd):
        # Byte-buffered framing: a recv may return partial frames or
        # several at once; parse what is complete, keep the rest.
        buf = b""
        try:
            while True:
                data = yield from api.recv(cfd, 65536)
                if not data:
                    break
                buf += data
                while len(buf) >= HEADER_BYTES:
                    req_id, reply_len, size = _HEADER.unpack_from(buf)
                    if len(buf) < size:
                        break
                    buf = buf[size:]
                    yield from api.send_all(
                        cfd, _frame(req_id, 0, reply_len))
        except (SocketError, SocketTimeout):
            pass
        yield from api.close(cfd)

    yield from api.setsockopt(fd, "rcvtimeo", _POLL_US)
    while sim.now < end:
        try:
            cfd, _peer = yield from api.accept(fd)
        except SocketTimeout:
            continue
        sim.spawn(echo(cfd), name="wl-echo")
    yield from api.close(fd)


def _tcp_client(placement, sim, spec, schedule, world, start, end, result,
                listening, rt=None):
    # Persistent connections to the fixed union of this client's targets.
    targets = sorted({t for _t, _id, tgts, _rq, _rp in schedule
                      for t in tgts})
    api = placement.new_app()
    tracker = _Tracker(sim, result)
    fds = {}
    readers = []

    def reader(cfd):
        yield from api.setsockopt(cfd, "rcvtimeo", _POLL_US)
        buf = b""
        while sim.now < end:
            try:
                data = yield from api.recv(cfd, 65536)
            except SocketTimeout:
                continue
            except SocketError:
                return
            if not data:
                return
            buf += data
            while len(buf) >= HEADER_BYTES:
                req_id, _reply_len, size = _HEADER.unpack_from(buf)
                if len(buf) < size:
                    break
                buf = buf[size:]
                tracker.reply(req_id)
                if rt is not None:
                    rt.observe_reply(req_id)

    for target in targets:
        yield listening[target]
        fd = yield from api.socket(SOCK_STREAM)
        yield from api.connect(fd, (world.hosts[target].ip, spec.port))
        fds[target] = fd
        readers.append(sim.spawn(reader(fd), name="wl-read"))

    for t, req_id, tgts, req_bytes, reply_bytes in schedule:
        when = start + t
        if when > sim.now:
            yield sim.timeout(when - sim.now)
        tracker.sent(req_id, len(tgts))
        if rt is not None:
            rt.observe_sent(req_id, len(tgts))
        frame = _frame(req_id, reply_bytes, req_bytes)
        for target in tgts:
            yield from api.send_all(fds[target], frame)
        if rt is not None:
            rt.end_send()
    if end > sim.now:
        yield sim.timeout(end - sim.now)
    for proc in readers:
        yield proc
    tracker.censor_remaining()
    for fd in fds.values():
        yield from api.close(fd)
