"""Opt-in multi-process island backend for scale-out worlds.

A scale-out :class:`~repro.world.topology.World` often decomposes at its
router boundaries: a WAN world is sites joined by multi-millisecond
long-haul links, a fat tree is edges joined by uplinks.  Frames that
cross such a link are invisible to the far side for at least the link's
propagation delay — which is exactly the *lookahead* a conservative
parallel discrete-event simulation needs.

This module cuts a world into **islands** at point-to-point
router-to-router wires with nonzero propagation delay, runs each group
of islands in its own worker process, and advances all workers in
synchronous windows of the minimum cut-wire propagation ``L``:

1. every worker runs its local event loop up to the window boundary;
2. frames serialized onto a cut wire during the window are *captured*
   (with their exact arrival timestamp ``t_serialized + propagation``)
   instead of delivered;
3. the parent merges all captures, sorts them by
   ``(arrival, origin group, capture sequence)``, and re-broadcasts;
4. each worker injects foreign frames at exactly their arrival times
   (all strictly beyond the window boundary, because every cut wire's
   propagation is at least ``L``) and the next window begins.

**Determinism contract.**  Results are identical to the single-process
run of the same spec, because

* every worker builds the *full* world from the same spec (so seeded
  link parameters, addresses, and MACs match across workers), then
  drives only its own islands' hosts — foreign hosts idle with nothing
  to deliver to them;
* cut wires run **full duplex** (per-sender serialization locks) in
  *both* modes, so half-duplex medium contention — which cannot be
  simulated across processes — never exists in either run (see
  :func:`harden_cut_wires`; applied by the tail study unconditionally);
* captured arrival timestamps are computed by the same float
  arithmetic the single-process delivery uses, and injected frames
  cannot tie with unrelated local events (arrival times carry the cut
  wire's full-precision seeded propagation);
* per-worker partial results merge commutatively: counts sum,
  latency percentiles sort their samples, and the mean uses
  ``math.fsum`` (correctly rounded regardless of summation order).

**Telemetry.**  The same boundary carries the observability plane:
captured frames travel with their packet trace ids (re-tagged on
injection, so request-scoped tracing spans the cut), and at the end of
the run every worker settles its clock to one canonical instant and
ships picklable per-island snapshots of its metrics registry slice and
trace rings home, where the parent folds them with the commutative
merge operators in :mod:`repro.metrics.registry` and :mod:`repro.trace`.
Merged metrics and forensics attribution are bit-identical to the
single-process run of the same spec.

**Scope.**  The backend runs UDP open-loop workloads (the tail study's
default).  TCP workloads synchronize client start-up on in-process
listen events, so they fall back to single-process, as does any world
from which no islands can be extracted — a star (every leaf wire has a
host on it, so nothing qualifies as a cut) or any topology whose only
routers share segments with hosts.  Wires carrying a fault plan are
never cut: fault state is process-local.
"""

import sys
from dataclasses import dataclass

#: Windows per run safety valve: a worker that has not converged after
#: this many synchronization rounds aborts instead of spinning forever.
MAX_WINDOWS = 1_000_000


# ----------------------------------------------------------------------
# Island extraction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Island:
    """One connected component after removing the cut wires."""

    index: int
    hosts: tuple    # host indices into world.hosts
    routers: tuple  # router indices into world.routers


@dataclass(frozen=True)
class IslandPlan:
    """The partition of a world into islands, and what was cut."""

    islands: tuple     # of Island
    cut_wires: tuple   # names of wires crossing islands
    lookahead_us: float  # min propagation over the cut wires (0 if none)

    @property
    def parallelizable(self):
        return len(self.islands) >= 2 and bool(self.cut_wires)


def _wire_stations(world):
    """wire -> ([host indices], [router indices]) attachment map."""
    stations = {wire: ([], []) for wire in world.wires}
    for h, host in enumerate(world.hosts):
        stations[host.nic._wire][0].append(h)
    for r, router in enumerate(world.routers):
        for iface in router.interfaces:
            stations[iface.nic._wire][1].append(r)
    return stations


def partition_world(world):
    """Cut ``world`` into islands at router-to-router wires.

    A wire qualifies as a *cut candidate* when it is a point-to-point
    infrastructure link: exactly two attached stations, both router
    interfaces, nonzero propagation delay, and no fault plan.  Islands
    are the connected components over the remaining wires; candidates
    whose endpoints land in the same component (redundant paths) revert
    to ordinary wires.  Returns an :class:`IslandPlan`.
    """
    stations = _wire_stations(world)
    candidates = []
    for wire, (hosts, routers) in stations.items():
        if (wire.propagation_us > 0.0 and not hosts
                and len(routers) == 2 and routers[0] != routers[1]
                and wire.fault_plan is None):
            candidates.append(wire)
    # Union-find over ("h", i) / ("r", j) nodes via non-candidate wires.
    parent = {}

    def find(node):
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        parent[find(a)] = find(b)

    for h in range(len(world.hosts)):
        find(("h", h))
    for r in range(len(world.routers)):
        find(("r", r))
    candidate_set = set(id(w) for w in candidates)
    for wire, (hosts, routers) in stations.items():
        if id(wire) in candidate_set:
            continue
        members = [("h", h) for h in hosts] + [("r", r) for r in set(routers)]
        for node in members[1:]:
            union(members[0], node)

    components = {}
    for h in range(len(world.hosts)):
        components.setdefault(find(("h", h)), ([], []))[0].append(h)
    for r in range(len(world.routers)):
        components.setdefault(find(("r", r)), ([], []))[1].append(r)

    # Deterministic island order: by smallest host index, hostless
    # components (pure forwarding islands) after all hosted ones.
    def island_key(item):
        hosts, routers = item[1]
        return (0, hosts[0]) if hosts else (1, routers[0])

    ordered = sorted(components.items(), key=island_key)
    islands = tuple(
        Island(index=i, hosts=tuple(sorted(hosts)),
               routers=tuple(sorted(routers)))
        for i, (_root, (hosts, routers)) in enumerate(ordered))

    island_of_router = {}
    for island in islands:
        for r in island.routers:
            island_of_router[r] = island.index
    cut = []
    for wire in candidates:
        r0, r1 = stations[wire][1]
        if island_of_router[r0] != island_of_router[r1]:
            cut.append(wire)
    if len(islands) < 2 or not cut:
        whole = Island(index=0,
                       hosts=tuple(range(len(world.hosts))),
                       routers=tuple(range(len(world.routers))))
        return IslandPlan(islands=(whole,), cut_wires=(), lookahead_us=0.0)
    cut.sort(key=lambda w: w.name)
    return IslandPlan(
        islands=islands,
        cut_wires=tuple(w.name for w in cut),
        lookahead_us=min(w.propagation_us for w in cut),
    )


def harden_cut_wires(world, plan):
    """Switch the plan's cut wires to full-duplex serialization.

    Called in *every* run mode (the tail study applies it whether or
    not ``--parallel`` is in effect) so the single-process and
    parallel schedules stay identical: a half-duplex medium lock cannot
    be shared across worker processes, so the contention it models must
    not exist in either mode.  Full duplex is the physically accurate
    model for these links anyway — they are point-to-point router
    interconnects, not shared segments.  The flag never enters the
    world description, so fingerprints are unchanged.
    """
    by_name = {wire.name: wire for wire in world.wires}
    for name in plan.cut_wires:
        by_name[name].full_duplex = True


def pack_groups(plan, nprocs):
    """Assign islands to at most ``nprocs`` worker groups.

    Deterministic greedy balance by host count (largest island first,
    into the currently lightest group).  Returns a list of sorted
    island-index lists; fewer groups than ``nprocs`` when there are
    fewer islands.
    """
    nprocs = max(1, min(nprocs, len(plan.islands)))
    groups = [[] for _ in range(nprocs)]
    weights = [0] * nprocs
    for island in sorted(plan.islands,
                         key=lambda i: (-len(i.hosts), i.index)):
        g = min(range(nprocs), key=lambda j: (weights[j], j))
        groups[g].append(island.index)
        weights[g] += len(island.hosts)
    for group in groups:
        group.sort()
    return [group for group in groups if group]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _build_world_and_plan(topology_args, placement):
    from repro.world.topology import TopologySpec, build_world, warm_arp

    tspec = TopologySpec(placement=placement, **topology_args)
    world = build_world(tspec)
    plan = partition_world(world)
    harden_cut_wires(world, plan)
    warm_arp(world)
    return world, plan


def _island_worker(conn, group_index, groups, topology_args, placement,
                   wspec_args, telemetry=None):
    """One worker: build the full world, drive one group of islands.

    ``telemetry`` (None: legacy frame-only exchange) is a dict with
    optional keys ``"forensics"`` (``{"sample_every", "capacity",
    "seed"}`` — enable the trace recorder in selective mode) and
    ``"metrics"`` (truthy — export this group's slice of the world's
    metrics registry).  With telemetry on, captured frames carry their
    trace ids across the boundary, the worker settles its clock to the
    canonical snapshot instant, and the final result message carries
    picklable ``trace_state`` / ``request_state`` / ``metrics_state``
    blocks (plus the engine's ``flight_state`` ring) for the parent to
    merge.
    """
    try:
        from repro.trace.recorder import TaggedFrame, frame_trace
        from repro.world.workload import (
            SETTLE_GRACE_US,
            WorkloadSpec,
            WorkloadResult,
            build_schedules,
            settle_telemetry,
            spawn_udp_partition,
        )

        world, plan = _build_world_and_plan(topology_args, placement)
        sim = world.sim
        wspec = WorkloadSpec(**wspec_args)

        rt = None
        fconf = telemetry.get("forensics") if telemetry else None
        if fconf is not None:
            from repro.trace.request import RequestTracer

            world.tracer.enable(capacity=fconf["capacity"])
            rt = RequestTracer(world.tracer,
                               sample_every=fconf["sample_every"],
                               seed=fconf["seed"])
        if telemetry and telemetry.get("metrics"):
            world.metrics.enable()

        island_group = {}
        for g, island_indices in enumerate(groups):
            for i in island_indices:
                island_group[i] = g
        local_hosts = set()
        local_routers = set()
        for i in groups[group_index]:
            local_hosts.update(plan.islands[i].hosts)
            local_routers.update(plan.islands[i].routers)

        # Install capture hooks on cut wires that cross *group*
        # boundaries and touch this group (cut wires internal to one
        # group keep normal local delivery).
        stations = _wire_stations(world)
        by_name = {wire.name: wire for wire in world.wires}
        island_of_router = {}
        for island in plan.islands:
            for r in island.routers:
                island_of_router[r] = island.index
        captures = []
        boundary = {}  # wire name -> frozenset of foreign NICs on it
        for name in plan.cut_wires:
            wire = by_name[name]
            r0, r1 = stations[wire][1]
            g0 = island_group[island_of_router[r0]]
            g1 = island_group[island_of_router[r1]]
            if g0 == g1:
                continue
            if group_index not in (g0, g1):
                continue
            foreign_router = world.routers[
                r0 if g0 != group_index else r1]
            foreign_nics = frozenset(
                iface.nic for iface in foreign_router.interfaces
                if iface.nic._wire is wire)

            def capture(frame, sender, arrival, _name=name):
                # bytes() strips the TaggedFrame subclass for pickling;
                # the trace id rides alongside and is re-tagged by the
                # receiving worker at injection.
                captures.append((_name, arrival, bytes(frame),
                                 frame_trace(frame), len(captures)))

            wire.capture = capture
            boundary[name] = foreign_nics

        result = WorkloadResult(window_us=wspec.window_us)
        schedules = build_schedules(wspec, len(world.hosts))
        clients, start, end = spawn_udp_partition(
            world, wspec, schedules, result, local_hosts,
            request_tracer=rt)

        window = plan.lookahead_us
        window_end = 0.0
        rounds = 0
        while True:
            rounds += 1
            if rounds > MAX_WINDOWS:
                raise RuntimeError(
                    "island worker %d: no convergence after %d windows"
                    % (group_index, MAX_WINDOWS))
            window_end += window
            sim.run(until=window_end)
            done = all(proc.triggered for proc in clients)
            outbound, captures[:] = list(captures), []
            conn.send(("window", outbound, done))
            command = conn.recv()
            if command[0] == "stop":
                break
            for name, arrival, frame, tid, _origin, _seq in command[1]:
                foreign_nics = boundary.get(name)
                if foreign_nics is None:
                    continue
                if tid is not None and rt is not None:
                    frame = TaggedFrame.tag(frame, tid)
                    rt.register_foreign(tid)
                sim.call_at(arrival, by_name[name]._deliver, frame, None,
                            foreign_nics)
            if not done and window_end > end + SETTLE_GRACE_US:
                raise RuntimeError(
                    "island worker %d: clients still pending %.0f us "
                    "past the drain deadline" % (group_index, window_end))
        for proc in clients:
            if not proc.ok:
                raise proc.value
        payload = {
            "issued": result.issued,
            "completed": result.completed,
            "censored": result.censored,
            "latencies_us": result.latencies_us,
            "fingerprint": world.fingerprint(),
        }
        if telemetry:
            # Settle to the canonical instant (identical in the
            # single-process run) so time-derived gauges agree exactly.
            settle_telemetry(sim, end)
            if rt is not None:
                payload["trace_state"] = world.tracer.export_state(
                    island=group_index)
                payload["request_state"] = rt.export_state(
                    island=group_index)
            if telemetry.get("metrics"):
                # Export only metrics this group owns (its hosts,
                # routers, and every wire touching them) plus
                # unprefixed globals; cut wires export from both sides
                # and sum correctly because only the transmitting side
                # bumps counters.
                local_names = {world.hosts[h].name for h in local_hosts}
                local_names.update(
                    world.routers[r].name for r in local_routers)
                known = {host.name for host in world.hosts}
                known.update(router.name for router in world.routers)
                for wire, (whosts, wrouters) in stations.items():
                    known.add(wire.name)
                    if (any(h in local_hosts for h in whosts)
                            or any(r in local_routers for r in wrouters)):
                        local_names.add(wire.name)

                def owns(metric):
                    prefix = metric.split(".", 1)[0]
                    return prefix in local_names or prefix not in known

                payload["metrics_state"] = world.metrics.export_state(
                    island=group_index, owns=owns)
            payload["flight_state"] = sim.flight.export_state(
                island=group_index)
        conn.send(("result", payload))
    except BaseException as exc:  # report, then die loudly
        import traceback

        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc),
                       traceback.format_exc()))
        finally:
            raise
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent driver
# ----------------------------------------------------------------------

class ParallelRunError(RuntimeError):
    """A worker failed; carries its traceback text."""


def run_parallel_workload(topology_args, placement, wspec, plan,
                          nprocs, log=None, telemetry=None):
    """Run a UDP workload across island worker processes.

    Returns ``(result, fingerprint, nworkers, telemetry_out)`` where
    ``result`` is a merged :class:`~repro.world.workload.WorkloadResult`,
    or ``None`` when the plan cannot use at least two workers (caller
    falls back to the single-process path).

    ``telemetry`` (see :func:`_island_worker`) asks the workers to ship
    their per-island metrics/trace snapshots home; ``telemetry_out`` is
    then a dict with ``"metrics"`` (a merged registry state, see
    :func:`repro.metrics.registry.merge_states`), ``"trace"`` (a
    :class:`~repro.trace.recorder.MergedTraceState`) and ``"requests"``
    (a :class:`~repro.trace.request.MergedRequestState`) as requested,
    plus ``"flight"`` (a :class:`~repro.trace.flight.MergedFlightState`
    interleaving every worker's flight-recorder ring, eviction counters
    intact) — otherwise None.
    """
    import multiprocessing as mp

    from repro.world.workload import WorkloadResult

    if wspec.proto != "udp" or not plan.parallelizable:
        return None
    groups = pack_groups(plan, nprocs)
    if len(groups) < 2:
        return None
    if log is not None:
        log("parallel: %d islands in %d workers, lookahead %.1f us"
            % (len(plan.islands), len(groups), plan.lookahead_us))

    ctx = mp.get_context("fork")
    wspec_args = {
        field: getattr(wspec, field)
        for field in wspec.__dataclass_fields__
    }
    workers, conns = [], []
    for g in range(len(groups)):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_island_worker,
            args=(child_conn, g, groups, topology_args, placement,
                  wspec_args, telemetry),
            name="island-%d" % g,
        )
        proc.daemon = True
        proc.start()
        child_conn.close()
        workers.append(proc)
        conns.append(parent_conn)

    def fail(detail):
        for proc in workers:
            proc.terminate()
        raise ParallelRunError(detail)

    try:
        while True:
            messages = []
            for g, conn in enumerate(conns):
                try:
                    messages.append(conn.recv())
                except EOFError:
                    fail("island worker %d died mid-window" % g)
            for message in messages:
                if message[0] == "error":
                    fail("island worker failed: %s\n%s"
                         % (message[1], message[2]))
            # Terminate only at quiescence: every client done AND no
            # frames captured this window.  Frames from the final
            # window must still be relayed (a straggler crossing a cut
            # can hop onward across the next one), so the loop drains
            # round by round until nothing is in flight.
            if (all(done for _kind, _frames, done in messages)
                    and not any(frames
                                for _kind, frames, _done in messages)):
                for conn in conns:
                    conn.send(("stop",))
                break
            merged = []
            for g, (_kind, frames, _done) in enumerate(messages):
                for name, arrival, frame, tid, seq in frames:
                    merged.append((name, arrival, frame, tid, g, seq))
            merged.sort(key=lambda entry: (entry[1], entry[4], entry[5]))
            for g, conn in enumerate(conns):
                conn.send(("frames",
                           [entry for entry in merged if entry[4] != g]))
        partials = []
        for g, conn in enumerate(conns):
            try:
                message = conn.recv()
            except EOFError:
                fail("island worker %d died before reporting" % g)
            if message[0] == "error":
                fail("island worker failed: %s\n%s"
                     % (message[1], message[2]))
            partials.append(message[1])
    finally:
        for conn in conns:
            conn.close()
        for proc in workers:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.terminate()

    fingerprints = {partial["fingerprint"] for partial in partials}
    if len(fingerprints) != 1:
        raise ParallelRunError(
            "island workers disagree on the world fingerprint: %s"
            % sorted(fingerprints))
    result = WorkloadResult(window_us=wspec.window_us)
    for partial in partials:
        result.issued += partial["issued"]
        result.completed += partial["completed"]
        result.censored += partial["censored"]
        result.latencies_us.extend(partial["latencies_us"])
    telemetry_out = None
    if telemetry:
        telemetry_out = {}
        if telemetry.get("forensics") is not None:
            from repro.trace.recorder import merge_trace_states
            from repro.trace.request import merge_request_states

            telemetry_out["trace"] = merge_trace_states(
                [partial["trace_state"] for partial in partials])
            telemetry_out["requests"] = merge_request_states(
                [partial["request_state"] for partial in partials])
        if telemetry.get("metrics"):
            from repro.metrics.registry import merge_states

            telemetry_out["metrics"] = merge_states(
                [partial["metrics_state"] for partial in partials])
        from repro.trace.flight import merge_flight_states

        telemetry_out["flight"] = merge_flight_states(
            [partial["flight_state"] for partial in partials])
    return result, fingerprints.pop(), len(groups), telemetry_out


def parallel_note(reason):
    """One-line fallback note, kept in one place for consistency."""
    print("parallel: falling back to single-process (%s)" % reason,
          file=sys.stderr)
