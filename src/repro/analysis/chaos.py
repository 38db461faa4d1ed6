"""The chaos conformance matrix: control-plane faults under invariants.

Every scenario is one cell of {placement} x {workload} x {fault family},
run under one seed:

* **placements** — ``library-shm-ipf`` and ``library-ipc`` (NetServer +
  protocol libraries), ``ux`` (monolithic UnixServer), and ``mach25``
  (in-kernel, no control plane — wire faults only).
* **workloads** — ``ttcp`` (one bulk transfer, byte-checksummed),
  ``protolat`` (request/response echo rounds), and ``churn`` (a loop of
  short connections with a mid-stream ``fork`` and an embryonic socket).
* **fault families** — ``wire`` (the full frame pipeline: burst loss,
  reorder, duplication, jitter, corruption), ``rpc`` (control-plane
  request drop/duplicate/delay, reply delay, IPC channel faults, with
  implicit deadlines), and ``stress`` (server-side slow ops, transient
  failures, admission control with a tiny pending queue, plus — on
  library placements — a full crash/restart outage).

After the workload completes and TIME_WAIT drains, a battery of
invariants must hold: every byte arrived intact, no port stayed bound,
no TCP session survived, every descriptor was closed, the RPC port is
healthy and idle, no background work leaked, and the fault/recovery
counters are mutually consistent.  A violation prints a standalone
reproducer command before the process exits non-zero::

    PYTHONPATH=src python -m repro.analysis.chaos --scenario <id> --seed <n>

CI runs the blocking subset (``--ci``: 3 scenarios x 3 seeds); the full
27-scenario matrix runs via ``--full``.
"""

import argparse
import json
import os
import sys

from repro.core.sockets import SOCK_STREAM, SocketError
from repro.faults import (
    Corrupt,
    DelayJitter,
    Duplicate,
    FaultPlan,
    GilbertElliottLoss,
    IpcDelay,
    IpcDuplicate,
    IpcLoss,
    Reorder,
    RpcDelay,
    RpcDrop,
    RpcDuplicate,
    RpcReplyDelay,
    ServerFlakyOp,
    ServerSlowOp,
)
from repro.net.addr import ip_aton
from repro.sim.engine import Deadlock
from repro.world.configs import CONFIGS, STYLE_LIBRARY, build_network

IP1 = ip_aton("10.0.0.1")
PORT = 7600
BOUND = 1_200_000_000  # 20 simulated minutes: a hang, not slowness
DRAIN_US = 70_000_000  # outlives TIME_WAIT and the port quarantine

TTCP_BYTES = 48_000
PROTOLAT_ROUNDS = 40
PROTOLAT_MSG = 64
CHURN_CONNS = 5
CHURN_BYTES = 3_000

#: Matrix axes.  ``mach25`` has no control plane, so only wire faults
#: apply there; the crash/restart outage in ``stress`` needs a NetServer,
#: so that family runs on library placements only.
WORKLOADS = ("ttcp", "protolat", "churn")
FAMILY_CONFIGS = {
    "wire": ("library-shm-ipf", "library-ipc", "ux", "mach25"),
    "rpc": ("library-shm-ipf", "library-ipc", "ux"),
    "stress": ("library-shm-ipf", "library-ipc"),
}
DEFAULT_SEEDS = (11, 23, 47)

#: The blocking CI subset: both control-plane fault families (including
#: the crash/restart outage) across two placements and all workloads.
CI_SCENARIOS = (
    "library-shm-ipf/ttcp/stress",
    "library-shm-ipf/churn/rpc",
    "ux/protolat/rpc",
)


def all_scenarios():
    """Every scenario id, in stable matrix order."""
    ids = []
    for family in ("wire", "rpc", "stress"):
        for config in FAMILY_CONFIGS[family]:
            for workload in WORKLOADS:
                ids.append("%s/%s/%s" % (config, workload, family))
    return ids


def payload(n, salt):
    return bytes((i * 31 + salt) % 256 for i in range(n))


# --- fault plan construction ------------------------------------------


def wire_plan(family, seed):
    """The frame-level pipeline.  The ``wire`` family gets the full
    soak treatment; the control-plane families keep a mild jitter so the
    data path stays realistic without dominating runtime."""
    if family == "wire":
        stages = [
            GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=0.9),
            Reorder(rate=0.05, hold_us=3000.0),
            Duplicate(rate=0.02, gap_us=150.0),
            DelayJitter(jitter_us=400.0),
            Corrupt(rate=0.01),
        ]
    else:
        stages = [DelayJitter(jitter_us=200.0)]
    return FaultPlan(stages, seed=seed * 7)


def control_plan(family, seed):
    """The control-plane stage list for ``rpc``/``stress`` (None for
    ``wire``: those scenarios prove the fault layer is absent)."""
    if family == "rpc":
        stages = [
            RpcDrop(rate=0.08),
            RpcDuplicate(rate=0.08),
            RpcDelay(rate=0.10, delay_us=2000.0, jitter_us=1000.0),
            RpcReplyDelay(rate=0.08, delay_us=2500.0, jitter_us=1500.0),
            IpcLoss(rate=0.02),
            IpcDuplicate(rate=0.03),
            IpcDelay(rate=0.03, delay_us=800.0, jitter_us=400.0),
        ]
    elif family == "stress":
        stages = [
            ServerSlowOp(rate=0.15, stall_us=4000.0),
            ServerFlakyOp(rate=0.10),
            RpcDuplicate(rate=0.05),
        ]
    else:
        return None
    # A short implicit deadline keeps dropped-request recovery cheap.
    return FaultPlan(stages, seed=seed * 13 + 1,
                     default_deadline_us=150_000.0)


# --- workloads ---------------------------------------------------------


def _ttcp(net, api_a, api_b, seed, ready, accepted, checks):
    data = payload(TTCP_BYTES, salt=seed)

    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, PORT)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _peer = yield from api_a.accept(fd)
        accepted.succeed()
        got = yield from api_a.recv_exactly(cfd, TTCP_BYTES)
        checks.append(("ttcp bytes", data, got))
        yield from api_a.close(cfd)
        yield from api_a.close(fd)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, PORT))
        yield from api_b.send_all(fd, data)
        yield from api_b.close(fd)

    return [server(), client()]


def _protolat(net, api_a, api_b, seed, ready, accepted, checks):
    def server():
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, PORT)
        yield from api_a.listen(fd)
        ready.succeed()
        cfd, _peer = yield from api_a.accept(fd)
        accepted.succeed()
        for _ in range(PROTOLAT_ROUNDS):
            msg = yield from api_a.recv_exactly(cfd, PROTOLAT_MSG)
            yield from api_a.send_all(cfd, msg)
        yield from api_a.close(cfd)
        yield from api_a.close(fd)

    def client():
        yield ready
        fd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.connect(fd, (IP1, PORT))
        for i in range(PROTOLAT_ROUNDS):
            msg = payload(PROTOLAT_MSG, salt=seed + i)
            yield from api_b.send_all(fd, msg)
            echo = yield from api_b.recv_exactly(fd, PROTOLAT_MSG)
            checks.append(("protolat round %d" % i, msg, echo))
        yield from api_b.close(fd)

    return [server(), client()]


def _churn(net, api_a, api_b, seed, ready, accepted, checks):
    """Short acked connections in a loop, with retry: a connection that
    dies (e.g. established but never accepted when the server crashes)
    is re-driven end to end, so delivery is exactly-once at the
    application layer.  Connection 2 forks mid-stream — the open session
    migrates back to the server and the tail flows through the
    server-managed path.  One embryonic socket is opened, bound, and
    closed without ever connecting."""
    payloads = [payload(CHURN_BYTES, salt=seed + i) for i in range(CHURN_CONNS)]
    children = []

    def server():
        got = {}
        fd = yield from api_a.socket(SOCK_STREAM)
        yield from api_a.bind(fd, PORT)
        yield from api_a.listen(fd)
        ready.succeed()
        while len(got) < CHURN_CONNS:
            cfd, _peer = yield from api_a.accept(fd)
            if not accepted.triggered:
                accepted.succeed()
            try:
                hdr = yield from api_a.recv_exactly(cfd, 4)
                idx = int.from_bytes(hdr, "big")
                body = yield from api_a.recv_exactly(cfd, CHURN_BYTES)
                got.setdefault(idx, body)  # a duplicate is still acked
                yield from api_a.send_all(cfd, b"A")
            except SocketError:
                pass  # a dead connection: the client will retry it
            yield from api_a.close(cfd)
        yield from api_a.close(fd)
        for i in range(CHURN_CONNS):
            checks.append(("churn conn %d" % i, payloads[i],
                           got.get(i, b"<never delivered>")))

    def deliver(i, forked):
        """One attempt at connection ``i``; returns True once acked."""
        fd = yield from api_b.socket(SOCK_STREAM)
        try:
            yield from api_b.connect(fd, (IP1, PORT))
            yield from api_b.send_all(fd, i.to_bytes(4, "big"))
            if i == 2 and not forked:
                half = CHURN_BYTES // 2
                yield from api_b.send_all(fd, payloads[i][:half])
                child = yield from api_b.fork()
                children.append(child)
                yield from api_b.send_all(fd, payloads[i][half:])
            else:
                yield from api_b.send_all(fd, payloads[i])
            ack = yield from api_b.recv_exactly(fd, 1)
            return ack == b"A"
        except SocketError:
            return False
        finally:
            try:
                yield from api_b.close(fd)
                for child in children:
                    if fd in child.fds.open_fds():
                        yield from child.close(fd)
            except SocketError:
                pass

    def client():
        yield ready
        # An embryonic socket: created, bound, never connected.
        efd = yield from api_b.socket(SOCK_STREAM)
        yield from api_b.bind(efd, PORT + 99)
        yield from api_b.close(efd)
        for i in range(CHURN_CONNS):
            while not (yield from deliver(i, forked=bool(children))):
                yield net.sim.timeout(50_000)  # back off, then re-drive

    return [server(), client()], children


WORKLOAD_FUNCS = {"ttcp": _ttcp, "protolat": _protolat, "churn": _churn}


# --- the runner --------------------------------------------------------


def run_scenario(scenario_id, seed, verbose=False, post_mortem=None):
    """Run one scenario under one seed; returns a result dict with an
    (ideally empty) ``violations`` list and the observed counters.

    With ``post_mortem`` set to a file path, any violated run dumps the
    engine's flight-recorder ring there (text timeline; ``.json`` gets
    the chrome trace) so the moments leading up to the failure are
    reconstructable without a rerun."""
    config, workload, family = scenario_id.split("/")
    if config not in FAMILY_CONFIGS[family]:
        raise ValueError("scenario %r is not in the matrix" % scenario_id)
    spec = CONFIGS[config]
    wplan = wire_plan(family, seed)
    cplan = control_plan(family, seed)
    net, pa, pb = build_network(config, fault_plan=wplan)
    api_a = pa.new_app(name="chaos-srv")
    api_b = pb.new_app(name="chaos-cli")
    backend_a = pa._backend
    if cplan is not None:
        cplan.attach_server(
            backend_a,
            libraries=list(getattr(backend_a, "_apps", {}).values()))
        if family == "stress":
            backend_a.rpc.max_pending = 6

    ready = net.sim.event()
    accepted = net.sim.event()
    checks = []
    extra_apis = []
    made = WORKLOAD_FUNCS[workload](net, api_a, api_b, seed, ready, accepted,
                                    checks)
    if isinstance(made, tuple):
        procs, extra_apis = made
    else:
        procs = made

    outage = family == "stress" and spec.style == STYLE_LIBRARY
    if outage:
        def controller():
            # Crash once the first connection is accepted (and therefore
            # app-managed): later control RPCs — closes, migrations, the
            # next accept — land in the outage and must recover.
            yield accepted
            yield net.sim.timeout(5_000)
            net.sim.flight.note("control", "%s crash" % backend_a.name)
            backend_a.crash()
            yield net.sim.timeout(1_200_000)
            net.sim.flight.note("control", "%s restart" % backend_a.name)
            backend_a.restart()
        procs.append(controller())

    net.sim.flight.note("chaos", "scenario %s seed %d" % (scenario_id, seed))
    violations = []
    deadlock_exc = None
    try:
        net.run_all(procs, until=BOUND)
    except Deadlock as exc:
        deadlock_exc = exc
        violations.append("stuck process (deadlock at %dus): %s"
                          % (net.sim.now, exc))
    except Exception as exc:  # a clean error is still a violation here
        violations.append("workload raised %s: %s" % (type(exc).__name__, exc))

    if not violations:
        net.sim.run(until=net.sim.now + DRAIN_US)
        violations.extend(
            _check_invariants(net, pa, pb, [api_a, api_b] + extra_apis,
                              wplan, cplan, family, outage, checks))

    if violations and post_mortem:
        from repro.trace.flight import chrome_trace, timeline
        text = timeline(net.sim.flight,
                        blocked=getattr(deadlock_exc, "blocked", ()),
                        title="chaos %s seed %d" % (scenario_id, seed))
        with open(post_mortem, "w") as fh:
            fh.write(text + "\n")
            for violation in violations:
                fh.write("violation: %s\n" % violation)
        with open(post_mortem + ".json", "w") as fh:
            json.dump(chrome_trace(net.sim.flight), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")

    counters = {"wire": wplan.counters()}
    if cplan is not None:
        counters["control"] = cplan.counters()
    if getattr(backend_a, "rpc", None) is not None:
        counters["server"] = backend_a.health_snapshot()
        api = getattr(api_a, "control_stats", None)
        if api is not None:
            counters["app_a"] = api_a.control_stats()
    return {
        "scenario": scenario_id,
        "seed": seed,
        "ok": not violations,
        "violations": violations,
        "sim_us": net.sim.now,
        "counters": counters,
    }


def _check_invariants(net, pa, pb, apis, wplan, cplan, family, outage, checks):
    violations = []

    # 1. Every byte arrived intact (workloads recorded expected/actual).
    for label, expected, actual in checks:
        if expected != actual:
            violations.append("%s corrupted: %d bytes expected, got %d, "
                              "first diff at %d"
                              % (label, len(expected), len(actual),
                                 next((i for i, (x, y) in
                                       enumerate(zip(expected, actual))
                                       if x != y), min(len(expected),
                                                       len(actual)))))

    # 2. All descriptors closed.
    for api in apis:
        left = api.fds.open_fds()
        if left:
            violations.append("descriptors left open: %r" % (left,))

    stacks = []
    for label, placement in (("a", pa), ("b", pb)):
        backend = placement._backend
        if hasattr(backend, "stack"):
            stacks.append(("%s-server" % label, backend.stack))
        for library in getattr(backend, "_apps", {}).values():
            stacks.append(("%s-lib:%s" % (label, library.name), library.stack))

    # 3. No TCP session survived the drain; no port stayed bound.
    for label, stack in stacks:
        if stack._tcp:
            violations.append("%s still has TCP sessions: %r"
                              % (label, sorted(stack._tcp)))
        for proto in ("tcp", "udp"):
            bound = stack.ports[proto].bound_count()
            if bound:
                violations.append("%s leaked %d bound %s ports"
                                  % (label, bound, proto))

    # 4. The control plane is healthy and idle.
    for label, placement in (("a", pa), ("b", pb)):
        backend = placement._backend
        rpc = getattr(backend, "rpc", None)
        if rpc is None:
            continue
        if rpc.broken:
            violations.append("%s-server RPC port left broken" % label)
        if rpc.pending():
            violations.append("%s-server has %d undrained requests"
                              % (label, rpc.pending()))
        if rpc._outstanding:
            violations.append("%s-server has %d outstanding replies"
                              % (label, len(rpc._outstanding)))
        if getattr(backend, "_inflight", None):
            violations.append("%s-server has stuck inflight ops" % label)
        if getattr(backend, "_background", None):
            violations.append("%s-server leaked background work" % label)

    # 5. Counter consistency.
    if wplan.frames_in != net.wire.frames_carried:
        violations.append(
            "fault pipeline saw %d frames but the wire carried %d"
            % (wplan.frames_in, net.wire.frames_carried))
    if cplan is not None:
        rpc = pa._backend.rpc
        dropped = cplan.counters().get("rpc-drop", {}).get("dropped", 0)
        if not outage and rpc.deadline_expiries < dropped:
            violations.append(
                "%d requests fault-dropped but only %d deadline expiries "
                "(a dropped request went unnoticed)"
                % (dropped, rpc.deadline_expiries))
        if outage:
            server = pa._backend
            if server.crashes < 1 or server.generation < 1:
                violations.append("outage scheduled but the server never "
                                  "crashed/restarted")

    # 6. Full shutdown: every timer process must die on request.
    for _label, stack in stacks:
        stack.shutdown(interrupt=True)
    net.sim.run(until=net.sim.now + 1)
    for label, stack in stacks:
        if stack._timer_proc.alive:
            violations.append("%s timer process would not die" % label)
    return violations


def run_matrix(scenario_ids, seeds, verbose=False, post_mortem_dir=None):
    """Run scenarios x seeds; returns the list of result dicts.

    ``post_mortem_dir`` names a directory that receives one flight-
    recorder dump per *violated* run (clean runs write nothing)."""
    results = []
    if post_mortem_dir:
        os.makedirs(post_mortem_dir, exist_ok=True)
    for scenario_id in scenario_ids:
        for seed in seeds:
            post_mortem = None
            if post_mortem_dir:
                post_mortem = os.path.join(
                    post_mortem_dir,
                    "%s-seed%d.flight" % (scenario_id.replace("/", "_"),
                                          seed))
            result = run_scenario(scenario_id, seed, verbose=verbose,
                                  post_mortem=post_mortem)
            results.append(result)
            status = "ok" if result["ok"] else "VIOLATION"
            line = "%-32s seed %-3d %s" % (scenario_id, seed, status)
            if verbose or not result["ok"]:
                print(line)
                for violation in result["violations"]:
                    print("    %s" % violation)
                if not result["ok"]:
                    print("    REPRO: PYTHONPATH=src python -m "
                          "repro.analysis.chaos --scenario %s --seed %d"
                          % (scenario_id, seed))
    return results


def summarize(results):
    bad = [r for r in results if not r["ok"]]
    total_retries = sum(
        r["counters"].get("server", {}).get("retried_calls", 0)
        for r in results)
    total_shed = sum(
        r["counters"].get("server", {}).get("requests_shed", 0)
        for r in results)
    total_expiries = sum(
        r["counters"].get("server", {}).get("deadline_expiries", 0)
        for r in results)
    return {
        "runs": len(results),
        "violations": sum(len(r["violations"]) for r in results),
        "failed_runs": len(bad),
        "rpc_retries": total_retries,
        "requests_shed": total_shed,
        "deadline_expiries": total_expiries,
    }


def _induce_deadlock(post_mortem):
    """A flight-recorder smoke used by CI: spawn a process that waits on
    an event nobody will ever trigger, catch the resulting Deadlock, and
    dump the post-mortem.  Exits 0 when the dump names the stuck
    process — this is a test *of the recorder*, not of the matrix."""
    from repro.sim.engine import Simulator
    from repro.trace.flight import dump_deadlock

    sim = Simulator()
    sim.flight.note("chaos", "induced-deadlock smoke")

    def stuck():
        yield sim.event("never-fires")

    sim.spawn(stuck(), name="stuck-proc")
    try:
        sim.run(detect_deadlock=True)
    except Deadlock as exc:
        if post_mortem:
            text = dump_deadlock(sim.flight, exc, post_mortem)
        else:
            from repro.trace.flight import timeline
            text = timeline(sim.flight, blocked=exc.blocked,
                            title="deadlock post-mortem")
        print(text)
        ok = "stuck-proc" in text
        print("induce-deadlock: %s" % ("dump names the stuck process"
                                       if ok else "DUMP IS INCOMPLETE"))
        return 0 if ok else 1
    print("induce-deadlock: the toy simulation failed to deadlock",
          file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.chaos",
        description="Run the control-plane chaos conformance matrix.")
    parser.add_argument("--list", action="store_true",
                        help="print every scenario id and exit")
    parser.add_argument("--scenario", action="append", default=None,
                        help="run one scenario id (repeatable)")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="seed(s) to run (default: 11 23 47)")
    parser.add_argument("--ci", action="store_true",
                        help="run the blocking CI subset")
    parser.add_argument("--full", action="store_true",
                        help="run the full matrix")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as JSON")
    parser.add_argument("--post-mortem", metavar="PATH", default=None,
                        help="flight-recorder dump target: a directory "
                             "(one file per violated run), or the output "
                             "file for --induce-deadlock")
    parser.add_argument("--induce-deadlock", action="store_true",
                        help="smoke test the flight recorder: deadlock a "
                             "toy simulation on purpose and dump its ring")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list:
        for scenario_id in all_scenarios():
            print(scenario_id)
        return 0

    if args.induce_deadlock:
        return _induce_deadlock(args.post_mortem)

    if args.scenario:
        known = set(all_scenarios())
        for scenario_id in args.scenario:
            if scenario_id not in known:
                print("chaos: unknown scenario %r (use --list to see the "
                      "matrix)" % scenario_id, file=sys.stderr)
                return 2
        scenario_ids = args.scenario
    elif args.full:
        scenario_ids = all_scenarios()
    else:  # --ci is also the default
        scenario_ids = list(CI_SCENARIOS)
    seeds = tuple(args.seed) if args.seed else DEFAULT_SEEDS

    results = run_matrix(scenario_ids, seeds, verbose=args.verbose,
                         post_mortem_dir=args.post_mortem)
    summary = summarize(results)
    print("chaos: %(runs)d runs, %(failed_runs)d failed, "
          "%(violations)d violations; %(rpc_retries)d RPC retries, "
          "%(requests_shed)d shed, %(deadline_expiries)d deadline expiries"
          % summary)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"summary": summary, "results": results}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if summary["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
