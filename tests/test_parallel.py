"""The multi-process island backend: partition soundness (property
tested), grouping determinism, and bit-identity with the single-process
engine on both a cuttable WAN world and a non-cuttable star."""

import json

from hypothesis import given, settings, strategies as st

from repro.analysis import tailstudy
from repro.sim.parallel import (
    harden_cut_wires,
    pack_groups,
    partition_world,
)
from repro.world.topology import TopologySpec, build_world


# ----------------------------------------------------------------------
# Property: the island partition is a true partition with honest
# lookahead, for any seeded fattree or WAN world
# ----------------------------------------------------------------------

random_spec = st.one_of(
    st.builds(
        dict,
        kind=st.just("fattree"),
        hosts=st.integers(2, 24),
        hosts_per_edge=st.integers(1, 8),
        spines=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    ),
    st.builds(
        dict,
        kind=st.just("wan"),
        hosts=st.integers(2, 24),
        sites=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    ),
)


@settings(max_examples=25, deadline=None)
@given(random_spec)
def test_partition_is_sound(spec_args):
    world = build_world(TopologySpec(placement="mach25", **spec_args))
    plan = partition_world(world)

    # Every host lands in exactly one island.
    seen = {}
    for island in plan.islands:
        for h in island.hosts:
            assert h not in seen, "host %d in two islands" % h
            seen[h] = island.index
    assert sorted(seen) == list(range(len(world.hosts)))
    # Same for routers (forwarding-only islands are allowed).
    routers = [r for island in plan.islands for r in island.routers]
    assert sorted(routers) == list(range(len(world.routers)))

    by_name = {w.name: w for w in world.wires}
    island_of_host = seen
    island_of_router = {r: island.index for island in plan.islands
                       for r in island.routers}

    def wire_islands(wire):
        members = set()
        for h, host in enumerate(world.hosts):
            if host.nic._wire is wire:
                members.add(island_of_host[h])
        for r, router in enumerate(world.routers):
            for iface in router.interfaces:
                if iface.nic._wire is wire:
                    members.add(island_of_router[r])
        return members

    cut = set(plan.cut_wires)
    for wire in world.wires:
        spanned = wire_islands(wire)
        if wire.name in cut:
            # A cut wire genuinely crosses islands, and its latency
            # honours the claimed lookahead.
            assert len(spanned) == 2
            assert wire.propagation_us >= plan.lookahead_us
        else:
            # Every uncut wire is internal to one island.
            assert len(spanned) <= 1 or len(plan.islands) == 1
    if cut:
        assert plan.lookahead_us > 0
        assert plan.lookahead_us == min(
            by_name[name].propagation_us for name in cut)
    else:
        assert len(plan.islands) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_group_packing_is_deterministic_and_complete(seed, nprocs):
    world = build_world(TopologySpec(
        kind="wan", hosts=18, sites=4, seed=seed, placement="mach25"))
    plan = partition_world(world)
    groups = pack_groups(plan, nprocs)
    assert groups == pack_groups(plan, nprocs)
    packed = sorted(i for group in groups for i in group)
    assert packed == list(range(len(plan.islands)))
    assert len(groups) <= min(nprocs, len(plan.islands))


def test_harden_marks_only_cut_wires():
    world = build_world(TopologySpec(
        kind="wan", hosts=8, sites=2, seed=9, placement="mach25"))
    plan = partition_world(world)
    fingerprint_before = world.fingerprint()
    harden_cut_wires(world, plan)
    cut = set(plan.cut_wires)
    assert cut  # a 2-site WAN always has a long-haul link to cut
    for wire in world.wires:
        assert wire.full_duplex == (wire.name in cut)
    # The backend switch is invisible to the world's identity.
    assert world.fingerprint() == fingerprint_before


# ----------------------------------------------------------------------
# Bit-identity: parallel vs single-process
# ----------------------------------------------------------------------

_TOPOLOGY = dict(hosts=12, seed=21, hosts_per_edge=8, spines=2,
                 sites=2, router_speedup=8.0)
_WORKLOAD = dict(proto="udp", seed=21, clients=0, fanout=2,
                 request_bytes=64, reply_bytes=200, size_dist="fixed",
                 window_us=200_000.0, drain_us=150_000.0)


def _cells(kind, parallel, forensics=None, metrics=False, **overrides):
    targs = dict(_TOPOLOGY, kind=kind)
    wargs = dict(_WORKLOAD, **overrides)
    cell = tailstudy.run_cell(targs, wargs, "mach25", 0.1,
                              parallel=parallel, forensics=forensics,
                              metrics=metrics)
    # The volatile keys strip_volatile removes from full documents.
    cell.pop("wallclock_seconds")
    cell.pop("analysis_seconds", None)
    backend = cell.pop("backend")
    return cell, backend


def test_wan_parallel_matches_single_process_bit_for_bit():
    single, _ = _cells("wan", 0)
    parallel, backend = _cells("wan", 2)
    assert single["completed"] > 0
    assert backend == {"mode": "parallel", "workers": 2, "fallback": None}
    assert json.dumps(single, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


def test_wan_parallel_telemetry_matches_single_process_bit_for_bit():
    # The distributed-telemetry contract: forensics attribution and the
    # merged metrics block from two island workers are byte-identical
    # to the single-process run of the same seeded cell.
    forensics = {"sample_every": 4, "capacity": 1 << 18, "exemplars": 3}
    single, _ = _cells("wan", 0, forensics=forensics, metrics=True)
    parallel, backend = _cells("wan", 2, forensics=forensics, metrics=True)
    assert backend["mode"] == "parallel"
    assert single["forensics"]["requests_sampled"] > 0
    assert single["forensics"]["attribution"]["requests"] > 0
    assert single["metrics"]["pull"] and single["metrics"]["gauges"]
    # The registry was enabled on both backends: a block of Nones would
    # compare equal too.
    assert None not in single["metrics"]["pull"].values()
    assert all(g["value"] is not None and g["samples"]
               for g in single["metrics"]["gauges"].values())
    # Every host's station-filter gauge comes home from the island
    # that owns the host, next to its rx_dropped sibling.
    for kind in (".nic.rx_filtered", ".nic.rx_dropped"):
        assert sum(name.endswith(kind)
                   for name in parallel["metrics"]["pull"]) == 12
    assert json.dumps(single, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


def test_star_falls_back_and_stays_bit_identical(capsys):
    # A 200-host star has a host on every leaf segment, so no wire
    # qualifies as a cut: --parallel must fall back to single-process
    # and produce the byte-identical document (fingerprint included).
    targs = dict(_TOPOLOGY, kind="star", hosts=200)
    wargs = dict(_WORKLOAD, clients=6,
                 window_us=120_000.0, drain_us=100_000.0)
    single = tailstudy.run_cell(targs, wargs, "mach25", 0.05)
    parallel = tailstudy.run_cell(targs, wargs, "mach25", 0.05,
                                  parallel=2)
    assert "falling back" in capsys.readouterr().err
    assert single["completed"] > 0
    assert single["world_fingerprint"] == parallel["world_fingerprint"]
    assert parallel["backend"]["mode"] == "single"
    assert "no islands to cut" in parallel["backend"]["fallback"]
    for cell in (single, parallel):
        cell.pop("wallclock_seconds")
        cell.pop("backend")
    assert json.dumps(single, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


def test_tcp_workload_falls_back(capsys):
    cell, backend = _cells("wan", 2, proto="tcp", window_us=120_000.0,
                           drain_us=100_000.0)
    assert "falling back" in capsys.readouterr().err
    assert backend["mode"] == "single"
    assert "TCP" in backend["fallback"]
    assert cell["issued"] > 0
