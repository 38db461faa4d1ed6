"""The simulator must be bit-deterministic run to run.

The CI perf-regression gate and the fast-path work in the sim core both
lean on one invariant: two in-process runs of the same harness produce
*exactly* equal metrics — not merely close.  These tests run the two
cheapest paper collectors (Table 1 and Figure 1) twice each and compare
the result dicts with ``==``; any nondeterminism (iteration-order leaks,
id()-based ordering, stray floating-point reordering) fails loudly here
before it can show up as mystery drift in the bench gate.
"""

from repro.analysis.experiments import run_crossings, run_proxy_calls
from repro.world.topology import TopologySpec, build_world


def test_table1_proxy_calls_bit_identical():
    first = run_proxy_calls()
    second = run_proxy_calls()
    assert first == second


def test_figure1_crossings_bit_identical():
    first = run_crossings("library-shm-ipf")
    second = run_crossings("library-shm-ipf")
    assert first == second


def test_crossings_deterministic_across_placements():
    # The UX-server placement exercises the priority-lock and IPC paths
    # the charge fast path rewrote; pin its determinism separately.
    assert run_crossings("ux") == run_crossings("ux")


def _star_clients(placement):
    """Each host's first app in a 16-host star cell: its id, library
    name and the first retry-jitter draw of each of its RPC callers."""
    world = build_world(TopologySpec(kind="star", hosts=16, seed=7,
                                     placement=placement))
    clients = []
    for index in range(len(world.hosts)):
        api = world.new_app(index)
        if placement == "ux":
            clients.append((api.client_id, api.resilient.rng.random()))
        else:
            library = api.library
            clients.append((library.app_id, library.name,
                            api.resilient.rng.random(),
                            library.metastate.caller.rng.random()))
    return clients


def test_a_world_numbers_its_clients_alike_every_time():
    """App and client ids are per world, from 1: a second identical world
    in one process gets the same names and retry jitter as the first."""
    for placement in ("library-shm-ipf", "ux"):
        first = _star_clients(placement)
        assert [client[0] for client in first] == list(range(1, 17))
        assert _star_clients(placement) == first
