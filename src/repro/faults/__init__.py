"""Composable, deterministic fault injection for the simulated network.

The paper's central claim is that decomposition isolates failure: data
transfer lives in each application's library while the heavyweight
machinery lives in a restartable OS server.  Exercising that claim needs
richer faults than independent Bernoulli frame drops — bursty loss,
reordering, duplication, delay jitter, partitions, receive-queue
overflow, and server crashes.  One :class:`FaultPlan` — an ordered list
of :class:`FaultStage` objects and one seeded RNG — drives both planes:

* attached to an :class:`~repro.hw.wire.EthernetWire` (``fault_plan=``),
  its stages sit between frame serialization and NIC delivery
  (:mod:`repro.faults.stages`);
* attached to an OS server with :meth:`FaultPlan.attach_server`, its
  stages see every proxy RPC request and reply, every IPC packet
  delivery (``on_message(port, op, rng)``) and the server's own request
  handling (``on_serve(op, rng)``): drops, duplicates, delays, stalls,
  transient failures, crash-during-op (:mod:`repro.faults.control`).

Every stage draws from its plan's single seeded RNG, so a whole chaotic
run is reproducible from one seed; a wire plan and a server plan compose
in the same run.  Scheduled crashes live in
:mod:`repro.osserver.netserver` (``crash()``/``restart()``) and
:mod:`repro.kernel.ipc` (:class:`~repro.kernel.ipc.ServerCrashed`).
"""

from repro.faults.control import (
    IpcDelay,
    IpcDuplicate,
    IpcLoss,
    RpcDelay,
    RpcDrop,
    RpcDuplicate,
    RpcReplyDelay,
    ServerCrashOnOp,
    ServerFlakyOp,
    ServerSlowOp,
)
from repro.faults.plan import FaultPlan, FaultStage, Transit
from repro.faults.stages import (
    BernoulliLoss,
    Blackhole,
    Corrupt,
    DelayJitter,
    Duplicate,
    GilbertElliottLoss,
    Reorder,
    RxOverflow,
)

__all__ = [
    "FaultPlan",
    "FaultStage",
    "Transit",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "Corrupt",
    "Duplicate",
    "DelayJitter",
    "Reorder",
    "Blackhole",
    "RxOverflow",
    "RpcDrop",
    "RpcDelay",
    "RpcDuplicate",
    "RpcReplyDelay",
    "IpcLoss",
    "IpcDuplicate",
    "IpcDelay",
    "ServerSlowOp",
    "ServerFlakyOp",
    "ServerCrashOnOp",
]
