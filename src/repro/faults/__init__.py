"""Composable, deterministic fault injection for the simulated network.

The paper's central claim is that decomposition isolates failure: data
transfer lives in each application's library while the heavyweight
machinery lives in a restartable OS server.  Exercising that claim needs
richer faults than independent Bernoulli frame drops — bursty loss,
reordering, duplication, delay jitter, partitions, receive-queue
overflow, and server crashes.  This package provides the wire-level half:
a :class:`FaultPlan` is an ordered pipeline of :class:`FaultStage` objects
hooked between frame serialization and NIC delivery on an
:class:`~repro.hw.wire.EthernetWire`.  Every stage draws from the plan's
single seeded RNG, so a whole chaotic run is reproducible from one seed.

The server-crash half lives in :mod:`repro.osserver.netserver`
(``crash()``/``restart()``) and :mod:`repro.kernel.ipc`
(:class:`~repro.kernel.ipc.ServerCrashed`, RPC retry with backoff).

The *control-plane* half lives in :mod:`repro.faults.control`: a
:class:`ControlFaultPlan` aims the same seeded-stage machinery at proxy
RPCs, IPC delivery ports, and the server's own request handling (drops,
duplicates, delays, stalls, transient failures, crash-during-op), all
composable with a wire plan in the same run.
"""

from repro.faults.control import (
    ControlFaultPlan,
    ControlFaultStage,
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
    "ControlFaultPlan",
    "ControlFaultStage",
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
