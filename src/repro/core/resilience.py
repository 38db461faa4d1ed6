"""Client-side control-plane resilience: the one patient retry loop.

The proxy library and the server's own socket API both reach the OS
server through :class:`~repro.kernel.ipc.RPCPort`.  In the paper the
server is a restartable user task, so a client outlives its crashes by
retrying: :class:`ResilientCaller` is the one retry loop every client of
the port shares (socket calls, metastate fetches, re-registration).  It
arms no timer of its own and draws one jitter sample per retry, which is
what keeps ``BENCH.json`` byte-identical with faults disabled.
"""

import random

from repro.kernel.ipc import ServerCrashed
from repro.sim.process import Timeout

#: Attempts per logical op before the last ``ServerCrashed`` propagates.
RETRY_LIMIT = 64
#: First backoff slice; each retry doubles it, up to BACKOFF_MAX_US.
BACKOFF_BASE_US = 10_000.0
BACKOFF_MAX_US = 2_000_000.0


class RetryJitter:
    """A seeded backoff-jitter stream, its ``random.Random`` built on the
    first draw.

    Only a retry draws, and a generator costs ~2.5 KB, so an app that
    never sees a crash never builds one.  The stream is exactly that of
    ``random.Random(seed)``; callers that share one instance share it.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed):
        self.seed = seed
        self._rng = None

    def random(self):
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng.random()


class ResilientCaller:
    """The retry loop for one client of one port.

    On :class:`~repro.kernel.ipc.ServerCrashed` the caller backs off
    (``delay * (0.5 + rng.random())``, doubling; ``rng`` is a
    :class:`RetryJitter`) and, once the port is open
    again, retries; a real errno from the server propagates at once.  A
    crash can land after a handler's side effects but before its reply,
    so retried ops carry a request id or are idempotent against rebuilt
    server state.  ``gate()`` returns an event to wait on (or None)
    before each attempt: the proxy holds retries back until its
    re-registration has taught the restarted server their session ids.
    """

    def __init__(self, rpc, ctx, rng, gate=None):
        self.rpc = rpc
        self.ctx = ctx
        self.rng = rng
        self.gate = gate
        self._sim = rpc._sim
        self.retries = 0
        #: Sequence numbers of the request ids now in flight, from every
        #: process calling through this caller (see :meth:`_call`).
        self._outstanding = set()

    def call(self, op, args=(), data=b"", layer="rpc", req_id=None,
             ctx=None):
        """Run one logical op to completion or to its last failure.

        ``ctx`` overrides the context bound at construction: the
        metastate cache is called from the library's protocol context
        and from the proxy's application one, and each call pays its own.

        When the caller is working a traced packet, the round trip's
        whole duration — queueing on a broken port, backoff sleeps,
        the RPC itself — is recorded as one ``control-plane`` wait span
        (pure observation; the retry loop is unchanged).
        """
        if ctx is None:
            ctx = self.ctx
        tracer = ctx.accounting.tracer
        if tracer is not None and tracer.enabled:
            started = self._sim.now
            tid = tracer.current()
            try:
                result = yield from self._call(
                    ctx, op, args, data, layer, req_id)
            finally:
                waited = self._sim.now - started
                if tid is not None and waited > 0:
                    tracer.record_wait(tid, ctx.accounting.owner,
                                       "control/%s" % op, "control-plane",
                                       started, waited)
            return result
        result = yield from self._call(ctx, op, args, data, layer, req_id)
        return result

    def _call(self, ctx, op, args, data, layer, req_id):
        """The retry loop.  Each attempt carries the caller's lowest
        outstanding seq, acknowledging the replies below it; a sibling
        process may still wait on an older id, so it may not be ours."""
        rpc = self.rpc
        delay = BACKOFF_BASE_US
        outstanding = self._outstanding
        if req_id is not None:
            outstanding.add(req_id[-1])
        try:
            for attempt in range(RETRY_LIMIT):
                if rpc.broken:
                    yield rpc.wait_reopen()
                if self.gate is not None:
                    event = self.gate()
                    if event is not None:
                        yield event
                try:
                    result = yield from rpc.call(
                        ctx, op, args=args, data=data, layer=layer,
                        req_id=req_id,
                        acked=min(outstanding) if req_id else None)
                except ServerCrashed:
                    if attempt == RETRY_LIMIT - 1:
                        raise
                    rpc.retried_calls += 1
                    self.retries += 1
                    yield Timeout(delay * (0.5 + self.rng.random()))
                    delay = min(delay * 2, BACKOFF_MAX_US)
                else:
                    return result
        finally:
            if req_id is not None:
                outstanding.discard(req_id[-1])
