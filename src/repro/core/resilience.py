"""Client-side control-plane resilience: deadlines, retries, breakers.

The proxy library and the server's own socket API both reach the OS
server through :class:`~repro.kernel.ipc.RPCPort`.  This module wraps
those calls with the recovery policy the paper's decomposition needs to
be credible under stress:

* **per-op deadline budgets** — short control ops are abandoned (and
  later retried under the same request id) rather than waiting forever
  on a lost reply;
* **bounded exponential-backoff retries** — the one retry loop every
  client of the port shares (socket calls, metastate fetches,
  re-registration); on the default policy it arms no timer and draws
  one jitter sample per retry;
* **a circuit breaker** — after ``breaker_threshold`` consecutive
  failures the caller fails fast with :class:`ServerUnavailable` instead
  of queueing more doomed work; a single probe per cooldown window tests
  recovery (lazily, in simulated time), and the proxy's server watcher
  resets the breaker outright once re-registration succeeds;
* **operation budgets** — an optional wall-clock bound on the *whole*
  retry loop, including time parked on the re-registration gate or the
  port-reopen wait, so degraded callers surface a clean error instead of
  wedging.

Everything here is off by default: ``ResiliencePolicy()`` is the patient
retry loop alone (one RNG draw per retry, doubling backoff, no deadline
timers armed), which is what keeps ``BENCH.json`` byte-identical with
faults disabled.
"""

from repro.faults.control import LONG_OPS
from repro.kernel.ipc import ServerCrashed
from repro.sim.events import any_of
from repro.core.sockets import SocketError


class ServerUnavailable(SocketError):
    """The OS server is unreachable and the caller declined to wait.

    Raised on the fast-fail path: the circuit breaker is open, or an
    operation budget expired while the server was down.  Unlike
    :class:`~repro.kernel.ipc.ServerCrashed` this is *not* retried by
    the resilience layer — it is the clean, documented error the app
    sees when graceful degradation gives up.
    """

    def __init__(self, reason="server unavailable"):
        super().__init__(reason)
        self.reason = reason


class ResiliencePolicy:
    """Knobs for one client's control-plane behavior.

    The defaults are the patient client: 64 retries, 10ms base backoff
    doubling to a 2s cap, no deadlines, no budget, breaker disabled.
    See EXPERIMENTS.md ("Control-plane chaos") for the knob reference.
    """

    def __init__(self, retry_limit=64, backoff_base_us=10_000.0,
                 backoff_max_us=2_000_000.0, deadline_us=None,
                 op_deadlines=None, op_budget_us=None,
                 breaker_threshold=None, breaker_cooldown_us=1_000_000.0):
        self.retry_limit = retry_limit
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        #: Per-attempt reply deadline for short ops (None: no timer armed).
        self.deadline_us = deadline_us
        #: Per-op deadline overrides, e.g. ``{"proxy_connect": 250_000.0}``.
        self.op_deadlines = dict(op_deadlines) if op_deadlines else None
        #: Bound on one logical op end to end, retries and waits included.
        self.op_budget_us = op_budget_us
        #: Consecutive failures before the breaker opens (None: disabled).
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_us = breaker_cooldown_us

    def deadline_for(self, op):
        if self.op_deadlines is not None and op in self.op_deadlines:
            return self.op_deadlines[op]
        if self.deadline_us is not None and op not in LONG_OPS:
            return self.deadline_us
        return None

    def make_breaker(self):
        if self.breaker_threshold is None:
            return None
        return CircuitBreaker(self.breaker_threshold,
                              self.breaker_cooldown_us)


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    The half-open transition is computed lazily from the simulated clock
    inside :meth:`admit` — no timer process, so an idle breaker costs the
    schedule nothing.  In half-open, exactly one caller is admitted as
    the probe; everyone else fast-fails until it reports back.
    """

    def __init__(self, threshold, cooldown_us):
        self.threshold = threshold
        self.cooldown_us = cooldown_us
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = None
        self.trips = 0
        self.fast_fails = 0
        self.probes = 0
        self._probe_inflight = False

    def admit(self, now):
        """May a call proceed at simulated time ``now``?"""
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= self.cooldown_us:
            self.state = "half-open"
            self._probe_inflight = False
        if self.state == "half-open" and not self._probe_inflight:
            self._probe_inflight = True
            self.probes += 1
            return True
        self.fast_fails += 1
        return False

    def record_success(self):
        self.state = "closed"
        self.consecutive_failures = 0
        self._probe_inflight = False

    def record_failure(self, now):
        self.consecutive_failures += 1
        if self.state == "half-open":
            # Failed probe: back to open, restart the cooldown clock.
            self.state = "open"
            self.opened_at = now
            self._probe_inflight = False
        elif (self.state == "closed"
              and self.consecutive_failures >= self.threshold):
            self.state = "open"
            self.opened_at = now
            self.trips += 1

    def reset(self):
        """External recovery signal (re-registration succeeded)."""
        self.record_success()

    def snapshot(self):
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "fast_fails": self.fast_fails,
            "probes": self.probes,
        }


class ResilientCaller:
    """The retry loop, policy-parameterized, for one client of one port.

    On :class:`~repro.kernel.ipc.ServerCrashed` the caller backs off
    (``delay * (0.5 + rng())``, doubling) and, once the port is open
    again, retries; a real errno from the server propagates at once.  A
    crash can land after a handler's side effects but before its reply,
    so retried ops carry a request id or are idempotent against rebuilt
    server state.  ``gate()`` returns an event to wait on (or None)
    before each attempt: the proxy holds retries back until its
    re-registration has taught the restarted server their session ids.
    """

    def __init__(self, rpc, ctx, rng=None, gate=None, policy=None,
                 name="caller"):
        self.rpc = rpc
        self.ctx = ctx
        self.rng = rng
        self.gate = gate
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.name = name
        self.breaker = self.policy.make_breaker()
        self._sim = rpc._sim
        self.retries = 0
        self.deadline_expiries = 0
        self.budget_exhaustions = 0

    def call(self, op, args=(), data=b"", layer="rpc", req_id=None,
             ctx=None):
        """Run one logical op to completion, failure, or fast-fail.

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
        tracer = getattr(ctx.accounting, "tracer", None)
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
        from repro.sim.process import Timeout

        policy = self.policy
        rpc = self.rpc
        deadline_us = policy.deadline_for(op)
        budget_deadline = None
        if policy.op_budget_us is not None:
            budget_deadline = self._sim.now + policy.op_budget_us
        delay = policy.backoff_base_us
        for attempt in range(policy.retry_limit):
            if (self.breaker is not None
                    and not self.breaker.admit(self._sim.now)):
                raise ServerUnavailable(
                    "circuit open: %s via %s" % (op, rpc.name))
            if rpc.broken:
                if self.breaker is None:
                    yield from self._bounded_wait(rpc.wait_reopen(),
                                                  budget_deadline, op)
                else:
                    # Fail-fast flavor: a breaker-configured caller waits
                    # one backoff slice for the port, then counts a dead
                    # port as a failed attempt instead of parking on the
                    # reopen event indefinitely.
                    bound = delay
                    if budget_deadline is not None:
                        bound = min(bound,
                                    budget_deadline - self._sim.now)
                        if bound <= 0:
                            self.budget_exhaustions += 1
                            raise ServerUnavailable(
                                "budget exhausted waiting to send %s"
                                % op)
                    timer = self._sim.timeout(bound)
                    yield any_of(self._sim, [rpc.wait_reopen(), timer])
                    if rpc.broken:
                        self.breaker.record_failure(self._sim.now)
                        if attempt == policy.retry_limit - 1:
                            raise ServerCrashed(
                                rpc._broken or "server port down")
                        self.retries += 1
                        delay = min(delay * 2, policy.backoff_max_us)
                        continue
            if self.gate is not None:
                event = self.gate()
                if event is not None:
                    yield from self._bounded_wait(event, budget_deadline, op)
            try:
                result = yield from rpc.call(
                    ctx, op, args=args, data=data, layer=layer,
                    req_id=req_id, deadline_us=deadline_us)
            except ServerCrashed as exc:
                if self.breaker is not None:
                    self.breaker.record_failure(self._sim.now)
                if attempt == policy.retry_limit - 1:
                    raise
                rpc.retried_calls += 1
                self.retries += 1
                jitter = self.rng.random() if self.rng is not None else 0.5
                if (budget_deadline is not None
                        and self._sim.now >= budget_deadline):
                    self.budget_exhaustions += 1
                    raise ServerUnavailable(
                        "budget exhausted retrying %s: %s" % (op, exc))
                yield Timeout(delay * (0.5 + jitter))
                delay = min(delay * 2, policy.backoff_max_us)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
        raise ServerCrashed(rpc._broken or "retry limit exceeded")

    def _bounded_wait(self, event, budget_deadline, op):
        """Wait on an event, bounded by the op budget when one is set.

        The unbudgeted path is a bare ``yield`` — no timer, no extra
        schedule perturbation — which is what the bit-passivity contract
        requires of the default policy.
        """
        if budget_deadline is None:
            yield event
            return
        remaining = budget_deadline - self._sim.now
        if remaining <= 0:
            self.budget_exhaustions += 1
            raise ServerUnavailable(
                "budget exhausted waiting to send %s" % op)
        timer = self._sim.timeout(remaining)
        winner, _value = yield any_of(self._sim, [event, timer])
        if winner is timer:
            self.budget_exhaustions += 1
            raise ServerUnavailable(
                "budget exhausted waiting to send %s" % op)

    def stats(self):
        report = {
            "retries": self.retries,
            "budget_exhaustions": self.budget_exhaustions,
        }
        if self.breaker is not None:
            report["breaker"] = self.breaker.snapshot()
        return report
