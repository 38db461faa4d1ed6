"""The typed metric registry.

Four metric types cover every telemetry need in the simulator:

* :class:`Counter` — a monotonically increasing event count.
* :class:`Gauge` — a point-in-time level (queue depth, buffer bytes,
  cumulative busy time).  Every :meth:`Gauge.record` also appends a
  ``(t, value)`` sample to a bounded history, so a gauge doubles as a
  time series of its own level.  A gauge built with ``fn=`` is a *pull*
  gauge: :meth:`MetricsRegistry.sample` reads the callable and records
  the result (used for counters that already live on simulator objects —
  CPU busy time, NIC drop counts, fault-pipeline counters).
* :class:`Histogram` — a fixed log-scale (power-of-two) bucket
  distribution for values whose range spans decades (RTT ticks, queue
  depths under bursts).
* :class:`TimeSeries` — a multi-field sampled series, e.g. the
  tcp_probe tuple ``(t, event, cwnd, ssthresh, srtt, rttvar, rto,
  flight, snd_wnd)``.

The registry's enable/disable switch works through *bindings*: an
observation point is a plain attribute on a hot object (``nic.
rx_depth_gauge``, ``conn.probe``, ``plock.depth_gauge``) that is
``None`` while disabled — hot paths pay one load-and-test — and the
bound metric while enabled.  Nothing about recording touches the
simulation: no processes, no charges, no events.
"""

from collections import deque

from repro.metrics.tcp_probe import PROBE_FIELDS, TCPProbe

#: Default per-series sample bound; lifetime ``recorded`` counters keep
#: counting past eviction (same rule as the trace ring).
DEFAULT_CAPACITY = 65536


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def snapshot(self, island=0):
        """Mergeable state, stamped with its island of origin."""
        return {"type": "counter", "name": self.name,
                "islands": [island], "value": self.value}

    @staticmethod
    def merge(a, b):
        """Counters are island-additive: values sum."""
        _check_mergeable(a, b, "counter")
        return {"type": "counter", "name": a["name"],
                "islands": _union_islands(a, b),
                "value": a["value"] + b["value"]}

    def __repr__(self):
        return "<Counter %s=%d>" % (self.name, self.value)


class Gauge:
    """A point-in-time level with a bounded ``(t, value)`` history."""

    __slots__ = ("name", "fn", "value", "samples", "recorded", "_now")

    def __init__(self, name, now, fn=None, capacity=DEFAULT_CAPACITY):
        self.name = name
        self.fn = fn
        self.value = None
        self.samples = deque(maxlen=capacity)
        self.recorded = 0
        self._now = now

    def record(self, value):
        self.value = value
        self.samples.append((self._now(), value))
        self.recorded += 1

    def snapshot(self, island=0):
        """Mergeable state: every sample carries ``(island, seq)``
        provenance so merges are deterministic and order-insensitive."""
        samples = [[island, seq, t, v]
                   for seq, (t, v) in enumerate(self.samples)]
        return {"type": "gauge", "name": self.name, "islands": [island],
                "pull": self.fn is not None, "value": self.value,
                "recorded": self.recorded, "samples": samples}

    @staticmethod
    def merge(a, b):
        """Values sum (valid for island-exclusive or island-additive
        gauges — the exporter's ownership filter guarantees one of the
        two); histories merge-sort by ``(t, island, seq)``."""
        _check_mergeable(a, b, "gauge")
        if a["value"] is None:
            value = b["value"]
        elif b["value"] is None:
            value = a["value"]
        else:
            value = a["value"] + b["value"]
        samples = sorted(a["samples"] + b["samples"],
                         key=lambda s: (s[2], s[0], s[1]))
        return {"type": "gauge", "name": a["name"],
                "islands": _union_islands(a, b),
                "pull": a["pull"] or b["pull"], "value": value,
                "recorded": a["recorded"] + b["recorded"],
                "samples": samples}

    def __repr__(self):
        return "<Gauge %s=%r>" % (self.name, self.value)


class Histogram:
    """A distribution over fixed log-scale (power-of-two) buckets.

    Bucket ``i`` holds values ``v`` with ``int(v).bit_length() == i``,
    i.e. bucket 0 is exactly zero and bucket ``i`` spans
    ``[2**(i-1), 2**i)``; the last bucket absorbs everything larger.
    Exact count/sum/min/max ride along, so means are exact and only the
    percentiles are bucket-resolution approximations.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    NBUCKETS = 34  # zero + 32 power-of-two decades + overflow

    def __init__(self, name):
        self.name = name
        self.counts = [0] * self.NBUCKETS
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        index = min(max(0, int(value)).bit_length(), self.NBUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, p):
        """Approximate percentile: the upper edge of the bucket holding
        the ``p``-th observation (clamped to the exact min/max)."""
        if not self.count:
            return None
        rank = max(1, int(p * self.count + 0.5))
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= rank:
                edge = 0 if index == 0 else (1 << index) - 1
                return min(max(edge, self.min), self.max)
        return self.max

    def snapshot(self, island=0):
        return {
            "type": "histogram",
            "name": self.name,
            "islands": [island],
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }

    @staticmethod
    def merge(a, b):
        """Histograms are island-additive: bucket counts and exact
        count/sum add, min/max combine, derived stats recompute."""
        _check_mergeable(a, b, "histogram")
        merged = Histogram(a["name"])
        merged.counts = [x + y for x, y in zip(a["counts"], b["counts"])]
        merged.count = a["count"] + b["count"]
        merged.total = a["sum"] + b["sum"]
        lows = [v for v in (a["min"], b["min"]) if v is not None]
        highs = [v for v in (a["max"], b["max"]) if v is not None]
        merged.min = min(lows) if lows else None
        merged.max = max(highs) if highs else None
        snap = merged.snapshot()
        snap["islands"] = _union_islands(a, b)
        return snap

    def __repr__(self):
        return "<Histogram %s n=%d>" % (self.name, self.count)


class TimeSeries:
    """A bounded series of ``(t, *fields)`` samples."""

    __slots__ = ("name", "fields", "samples", "recorded")

    def __init__(self, name, fields, capacity=DEFAULT_CAPACITY):
        self.name = name
        self.fields = tuple(fields)
        self.samples = deque(maxlen=capacity)
        self.recorded = 0

    def append(self, t, *values):
        self.samples.append((t,) + values)
        self.recorded += 1

    def last(self):
        return self.samples[-1] if self.samples else None

    def column(self, field):
        """All ``(t, value)`` pairs of one named field."""
        index = self.fields.index(field) + 1
        return [(s[0], s[index]) for s in self.samples]

    def snapshot(self, island=0):
        """Mergeable state with per-sample ``(island, seq)`` provenance."""
        samples = [[island, seq] + list(s)
                   for seq, s in enumerate(self.samples)]
        return {"type": "timeseries", "name": self.name,
                "islands": [island], "fields": list(self.fields),
                "recorded": self.recorded, "samples": samples}

    @staticmethod
    def merge(a, b):
        """Series merge-sort by ``(t, island, seq)``, preserving which
        island produced each sample."""
        _check_mergeable(a, b, "timeseries")
        if a["fields"] != b["fields"]:
            raise ValueError("cannot merge series %r: fields %r != %r"
                             % (a["name"], a["fields"], b["fields"]))
        samples = sorted(a["samples"] + b["samples"],
                         key=lambda s: (s[2], s[0], s[1]))
        return {"type": "timeseries", "name": a["name"],
                "islands": _union_islands(a, b),
                "fields": list(a["fields"]),
                "recorded": a["recorded"] + b["recorded"],
                "samples": samples}

    def __repr__(self):
        return "<TimeSeries %s n=%d>" % (self.name, self.recorded)


# ----------------------------------------------------------------------
# Snapshot merge algebra
# ----------------------------------------------------------------------

def _check_mergeable(a, b, kind):
    if a["type"] != kind or b["type"] != kind:
        raise ValueError("cannot merge %r with %r"
                         % (a["type"], b["type"]))
    if a["name"] != b["name"]:
        raise ValueError("cannot merge %r with %r (different metrics)"
                         % (a["name"], b["name"]))


def _union_islands(a, b):
    return sorted(set(a["islands"]) | set(b["islands"]))


_MERGERS = {
    "counter": Counter.merge,
    "gauge": Gauge.merge,
    "histogram": Histogram.merge,
    "timeseries": TimeSeries.merge,
}


def merge_snapshots(a, b):
    """Merge two mergeable metric snapshots of the same metric.

    Deterministic and order-insensitive: ``merge(a, b) == merge(b, a)``
    and merging is associative, because values combine commutatively
    (sums, min/max) and sample histories sort by the total key
    ``(t, island, seq)``.
    """
    if a is None:
        return b
    if b is None:
        return a
    return _MERGERS[a["type"]](a, b)


def merge_states(states):
    """Fold per-island registry states (:meth:`MetricsRegistry.
    export_state`) into one merged state with the union of provenance."""
    out = {"islands": [], "metrics": {}}
    for state in states:
        if state is None:
            continue
        out["islands"] = sorted(set(out["islands"]) | set(state["islands"]))
        for name, snap in state["metrics"].items():
            out["metrics"][name] = merge_snapshots(
                out["metrics"].get(name), snap)
    return out


def state_cell_block(state):
    """Canonical, provenance-free JSON block for run reports.

    Pull gauges export only their final value: their sample *histories*
    depend on which stacks' slow ticks fired in the exporting process,
    which is a backend execution detail — the values themselves are
    sampled at a canonical settled instant and are backend-invariant.
    Push gauges and series export their full histories.
    """
    block = {"counters": {}, "gauges": {}, "pull": {},
             "histograms": {}, "series": {}}
    for name in sorted(state["metrics"]):
        snap = state["metrics"][name]
        kind = snap["type"]
        if kind == "counter":
            block["counters"][name] = snap["value"]
        elif kind == "gauge":
            if snap["pull"]:
                block["pull"][name] = snap["value"]
            else:
                block["gauges"][name] = {
                    "value": snap["value"],
                    "recorded": snap["recorded"],
                    "samples": [[s[2], s[3]] for s in snap["samples"]],
                }
        elif kind == "histogram":
            block["histograms"][name] = {
                key: snap[key]
                for key in ("count", "sum", "min", "max", "mean",
                            "p50", "p99", "counts")
            }
        else:
            block["series"][name] = {
                "fields": list(snap["fields"]),
                "recorded": snap["recorded"],
                "samples": [s[2:] for s in snap["samples"]],
            }
    return block


class MetricsRegistry:
    """All metrics of one simulated world, keyed by unique name.

    Construction is cheap and always happens (``Network`` carries one);
    :meth:`enable` flips every registered binding live.  See the package
    docstring for the zero-overhead / passivity contract.
    """

    def __init__(self, sim, capacity=DEFAULT_CAPACITY):
        self._sim = sim
        self.capacity = capacity
        self.enabled = False
        self._metrics = {}
        #: (obj, attr, metric) observation points; attr is the live
        #: metric while enabled and None while disabled.
        self._bindings = []
        #: Callables returning {name: value} dicts, sampled into pull
        #: gauges (bridges counters that live on foreign objects with
        #: dynamic key sets, e.g. the fault pipeline's per-stage dicts).
        self._pull = []
        self.tcp_probes = []
        self._last_sample = None

    def now(self):
        return self._sim.now

    # ------------------------------------------------------------------
    # Create-or-get constructors
    # ------------------------------------------------------------------

    def _get(self, name, cls, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r is a %s, not a %s"
                            % (name, type(metric).__name__, cls.__name__))
        return metric

    def counter(self, name):
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name, fn=None):
        gauge = self._get(
            name, Gauge,
            lambda: Gauge(name, self.now, fn=fn, capacity=self.capacity))
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name):
        return self._get(name, Histogram, lambda: Histogram(name))

    def timeseries(self, name, fields):
        return self._get(
            name, TimeSeries,
            lambda: TimeSeries(name, fields, capacity=self.capacity))

    def unique_name(self, base):
        """``base``, suffixed ``#2``, ``#3``... if already taken."""
        if base not in self._metrics:
            return base
        n = 2
        while "%s#%d" % (base, n) in self._metrics:
            n += 1
        return "%s#%d" % (base, n)

    def get(self, name):
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def __len__(self):
        return len(self._metrics)

    # ------------------------------------------------------------------
    # The enable switch: bindings
    # ------------------------------------------------------------------

    def bind(self, obj, attr, metric):
        """Register ``obj.attr`` as an observation point for ``metric``."""
        self._bindings.append((obj, attr, metric))
        setattr(obj, attr, metric if self.enabled else None)

    def enable(self):
        self.enabled = True
        for obj, attr, metric in self._bindings:
            setattr(obj, attr, metric)

    def disable(self):
        self.enabled = False
        for obj, attr, metric in self._bindings:
            setattr(obj, attr, None)

    # ------------------------------------------------------------------
    # Pull sampling (piggybacks on the stacks' existing slow timer tick:
    # no process of its own, and multiple stacks ticking at the same
    # simulated instant dedupe to one sample)
    # ------------------------------------------------------------------

    def add_pull(self, fn):
        self._pull.append(fn)

    def sample(self, now=None):
        """Record every pull gauge and pull source once per instant."""
        if not self.enabled:
            return
        if now is None:
            now = self._sim.now
        if now == self._last_sample:
            return
        self._last_sample = now
        for metric in list(self._metrics.values()):
            if type(metric) is Gauge and metric.fn is not None:
                metric.record(metric.fn())
        for fn in self._pull:
            for name, value in fn().items():
                self.gauge(name).record(value)

    # ------------------------------------------------------------------
    # Standard observers
    # ------------------------------------------------------------------

    def observe_host(self, host):
        """Register a host's CPU and NIC resource gauges."""
        name = host.name
        cpu = host.cpu
        nic = host.nic
        self.gauge("%s.cpu.busy_us" % name, fn=lambda: cpu.busy_time)
        self.gauge("%s.cpu.utilization" % name, fn=cpu.utilization)
        self.gauge("%s.cpu.charges" % name, fn=lambda: cpu.charge_count)
        self.gauge("%s.cpu.contended" % name,
                   fn=lambda: cpu.scheduler.contended)
        self.bind(cpu.scheduler, "depth_gauge",
                  self.gauge("%s.cpu.waitq" % name))
        self.bind(nic, "rx_depth_gauge", self.gauge("%s.nic.rx_ring" % name))
        self.bind(nic, "tx_depth_gauge", self.gauge("%s.nic.tx_ring" % name))
        self.gauge("%s.nic.rx_dropped" % name, fn=lambda: nic.frames_dropped)
        self.gauge("%s.nic.rx_filtered" % name,
                   fn=lambda: nic.frames_filtered)

    def observe_wire(self, wire):
        """Register a wire's occupancy gauges and fault-counter bridge."""
        name = wire.name
        self.gauge("%s.frames" % name, fn=lambda: wire.frames_carried)
        self.gauge("%s.bytes" % name, fn=lambda: wire.bytes_carried)
        # Occupancy (x us_per_byte = busy time), island-additive exactly.
        self.gauge("%s.wire_bytes" % name, fn=lambda: wire.wire_bytes)

        def fault_counters():
            plan = wire.fault_plan
            if plan is None:
                return {}
            out = {
                "%s.faults.frames_in" % name: plan.frames_in,
                "%s.faults.delivered" % name: plan.frames_delivered,
            }
            for stage, counters in plan.counters().items():
                for key, value in sorted(counters.items()):
                    out["%s.faults.%s.%s" % (name, stage, key)] = value
            return out

        self.add_pull(fault_counters)

    def observe_server(self, server):
        """Register an OS server's control-plane counters: RPC queue
        depth, admission sheds, deadline expiries, replay activity, and
        crash generation.  Pure pull gauges — free while disabled, and
        sampled only on the existing tick while enabled."""
        name = server.name

        def control_counters():
            rpc = server.rpc
            return {
                "%s.rpc.pending" % name: rpc.pending(),
                "%s.rpc.inflight" % name: len(server._inflight),
                "%s.rpc.calls" % name: rpc.calls,
                "%s.rpc.retried_calls" % name: rpc.retried_calls,
                "%s.rpc.requests_shed" % name: rpc.requests_shed,
                "%s.rpc.deadline_expiries" % name: rpc.deadline_expiries,
                "%s.rpc.replies_dropped" % name: rpc.replies_dropped,
                "%s.replays_served" % name: server.replays_served,
                "%s.duplicates_held" % name: server.duplicates_held,
                "%s.ops_stalled" % name: server.ops_stalled,
                "%s.ops_failed" % name: server.ops_failed,
                "%s.generation" % name: getattr(server, "generation", 0),
                "%s.crashes" % name: getattr(server, "crashes", 0),
            }

        self.add_pull(control_counters)

    def attach_tcp_probe(self, conn, owner=""):
        """Attach a tcp_probe series to one connection (see
        :mod:`repro.metrics.tcp_probe`); returns the probe."""
        base = "%s.tcp.%d" % (owner or "stack", conn.local[1])
        series = self.timeseries(self.unique_name(base), PROBE_FIELDS)
        probe = TCPProbe(self, conn, series,
                         rtt_hist=self.histogram("tcp.rtt_ticks"))
        self.bind(conn, "probe", probe)
        self.tcp_probes.append(probe)
        return probe

    def attach_udp_gauge(self, session, owner=""):
        """Attach a receive-queue occupancy gauge to a UDP session."""
        base = "%s.udp.%d.rcvq" % (owner or "stack", session.local[1])
        gauge = self.gauge(self.unique_name(base))
        self.bind(session, "depth_gauge", gauge)
        return gauge

    # ------------------------------------------------------------------
    # Introspection / export support
    # ------------------------------------------------------------------

    def series(self):
        """Yield ``(name, fields, samples)`` for every time-dimension
        metric: TimeSeries directly, gauges as a single ``value`` field.

        Takes a final pull sample first (deduplicated by instant), so
        short runs that never reached a slow timer tick still export
        their pull gauges at their ending values."""
        self.sample()
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, TimeSeries):
                yield name, metric.fields, list(metric.samples)
            elif isinstance(metric, Gauge) and metric.samples:
                yield name, ("value",), list(metric.samples)

    def export_state(self, island=0):
        """Mergeable state of the whole registry for island ``island``.

        Takes a final pull sample first (deduplicated by instant); call
        it only once the simulation has settled at a canonical instant,
        or pull-gauge values will reflect whatever ``sim.now`` happens
        to be.
        """
        self.sample()
        return {"islands": [island],
                "metrics": {name: self._metrics[name].snapshot(island)
                            for name in sorted(self._metrics)}}

    def __repr__(self):
        return "<MetricsRegistry %s, %d metrics>" % (
            "enabled" if self.enabled else "disabled", len(self._metrics))
