"""Cached protocol metastate (Section 3.3).

Route table entries and ARP mappings are long-lived shared state owned by
the operating system server.  Applications cache entries so the packet
send path never talks to the server in the common case; the server holds
callbacks into each application and invalidates cached entries as they
expire or change.

This module is the application side: a cache of ARP/route entries filled
by RPC on miss, emptied by the server's invalidation callbacks.
"""

import random

from repro.net import arp
from repro.stack.instrument import Layer


class MetastateCache:
    """Per-application cache of routing and ARP metastate."""

    def __init__(self, sim, rpc, app_id, name="meta"):
        self._sim = sim
        self._rpc = rpc  # RPC port to the OS server
        self.app_id = app_id
        self.name = name
        self.arp_cache = arp.ArpCache(lambda: sim.now)
        self._route_cache = {}
        self.arp_rpcs = 0
        self.route_rpcs = 0
        self.invalidations = 0
        # Metastate RPCs retry across server crashes; per-app seeded
        # backoff jitter keeps whole runs deterministic.  ``gate`` (set by
        # the proxy layer) holds retries until the app has re-registered
        # with a restarted server, which must happen before any meta RPC
        # can succeed.
        self._retry_rng = random.Random(2000 + app_id)
        self.gate = None

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------

    def resolve(self, ctx, next_hop_ip):
        """Resolve a next-hop MAC: cache first, the server on a miss.

        This is the application's whole interaction with ARP; the actual
        protocol exchange happens in the server.
        """
        yield ctx.charge(Layer.ETHER_OUTPUT, ctx.params.proc_call)
        mac = self.arp_cache.lookup(next_hop_ip)
        if mac is not None:
            return mac
        self.arp_rpcs += 1
        mac = yield from self._rpc.call_retrying(
            ctx, "meta_arp", args=(self.app_id, next_hop_ip),
            layer=Layer.ETHER_OUTPUT, rng=self._retry_rng, gate=self.gate,
        )
        self.arp_cache.insert(next_hop_ip, mac)
        return mac

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def route(self, dst_ip):
        """Next-hop for ``dst_ip`` from the cached route entries.

        Routes are plain (non-charging) lookups on the fast path; misses
        must be primed with :meth:`prime_route` because the send path
        itself is not allowed to block on the server mid-transmission.
        """
        next_hop = self._route_cache.get(dst_ip)
        if next_hop is None:
            raise KeyError(
                "route for %r not primed in %s" % (dst_ip, self.name)
            )
        return next_hop

    def has_route(self, dst_ip):
        return dst_ip in self._route_cache

    def prime_route(self, ctx, dst_ip):
        """Fetch and cache the route for ``dst_ip`` from the server."""
        if dst_ip in self._route_cache:
            return self._route_cache[dst_ip]
        self.route_rpcs += 1
        next_hop = yield from self._rpc.call_retrying(
            ctx, "meta_route", args=(self.app_id, dst_ip),
            layer=Layer.ENTRY_COPYIN, rng=self._retry_rng, gate=self.gate,
        )
        self._route_cache[dst_ip] = next_hop
        return next_hop

    # ------------------------------------------------------------------
    # Server-driven invalidation (the callbacks of Section 3.3)
    # ------------------------------------------------------------------

    def invalidate_arp(self, ip_addr):
        self.invalidations += 1
        self.arp_cache.invalidate(ip_addr)

    def invalidate_routes(self):
        self.invalidations += 1
        self._route_cache.clear()

    def stats(self):
        return {
            "arp_hits": self.arp_cache.hits,
            "arp_misses": self.arp_cache.misses,
            "arp_rpcs": self.arp_rpcs,
            "route_rpcs": self.route_rpcs,
            "invalidations": self.invalidations,
        }
