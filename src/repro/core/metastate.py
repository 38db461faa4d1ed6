"""Cached protocol metastate (Section 3.3).

Route table entries and ARP mappings are long-lived shared state owned by
the operating system server.  Applications cache entries so the packet
send path never talks to the server in the common case; the server holds
callbacks into each application and invalidates cached entries as they
expire or change.

This module is the application side.  ARP mappings are cached one by
one, filled by RPC on a miss.  Route *entries* are cached as the server
holds them — prefix, length, gateway — and the application does its own
longest-prefix match, so one fetch serves every destination the entries
cover: a host that talks to 200 peers through one default route asks the
server once, not 200 times.  Both are emptied by the server's
invalidation callbacks.
"""

import random

from repro.net import arp
from repro.net.routing import longest_match
from repro.stack.instrument import Layer
from repro.core.resilience import ResilientCaller


class MetastateCache:
    """Per-application cache of routing and ARP metastate."""

    def __init__(self, sim, rpc, app_id, name="meta"):
        self.app_id = app_id
        self.name = name
        self.arp_cache = arp.ArpCache(lambda: sim.now)
        # The server's route entries, most specific first (None: not
        # fetched, or invalidated since), and a per-destination memo of
        # the next hops matched from them, so a send is one dict hit.
        self._routes = None
        self._next_hops = {}
        self._route_epoch = 0  # bumped by invalidate_routes
        self.arp_rpcs = 0
        self.route_rpcs = 0
        self.route_hits = 0
        self.invalidations = 0
        #: Metastate RPCs retry across server crashes; per-app seeded
        #: backoff jitter keeps whole runs deterministic.  Its ``gate``
        #: (set by the proxy layer) holds retries until the app has
        #: re-registered with a restarted server.  No context is bound:
        #: each fetch is charged to the context that asked.
        self.caller = ResilientCaller(
            rpc, None, rng=random.Random(2000 + app_id), name=name)

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
        mac = yield from self.caller.call(
            "meta_arp", args=(self.app_id, next_hop_ip),
            layer=Layer.ETHER_OUTPUT, ctx=ctx,
        )
        self.arp_cache.insert(next_hop_ip, mac)
        return mac

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def route(self, dst_ip):
        """Next hop for ``dst_ip`` from the cached route entries, or None
        when none are cached (never fetched, or invalidated since).

        A plain, non-charging lookup: the caller fetches with
        :meth:`prime_route` on None.  Raises ValueError, as
        :meth:`Host.route` does, when the table has no route at all.
        """
        next_hop = self._next_hops.get(dst_ip)
        if next_hop is None:
            if self._routes is None:
                return None
            next_hop = self._match(dst_ip)
        self.route_hits += 1
        return next_hop

    def _match(self, dst_ip):
        entry = longest_match(self._routes, dst_ip)
        if entry is None:
            raise ValueError("no route to %r in %s" % (dst_ip, self.name))
        next_hop = self._next_hops[dst_ip] = entry.next_hop(dst_ip)
        return next_hop

    def has_route(self, dst_ip):
        """Whether :meth:`route` can answer for ``dst_ip`` without the
        server — with whole entries cached, for any destination or none."""
        return self._routes is not None

    def prime_route(self, ctx, dst_ip):
        """Next hop for ``dst_ip``, fetching the route entries from the
        server first if none are cached."""
        while self._routes is None:
            epoch = self._route_epoch
            self.route_rpcs += 1
            routes = yield from self.caller.call(
                "meta_route", args=(self.app_id,),
                layer=Layer.ENTRY_COPYIN, ctx=ctx,
            )
            # A table change that overtook the reply already invalidated
            # what it carries: ask again.
            if epoch == self._route_epoch:
                self._routes = routes
        return self._match(dst_ip)

    # ------------------------------------------------------------------
    # Server-driven invalidation (the callbacks of Section 3.3)
    # ------------------------------------------------------------------

    def invalidate_arp(self, ip_addr):
        self.invalidations += 1
        self.arp_cache.invalidate(ip_addr)

    def invalidate_routes(self):
        self.invalidations += 1
        self._route_epoch += 1
        self._routes = None
        self._next_hops.clear()

    def stats(self):
        return {
            "arp_hits": self.arp_cache.hits,
            "arp_misses": self.arp_cache.misses,
            "arp_rpcs": self.arp_rpcs,
            "route_rpcs": self.route_rpcs,
            "route_hits": self.route_hits,
            "invalidations": self.invalidations,
        }
