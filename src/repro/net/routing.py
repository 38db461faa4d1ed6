"""The IP routing table.

Routing entries are long-lived shared metastate: in the paper's design the
operating system server owns the authoritative table and applications
cache its entries (Section 3.3), answering their own lookups with
:func:`longest_match` until the server's callback says the table changed.
The table itself is a classic longest-prefix-match structure.
"""

from repro.net.addr import ip_aton, ip_ntoa, netmask_from_prefix


class Route:
    """One routing table entry."""

    __slots__ = ("prefix", "prefixlen", "gateway", "iface", "generation")

    def __init__(self, prefix, prefixlen, iface, gateway=None, generation=0):
        self.prefix = ip_aton(prefix) & netmask_from_prefix(prefixlen)
        self.prefixlen = prefixlen
        self.gateway = ip_aton(gateway) if gateway is not None else None
        self.iface = iface
        self.generation = generation

    @property
    def is_direct(self):
        """True for directly-attached networks (no gateway hop)."""
        return self.gateway is None

    def matches(self, dst):
        return (dst & netmask_from_prefix(self.prefixlen)) == self.prefix

    def next_hop(self, dst):
        """Where a packet for ``dst`` goes next: the gateway, or ``dst``
        itself on a directly-attached network."""
        return dst if self.gateway is None else self.gateway

    def __repr__(self):
        via = "direct" if self.is_direct else "via %s" % ip_ntoa(self.gateway)
        return "<Route %s/%d %s dev %s>" % (
            ip_ntoa(self.prefix),
            self.prefixlen,
            via,
            self.iface,
        )


def longest_match(routes, dst):
    """The first of ``routes`` (ordered most specific first) that matches
    ``dst``, or None.  The one longest-prefix-match rule: the table and
    every application-side copy of its entries answer through it."""
    for route in routes:
        if route.matches(dst):
            return route
    return None


class RouteTable:
    """Longest-prefix-match routing with a generation counter.

    The generation number increments on every mutation, and every
    mutation calls the registered invalidation callbacks (Section 3.3:
    "the server holds callbacks into each application and invalidates
    cached entries as they change") — that, not generation polling, is
    how application-side copies stay exact.
    """

    def __init__(self):
        self._routes = []
        self.generation = 0
        self._invalidation_callbacks = []
        # Fast path for the overwhelmingly common shape (one /24 per
        # attached or reachable segment plus maybe a default route): a
        # dict keyed on the masked /24 prefix.  Valid as a shortcut only
        # while no route is more specific than /24 — a longer prefix
        # must win, so its presence disables the dict and lookups fall
        # back to the longest-prefix-first scan.
        self._fast24 = {}
        self._longest = 0

    def register_invalidation(self, callback):
        # Idempotent, like ArpService.register_invalidation: a library
        # re-registering after a server restart is called once per change.
        if callback not in self._invalidation_callbacks:
            self._invalidation_callbacks.append(callback)

    def _changed(self):
        for callback in self._invalidation_callbacks:
            callback()

    def add(self, prefix, prefixlen, iface, gateway=None):
        self.generation += 1
        route = Route(prefix, prefixlen, iface, gateway, generation=self.generation)
        self._routes.append(route)
        # Longest prefix first so lookup can take the first match.
        self._routes.sort(key=lambda r: -r.prefixlen)
        if prefixlen == 24:
            # setdefault: among equal /24s the scan returns the one
            # added first (the sort is stable), so keep that one.
            self._fast24.setdefault(route.prefix, route)
        if prefixlen > self._longest:
            self._longest = prefixlen
        self._changed()
        return route

    def remove(self, prefix, prefixlen):
        """Remove a route; returns True if one was removed."""
        target = ip_aton(prefix) & netmask_from_prefix(prefixlen)
        for i, route in enumerate(self._routes):
            if route.prefix == target and route.prefixlen == prefixlen:
                del self._routes[i]
                self.generation += 1
                self._reindex()
                self._changed()
                return True
        return False

    def _reindex(self):
        """Rebuild the /24 fast path after a removal."""
        self._fast24 = {}
        self._longest = 0
        for route in self._routes:
            if route.prefixlen == 24:
                self._fast24.setdefault(route.prefix, route)
            if route.prefixlen > self._longest:
                self._longest = route.prefixlen

    def lookup(self, dst):
        """The most specific route for ``dst``, or None."""
        dst = ip_aton(dst)
        if self._longest <= 24:
            route = self._fast24.get(dst & 0xFFFFFF00)
            if route is not None:
                return route
        return longest_match(self._routes, dst)

    def routes(self):
        """Snapshot of all routes, most specific first."""
        return list(self._routes)

    def __len__(self):
        return len(self._routes)
