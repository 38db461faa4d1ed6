"""The BSD socket programming interface, as seen by applications.

The paper's compatibility goal is *source-level*: applications written
against BSD sockets recompile and relink unmodified.  Accordingly every
placement — in-kernel, server-based, and library-based — implements this
same :class:`SocketAPI`, and the applications and benchmarks in
:mod:`repro.apps` are written once against it.

All operations are generators (they run inside the simulation); aside
from that the signatures mirror the classic calls, including the ten
send/receive variants collapsing onto send/recv/sendto/recvfrom.

Underneath, wherever descriptors sit directly on a protocol stack — the
kernel, the UX server, the OS server's returned sessions — the socket
layer is one :class:`SocketLayer`; the placements differ only in what
they charge around it.
"""

from repro.sim.events import any_of

SOCK_STREAM = 1
SOCK_DGRAM = 2


class SocketError(Exception):
    """A socket-level error (the moral equivalent of an errno)."""


class BadFileDescriptor(SocketError):
    """Operation on a closed or never-opened descriptor."""


class Descriptor:
    """One open socket descriptor."""

    __slots__ = ("fd", "kind", "payload", "refcount")

    def __init__(self, fd, kind, payload):
        self.fd = fd
        self.kind = kind  # SOCK_STREAM or SOCK_DGRAM
        self.payload = payload  # placement-specific session handle
        self.refcount = 1  # >1 after fork shares the descriptor

    def __repr__(self):
        return "<Descriptor fd=%d kind=%d>" % (self.fd, self.kind)


class FDTable:
    """Per-process file-descriptor table."""

    def __init__(self, first_fd=3):
        self._first = first_fd
        self._table = {}
        self._next = first_fd

    def alloc(self, kind, payload):
        fd = self._next
        self._next += 1
        desc = Descriptor(fd, kind, payload)
        self._table[fd] = desc
        return desc

    def adopt(self, descriptor):
        """Install a shared descriptor (fork inheritance) under its fd."""
        descriptor.refcount += 1
        self._table[descriptor.fd] = descriptor

    def get(self, fd):
        try:
            return self._table[fd]
        except (KeyError, TypeError):
            # TypeError covers unhashable fds; %r covers None and other
            # non-ints, so a bogus handle always surfaces as a clean
            # BadFileDescriptor rather than a formatting crash.
            raise BadFileDescriptor("fd %r is not open" % (fd,)) from None

    def free(self, fd):
        """Drop the fd; returns the descriptor if this was the last ref."""
        desc = self.get(fd)
        del self._table[fd]
        desc.refcount -= 1
        return desc if desc.refcount == 0 else None

    def open_fds(self):
        return sorted(self._table)

    def descriptors(self):
        return list(self._table.values())

    def __len__(self):
        return len(self._table)


def is_ready(session, field):
    """select's test of one socket for ``"readable"`` / ``"writable"``.
    With no session yet (an unbound datagram socket, an embryonic proxy
    one) there is nothing to read and nothing in the way of a write."""
    if session is None:
        return field == "writable"
    state = session.poll()
    return state[field] or state["error"]


def set_option(session, option, value):
    """setsockopt on a live session (a stack transport)."""
    if not session.set_option(option, value):
        raise SocketError("unknown socket option %r" % option)


def config_from_opts(stack, opts):
    """Build a TCPConfig from a proxy-supplied socket-option dict."""
    opts = opts or {}
    overrides = {}
    if "rcvbuf" in opts:
        overrides["rcv_buf"] = opts["rcvbuf"]
    if "sndbuf" in opts:
        overrides["snd_buf"] = opts["sndbuf"]
    if "nodelay" in opts:
        overrides["nodelay"] = bool(opts["nodelay"])
    if "window_scale" in opts:
        overrides["window_scale"] = opts["window_scale"]
    return stack.tcp_config(**overrides)


class SocketLayer:
    """The socket layer over one protocol stack and one descriptor table.

    Descriptor bookkeeping only: which session a descriptor names (a
    datagram socket gets its session when it first needs a port), what
    ``bind``/``connect``/``close`` mean for it, ``setsockopt``, and the
    one ``select`` wait loop.  It charges nothing — every placement
    brackets these calls with its own costs (a trap, an RPC handler's
    ``socket_layer``).  Callers look the descriptor up first
    (``fds.get``), so a bad fd fails before anything is charged.

    ``connect``, ``send``, ``recv``, ``shutdown`` and ``close`` are plain
    methods that hand back the transport's own generator for the caller
    to ``yield from``: every CPU charge under a send resumes through
    each generator frame above it, so a pass-through frame here would be
    paid again on every one of them.
    """

    def __init__(self, stack, fds):
        self.stack = stack
        self.fds = fds

    def socket(self, kind):
        if kind == SOCK_STREAM:
            session = self.stack.tcp_create()
        elif kind == SOCK_DGRAM:
            session = None  # deferred to bind / first use (needs a port)
        else:
            raise SocketError("unsupported socket type %r" % kind)
        return self.fds.alloc(kind, session).fd

    def session(self, desc):
        if desc.payload is None:
            # BSD auto-binds an unbound datagram socket on first use.
            desc.payload = self.stack.udp_create()
        return desc.payload

    def bind(self, desc, port):
        stack = self.stack
        if desc.kind == SOCK_DGRAM:
            if desc.payload is not None:
                raise SocketError("socket already bound")
            desc.payload = stack.udp_create(local_port=port)
        elif desc.payload.local[1] != port:
            # tcp_create took an ephemeral port: trade it for this one.
            conn = desc.payload.conn
            stack.ports["tcp"].release(stack.env.local_ip, conn.local[1])
            stack.ports["tcp"].bind(stack.env.local_ip, port)
            conn.local = (stack.env.local_ip, port)

    def listen(self, desc, backlog):
        self._stream(desc, "listen").listen(backlog)

    def accept(self, desc):
        child = yield from self._stream(desc, "accept").accept()
        return self.fds.alloc(SOCK_STREAM, child).fd, child.remote

    def connect(self, desc, addr):
        return self.session(desc).connect(addr)

    def send(self, desc, data, dst=None):
        return self.session(desc).send(data, dst)

    def recv(self, desc, max_bytes=None):
        """``(data, src)``.  None is recvfrom, which has no length
        argument: one datagram, or whatever a stream has buffered."""
        return self.session(desc).recv(max_bytes)

    def shutdown(self, desc):
        return self._stream(desc, "shutdown").shutdown()

    def close(self, desc):
        """``desc`` is what ``fds.free`` returned: None while another
        process still holds the descriptor."""
        if desc is None or desc.payload is None:
            return ()
        return desc.payload.close()

    def setsockopt(self, desc, option, value):
        if desc.payload is None:
            # Auto-binding here would make the bind that follows fail.
            raise SocketError("setsockopt on an unbound datagram socket")
        set_option(desc.payload, option, value)

    def _stream(self, desc, verb):
        if desc.kind != SOCK_STREAM:
            raise SocketError("%s on a datagram socket" % verb)
        return desc.payload

    def select(self, read_fds, write_fds, deadline, wake=None):
        """Wait until a descriptor is ready, ``deadline`` (absolute
        simulated time, or None) passes, or ``wake`` — a Notifier the
        caller also listens to — fires.  Returns ``(ready_r, ready_w)``,
        both empty on timeout, or None when ``wake`` ended the wait."""
        sim = self.stack.ctx.sim
        get = self.fds.get
        while True:
            ready_r = [fd for fd in read_fds
                       if is_ready(get(fd).payload, "readable")]
            ready_w = [fd for fd in write_fds
                       if is_ready(get(fd).payload, "writable")]
            if ready_r or ready_w or (
                    deadline is not None and sim.now >= deadline):
                return ready_r, ready_w
            for fd in (*read_fds, *write_fds):
                session = get(fd).payload
                if session is not None:
                    session.selected = True
            waits = [] if wake is None else [wake.wait()]
            waits.append(self.stack.select_notify.wait())
            if deadline is not None:
                waits.append(sim.timeout(deadline - sim.now))
            winner, _value = yield any_of(sim, waits)
            if wake is not None and winner is waits[0]:
                return None


class SocketAPI:
    """Abstract BSD socket interface.

    Subclasses implement the verbs for one placement.  Every method other
    than constructors is a generator to be driven in a simulation process.
    """

    def __init__(self):
        self.fds = FDTable()

    # -- creation and naming -------------------------------------------
    def socket(self, kind):
        raise NotImplementedError

    def bind(self, fd, port):
        raise NotImplementedError

    # -- connection management -----------------------------------------
    def listen(self, fd, backlog=5):
        raise NotImplementedError

    def accept(self, fd):
        raise NotImplementedError

    def connect(self, fd, addr):
        raise NotImplementedError

    # -- data transfer ---------------------------------------------------
    def send(self, fd, data):
        raise NotImplementedError

    def recv(self, fd, max_bytes):
        raise NotImplementedError

    def sendto(self, fd, data, addr):
        raise NotImplementedError

    def recvfrom(self, fd):
        raise NotImplementedError

    # -- everything else -------------------------------------------------
    def shutdown(self, fd):
        """shutdown(fd, SHUT_WR): half-close the write side; the read
        side keeps working until the peer closes."""
        raise NotImplementedError

    def close(self, fd):
        raise NotImplementedError

    def select(self, read_fds, write_fds=(), timeout=None):
        raise NotImplementedError

    def setsockopt(self, fd, option, value):
        raise NotImplementedError

    def fork(self):
        """Duplicate this process's descriptor table (BSD fork semantics:
        parent and child descriptors refer to the same sessions)."""
        raise NotImplementedError

    def ping(self, dst_ip, **kwargs):
        """ICMP echo to ``dst_ip``; returns the RTT in microseconds or
        None on timeout.  Not a socket call proper — ping needs raw IP,
        which in every placement is an operating-system service."""
        raise NotImplementedError

    # -- convenience composites (shared by all placements) ---------------

    def send_all(self, fd, data):
        """Loop send until every byte is accepted."""
        sent = 0
        while sent < len(data):
            n = yield from self.send(fd, data[sent:])
            if n <= 0:
                raise SocketError("send returned %d" % n)
            sent += n
        return sent

    def recv_exactly(self, fd, nbytes):
        """Loop recv until ``nbytes`` arrive (or EOF, raising)."""
        chunks = []
        remaining = nbytes
        while remaining > 0:
            chunk = yield from self.recv(fd, remaining)
            if not chunk:
                raise SocketError(
                    "EOF with %d of %d bytes outstanding" % (remaining, nbytes)
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)
