"""Every number the paper publishes, in one module.

Tables 2 and 3 are keyed by platform.  The paper ran Ultrix on the
DECstation 5000/200 only, and 386BSD and the BNR2SS server on the
Gateway 486 only, so each platform's table holds the systems the paper
measured on it and no others.  Table 3's NEWAPI rows were measured on
the DECstation and share its columns.  Table 4 is the UDP per-layer
breakdown on the DECstation.

``python -m repro.analysis.report`` scores a ``bench_json`` document
against these tables.  A Table 2 column names the document field it is
compared with: ``(field, None)`` is a scalar, ``(field, size)`` the
mean round trip in ms at that message size.
"""

from repro.stack.instrument import Layer

#: Table 2, left-hand columns: ttcp KB/s, then the mean round trip of
#: TCP at 1 and 1460 bytes and of UDP at 1 and 1472 bytes.
DECSTATION_COLUMNS = (
    ("throughput_kbs", None),
    ("tcp_rtt", 1), ("tcp_rtt", 1460),
    ("udp_rtt", 1), ("udp_rtt", 1472),
)

#: Table 2's right-hand columns: ttcp KB/s and the 1-byte round trips.
GATEWAY_COLUMNS = (
    ("throughput_kbs", None),
    ("tcp_rtt", 1),
    ("udp_rtt", 1),
)

#: The rows Table 3 adds: the shared-buffer socket interface (§4.2).
NEWAPI_KEYS = (
    "library-newapi-ipc", "library-newapi-shm", "library-newapi-shm-ipf",
)

#: Table 2 (DECstation 5000/200) and Table 3, in DECSTATION_COLUMNS.
DECSTATION = {
    "mach25": (1070, 1.40, 6.04, 1.45, 5.88),
    "ultrix": (996, 1.52, 6.13, 1.52, 6.05),
    "ux": (740, 3.64, 9.73, 3.61, 9.41),
    "library-ipc": (910, 1.69, 6.63, 1.40, 6.16),
    "library-shm": (1076, 1.82, 6.73, 1.34, 5.95),
    "library-shm-ipf": (1088, 1.72, 6.56, 1.23, 5.74),
    "library-newapi-ipc": (959, 1.67, 6.45, 1.42, 6.09),
    "library-newapi-shm": (1083, 1.70, 6.38, 1.34, 5.95),
    "library-newapi-shm-ipf": (1099, 1.63, 6.26, 1.25, 5.76),
}

#: Table 2 (Gateway 486, 8-bit PIO Ethernet), in GATEWAY_COLUMNS.
GATEWAY = {
    "mach25": (457, 2.08, 1.83),
    "386bsd": (320, 2.71, 2.63),
    "ux": (415, 4.09, 3.96),
    "bnr2ss": (382, 3.99, 4.61),
    "library-ipc": (469, 2.49, 2.42),
    "library-shm": (503, 2.39, 2.02),
}

#: Table 4's columns: the library, kernel and server systems at 1 and
#: 1472 bytes.
TABLE4_COLUMNS = (
    ("library-shm-ipf", 1), ("library-shm-ipf", 1472),
    ("mach25", 1), ("mach25", 1472),
    ("ux", 1), ("ux", 1472),
)

#: Table 4, UDP: one-way µs per layer, in TABLE4_COLUMNS.  The zeros
#: are rows the in-kernel stack does not have.
TABLE4_UDP = {
    Layer.ENTRY_COPYIN: (6, 7, 65, 104, 293, 628),
    Layer.TCP_UDP_OUTPUT: (18, 239, 70, 273, 229, 398),
    Layer.IP_OUTPUT: (17, 18, 22, 25, 24, 27),
    Layer.ETHER_OUTPUT: (105, 280, 74, 163, 188, 367),
    Layer.DEVICE_READ: (39, 40, 74, 481, 99, 497),
    Layer.NETISR_FILTER: (58, 70, 83, 84, 76, 61),
    Layer.KERNEL_COPYOUT: (107, 517, 0, 0, 124, 207),
    Layer.MBUF_QUEUE: (20, 20, 0, 0, 68, 64),
    Layer.IPINTR: (35, 33, 30, 54, 121, 91),
    Layer.TCP_UDP_INPUT: (103, 318, 67, 279, 61, 273),
    Layer.WAKEUP_USER: (73, 80, 70, 69, 262, 274),
    Layer.COPYOUT_EXIT: (21, 63, 27, 75, 208, 619),
}
