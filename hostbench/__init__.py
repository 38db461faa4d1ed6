"""hostbench: what the simulator costs the host, end to end and by layer.

``BENCH.json`` pins the *simulated* numbers; this package measures the
Python seconds, memory and calls spent producing them, on six named
workloads, from outside the program: it calls only public entry points
of :mod:`repro` and changes no product code.  See ``README.md`` next to
this file for why each workload exists, which layer metric is expected
to move which end-to-end metric, and how to run and compare.
"""
