"""One (workload, repeat) in a fresh interpreter.

``python -m hostbench.child '<json request>'`` runs a workload's set-up
and its timed region once, and prints one JSON line.  A fresh process
per repeat keeps ``peak_rss_mb`` and ``setup_s`` clean: nothing is warm
from the previous repeat.

Request keys: ``workload``, ``seed``, ``size`` ("full" | "smoke"),
``spawned_at`` (the parent's ``time.time()`` just before the spawn, so
``setup_s`` includes interpreter start and imports), ``profile`` (bool:
cProfile around the timed region only), ``overrides`` (params to
replace, e.g. ``{"parallel": 0}`` for the single-process twin).
"""

import cProfile
import hashlib
import json
import marshal
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager


class Spans:
    """Phase spans recorded from outside the program: name, start, end
    (seconds since the recorder was made) and the enclosing span."""

    def __init__(self):
        self._zero = time.perf_counter()
        self._open = []
        self.records = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "parent": self._open[-1] if self._open
                  else None, "start": time.perf_counter() - self._zero}
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._zero
            self.records.append(record)


def _cpu_seconds():
    """user+sys of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    """``ru_maxrss`` of this process plus its largest child (the island
    workers; zero when there are none).  Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class _WorkerProfiles:
    """Collect the profiles of processes forked inside the timed region.

    A forked island worker inherits the running profiler but its numbers
    die with it.  ``multiprocessing`` runs after-fork hooks in the child;
    ours registers an exit finalizer that dumps the worker's stats to a
    scratch directory, which the parent reads back after the run.
    """

    def __init__(self, profiler):
        from multiprocessing import util

        self._profiler = profiler
        self._dir = tempfile.mkdtemp(
            prefix="workers-", dir=os.path.dirname(os.path.abspath(__file__)))
        util.register_after_fork(self, _WorkerProfiles._in_worker)

    def _in_worker(self):
        from multiprocessing import util

        util.Finalize(None, self._dump, exitpriority=0)

    def _dump(self):
        self._profiler.disable()
        self._profiler.create_stats()
        path = os.path.join(self._dir, "%d.prof" % os.getpid())
        with open(path, "wb") as fh:
            marshal.dump(self._profiler.stats, fh)

    def collect(self):
        stats = []
        try:
            for name in sorted(os.listdir(self._dir)):
                with open(os.path.join(self._dir, name), "rb") as fh:
                    stats.append(marshal.load(fh))
        finally:
            shutil.rmtree(self._dir, ignore_errors=True)
        return stats


def run_request(request):
    from hostbench.fold import fold, merge_stats
    from hostbench.spec import WORKLOADS
    from hostbench.workloads import RUNNERS

    workload = WORKLOADS[request["workload"]]
    params = dict(workload[request["size"]])
    params.update(request.get("overrides") or {})
    spans = Spans()
    run = RUNNERS[workload["runner"]](params, request["seed"], spans)

    profiler = workers = None
    if request.get("profile"):
        profiler = cProfile.Profile()
        if params.get("parallel"):
            workers = _WorkerProfiles(profiler)
    setup_s = time.time() - request["spawned_at"]
    cpu_before = _cpu_seconds()
    begin = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        outcome = run()
    finally:
        if profiler is not None:
            profiler.disable()
    host_s = time.perf_counter() - begin
    cpu_s = _cpu_seconds() - cpu_before
    if outcome["counts"] is not None:
        outcome["counts"] = outcome["counts"]()

    digest = hashlib.sha256(
        json.dumps(outcome.pop("sim"), sort_keys=True).encode("ascii"))
    reply = dict(outcome, host_s=host_s, cpu_s=cpu_s, setup_s=setup_s,
                 peak_rss_mb=_peak_rss_mb(), sim_digest=digest.hexdigest(),
                 spans=spans.records)
    if profiler is not None:
        profiler.create_stats()
        stats = [profiler.stats]
        if workers is not None:
            stats.extend(workers.collect())
            reply["profiled_processes"] = len(stats)
        rows, total = fold(merge_stats(stats))
        reply["fold"] = rows
        reply["profiled_s"] = total
    return reply


def main(argv):
    request = json.loads(argv[1])
    if request["workload"] == "direct":
        from hostbench.direct import direct_timings

        reply = direct_timings(request["seed"])
    else:
        reply = run_request(request)
    # The island workers share this stdout; the reply is the last line.
    sys.stdout.flush()
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
