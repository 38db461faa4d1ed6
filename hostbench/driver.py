"""Run workloads in child interpreters and turn replies into metrics.

One driver process runs workloads one after another; every (workload,
repeat) is a fresh ``hostbench.child``.  Nothing runs concurrently
except the two island workers of ``wan48_islands2``.

*Timed pass*: repeats with the profiler off; every end-to-end metric is
the median over repeats.  *Layered pass*: one plain run, one run under
cProfile folded by layer, the direct timings, and the workload's tier
re-runs or single-process twin; it never feeds an end-to-end metric.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from hostbench.spec import (
    CONTRACT_END_TO_END,
    COUNTS,
    DIRECT,
    END_TO_END,
    PHASES,
    SIM_OUTPUTS,
    TIERS_AND_TWINS,
    WORKLOADS,
    per_layer_metrics,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A child that has not answered by then is killed (the contract allows
#: a whole invocation 180 s).
CHILD_TIMEOUT_S = 150

#: A full-size timed run shorter than this is too short to trust.
MIN_TIMED_S = 5.0

#: ``other.self_s`` above this share means the fold lost track of time.
MAX_OTHER_SHARE = 0.05

MAX_REPEATS = 9


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not: a check failed)."""


def log(message):
    print("hostbench: %s" % message, file=sys.stderr, flush=True)


def spawn(request):
    """Run one child; returns its reply dict."""
    env = dict(os.environ)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    request = dict(request, spawned_at=time.time())
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hostbench.child", json.dumps(request)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("child for %s did not finish in %d s"
                             % (request["workload"], CHILD_TIMEOUT_S))
    if done.returncode != 0:
        raise BenchmarkError("child for %s exited with code %d"
                             % (request["workload"], done.returncode))
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise BenchmarkError("child for %s printed no reply"
                             % request["workload"])
    return json.loads(lines[-1])


def environment():
    """Where the numbers were taken: they compare only within it."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            ).stdout.decode("ascii").strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def load_average(own=0):
    """1-minute load average, with a warning when the shared box is
    busy enough to disturb the next workload.  ``own`` is the load this
    benchmark itself put there in the last minute (one busy child after
    the first workload), which is not somebody else's."""
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load - own > nproc - 1:
        log("warning: 1-minute load average %.2f (%d of it ours) exceeds "
            "nproc - 1 = %d; timings may be disturbed"
            % (load, own, nproc - 1))
    return load


def _summary(values, unit):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": list(values)}


def _sim_outputs(reply):
    """The simulated end-to-end numbers of one reply (None: the
    workload has no such number)."""
    return {
        "failed_share": reply["failed"] / reply["attempted"],
        "sim_goodput_kbs": reply["goodput_kbs"],
        "sim_lat_p50_us": reply["lat_p50_us"],
        "sim_lat_p99_us": reply["lat_p99_us"],
    }


def timed_pass(name, seed, size, seconds, min_repeats=1):
    """Repeat the workload, profiler off, while another repeat fits in
    ``seconds`` of measured time (at least ``min_repeats`` times)."""
    replies = []
    measured = 0.0
    while len(replies) < MAX_REPEATS:
        reply = spawn({"workload": name, "seed": seed, "size": size})
        replies.append(reply)
        measured += reply["host_s"]
        log("%s repeat %d: host_s %.3f  cpu_s %.3f  setup_s %.3f  "
            "rss %.1f MB" % (name, len(replies), reply["host_s"],
                             reply["cpu_s"], reply["setup_s"],
                             reply["peak_rss_mb"]))
        typical = statistics.median(r["host_s"] for r in replies)
        if len(replies) >= min_repeats and measured + typical > seconds:
            break
    first = replies[0]
    units = {metric: unit for metric, unit, _b, _bound in END_TO_END}
    end_to_end = {
        metric: _summary([r[metric] for r in replies], units[metric])
        for metric in ("host_s", "cpu_s", "setup_s", "peak_rss_mb")
    }
    end_to_end["frames_per_s"] = _summary(
        [r["frames"] / r["host_s"] for r in replies], units["frames_per_s"])
    for metric, value in _sim_outputs(first).items():
        if value is not None:
            end_to_end[metric] = _summary([value], units[metric])
    checks = _merged_checks(replies)
    checks["sim_digest_equal_across_repeats"] = all(
        r["sim_digest"] == first["sim_digest"] for r in replies)
    if size == "full":
        checks["timed_run_at_least_5s"] = all(
            r["host_s"] >= MIN_TIMED_S for r in replies)
    return {
        "repeats": len(replies), "end_to_end": end_to_end,
        "attempted": first["attempted"], "failed": first["failed"],
        "lat_samples": first["lat_samples"],
        "sim_digest": first["sim_digest"], "checks": checks,
        "spans": first["spans"],
    }


def _merged_checks(replies):
    """A check passes when it passed in every reply."""
    checks = {}
    for reply in replies:
        for check, passed in reply["checks"].items():
            checks[check] = checks.get(check, True) and passed
    return checks


def _span_seconds(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def direct_timings(seed):
    """The direct timings, in a child of their own."""
    return spawn({"workload": "direct", "seed": seed})


def layered_pass(name, seed, size, direct):
    """The per-layer numbers of one workload; see the module docstring.
    ``direct`` is :func:`direct_timings`' reply (the same for every
    workload of one seed)."""
    params = WORKLOADS[name][size]
    base = {"workload": name, "seed": seed, "size": size}
    notes = []

    plain = spawn(base)
    log("%s layered: plain run %.3f s" % (name, plain["host_s"]))
    profiled = spawn(dict(base, profile=True))
    log("%s layered: profiled run %.3f s" % (name, profiled["host_s"]))
    notes.extend(direct["notes"])

    metrics = {}
    total = profiled["profiled_s"]
    for row in profiled["fold"]:
        metrics[row["layer"] + ".self_s"] = row["self_s"]
        if row["layer"] not in ("hostbench", "other"):
            metrics[row["layer"] + ".calls"] = row["calls"]
    metrics["hostbench.profile_overhead_ratio"] = (
        profiled["host_s"] / plain["host_s"])
    checks = _merged_checks((plain, profiled))
    fold_sum = sum(row["self_s"] for row in profiled["fold"])
    checks["fold_sums_to_profiled_total"] = (
        abs(fold_sum - total) <= 0.01 * total)
    checks["other_self_share_at_most_5pct"] = (
        metrics["other.self_s"] <= MAX_OTHER_SHARE * total)
    checks["profiled_sim_digest_equal"] = (
        profiled["sim_digest"] == plain["sim_digest"])

    for phase in PHASES:
        metrics[phase] = _span_seconds(plain["spans"], phase)
    for metric, _unit in DIRECT:
        metrics[metric] = direct["values"][metric]
    for metric in TIERS_AND_TWINS:
        metrics[metric] = None
    counts = plain["counts"]

    if params.get("tier") == "forensics":
        tiers = {}
        for tier in ("plain", "metrics", "tracing"):
            tiers[tier] = spawn(dict(base, overrides={"tier": tier}))
            log("%s layered: %s tier %.3f s"
                % (name, tier, tiers[tier]["host_s"]))
        floor = tiers["plain"]["host_s"]
        metrics["telemetry.metrics_ratio"] = tiers["metrics"]["host_s"] / floor
        metrics["telemetry.tracing_ratio"] = tiers["tracing"]["host_s"] / floor
        metrics["telemetry.forensics_ratio"] = plain["host_s"] / floor
        # Each tier's export phase, where the plain run has none.
        metrics["metrics.export_s"] = _span_seconds(
            tiers["metrics"]["spans"], "metrics.export_s")

    if params.get("parallel"):
        twin = spawn(dict(base, overrides={"parallel": 0}))
        log("%s layered: single-process twin %.3f s"
            % (name, twin["host_s"]))
        metrics["sim.parallel.speedup"] = (
            _span_seconds(twin["spans"], "run_s")
            / _span_seconds(plain["spans"], "run_s"))
        checks["islands_cell_json_equal_twin"] = (
            plain["cell_json"] == twin["cell_json"])
        checks["islands_frames_equal_twin"] = (
            plain["frames"] == twin["frames"])
        counts = twin["counts"]
        notes.append("counts read from the single-process twin: the "
                     "island workers' worlds are out of reach")
        notes.append("fold sums %d processes (driver + island workers)"
                     % profiled.get("profiled_processes", 1))

    for metric in COUNTS:
        metrics[metric] = counts[metric]
    metrics.update(_sim_outputs(plain))
    return {
        "per_layer": metrics, "fold": profiled["fold"],
        "profiled_s": total, "direct_detail": direct["detail"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "sim_digest": plain["sim_digest"], "checks": checks,
        "notes": notes, "spans": plain["spans"],
        "profiled_spans": profiled["spans"],
    }


# ----------------------------------------------------------------------
# The whole suite (what a person runs)
# ----------------------------------------------------------------------

def run_suite(seed, seconds, smoke):
    """Every workload, timed pass then layered pass."""
    size = "smoke" if smoke else "full"
    document = {
        "schema": "hostbench/1",
        "comparable": not smoke,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "workloads": {},
    }
    direct = direct_timings(seed)
    for index, (name, workload) in enumerate(WORKLOADS.items()):
        load = load_average(own=min(index, 1))
        log("== %s (1-minute load average %.2f)" % (name, load))
        timed = timed_pass(name, seed, size, 0 if smoke else seconds,
                           min_repeats=1 if smoke else 3)
        layered = layered_pass(name, seed, size, direct)
        checks = dict(timed["checks"])
        checks.update(layered["checks"])
        checks["layered_sim_digest_equal_timed"] = (
            layered["sim_digest"] == timed["sim_digest"])
        document["workloads"][name] = {
            "why": workload["why"],
            "loadavg_1m": load,
            "repeats": timed["repeats"],
            "end_to_end": timed["end_to_end"],
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "lat_samples": timed["lat_samples"],
            "sim_digest": timed["sim_digest"],
            "per_layer": layered["per_layer"],
            "fold": layered["fold"],
            "profiled_s": layered["profiled_s"],
            "direct_detail": layered["direct_detail"],
            "checks": checks,
            "notes": layered["notes"],
            "spans": {"timed": timed["spans"],
                      "layered": layered["spans"],
                      "profiled": layered["profiled_spans"]},
        }
    document["ok"] = all(all(w["checks"].values())
                         for w in document["workloads"].values())
    return document


def print_suite(document, out=sys.stdout):
    """Every metric by name with its unit."""
    units = {name: unit for name, unit, _better in per_layer_metrics()}
    env = document["environment"]
    print("hostbench  seed %d  python %s (%s)  %s x%s  commit %s%s"
          % (document["seed"], env["python"], env["python_build"],
             env["cpu_model"], env["nproc"], env["commit"],
             "" if document["comparable"]
             else "  [smoke sizes: numbers are NOT comparable]"), file=out)
    for name, block in document["workloads"].items():
        print("\n## %s  (%d repeats, load average %.2f, sim_digest %s)"
              % (name, block["repeats"], block["loadavg_1m"],
                 block["sim_digest"][:16]), file=out)
        print("%-18s %14s %14s %14s %3s  %s"
              % ("end-to-end", "median", "min", "max", "n", "unit"),
              file=out)
        for metric, _unit, _better, _bound in END_TO_END:
            summary = block["end_to_end"].get(metric)
            if summary is None:
                print("%-18s %14s" % (metric, "n/a"), file=out)
                continue
            print("%-18s %14.6g %14.6g %14.6g %3d  %s"
                  % (metric, summary["median"], summary["min"],
                     summary["max"], summary["n"], summary["unit"]),
                  file=out)
        print("%-18s %d of %d operations failed; latency samples %d"
              % ("operations", block["failed"], block["attempted"],
                 block["lat_samples"]), file=out)
        print("\n%-14s %12s %12s %8s" % ("layer", "self_s", "calls", "share"),
              file=out)
        for row in block["fold"]:
            print("%-14s %12.4f %12d %7.1f%%"
                  % (row["layer"], row["self_s"], row["calls"],
                     100.0 * row["share"]), file=out)
        print("%-14s %12.4f  (profiled total)" % ("", block["profiled_s"]),
              file=out)
        print("", file=out)
        for metric, value in block["per_layer"].items():
            if metric.endswith((".self_s", ".calls")) or metric in SIM_OUTPUTS:
                continue  # printed above, in the fold and end-to-end tables
            shown = "n/a" if value is None else "%.6g" % value
            print("%-36s %14s  %s" % (metric, shown, units[metric]),
                  file=out)
        for note in block["notes"]:
            print("note: %s" % note, file=out)
        failed = [c for c, passed in block["checks"].items() if not passed]
        print("checks: %s" % ("all %d passed" % len(block["checks"])
                              if not failed
                              else "FAILED " + ", ".join(failed)), file=out)
    print("\nresult: %s" % ("ok" if document["ok"] else "CHECKS FAILED"),
          file=out)


# ----------------------------------------------------------------------
# One workload (what the benchmark driver runs)
# ----------------------------------------------------------------------

def run_contract(name, seed, seconds, trace, size="full"):
    """One workload as ``BENCHMARK.json``'s command runs it: the result
    object the driver reads from the last line of stdout."""
    load_average()
    if trace:
        layered = layered_pass(name, seed, size, direct_timings(seed))
        metrics = {}
        for metric, unit, _better in per_layer_metrics():
            value = layered["per_layer"].get(metric)
            # Not measured on this workload (or its name is gone): 0.
            metrics[metric] = {"value": 0 if value is None else value,
                               "unit": unit}
        block = layered
    else:
        timed = timed_pass(name, seed, size, seconds)
        # A speed-up may legitimately push a run under the floor; that
        # is a reason to re-size the workload, not a wrong output.
        if not timed["checks"].pop("timed_run_at_least_5s", True):
            log("warning: a timed run of %s took under %.0f s"
                % (name, MIN_TIMED_S))
        metrics = {
            metric: {"value": timed["end_to_end"][metric]["median"],
                     "unit": timed["end_to_end"][metric]["unit"]}
            for metric in CONTRACT_END_TO_END
        }
        block = timed
    for check, passed in block["checks"].items():
        if not passed:
            log("check failed: %s" % check)
    for note in block.get("notes", ()):
        log("note: %s" % note)
    return {"correct": all(block["checks"].values()),
            "attempted": block["attempted"], "failed": block["failed"],
            "metrics": metrics}
