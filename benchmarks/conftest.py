"""Benchmark harness helpers.

Every benchmark is an ablation of one mechanism the paper discusses: it
prints its table while pytest-benchmark times the run.  Simulated
workloads are scaled down from the paper's 16 MB / 50000-round
originals, and a 1-2 MB transfer is not the paper's steady state: a
start-up delayed-ACK stall that 16 MB amortises costs it 10-20 %.

Because pytest captures per-test output, every regenerated table is also
appended to ``benchmarks/tables_output.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the tables on disk.
"""

import os
import sys
import time

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "tables_output.txt")


@pytest.fixture(scope="session", autouse=True)
def _results_file_run_header():
    # Append (never truncate): several pytest sessions may share one
    # results file — e.g. a sharded CI run, or a rerun of a single
    # benchmark after a full sweep — and each should keep the earlier
    # blocks.  A per-run header separates the sessions.
    with open(RESULTS_PATH, "a") as handle:
        handle.write(
            "%s\nBenchmark run started %s "
            "(one block per benchmark)\n%s\n"
            % ("#" * 72, time.strftime("%Y-%m-%d %H:%M:%S"), "#" * 72)
        )
    yield


def show(title, body):
    """Print a regenerated table and persist it to the results file."""
    block = "\n".join(("=" * 72, title, "=" * 72, body, ""))
    print("\n" + block, file=sys.stderr)
    with open(RESULTS_PATH, "a") as handle:
        handle.write("\n" + block)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
