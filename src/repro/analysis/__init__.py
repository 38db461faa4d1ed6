"""Experiment orchestration and paper-style table rendering."""

from repro.analysis.tables import format_table
from repro.analysis.experiments import (
    run_latency_row,
    run_table2,
    run_throughput,
    search_best_rcvbuf,
)

__all__ = [
    "format_table",
    "run_throughput",
    "run_latency_row",
    "run_table2",
    "search_best_rcvbuf",
]
