"""The load lab: statistical load generation across serving topologies.

``python -m repro.loadlab sweep`` drives one workload through every layer
of the serving stack — bare session, sharded pool, wire-protocol server,
multi-server gateway — under open- and closed-loop load profiles, reduces
each cell to throughput / latency / queue-wait / shed / energy figures,
contrasts the topologies with rank-based statistics, and appends the run
to the versioned perf trajectory at ``benchmarks/results/loadlab.json``.

Modules: :mod:`~repro.loadlab.generator` (load loops),
:mod:`~repro.loadlab.topologies` (serving arrangements),
:mod:`~repro.loadlab.stats` (dependency-free rank statistics),
:mod:`~repro.loadlab.sweep` (the matrix driver),
:mod:`~repro.loadlab.persist` (the versioned result schema shared with
the benchmark suite),
:mod:`~repro.loadlab.compare` (run-over-run regression comparison;
``python -m repro.loadlab compare``).
"""

from repro.loadlab.compare import compare_latest_runs, compare_runs
from repro.loadlab.generator import LoadSpec, RequestOutcome, run_load
from repro.loadlab.persist import SCHEMA_VERSION, load_results, persist_result
from repro.loadlab.sweep import persist_sweep, run_cell, run_sweep
from repro.loadlab.topologies import (
    TOPOLOGIES,
    LabWorkload,
    Topology,
    build_topology,
    default_workload,
)

__all__ = [
    "SCHEMA_VERSION",
    "TOPOLOGIES",
    "LabWorkload",
    "LoadSpec",
    "RequestOutcome",
    "Topology",
    "build_topology",
    "compare_latest_runs",
    "compare_runs",
    "default_workload",
    "load_results",
    "persist_result",
    "persist_sweep",
    "run_cell",
    "run_load",
    "run_sweep",
]
