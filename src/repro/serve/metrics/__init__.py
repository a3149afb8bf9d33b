"""Dependency-free metrics plane for the serving stack.

Three ideas, kept deliberately small:

* :class:`MetricsRegistry` — a process-local family store for counters,
  gauges and fixed-bucket histograms.  Every serving layer records into a
  registry; the :class:`~repro.serve.distributed.ChipServer` owns one per
  instance (so two servers in one test process never share counters) and
  exposes it over the ``metrics`` wire op and a Prometheus text endpoint.
* **No-op mode** — a registry can be constructed (or flipped) disabled, at
  which point every ``inc``/``set``/``observe`` returns before touching a
  lock.  The hot-path overhead benchmark pins instrumentation cost against
  this mode.
* **Phase spans** (:mod:`repro.serve.metrics.trace`) — per-request
  ``queue_wait``/``dispatch``/``compute``/``merge`` timings ride the
  response ``metadata`` dict on the existing request-id plumbing, so any
  client can read where a request's wall time went.

The registry is thread-safe and has zero third-party dependencies; the
Prometheus rendering is plain text-format 0.0.4.
"""

from repro.serve.metrics.exposition import render_prometheus
from repro.serve.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    REGISTRY,
    get_default_registry,
    set_default_enabled,
)
from repro.serve.metrics.trace import (
    PHASE_COMPUTE,
    PHASE_DISPATCH,
    PHASE_KEYS,
    PHASE_MERGE,
    PHASE_QUEUE_WAIT,
    PHASES_KEY,
    merge_phases,
    phases_total,
    read_phases,
    record_phase,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "PHASES_KEY",
    "PHASE_COMPUTE",
    "PHASE_DISPATCH",
    "PHASE_KEYS",
    "PHASE_MERGE",
    "PHASE_QUEUE_WAIT",
    "REGISTRY",
    "get_default_registry",
    "merge_phases",
    "phases_total",
    "read_phases",
    "record_phase",
    "render_prometheus",
    "set_default_enabled",
]
