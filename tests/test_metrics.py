"""The observability plane: registry math, tracing parity, wire identity.

Four layers of guarantees:

* **histogram bucket math** (hypothesis properties): bucket counts stay
  consistent with observation totals, percentiles are monotone and bounded
  by the bucket edges, and merging histograms is associative and exact —
  the fixed-bucket design makes merge an elementwise add, so these are
  hard invariants, not approximations;
* **span accounting parity**: the per-request phase spans the serving
  layers attach to response metadata must sum to approximately the wall
  time the client observed — the decomposition may not invent or lose
  time;
* **wire identity**: the ``metrics`` op, the Prometheus endpoint, and the
  legacy ``info`` counters are three views over one registry and must
  agree exactly;
* **drain snapshot**: a draining server's final counters ride the drain
  ack, so retiring a server never loses served-request history.
"""

from __future__ import annotations

import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import ChipServer, PipelinedSession
from repro.serve.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    phases_total,
    read_phases,
    render_prometheus,
)
from repro.serve.metrics.registry import Histogram
from repro.snn import Dense, Network, convert_to_snn

# -- strategies ---------------------------------------------------------------------

_edges = st.lists(
    st.floats(
        min_value=1e-6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=12,
    unique=True,
).map(sorted)

_observations = st.lists(
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def _histogram(edges, values) -> Histogram:
    registry = MetricsRegistry(enabled=True)
    child = registry.histogram(
        "prop_seconds", "property-test series", buckets=tuple(edges)
    ).labels()
    for value in values:
        child.observe(value)
    return child


# -- histogram bucket math (hypothesis) ---------------------------------------------


class TestHistogramProperties:
    @given(edges=_edges, values=_observations)
    @settings(max_examples=60, deadline=None)
    def test_bucket_counts_partition_observations(self, edges, values):
        """Bucket counts (with the +Inf bucket) sum to the observation count."""
        h = _histogram(edges, values)
        assert sum(h.bucket_counts) == len(values) == h.count
        assert h.sum == pytest.approx(sum(values))
        # Bucket i holds exactly the observations in (edges[i-1], edges[i]];
        # the final slot catches everything past the last finite edge.
        bounds = [float("-inf")] + list(edges)
        for i, edge in enumerate(edges):
            expected = sum(1 for v in values if bounds[i] < v <= edge)
            assert h.bucket_counts[i] == expected, f"bucket le={edge}"
        assert h.bucket_counts[-1] == sum(1 for v in values if v > edges[-1])

    @given(edges=_edges, values=_observations)
    @settings(max_examples=60, deadline=None)
    def test_percentiles_monotone_and_bounded(self, edges, values):
        """p50 <= p95 <= p99, all within [0, last finite edge]."""
        h = _histogram(edges, values)
        qs = h.percentiles()
        assert 0.0 <= qs["p50"] <= qs["p95"] <= qs["p99"] <= edges[-1]

    @given(edges=_edges, a=_observations, b=_observations, c=_observations)
    @settings(max_examples=40, deadline=None)
    def test_merge_exact_and_associative(self, edges, a, b, c):
        """(A+B)+C == A+(B+C) == one histogram fed every observation."""
        ha, hb, hc = (_histogram(edges, v) for v in (a, b, c))
        left = _histogram(edges, [])
        left.merge(ha)
        left.merge(hb)
        left.merge(hc)
        right = _histogram(edges, [])
        right.merge(hc)
        right.merge(hb)
        right.merge(ha)
        everything = _histogram(edges, list(a) + list(b) + list(c))
        for merged in (left, right):
            assert merged.bucket_counts == everything.bucket_counts
            assert merged.count == everything.count
            assert merged.sum == pytest.approx(everything.sum)

    def test_merge_rejects_mismatched_edges(self):
        a = _histogram([1.0, 2.0], [0.5])
        b = _histogram([1.0, 3.0], [0.5])
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(b)

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


# -- registry basics ----------------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_and_snapshot_round_trip(self):
        registry = MetricsRegistry(enabled=True)
        requests = registry.counter("demo_requests_total", "requests")
        requests.inc()
        requests.inc(4)
        depth = registry.gauge("demo_depth", "queue depth")
        depth.set(3)
        depth.set_max(2)  # lower: no change
        latency = registry.histogram("demo_latency_seconds", "latency")
        latency.observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["families"]["demo_requests_total"]["series"][0]["value"] == 5
        assert snapshot["families"]["demo_depth"]["series"][0]["value"] == 3
        assert snapshot["families"]["demo_latency_seconds"]["series"][0]["count"] == 1
        text = render_prometheus(snapshot)
        assert "# TYPE demo_requests_total counter" in text
        assert "demo_requests_total 5" in text
        assert 'demo_latency_seconds_bucket{le="+Inf"} 1' in text

    def test_disabled_registry_is_inert(self):
        counter = NULL_REGISTRY.counter("noop_total", "ignored")
        counter.inc(10)
        histogram = NULL_REGISTRY.histogram("noop_seconds", "ignored")
        histogram.observe(1.0)
        assert counter.value == 0
        assert histogram.count == 0
        assert NULL_REGISTRY.snapshot()["enabled"] is False

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.counter("neg_total", "x").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("shape_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("shape_total", "x")


# -- the served observability surface -----------------------------------------------


def _workload():
    rng = np.random.default_rng(9)
    network = Network(
        (32,),
        [
            Dense(32, 16, use_bias=False, rng=rng, name="fc1"),
            Dense(16, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="metrics-mlp",
    )
    snn = convert_to_snn(network, rng.random((8, 32)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    inputs = rng.random((8, 32))
    return snn, config, inputs


@pytest.fixture(scope="module")
def served():
    snn, config, inputs = _workload()
    session = ChipSession(snn, config=config, timesteps=4, seed=3)
    server = ChipServer(
        session, port=0, workload="metrics-test", metrics_port=0
    ).start()
    client = PipelinedSession.connect(server.address, connections=1)
    yield server, client, inputs
    client.close()
    server.close()


class TestServedMetrics:
    def test_phase_spans_cover_request_wall_time(self, served):
        """Span accounting parity: recorded phases ~ client-observed wall."""
        server, client, inputs = served
        started = time.monotonic()
        response = client.infer(InferenceRequest(inputs=inputs))
        wall = time.monotonic() - started
        phases = read_phases(response.metadata)
        assert set(phases) >= {"queue_wait_s", "dispatch_s", "compute_s"}
        assert all(v >= 0.0 for v in phases.values())
        total = phases_total(response.metadata)
        # The spans cover server-side time only; the client adds wire and
        # scheduling overhead, so the decomposition must stay under the
        # wall and account for a meaningful part of it.
        assert total <= wall + 0.05
        assert total > 0.0

    def test_metrics_op_matches_prometheus_endpoint(self, served):
        """The wire op and the HTTP endpoint serve identical text."""
        server, client, inputs = served
        client.infer(InferenceRequest(inputs=inputs))
        payload = client.metrics()
        assert payload["schema_version"] == 1
        assert payload["replica_id"] == server.endpoint
        host, port = server.metrics_address
        scraped = (
            urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=10)
            .read()
            .decode()
        )
        # Counters could advance between the two reads; re-render the op's
        # snapshot and compare against a fresh scrape of the same instant.
        fresh = client.metrics()
        scraped = (
            urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=10)
            .read()
            .decode()
        )
        assert fresh["text"] == scraped
        assert "repro_server_requests_total" in scraped
        assert "repro_request_queue_wait_seconds_bucket" in scraped

    def test_info_counters_are_a_view_over_the_registry(self, served):
        """Legacy ``info`` stats equal the registry's counters exactly."""
        server, client, inputs = served
        client.infer(InferenceRequest(inputs=inputs))
        info = client.info(refresh=True)
        snapshot = server.metrics.snapshot()
        families = snapshot["families"]
        assert (
            info["stats"]["requests"]
            == families["repro_server_requests_total"]["series"][0]["value"]
        )
        assert (
            info["stats"]["batches"]
            == families["repro_server_batches_total"]["series"][0]["value"]
        )
        assert info["metrics_endpoint"] == "%s:%d" % server.metrics_address


class TestDrainSnapshot:
    def test_drain_ack_carries_final_counters(self):
        snn, config, inputs = _workload()
        session = ChipSession(snn, config=config, timesteps=4, seed=3)
        server = ChipServer(session, port=0, workload="drain-metrics").start()
        try:
            with PipelinedSession.connect(server.address, connections=1) as client:
                client.infer(InferenceRequest(inputs=inputs))
                ack = client.drain_server()
            assert ack["stats"]["requests"] == 1
            families = ack["metrics"]["families"]
            assert (
                families["repro_server_requests_total"]["series"][0]["value"] == 1
            )
        finally:
            server.close()
