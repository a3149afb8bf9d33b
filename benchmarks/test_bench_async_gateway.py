"""Wall-clock comparison of pipelined vs lock-step gateway dispatch.

A synchronous gateway runs one batch at a time: every batch waits for the
slowest endpoint shard before the next batch may start, so per-batch
stragglers add up (`sum over batches of max(shard latencies)`).  The async
gateway submits batches without blocking, and the per-endpoint locks let
batch k+1 start on an idle endpoint while a straggler still crunches batch
k — the total approaches `max over endpoints of sum(its shard latencies)`.

The two endpoints here wrap identical chip sessions behind scripted,
*alternating* artificial latencies (50 ms on A while B is instant, then the
reverse — the classic straggler pattern of a mixed fleet), so the pipelined
total is close to half the lock-step total regardless of chip speed.  The
comparison asserts both a speedup floor (multi-core runners only, like the
executor bench) and — always — that pipelining changes no numbers.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import GatewayEndpoint, InferenceGateway
from repro.snn import Dense, Network, convert_to_snn

BATCHES = 6
DELAY_S = 0.05

#: Pipelined dispatch must beat lock-step dispatch by at least this factor
#: on the alternating-straggler latency script (the ideal is ~2x; the bound
#: is generous so chip compute and scheduling jitter cannot flake it).
PIPELINE_SPEEDUP_FLOOR = 1.25


class _StragglerEndpoint:
    """A chip session behind a scripted artificial latency sequence."""

    capacity = 1

    def __init__(self, session: ChipSession, delays_s):
        self._session = session
        self._delays_s = delays_s

    def infer(self, request: InferenceRequest):
        time.sleep(next(self._delays_s))
        return self._session.infer(request)


@pytest.fixture(scope="module")
def gateway_workload():
    rng = np.random.default_rng(31)
    network = Network(
        (48,),
        [
            Dense(48, 24, use_bias=False, rng=rng, name="fc1"),
            Dense(24, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="gateway-mlp",
    )
    snn = convert_to_snn(network, rng.random((16, 48)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    requests = [
        InferenceRequest(inputs=rng.random((12, 48))) for _ in range(BATCHES)
    ]
    return snn, config, requests


def _make_gateway(snn, config):
    def session():
        return ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=3)

    # A stalls on even calls, B on odd calls: every batch has one straggler
    # shard, but the stragglers alternate endpoints.
    a = _StragglerEndpoint(session(), itertools.cycle([DELAY_S, 0.0]))
    b = _StragglerEndpoint(session(), itertools.cycle([0.0, DELAY_S]))
    return InferenceGateway(
        [
            GatewayEndpoint(target=a, name="a"),
            GatewayEndpoint(target=b, name="b"),
        ]
    )


def _lock_step(gateway, requests):
    return [gateway.infer(request) for request in requests]


def _pipelined(gateway, requests):
    futures = [gateway.submit(request) for request in requests]
    return [future.result() for future in futures]


def test_bench_pipelined_gateway(benchmark, gateway_workload):
    """Timing reference: all batches in flight at once across two endpoints."""
    snn, config, requests = gateway_workload
    with _make_gateway(snn, config) as gateway:
        responses = benchmark.pedantic(
            lambda: _pipelined(gateway, requests), iterations=1, rounds=3
        )
    assert len(responses) == BATCHES


def test_pipelined_beats_lock_step_dispatch(gateway_workload):
    """Pipelined dispatch overlaps the alternating stragglers; lock-step cannot."""
    snn, config, requests = gateway_workload

    with _make_gateway(snn, config) as gateway:
        t0 = time.perf_counter()
        serial = _lock_step(gateway, requests)
        lock_step_s = time.perf_counter() - t0

    with _make_gateway(snn, config) as gateway:
        t0 = time.perf_counter()
        overlapped = _pipelined(gateway, requests)
        pipelined_s = time.perf_counter() - t0

    ratio = lock_step_s / pipelined_s
    print(
        f"\ngateway dispatch wall-clock ({BATCHES} batches, 2 endpoints, "
        f"{DELAY_S * 1e3:.0f}ms alternating straggler): "
        f"lock-step {lock_step_s:.3f}s, pipelined {pipelined_s:.3f}s, "
        f"speedup {ratio:.2f}x"
    )

    # Pipelining must never change the numbers, on any machine.
    for want, got in zip(serial, overlapped):
        np.testing.assert_array_equal(want.predictions, got.predictions)
        np.testing.assert_array_equal(want.spike_counts, got.spike_counts)
        assert got.energy.total_j == pytest.approx(want.energy.total_j, rel=1e-9)

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("pipelined-vs-lock-step threshold needs >= 2 cores")
    assert pipelined_s * PIPELINE_SPEEDUP_FLOOR < lock_step_s, (
        f"pipelined gateway dispatch only {ratio:.2f}x faster than lock-step "
        f"({pipelined_s:.3f}s vs {lock_step_s:.3f}s) — pipelining is not "
        f"overlapping the stragglers"
    )
