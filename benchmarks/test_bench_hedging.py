"""Hedged-dispatch benchmark: straggler mitigation vs plain sharding.

The tail-at-scale failure mode: one slow server among healthy ones drags
*every* fan-out request's latency to the straggler's, because a merged
response is only as fast as its slowest shard.  Hedging converts
that tail into a bounded detour — a shard stuck past ``hedge_after_s`` is
duplicated onto the least-loaded sibling, the first result wins and the
loser is cancelled over the wire.

The straggler is scripted, so the measurement is machine-independent: three
chip servers on real sockets, two fast and one whose target sleeps a
scripted 350ms before every dispatch (results are unchanged), each behind a
:class:`PipelinedSession` — so a losing hedge is revoked with a wire
``cancel`` — and driven through two gateways over the *same* clients:

* **unhedged** — ``hedge_after_s=None``: every request waits out the slow
  server's shard, so p95 ~ the scripted delay;
* **hedged** — ``hedge_after_s=0.08``: the slow shard is re-dispatched to
  a fast sibling after 80ms and wins there.

Exactness always runs: both gateways' merged responses must match the
serial single-session answers bit-for-bit (predictions, spike counts,
integer counters; energy to 1e-9) — hedging changes *where* a shard
computes, never what it computes.  The latency threshold (hedged p95 beats
unhedged p95) skips on single-core runners like the other concurrency
benchmarks.

The test prints both runs' p95 waits and the hedged run's hedge counts
(run pytest with ``-s`` to see them).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import ChipServer, PipelinedSession
from repro.serve.distributed.gateway import GatewayEndpoint, InferenceGateway

#: Scripted artificial latency per dispatch in the one slow server.
STRAGGLER_DELAY_S = 0.35
#: Straggler threshold for the hedged run: well past a fast server's
#: dispatch, well before the scripted straggler delay.
HEDGE_AFTER_S = 0.08
REQUESTS = 10
#: Six samples split evenly across three equal-capacity endpoints, so the
#: slow server receives a shard of every request.
SAMPLES_PER_REQUEST = 6


class _DelayedTarget:
    """A scripted straggler: sleeps before every dispatch, results unchanged."""

    def __init__(self, session: ChipSession, delay_s: float):
        # ``session`` is where the server's ``info`` reads backend/timesteps.
        self.session = session
        self.delay_s = delay_s

    def infer(self, request: InferenceRequest):
        time.sleep(self.delay_s)
        return self.session.infer(request)


@pytest.fixture(scope="module")
def hedging_fleet():
    """Three live servers (two fast, one scripted-slow) + ground truth."""
    rng = np.random.default_rng(29)
    from repro.snn import Dense, Network, convert_to_snn

    network = Network(
        (48,),
        [
            Dense(48, 24, use_bias=False, rng=rng, name="fc1"),
            Dense(24, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="hedging-mlp",
    )
    snn = convert_to_snn(network, rng.random((16, 48)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    requests = [
        InferenceRequest(
            inputs=rng.random((SAMPLES_PER_REQUEST, 48)),
            sample_offset=i * SAMPLES_PER_REQUEST,
        )
        for i in range(REQUESTS)
    ]

    def session() -> ChipSession:
        return ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=13)

    serial = session()
    expected = [serial.infer(request) for request in requests]
    targets = {
        "slow": _DelayedTarget(session(), STRAGGLER_DELAY_S),
        "fast-1": session(),
        "fast-2": session(),
    }
    servers, clients = [], {}
    try:
        for name, target in targets.items():
            servers.append(ChipServer(target, port=0, workload=f"hedge-{name}").start())
            clients[name] = PipelinedSession.connect(
                servers[-1].address, connections=1
            )
        yield clients, requests, expected
    finally:
        for client in clients.values():
            client.close()
        for server in servers:
            server.close()


def _drive(clients, requests, expected, hedge_after_s: float | None) -> dict:
    """Sequential closed-loop drive through one gateway; exactness inline.

    Fresh :class:`GatewayEndpoint` objects per run (they carry mutable load
    state) over the *same* server clients, so both runs measure identical
    servers.  ``close(close_endpoints=False)`` — the default — leaves the
    clients open for the other run.
    """
    gateway = InferenceGateway(
        [
            GatewayEndpoint(target=client, name=name)
            for name, client in clients.items()
        ],
        name=f"bench-hedging-{'on' if hedge_after_s else 'off'}",
        hedge_after_s=hedge_after_s,
    )
    try:
        waits = []
        for index, request in enumerate(requests):
            started = time.perf_counter()
            response = gateway.infer(request)
            waits.append(time.perf_counter() - started)
            want = expected[index]
            np.testing.assert_array_equal(response.predictions, want.predictions)
            np.testing.assert_array_equal(response.spike_counts, want.spike_counts)
            got_counters = response.counters.as_dict()
            for counter, value in want.counters.as_dict().items():
                if counter == "crossbar_device_energy_j":
                    assert abs(got_counters[counter] - value) <= (
                        1e-9 * max(abs(value), 1e-30)
                    )
                else:
                    assert got_counters[counter] == value, (
                        f"counter {counter} diverged: "
                        f"{got_counters[counter]} != {value}"
                    )
            assert abs(response.energy.total_j - want.energy.total_j) <= (
                1e-9 * want.energy.total_j
            ), "merged energy diverged from the serial run"
        tail = gateway.tail_stats()
    finally:
        gateway.close()
    return {
        "wait_p95_s": float(np.percentile(waits, 95)),
        **{key: int(value) for key, value in tail.items()},
    }


def test_bench_hedging_beats_straggler_p95(hedging_fleet):
    """Hedged p95 beats hedging-off against the same scripted straggler."""
    clients, requests, expected = hedging_fleet
    unhedged = _drive(clients, requests, expected, hedge_after_s=None)
    hedged = _drive(clients, requests, expected, hedge_after_s=HEDGE_AFTER_S)
    print(
        f"\nhedging ({REQUESTS} requests, "
        f"{STRAGGLER_DELAY_S * 1e3:.0f}ms straggler, "
        f"hedge after {HEDGE_AFTER_S * 1e3:.0f}ms): "
        f"unhedged p95 {unhedged['wait_p95_s'] * 1e3:.0f}ms vs hedged p95 "
        f"{hedged['wait_p95_s'] * 1e3:.0f}ms "
        f"({hedged['hedges_issued']} hedges, {hedged['hedge_wins']} wins, "
        f"{hedged['hedge_wasted_compute']} wasted)"
    )

    assert unhedged["hedges_issued"] == 0, (
        "a hedging-off gateway must never issue a hedge"
    )
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("hedging latency thresholds need >= 2 cores")
    assert hedged["hedges_issued"] >= 1, "the straggler never tripped a hedge"
    assert hedged["hedge_wins"] >= 1, "no hedge ever beat the straggler"
    assert hedged["wait_p95_s"] < unhedged["wait_p95_s"], (
        f"hedging did not improve p95 latency: "
        f"{hedged['wait_p95_s']:.3f}s vs unhedged {unhedged['wait_p95_s']:.3f}s"
    )
