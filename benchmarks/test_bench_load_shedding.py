"""Open-loop load-shedding benchmark: queue-wait percentiles and shed rate.

A bounded-queue chip server under a 4x-oversubscribed open loop (clients
submit without waiting for replies) must degrade *gracefully*: excess
requests come back immediately as structured ``overloaded`` errors instead
of stretching the queue, every admitted request still returns the exact
serial answer, and the queue-wait of admitted requests stays bounded by the
queue depth — not by the offered load.

The server target sleeps a scripted per-dispatch latency so oversubscription
is machine-independent: with a ``max_queue`` of 4 and 16 requests arriving
at once, roughly one is in dispatch, four wait, and the rest shed.  The
recorded metrics are the client-observed wait (submit -> result) of admitted
requests (p50/p95) and the shed rate; the exactness assertions always run,
while the load-dependent thresholds skip on single-core runners like the
other concurrency benchmarks.

The test prints the admitted and shed counts and the admitted requests'
queue-wait p50/p95 (run pytest with ``-s`` to see them), also on runners
where the thresholds skip.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import ChipServer, PipelinedSession, RemoteServerError
from repro.serve.schema import ERROR_OVERLOADED
from repro.snn import Dense, Network, convert_to_snn

#: Server queue bound N; the open loop offers OVERSUBSCRIPTION * N requests.
MAX_QUEUE = 4
OVERSUBSCRIPTION = 4
#: Scripted artificial latency per dispatch (keeps the flood machine-independent).
DISPATCH_DELAY_S = 0.02
SAMPLES_PER_REQUEST = 6

#: Admitted requests wait behind at most the queue bound, so their p95 wait
#: is bounded by ~(1 + MAX_QUEUE) dispatches; the generous factor absorbs
#: chip compute and scheduler jitter on busy CI runners.
P95_WAIT_CEILING_S = 40 * DISPATCH_DELAY_S * (1 + MAX_QUEUE)


class _SlowTarget:
    """A chip session behind a fixed artificial per-dispatch latency."""

    def __init__(self, session: ChipSession, delay_s: float):
        self._session = session
        self._delay_s = delay_s

    @property
    def backend(self) -> str:
        return self._session.backend

    @property
    def timesteps(self) -> int:
        return self._session.timesteps

    def infer(self, request: InferenceRequest):
        time.sleep(self._delay_s)
        return self._session.infer(request)


@pytest.fixture(scope="module")
def shed_workload():
    rng = np.random.default_rng(41)
    network = Network(
        (48,),
        [
            Dense(48, 24, use_bias=False, rng=rng, name="fc1"),
            Dense(24, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="shedding-mlp",
    )
    snn = convert_to_snn(network, rng.random((16, 48)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    total = OVERSUBSCRIPTION * MAX_QUEUE
    requests = [
        InferenceRequest(
            inputs=rng.random((SAMPLES_PER_REQUEST, 48)),
            sample_offset=i * SAMPLES_PER_REQUEST,
        )
        for i in range(total)
    ]
    return snn, config, requests


def _session(snn, config) -> ChipSession:
    return ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=13)


def test_bench_load_shedding_open_loop(shed_workload):
    """4x-oversubscribed flood: bounded queue, structured sheds, exact survivors."""
    snn, config, requests = shed_workload
    serial = _session(snn, config)
    expected = [serial.infer(request) for request in requests]
    slow = _SlowTarget(_session(snn, config), DISPATCH_DELAY_S)
    with ChipServer(
        slow, port=0, workload="flood", max_queue=MAX_QUEUE
    ).start() as server:
        with PipelinedSession.connect(server.address, connections=1) as client:
            # Open loop: every request goes out before any reply is read.
            submitted = [
                (index, time.perf_counter(), client.submit(request))
                for index, request in enumerate(requests)
            ]
            waits, sheds = [], 0
            for index, submitted_at, future in submitted:
                try:
                    response = future.result(timeout=60)
                except RemoteServerError as exc:
                    assert exc.code == ERROR_OVERLOADED, (
                        f"shed reply without the structured code: {exc}"
                    )
                    sheds += 1
                else:
                    waits.append(time.perf_counter() - submitted_at)
                    np.testing.assert_array_equal(
                        response.predictions, expected[index].predictions
                    )
                    np.testing.assert_array_equal(
                        response.spike_counts, expected[index].spike_counts
                    )
            info = client.info(refresh=True)
    total = len(requests)
    admitted = len(waits)
    assert admitted + sheds == total
    assert info["stats"]["shed"] == sheds, "server shed count disagrees with client"
    assert info["stats"]["requests"] == admitted
    assert info["queue_depth"] == 0, "queue not drained after the flood"
    shed_rate = sheds / total
    p50, p95 = (np.percentile(waits, [50, 95]) if waits else (0.0, 0.0))
    print(
        f"\nload shedding ({total} requests open-loop, max_queue={MAX_QUEUE}, "
        f"{DISPATCH_DELAY_S * 1e3:.0f}ms/dispatch): {admitted} admitted, "
        f"{sheds} shed (rate {shed_rate:.0%}), queue-wait p50 {p50 * 1e3:.1f}ms, "
        f"p95 {p95 * 1e3:.1f}ms"
    )

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("load-shedding thresholds need >= 2 cores (open loop vs server)")
    assert sheds > 0, "4x oversubscription never tripped the queue bound"
    assert p95 < P95_WAIT_CEILING_S, (
        f"admitted p95 wait {p95:.3f}s exceeds the bounded-queue ceiling "
        f"{P95_WAIT_CEILING_S:.3f}s — the queue bound is not limiting latency"
    )
