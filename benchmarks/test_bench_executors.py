"""Wall-clock comparison of the thread and process shard executors.

The process executor exists for workloads the thread pool cannot scale —
the structural backend's per-sample Python loop holds the GIL, and remote
workers are processes by definition — but it pays real overhead per batch:
shard arrays cross the process boundary through a shared-memory segment
(with the scalar remainder as compact JSON over the pool's pipe), and each
worker owns (and compiled) its own chip.  This benchmark records both executors at
``jobs=4`` on a batch of 256 so the BENCH trends catch regressions, and
asserts the process executor stays within sane bounds of the thread
executor on multi-core machines (it must not collapse to pathological
serialisation costs) while remaining result-identical.

Numbers observed on a 4-core dev box (vectorized backend, batch 256,
timesteps 8), measured when shards still crossed as whole-request JSON:
thread ~0.09 s, process ~0.16 s — the process hop cost roughly 2x, which
multi-host sharding then wins back by adding machines.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipPool, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn

BATCH = 256
TIMESTEPS = 8
JOBS = 4

#: The process executor must stay within this factor of the thread executor
#: on a multi-core machine.  Generous on purpose: it guards against
#: pathological regressions (per-request chip rebuilds, quadratic JSON
#: costs), not against the inherent IPC overhead.
PROCESS_SANITY_FACTOR = 25.0


@pytest.fixture(scope="module")
def executor_workload():
    """A wider MLP and a large batch, sized so per-shard work dominates."""
    rng = np.random.default_rng(29)
    network = Network(
        (256,),
        [
            Dense(256, 128, use_bias=False, rng=rng, name="fc1"),
            Dense(128, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="executor-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 256)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    inputs = rng.random((BATCH, 256))
    return snn, config, inputs


def _best_time(pool: ChipPool, request: InferenceRequest, rounds: int = 3):
    best = float("inf")
    response = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        response = pool.infer(request)
        best = min(best, time.perf_counter() - t0)
    return best, response


def test_bench_thread_executor(benchmark, executor_workload):
    """Timing reference: jobs=4 thread-pool sharding on the vectorized backend."""
    snn, config, inputs = executor_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0, executor="thread"
    ) as pool:
        response = benchmark.pedantic(lambda: pool.infer(request), iterations=1, rounds=3)
    assert response.predictions.shape == (BATCH,)
    assert response.jobs == JOBS


def test_bench_process_executor(benchmark, executor_workload):
    """Timing reference: jobs=4 process workers, shards shipped through shared memory."""
    snn, config, inputs = executor_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0, executor="process"
    ) as pool:
        response = benchmark.pedantic(lambda: pool.infer(request), iterations=1, rounds=3)
    assert response.predictions.shape == (BATCH,)
    assert response.jobs == JOBS


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="executor throughput comparison needs >= 2 cores",
)
def test_process_executor_within_sane_bounds(executor_workload, persist_result):
    """jobs=4 process sharding must stay within bounds of thread sharding."""
    snn, config, inputs = executor_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0, executor="thread"
    ) as pool:
        thread_s, thread_response = _best_time(pool, request)
    with ChipPool(
        snn, jobs=JOBS, config=config, timesteps=TIMESTEPS, seed=0, executor="process"
    ) as pool:
        process_s, process_response = _best_time(pool, request)

    ratio = process_s / thread_s
    print(
        f"\nexecutor wall-clock (batch {BATCH}, jobs={JOBS}): "
        f"thread {thread_s:.3f}s, process {process_s:.3f}s, "
        f"process/thread {ratio:.2f}x"
    )
    persist_result(
        "executors",
        "thread_vs_process",
        {
            "batch": BATCH,
            "jobs": JOBS,
            "timesteps": TIMESTEPS,
            "thread_s": thread_s,
            "process_s": process_s,
            "process_over_thread": ratio,
        },
    )
    assert process_s < PROCESS_SANITY_FACTOR * thread_s, (
        f"process executor {ratio:.1f}x slower than thread executor "
        f"({process_s:.3f}s vs {thread_s:.3f}s) — beyond the sane-overhead bound"
    )
    # The executor must not change the answer.
    np.testing.assert_array_equal(
        thread_response.predictions, process_response.predictions
    )
    np.testing.assert_array_equal(
        thread_response.spike_counts, process_response.spike_counts
    )
    assert process_response.energy.total_j == pytest.approx(
        thread_response.energy.total_j, rel=1e-9
    )
