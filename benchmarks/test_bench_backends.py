"""Wall-clock comparison of the structural and vectorized chip backends.

The vectorized backend exists for throughput: the acceptance bar is a >= 5x
speedup over the per-sample structural execution on a batch of 64 MLP
samples, while staying result-identical (the parity suite asserts the
identity; here we re-check the cheap invariants on the benchmarked runs).
Observed speedups are far above the bar — the structural path walks Python
packet objects per sample, the fast path does a handful of matmuls per
timestep for the whole batch.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig, ResparcChip
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn

BATCH = 64
TIMESTEPS = 8
SPEEDUP_FLOOR = 5.0

#: Pool benchmark: batch the issue floor (>= 64) is asserted at.
POOL_BATCH = 256
POOL_JOBS = 4


@pytest.fixture(scope="module")
def bench_workload():
    """A mid-size MLP, its programmed chip and a 64-sample input batch."""
    rng = np.random.default_rng(17)
    network = Network(
        (196,),
        [
            Dense(196, 64, use_bias=False, rng=rng, name="fc1"),
            Dense(64, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="bench-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 196)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    chip = ResparcChip.from_spiking_network(snn, config=config, rng=np.random.default_rng(0))
    inputs = rng.random((BATCH, 196))
    return snn, config, chip, inputs


def _one_shot_run(bench_workload, backend: str):
    """A fresh session (and plan cache) on the prebuilt chip, then one batch.

    Every timed call builds its session, so the timings include the
    session's set-up as a one-shot caller pays it.
    """
    snn, config, chip, inputs = bench_workload
    session = ChipSession(
        snn,
        chip=chip,
        config=config,
        timesteps=TIMESTEPS,
        encoder="deterministic",
        backend=backend,
    )
    return session.infer(InferenceRequest(inputs=inputs))


def test_bench_structural_backend(benchmark, bench_workload):
    """Reference path: 64 samples, one at a time through the component tree."""
    result = benchmark.pedantic(
        lambda: _one_shot_run(bench_workload, "structural"), iterations=1, rounds=1
    )
    assert result.predictions.shape == (BATCH,)


def test_bench_vectorized_backend(benchmark, bench_workload):
    """Fast path: the same 64 samples as one compiled batch."""
    result = benchmark.pedantic(
        lambda: _one_shot_run(bench_workload, "vectorized"), iterations=1, rounds=3
    )
    assert result.predictions.shape == (BATCH,)


def test_vectorized_speedup_floor(bench_workload):
    """The vectorized backend must be >= 5x faster on a 64-sample batch."""
    t0 = time.perf_counter()
    structural_result = _one_shot_run(bench_workload, "structural")
    structural_s = time.perf_counter() - t0

    vectorized_s = float("inf")
    for _ in range(3):  # best of three to shake out first-call overheads
        t0 = time.perf_counter()
        vectorized_result = _one_shot_run(bench_workload, "vectorized")
        vectorized_s = min(vectorized_s, time.perf_counter() - t0)

    speedup = structural_s / vectorized_s
    print(
        f"\nbackend wall-clock: structural {structural_s:.3f}s, "
        f"vectorized {vectorized_s:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized backend only {speedup:.1f}x faster "
        f"({structural_s:.3f}s vs {vectorized_s:.3f}s)"
    )
    # The speed must not change the answer.
    np.testing.assert_array_equal(
        structural_result.predictions, vectorized_result.predictions
    )
    np.testing.assert_array_equal(
        structural_result.spike_counts, vectorized_result.spike_counts
    )


# -- pool throughput ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_workload():
    """A wider MLP and a large batch, sized so per-shard work amortises threads."""
    rng = np.random.default_rng(23)
    network = Network(
        (256,),
        [
            Dense(256, 128, use_bias=False, rng=rng, name="fc1"),
            Dense(128, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="pool-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 256)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    inputs = rng.random((POOL_BATCH, 256))
    return snn, config, inputs


def _pool_time(pool: ChipPool, request: InferenceRequest, rounds: int = 3):
    """Best-of-N wall clock of one pool inference, plus the last response."""
    best = float("inf")
    response = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        response = pool.infer(request)
        best = min(best, time.perf_counter() - t0)
    return best, response


def test_bench_pool_sharded_inference(benchmark, pool_workload):
    """Sharded pool inference on the vectorized backend (timing reference)."""
    snn, config, inputs = pool_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(
        snn, jobs=POOL_JOBS, config=config, timesteps=TIMESTEPS, seed=0
    ) as pool:
        response = benchmark.pedantic(
            lambda: pool.infer(request), iterations=1, rounds=3
        )
    assert response.predictions.shape == (POOL_BATCH,)
    assert response.jobs == POOL_JOBS


def test_pool_throughput_beats_single_session(pool_workload):
    """``jobs=4`` must beat ``jobs=1`` on a batch >= 64 (vectorized backend).

    The sharded answer must equal the single session's on any machine; the
    speedup is asserted only where the process may run ``POOL_JOBS`` cores.
    """
    snn, config, inputs = pool_workload
    request = InferenceRequest(inputs=inputs)
    with ChipPool(snn, jobs=1, config=config, timesteps=TIMESTEPS, seed=0) as single:
        single_s, single_response = _pool_time(single, request)
    with ChipPool(
        snn, jobs=POOL_JOBS, config=config, timesteps=TIMESTEPS, seed=0
    ) as pool:
        pool_s, pool_response = _pool_time(pool, request)

    speedup = single_s / pool_s
    print(
        f"\npool wall-clock (batch {POOL_BATCH}): jobs=1 {single_s:.3f}s, "
        f"jobs={POOL_JOBS} {pool_s:.3f}s, speedup {speedup:.2f}x"
    )
    # Sharding must not change the answer.
    np.testing.assert_array_equal(
        single_response.predictions, pool_response.predictions
    )
    np.testing.assert_array_equal(
        single_response.spike_counts, pool_response.spike_counts
    )
    cores = len(os.sched_getaffinity(0))
    if cores < POOL_JOBS:
        print(f"speedup not asserted: {cores} usable cores < jobs={POOL_JOBS}")
        return
    assert speedup > 1.0, (
        f"jobs={POOL_JOBS} pool slower than a single session "
        f"({pool_s:.3f}s vs {single_s:.3f}s)"
    )


def test_pool_result_matches_session_on_bench_workload(pool_workload):
    """Cheap invariant re-check on the benchmarked shape (cores-independent)."""
    snn, config, inputs = pool_workload
    request = InferenceRequest(inputs=inputs[:96])
    session = ChipSession(snn, config=config, timesteps=TIMESTEPS, seed=0)
    single = session.infer(request)
    with ChipPool(
        snn, jobs=POOL_JOBS, config=config, timesteps=TIMESTEPS, seed=0
    ) as pool:
        sharded = pool.infer(request)
    np.testing.assert_array_equal(single.predictions, sharded.predictions)
    np.testing.assert_array_equal(single.spike_counts, sharded.spike_counts)
    assert sharded.energy.total_j == pytest.approx(single.energy.total_j, rel=1e-9)
