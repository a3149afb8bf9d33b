"""Wall-clock payoff of the fused kernel over the per-tile loop.

The fused path stores each layer as the chip's crossbar grid and runs
layer-major over chunks of timesteps — one float32 GEMM of 0/1 spikes with
the signed conductance levels per hidden layer on its unpadded operands,
one float64 GEMM per crossbar row block of the output layer — with its
scratch in the engine's arena and its run state in a reusable
:class:`~repro.fastpath.plan.KernelPlan`.  The acceptance bar is a >= 1.5x
speedup over the ``timesteps × layers × tiles`` loop over float64
conductances (kept alive as
:meth:`~repro.fastpath.engine.VectorizedChipEngine.run_batch_reference`)
on a batch of 64, on one BLAS thread in CI so that the floor does not
measure how a BLAS thread pool splits the hidden layer's larger GEMM.  A
batch of 64 runs chunks of 4 timesteps (256 rows), so the floor measures
the grid layout, the float32 level sums and the chunking together: the
kernel's GEMMs are 256 rows tall where the reference's are 64.  The
property suite in ``tests/test_kernel_fused.py`` holds the outputs to the
reference (predictions, spike counts and integer counters exact, energy
within 1e-9; hidden-layer drives may differ in the last bits); here we
re-check the exact ones on the benchmarked runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig, ResparcChip
from repro.fastpath import KernelPlan, VectorizedChipEngine
from repro.snn import Dense, Network, convert_to_snn

BATCH = 64
TIMESTEPS = 8
SPEEDUP_FLOOR = 1.5
ROUNDS = 7


@pytest.fixture(scope="module")
def kernel_workload():
    """A compiled mid-size MLP engine plus an encoded 64-sample train."""
    rng = np.random.default_rng(17)
    network = Network(
        (196,),
        [
            Dense(196, 64, use_bias=False, rng=rng, name="fc1"),
            Dense(64, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="kernel-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, 196)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    chip = ResparcChip.from_spiking_network(snn, config=config, rng=np.random.default_rng(0))
    engine = VectorizedChipEngine.from_chip(chip)
    train = (rng.random((TIMESTEPS, BATCH, 196)) > 0.5).astype(float)
    return engine, train


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_reference_kernel(benchmark, kernel_workload):
    """The pre-fusion per-tile loop (the baseline the floor is against)."""
    engine, train = kernel_workload
    outcome = benchmark.pedantic(
        lambda: engine.run_batch_reference(train), iterations=1, rounds=3
    )
    assert outcome.predictions.shape == (BATCH,)


def test_bench_fused_kernel(benchmark, kernel_workload):
    """The fused kernel with a warm plan (the steady serving state)."""
    engine, train = kernel_workload
    plan = KernelPlan(engine.program, BATCH, TIMESTEPS)
    outcome = benchmark.pedantic(
        lambda: engine.run_batch(train, plan=plan), iterations=1, rounds=3
    )
    assert outcome.predictions.shape == (BATCH,)


def test_fused_kernel_speedup_floor(kernel_workload):
    """Fused kernel must be >= 1.5x the per-tile loop at batch 64.

    The answers are re-checked on any machine; the timing floor is asserted
    only where the process may run on at least two cores.
    """
    engine, train = kernel_workload
    plan = KernelPlan(engine.program, BATCH, TIMESTEPS)
    # Warm both paths before timing.
    reference = engine.run_batch_reference(train)
    fused = engine.run_batch(train, plan=plan)

    reference_s = _best_of(lambda: engine.run_batch_reference(train))
    fused_s = _best_of(lambda: engine.run_batch(train, plan=plan))

    speedup = reference_s / fused_s
    print(
        f"\nkernel wall-clock (batch {BATCH}): reference {reference_s * 1e3:.3f}ms, "
        f"fused {fused_s * 1e3:.3f}ms, speedup {speedup:.2f}x"
    )
    # Speed must not change the answer.
    np.testing.assert_array_equal(reference.predictions, fused.predictions)
    np.testing.assert_array_equal(reference.spike_counts, fused.spike_counts)
    assert (
        reference.counters.as_dict()["io_bus_words"]
        == fused.counters.as_dict()["io_bus_words"]
    )

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("timing floor is unreliable on a single busy core")
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused kernel only {speedup:.2f}x faster "
        f"({reference_s * 1e3:.3f}ms vs {fused_s * 1e3:.3f}ms)"
    )
