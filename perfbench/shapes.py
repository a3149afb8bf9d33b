"""The benchmark's workloads and the seeded inputs they send.

Every workload serves an MLP from :mod:`repro.workloads` whose weights are
fixed (model seed :data:`MODEL_SEED`, the serve CLI's default), so server
set-up is the same on every run; only the *inputs* come from the benchmark's
``--seed``.  Each workload owns a small pool of distinct requests, drawn
once from the seed and cycled through by the load generator, so that

* repeated answers to the same request can be compared with each other, and
* figures derived from the answers (energy, event counts) are computed over
  the same pool on every run with a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.datasets import make_dataset
from repro.serve.schema import InferenceRequest
from repro.workloads import get_benchmark

#: Seed of the served networks (weights, conversion, chip programming and
#: the servers' Poisson encoder); the serve CLI's default.
MODEL_SEED = 7

#: Seed of the fixed order in which a pool's request shapes are sent.
SHAPE_ORDER_SEED = 0

#: The mixed workload's request shapes: every batch crossed with every T.
MIXED_BATCHES = (1, 2, 4, 8, 16, 32, 64)
MIXED_TIMESTEPS = (8, 16, 32)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the serving layout it runs against."""

    name: str
    #: Served network: a registered MLP benchmark at a width scale, placed
    #: on RESPARC-``crossbar`` crossbars.
    model: str
    scale: float
    crossbar: int
    #: Server processes (2 means an ``InferenceGateway`` splits requests).
    servers: int
    #: ``ChipPool`` workers and executor per server, and the server's
    #: dynamic-batching bound.
    jobs: int
    executor: str
    max_batch: int
    #: ``"closed"``: ``callers`` callers each wait for their reply before
    #: sending again.  ``"open"``: Poisson arrivals at ``rate`` req/s.
    loop: str
    callers: int
    rate: float
    #: ``(batch, timesteps)`` of the pool's requests; ``pool_copies``
    #: repeats the list with fresh inputs.
    shapes: tuple[tuple[int, int], ...]
    pool_copies: int
    #: Pipelined connections per server.
    connections: int
    #: Percentile reported as ``latency_tail_ms`` (see BENCHMARK.json).
    tail_q: float
    #: Structural-backend budget for the row check, in sample-timesteps.
    oracle_steps: int
    warmup_s: float = 1.0

    @property
    def config(self) -> ArchitectureConfig:
        return ArchitectureConfig().with_crossbar_size(self.crossbar)

    @property
    def dataset(self) -> str:
        return get_benchmark(self.model).dataset

    @property
    def default_timesteps(self) -> int:
        return max(t for _, t in self.shapes)


WORKLOADS: dict[str, Workload] = {
    "offline": Workload(
        name="offline",
        model="mnist-mlp",
        scale=1.0,
        crossbar=64,
        servers=2,
        jobs=1,
        executor="inline",
        max_batch=8,
        loop="closed",
        callers=1,
        rate=0.0,
        shapes=((64, 32),),
        pool_copies=4,
        connections=1,
        tail_q=0.9,
        oracle_steps=32,
    ),
    "online": Workload(
        name="online",
        model="mnist-mlp",
        scale=0.15,
        crossbar=64,
        servers=1,
        jobs=1,
        executor="inline",
        max_batch=8,
        loop="open",
        callers=0,
        rate=150.0,
        shapes=((1, 8),),
        pool_copies=256,
        connections=1,
        tail_q=0.99,
        oracle_steps=256,
    ),
    "mixed": Workload(
        name="mixed",
        model="cifar10-mlp",
        scale=1.0,
        crossbar=128,
        servers=1,
        jobs=2,
        executor="thread",
        max_batch=8,
        loop="closed",
        callers=4,
        rate=0.0,
        shapes=tuple((b, t) for b in MIXED_BATCHES for t in MIXED_TIMESTEPS),
        pool_copies=1,
        connections=2,
        tail_q=0.9,
        oracle_steps=40,
    ),
}


def toy(workload: Workload) -> Workload:
    """A seconds-long miniature of ``workload`` for the self-test."""
    shapes = tuple((min(b, 8), min(t, 8)) for b, t in workload.shapes)
    return replace(
        workload,
        scale=min(workload.scale, 0.1),
        shapes=tuple(dict.fromkeys(shapes)),
        pool_copies=min(workload.pool_copies, 4),
        rate=min(workload.rate, 40.0),
        oracle_steps=16,
        warmup_s=0.2,
    )


@dataclass(frozen=True)
class PoolEntry:
    """One distinct request of a workload's pool."""

    index: int
    request: InferenceRequest

    @property
    def batch(self) -> int:
        return self.request.batch_size

    @property
    def timesteps(self) -> int:
        return int(self.request.timesteps)


def build_pool(workload: Workload, seed: int) -> list[PoolEntry]:
    """The workload's distinct requests, drawn from ``seed``.

    Inputs are synthetic test images of the model's dataset generated with
    the benchmark seed.  The shapes and their order are the same on every
    run, so only the inputs change with the seed.
    """
    shapes = list(workload.shapes) * workload.pool_copies
    # One fixed interleaving of the shapes for every seed: the order decides
    # which requests queue behind which, so a seeded order would add its own
    # run-to-run spread to the latency figures.
    order = np.random.default_rng(SHAPE_ORDER_SEED).permutation(len(shapes))
    shapes = [shapes[i] for i in order]
    total = sum(batch for batch, _ in shapes)
    images = make_dataset(
        workload.dataset, train_samples=1, test_samples=total, seed=seed
    ).test_images.reshape(total, -1)
    pool = []
    start = 0
    for index, (batch, timesteps) in enumerate(shapes):
        request = InferenceRequest(
            inputs=images[start : start + batch], timesteps=timesteps
        )
        pool.append(PoolEntry(index=index, request=request))
        start += batch
    return pool


def arrivals(workload: Workload, seed: int, seconds: float) -> np.ndarray:
    """Open-loop send offsets: a Poisson process conditioned on its count.

    ``round(rate * seconds)`` arrivals placed uniformly at random in the
    window and sorted, which is a Poisson process with its count fixed, so
    the offered load is the same on every run and only the spacing varies.
    """
    rng = np.random.default_rng([seed, 2])
    count = max(1, int(round(workload.rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))
