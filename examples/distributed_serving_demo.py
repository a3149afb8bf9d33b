"""Distributed serving walkthrough: executors, chip server, gateway.

Builds one MLP and then serves it at every rung of the distribution ladder,
verifying at each rung that the answer never changes:

1. a single :class:`repro.serve.ChipSession` (the reference),
2. a :class:`repro.serve.ChipPool` on the ``process`` executor — one
   programmed chip per worker process, shard arrays shipped through shared
   memory,
3. a socket :class:`~repro.serve.distributed.ChipServer` on localhost with a
   :class:`~repro.serve.distributed.PipelinedSession` client — the same
   request and response as protocol-3 binary frames over TCP,
4. an :class:`~repro.serve.distributed.InferenceGateway` fanning one batch
   across the remote server *and* a local pool with capacity-weighted
   sharding.

Run with:  python examples/distributed_serving_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ArchitectureConfig
from repro.datasets import make_dataset
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
)
from repro.snn import Dense, Network, Trainer, convert_to_snn
from repro.utils.units import format_energy


def _identical(reference, response) -> bool:
    return bool(
        np.array_equal(reference.predictions, response.predictions)
        and np.array_equal(reference.spike_counts, response.spike_counts)
    )


def main() -> None:
    rng = np.random.default_rng(0)

    dataset = make_dataset("mnist", train_samples=192, test_samples=96, seed=1)
    train_x = dataset.train_images.reshape(-1, 784)[:, ::4]  # 196 inputs
    test_x = dataset.test_images.reshape(-1, 784)[:, ::4]
    network = Network(
        (196,),
        [
            Dense(196, 64, use_bias=False, rng=rng, name="hidden"),
            Dense(64, 10, activation=None, use_bias=False, rng=rng, name="output"),
        ],
        name="distributed-demo-mlp",
    )
    Trainer(learning_rate=0.005, batch_size=32, rng=rng).fit(
        network, train_x, dataset.train_labels, epochs=4
    )
    snn = convert_to_snn(network, train_x[:48])
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)

    batch = test_x[:64]
    labels = dataset.test_labels[:64]
    request = InferenceRequest(inputs=batch, labels=labels)

    # 1 -- the reference: one local session ----------------------------------------
    session = ChipSession(snn, config=config, timesteps=16, encoder="poisson", seed=7)
    reference = session.infer(request)
    print(
        f"session    : {reference.batch_size} samples, "
        f"accuracy {reference.accuracy:.2%}, "
        f"energy {format_energy(reference.energy.total_j)}"
    )

    # 2 -- process executor: one chip per worker process ---------------------------
    with ChipPool(
        snn, jobs=2, config=config, timesteps=16, encoder="poisson", seed=7,
        executor="process",
    ) as pool:
        start = time.perf_counter()
        processed = pool.infer(request)
        elapsed = time.perf_counter() - start
    print(
        f"process    : {processed.jobs} worker processes in {elapsed:.3f}s, "
        f"identical: {_identical(reference, processed)}"
    )

    # 3 -- chip server on localhost + remote client --------------------------------
    server_pool = ChipPool(
        snn, jobs=2, config=config, timesteps=16, encoder="poisson", seed=7
    )
    with ChipServer(server_pool, port=0, workload="demo-mlp").start() as server:
        with PipelinedSession.connect(server.endpoint) as remote:
            info = remote.info()
            served = remote.infer(request)
            print(
                f"server     : {server.endpoint} serving {info['workload']} "
                f"(backend {info['backend']}, capacity {info['capacity']}), "
                f"identical: {_identical(reference, served)}"
            )

            # 4 -- gateway: fan one batch across remote + local endpoints ----------
            local_pool = ChipPool(
                snn, jobs=2, config=config, timesteps=16, encoder="poisson", seed=7
            )
            with InferenceGateway(
                [
                    GatewayEndpoint(target=remote, name="remote-server"),
                    GatewayEndpoint(target=local_pool, name="local-pool"),
                ]
            ) as gateway:
                merged = gateway.infer(request)
            shards = ", ".join(
                f"{s['endpoint']}[{s['start']}:{s['stop']}]"
                for s in merged.metadata["shards"]
            )
            print(f"gateway    : {shards}")
            print(
                f"merged     : accuracy {merged.accuracy:.2%}, "
                f"energy {format_energy(merged.energy.total_j)}, "
                f"identical: {_identical(reference, merged)}"
            )
            local_pool.close()
    server_pool.close()


if __name__ == "__main__":
    main()
