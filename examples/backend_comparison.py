"""Backend comparison: structural chip vs the vectorized fast path.

Builds one MLP, programs one chip, then classifies the same batch through
both execution backends.  Prints the wall-clock of each backend, verifies
that predictions and event counters are identical, and shows how closely
the energy totals agree — the guarantee that makes the fast path safe to
use for full-scale experiment sweeps.

Run with:  python examples/backend_comparison.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ArchitectureConfig, ResparcChip
from repro.datasets import make_dataset
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, Trainer, convert_to_snn
from repro.utils.units import format_energy


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
        name="backend-comparison-mlp",
    )
    Trainer(learning_rate=0.005, batch_size=32, rng=rng).fit(
        network, train_x, dataset.train_labels, epochs=4
    )
    snn = convert_to_snn(network, train_x[:48])

    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    batch = test_x[:64]
    labels = dataset.test_labels[:64]

    chip = ResparcChip.from_spiking_network(snn, config=config, rng=np.random.default_rng(0))
    request = InferenceRequest(inputs=batch, labels=labels)

    results = {}
    for backend in ("structural", "vectorized"):
        start = time.perf_counter()
        session = ChipSession(
            snn, chip=chip, timesteps=16, encoder="poisson", backend=backend, seed=7
        )
        result = session.infer(request)
        elapsed = time.perf_counter() - start
        results[backend] = (result, elapsed)
        print(f"{backend:>11}: {elapsed:6.3f}s for {len(batch)} samples, "
              f"accuracy {result.accuracy:.2%}, "
              f"energy {format_energy(result.energy.total_j)}")

    structural, structural_s = results["structural"]
    vectorized, vectorized_s = results["vectorized"]
    print(f"\nspeedup: {structural_s / vectorized_s:.1f}x")
    print("predictions identical :", bool(np.array_equal(structural.predictions, vectorized.predictions)))
    print("spike counts identical:", bool(np.array_equal(structural.spike_counts, vectorized.spike_counts)))
    identical_counters = sum(
        1
        for name, value in structural.counters.as_dict().items()
        if name != "crossbar_device_energy_j"
        and value == vectorized.counters.as_dict()[name]
    )
    print(f"event counters equal  : {identical_counters}/"
          f"{len(structural.counters.as_dict()) - 1}")
    rel = abs(structural.energy.total_j - vectorized.energy.total_j) / structural.energy.total_j
    print(f"energy relative diff  : {rel:.2e}")


if __name__ == "__main__":
    main()
