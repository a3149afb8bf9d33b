"""Structural walkthrough: build a RESPARC chip and execute spikes through it.

The other examples use the analytical architecture model.  This one
instantiates the actual hierarchy — memristive crossbars inside macro
Processing Engines inside NeuroCells around a shared IO bus — programs a
small trained MLP into the crossbars, pushes spike packets through the
switches, and reports what each level of the hierarchy did (crossbar
evaluations, buffer traffic, suppressed zero packets, bus words), alongside
the classification results.

Run with:  python examples/structural_chip_walkthrough.py
"""

from __future__ import annotations

import numpy as np

from repro.core import ArchitectureConfig, ResparcChip
from repro.datasets import make_dataset
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, Trainer, convert_to_snn
from repro.utils.units import format_energy


def main() -> None:
    rng = np.random.default_rng(0)

    # A deliberately small MLP so every tile and mPE is easy to inspect.
    dataset = make_dataset("mnist", train_samples=192, test_samples=24, seed=1)
    train_x = dataset.train_images.reshape(-1, 784)[:, ::4]  # 196 inputs
    test_x = dataset.test_images.reshape(-1, 784)[:, ::4]
    network = Network(
        (196,),
        [
            Dense(196, 48, use_bias=False, rng=rng, name="hidden"),
            Dense(48, 10, activation=None, use_bias=False, rng=rng, name="output"),
        ],
        name="walkthrough-mlp",
    )
    Trainer(learning_rate=0.005, batch_size=32, rng=rng).fit(
        network, train_x, dataset.train_labels, epochs=6
    )
    snn = convert_to_snn(network, train_x[:48])

    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    chip = ResparcChip.from_spiking_network(snn, config=config, rng=np.random.default_rng(0))

    print("Chip organisation")
    print(f"  NeuroCells instantiated : {chip.required_neurocells()}")
    print(f"  mPEs holding tiles      : {chip.total_mpes_used}")
    print(f"  MCAs programmed         : {chip.mca_count}")
    for tile in chip.tiles:
        a = tile.assignment
        print(
            f"    layer {a.layer_index}  rows {a.row_start:>3}-{a.row_stop:<3} "
            f"cols {a.column_start:>2}-{a.column_stop:<2} -> nc{tile.neurocell_index}."
            f"mpe{tile.mpe_index}.mca{tile.mca_index}"
        )

    session = ChipSession(
        snn, chip=chip, timesteps=24, encoder="deterministic", backend="structural"
    )
    result = session.infer(
        InferenceRequest(inputs=test_x[:12], labels=dataset.test_labels[:12])
    )
    print("\nExecution (12 samples, 24 timesteps each)")
    print(f"  accuracy                : {result.accuracy:.2%}")
    print(f"  crossbar evaluations    : {int(result.counters.crossbar_evaluations)}")
    print(f"  neuron integrations     : {int(result.counters.neuron_integrations)}")
    print(f"  iBUFF/oBUFF accesses    : {int(result.counters.ibuff_accesses + result.counters.obuff_accesses)}")
    print(f"  switch hops             : {int(result.counters.switch_hops)}")
    print(f"  zero packets suppressed : {int(result.counters.suppressed_packets)}")
    print(f"  IO bus words            : {int(result.counters.io_bus_words)}")
    print(f"  energy (all samples)    : {format_energy(result.energy.total_j)}")
    print("\nEnergy breakdown")
    print(result.energy.summary())


if __name__ == "__main__":
    main()
