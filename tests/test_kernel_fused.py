"""The fused kernel against the per-tile reference loop.

:meth:`VectorizedChipEngine.run_batch` runs layer-major over chunks of
timesteps: a hidden layer is one float32 GEMM of 0/1 spikes with its grid
of signed conductance levels, cut to the layer's own rows and columns, the
output layer one float64 GEMM per crossbar row block accumulated in
placement order; :meth:`VectorizedChipEngine.run_batch_reference` keeps the
``timesteps × layers × tiles`` loop over float64 conductances alive as the
parity oracle.  The contract: predictions, spike counts and every integer
event counter match exactly, and the crossbar energy within 1e-9 relative
(the kernel sums it over (row, row block) rather than (row, tile)).
Hidden-layer drives may differ in the last bits — the kernel scales an
exact integer sum of levels once where the reference sums float64
conductances tile by tile — which the exact checks would expose if it ever
moved a spike.  The output layer keeps the structural summation order
because its membrane breaks prediction ties; the IF replay and the chunk
counts are exact.  The hypothesis suite drives the contract across ragged
tile splits, single-tile layers, batch 1, batches above one chunk's rows,
several chunks with a short last one, packet and word widths that split
rows into several chunks, both event-driven settings and 1-, 4- and 8-bit
devices, and holds :class:`ChunkCountScratch` to the per-sample chunk count
at any width; the deterministic tests pin the plan, arena and plan-cache
mechanics, the engine's one-run-at-a-time lock, the grid layout and the
level grid the compiler accepts, and the binary trains the kernel accepts.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ArchitectureConfig
from repro.core.resparc import ResparcChip
from repro.crossbar import DeviceParameters
from repro.fastpath import (
    ChunkCountScratch,
    KernelPlan,
    PlanCache,
    VectorizedChipEngine,
    compile_chip,
)
from repro.fastpath.engine import _nonzero_chunk_counts
from repro.fastpath.plan import CHUNK_ROWS
from repro.snn import Dense, Network, convert_to_snn


def _chip(
    dims,
    *,
    crossbar,
    event_driven,
    seed=0,
    mcas_per_mpe=2,
    packet_bits=32,
    word_bits=64,
    weight_bits=4,
):
    """A programmed chip for an MLP with the given layer widths."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = i == len(dims) - 2
        layers.append(
            Dense(
                n_in,
                n_out,
                activation=None if last else "relu",
                use_bias=False,
                rng=rng,
                name=f"fc{i}",
            )
        )
    network = Network((dims[0],), layers, name=f"fused-{'x'.join(map(str, dims))}")
    snn = convert_to_snn(network, rng.random((8, dims[0])))
    config = ArchitectureConfig(
        crossbar_rows=crossbar,
        crossbar_columns=crossbar,
        event_driven=event_driven,
        mcas_per_mpe=mcas_per_mpe,
        packet_bits=packet_bits,
        word_bits=word_bits,
    ).with_weight_bits(weight_bits)
    return ResparcChip.from_spiking_network(snn, config=config, rng=np.random.default_rng(0))


def _engine(dims, **options):
    """A compiled engine for an MLP with the given layer widths."""
    return VectorizedChipEngine.from_chip(_chip(dims, **options))


def _assert_bit_identical(reference, fused):
    np.testing.assert_array_equal(reference.predictions, fused.predictions)
    np.testing.assert_array_equal(reference.spike_counts, fused.spike_counts)
    ref_counts = reference.counters.as_dict()
    fused_counts = fused.counters.as_dict()
    for name, ref_value in ref_counts.items():
        if name == "crossbar_device_energy_j":
            assert fused_counts[name] == pytest.approx(ref_value, rel=1e-9)
        else:
            assert fused_counts[name] == ref_value, (
                f"counter {name}: reference={ref_value} fused={fused_counts[name]}"
            )


class TestFusedKernelProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        dims=st.lists(st.integers(min_value=3, max_value=40), min_size=2, max_size=4),
        crossbar=st.sampled_from([8, 16]),
        event_driven=st.booleans(),
        # Batch 1; chunks of about 7 timesteps, so T above 7 runs several
        # chunks, the last one short unless 7 divides T; and one row above a
        # chunk's rows (chunks of one timestep).
        batch=st.sampled_from([1, CHUNK_ROWS // 7, CHUNK_ROWS + 1]),
        timesteps=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        packet_bits=st.sampled_from([4, 13, 32]),
        word_bits=st.sampled_from([8, 64]),
        # The ends and the default of the paper's Fig. 14 precision sweep.
        weight_bits=st.sampled_from([1, 4, 8]),
    )
    def test_fused_matches_reference(
        self,
        dims,
        crossbar,
        event_driven,
        batch,
        timesteps,
        seed,
        packet_bits,
        word_bits,
        weight_bits,
    ):
        """Randomized geometries: ragged splits, tiny layers, batch 1,
        packets and words that split a row into several chunks, and 1-, 4-
        and 8-bit devices."""
        engine = _engine(
            tuple(dims),
            crossbar=crossbar,
            event_driven=event_driven,
            seed=seed,
            packet_bits=packet_bits,
            word_bits=word_bits,
            weight_bits=weight_bits,
        )
        rng = np.random.default_rng(seed + 1)
        train = (rng.random((timesteps, batch, dims[0])) > 0.5).astype(float)
        _assert_bit_identical(
            engine.run_batch_reference(train), engine.run_batch(train)
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        event_driven=st.booleans(),
    )
    def test_fractional_train_runs_on_the_reference_only(self, seed, event_driven):
        """A non-binary train (rate-coded intensities) is refused by the
        fused kernel, whose hidden layers sum levels over 0/1 spikes, and
        still runs through the reference loop, as through the structural
        chip."""
        engine = _engine((20, 9, 5), crossbar=8, event_driven=event_driven, seed=seed)
        rng = np.random.default_rng(seed)
        train = rng.random((3, 4, 20))
        train[train < 0.4] = 0.0
        with pytest.raises(ValueError, match="structural backend"):
            engine.run_batch(train)
        outcome = engine.run_batch_reference(train)
        assert outcome.spike_counts.shape == (4, 5)
        assert outcome.predictions.shape == (4,)


class TestChunkCountScratch:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=200),
        chunk_bits=st.integers(min_value=1, max_value=80),
        capacity=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_count_total_matches_reference(self, n, chunk_bits, capacity, data):
        """One scratch, reused across calls with different row counts and
        densities of bool spikes, counts what the per-sample loop counts."""
        scratch = ChunkCountScratch(capacity, n, chunk_bits)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="calls")):
            rows = data.draw(st.integers(min_value=1, max_value=capacity), label="rows")
            density = data.draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]), label="density")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
            spikes = rng.random((rows, n)) < density
            expected = int(_nonzero_chunk_counts(spikes, chunk_bits).sum())
            assert scratch.count_total(spikes) == expected


class TestFusedKernelDeterministic:
    def test_single_tile_layer(self):
        """A network that fits one crossbar per layer (n_tiles == 1)."""
        engine = _engine((6, 4), crossbar=8, event_driven=True)
        train = np.ones((2, 1, 6))
        _assert_bit_identical(
            engine.run_batch_reference(train), engine.run_batch(train)
        )

    def test_short_last_chunk_and_plan_reuse(self):
        """A batch of a third of a chunk's rows runs chunks of 3 timesteps,
        so T=7 ends on a chunk of 1; a plan reused for a second train must
        match a fresh plan."""
        engine = _engine((40, 24, 6), crossbar=8, event_driven=True)
        batch = CHUNK_ROWS // 3
        plan = KernelPlan(engine.program, batch, 7)
        assert plan.chunk == 3
        rng = np.random.default_rng(5)
        train_a = (rng.random((7, batch, 40)) > 0.6).astype(float)
        train_b = (rng.random((7, batch, 40)) > 0.3).astype(float)
        _assert_bit_identical(
            engine.run_batch_reference(train_a), engine.run_batch(train_a, plan=plan)
        )
        reused = engine.run_batch(train_b, plan=plan)
        fresh = engine.run_batch(train_b)
        _assert_bit_identical(engine.run_batch_reference(train_b), reused)
        np.testing.assert_array_equal(reused.predictions, fresh.predictions)
        np.testing.assert_array_equal(reused.spike_counts, fresh.spike_counts)
        assert reused.counters.as_dict() == fresh.counters.as_dict()

    @pytest.mark.parametrize("event_driven", [True, False])
    def test_bool_and_float_trains_run_alike(self, event_driven):
        """A ``bool`` train runs as it is, and a float64 0/1 train is
        converted to one at entry: the two give the same predictions, spike
        counts, counters and final membranes, and both match the reference.
        On 12-row crossbars the row blocks start at 0, 12, 24 and 36, not
        at multiples of 8 as on the property suite's 8- and 16-row ones."""
        engine = _engine((40, 27, 14, 6), crossbar=12, event_driven=event_driven)
        rng = np.random.default_rng(12)
        batch, timesteps = CHUNK_ROWS // 5, 11  # chunks of 5, 5 and 1 timesteps
        bits = rng.random((timesteps, batch, 40)) < 0.4
        outcomes, membranes = [], []
        for train in (bits, bits.astype(float)):
            plan = KernelPlan(engine.program, batch, timesteps)
            outcomes.append(engine.run_batch(train, plan=plan))
            membranes.append([state.membrane.copy() for state in plan.layers])
        reference = engine.run_batch_reference(bits)
        for outcome in outcomes:
            _assert_bit_identical(reference, outcome)
        np.testing.assert_array_equal(outcomes[0].predictions, outcomes[1].predictions)
        np.testing.assert_array_equal(outcomes[0].spike_counts, outcomes[1].spike_counts)
        assert outcomes[0].counters.as_dict() == outcomes[1].counters.as_dict()
        for from_bits, from_floats in zip(*membranes, strict=True):
            np.testing.assert_array_equal(from_bits, from_floats)

    def test_tiles_are_views_of_the_layer_grid(self):
        """The program holds each grid once, read-only: signed levels as
        float32 in the hidden layers, conductances as float64 in the output
        layer.  Either way a tile's float64 conductance is its MCA's
        programmed ``g_positive - g_negative``, exactly."""
        chip = _chip((20, 12, 9, 5), crossbar=8, event_driven=True)
        program = compile_chip(chip)
        dtypes = [layer.fused.grid.dtype for layer in program.layers]
        assert dtypes == [np.float32, np.float32, np.float64]
        for layer in program.layers:
            fused = layer.fused
            assert not fused.grid.flags.writeable
            assert fused.n_tiles == len(layer.tiles)
            placements = chip.tiles_for_layer(layer.layer_index)
            for tile, p in zip(layer.tiles, placements, strict=True):
                assert np.shares_memory(tile.block, fused.grid)
                assert not tile.block.flags.writeable
                mpe = chip.neurocells[p.neurocell_index].mpes[p.mpe_index]
                programmed = mpe.mcas[p.mca_index].programmed
                conductance = tile.conductance_diff
                assert conductance.dtype == np.float64
                np.testing.assert_array_equal(
                    conductance, programmed.g_positive - programmed.g_negative
                )

    @pytest.mark.parametrize(
        "device",
        [
            DeviceParameters(write_variation_sigma=0.05),
            DeviceParameters(stuck_at_on_probability=0.2),
        ],
        ids=["write-variation", "stuck-at-on"],
    )
    def test_off_level_grid_chip_rejected(self, device):
        """Programming variation and stuck devices leave conductances off
        the device's level grid, where integer level sums no longer model
        the chip: such a chip compiles for the structural backend only."""
        config = ArchitectureConfig(crossbar_rows=8, crossbar_columns=8, device=device)
        rng = np.random.default_rng(15)
        network = Network(
            (20,),
            [
                Dense(20, 12, use_bias=False, rng=rng, name="fc0"),
                Dense(12, 5, activation=None, use_bias=False, rng=rng, name="out"),
            ],
            name="off-grid-mlp",
        )
        snn = convert_to_snn(network, rng.random((4, 20)))
        chip = ResparcChip.from_spiking_network(snn, config=config, rng=rng)
        with pytest.raises(ValueError, match="level grid.*structural backend"):
            compile_chip(chip)

    def test_float32_level_sums_stay_exact(self):
        """A hidden column whose |levels| sum to 2**24 or more could round in
        float32, so it does not compile: 17 full-scale synapses on a
        2**20-level device sum to 17 · (2**20 - 1)."""
        device = DeviceParameters(levels=2**20)
        config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32, device=device)
        rng = np.random.default_rng(16)
        hidden = Dense(17, 3, use_bias=False, rng=rng, name="fc0")
        hidden.weights[:] = 1.0
        network = Network(
            (17,),
            [hidden, Dense(3, 2, activation=None, use_bias=False, rng=rng, name="out")],
            name="wide-level-mlp",
        )
        snn = convert_to_snn(network, rng.random((4, 17)))
        chip = ResparcChip.from_spiking_network(snn, config=config)
        with pytest.raises(ValueError, match=r"layer 0: .*2\*\*24.*structural backend"):
            compile_chip(chip)

    def test_off_grid_tile_layout_rejected(self):
        """Only the builder's row-major crossbar grid compiles."""
        config = ArchitectureConfig(crossbar_rows=8, crossbar_columns=8)
        rng = np.random.default_rng(9)
        network = Network(
            (20,),
            [Dense(20, 12, activation=None, use_bias=False, rng=rng, name="fc")],
            name="grid-mlp",
        )
        snn = convert_to_snn(network, rng.random((4, 20)))
        chip = ResparcChip.from_spiking_network(
            snn, config=config, rng=np.random.default_rng(0)
        )
        chip.tiles.reverse()
        with pytest.raises(ValueError, match="grid block"):
            compile_chip(chip)

    def test_one_scale_per_layer(self):
        """A hidden layer's single GEMM is scaled once, so a row block
        programmed with its own scale does not compile."""
        config = ArchitectureConfig(crossbar_rows=8, crossbar_columns=8)
        rng = np.random.default_rng(10)
        network = Network(
            (20,),
            [
                Dense(20, 12, use_bias=False, rng=rng, name="fc0"),
                Dense(12, 5, activation=None, use_bias=False, rng=rng, name="out"),
            ],
            name="scale-mlp",
        )
        snn = convert_to_snn(network, rng.random((4, 20)))
        chip = ResparcChip.from_spiking_network(
            snn, config=config, rng=np.random.default_rng(0)
        )
        weights = snn.network.layers[0].weights
        for tile in chip.tiles_for_layer(0):
            a = tile.assignment
            if a.row_start == 8:  # every tile of row block 1
                mpe = chip.neurocells[tile.neurocell_index].mpes[tile.mpe_index]
                mca = mpe.mcas[tile.mca_index]
                mca.program(
                    weights[a.row_start : a.row_stop, a.column_start : a.column_stop],
                    scale=2.0 * mca.programmed.scale,
                )
        with pytest.raises(ValueError, match="layer 0"):
            compile_chip(chip)

    def test_plan_reuse_resets_state(self):
        """The same plan must give identical outcomes run after run."""
        engine = _engine((24, 12, 6), crossbar=8, event_driven=True)
        rng = np.random.default_rng(3)
        train = (rng.random((4, 5, 24)) > 0.5).astype(float)
        plan = KernelPlan(engine.program, 5, 4)
        first = engine.run_batch(train, plan=plan)
        second = engine.run_batch(train, plan=plan)
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.spike_counts, second.spike_counts)
        assert first.counters.as_dict() == second.counters.as_dict()

    def test_outcome_does_not_alias_arena(self):
        """Spike counts returned by one run survive the next run's reuse."""
        engine = _engine((24, 12, 6), crossbar=8, event_driven=True)
        rng = np.random.default_rng(4)
        plan = KernelPlan(engine.program, 5, 4)
        train_a = (rng.random((4, 5, 24)) > 0.7).astype(float)
        train_b = (rng.random((4, 5, 24)) > 0.2).astype(float)
        outcome_a = engine.run_batch(train_a, plan=plan)
        saved = outcome_a.spike_counts.copy()
        engine.run_batch(train_b, plan=plan)
        np.testing.assert_array_equal(outcome_a.spike_counts, saved)

    def test_arena_reuse_across_shapes(self):
        """One engine runs plans of alternating shapes on its one arena —
        grown by a batch above a chunk's rows, then reused by smaller
        shapes — and every outcome equals a fresh engine's exactly: no
        padding, spikes or membranes leak from one shape into the next."""
        for event_driven in (True, False):
            # Ragged widths, so the layers that share an input buffer pad it
            # differently.
            engine = _engine((37, 45, 21, 6), crossbar=8, event_driven=event_driven)
            rng = np.random.default_rng(6)
            shapes = [(5, 4), (CHUNK_ROWS + 3, 3), (2, 9), (5, 4), (40, 7), (CHUNK_ROWS + 3, 3)]
            plans = {}
            for batch, timesteps in shapes:
                train = (rng.random((timesteps, batch, 37)) > 0.5).astype(float)
                plan = plans.setdefault(
                    (batch, timesteps), KernelPlan(engine.program, batch, timesteps)
                )
                shared = engine.run_batch(train, plan=plan)
                fresh = VectorizedChipEngine(engine.program).run_batch(train)
                np.testing.assert_array_equal(shared.predictions, fresh.predictions)
                np.testing.assert_array_equal(shared.spike_counts, fresh.spike_counts)
                assert shared.counters.as_dict() == fresh.counters.as_dict()
                assert engine.arena.rows == max(p.rows for p in plans.values())
            assert engine.arena.rows == CHUNK_ROWS + 3

    def test_concurrent_runs_on_one_engine(self):
        """Threads sharing one engine, each with its own plan, get their
        serial results: the engine serializes runs on its one arena.  One
        thread's batch grows the arena while the others run."""
        engine = _engine((30, 20, 6), crossbar=8, event_driven=True)
        rng = np.random.default_rng(8)
        shapes = [(3, 5), (CHUNK_ROWS + 1, 2), (20, 9), (1, 12)]
        trains = [
            (rng.random((timesteps, batch, 30)) > 0.5).astype(float)
            for batch, timesteps in shapes
        ]
        serial = [VectorizedChipEngine(engine.program).run_batch(t) for t in trains]
        results: list[list] = [[] for _ in shapes]

        def worker(index):
            batch, timesteps = shapes[index]
            plan = KernelPlan(engine.program, batch, timesteps)
            for _ in range(6):
                results[index].append(engine.run_batch(trains[index], plan=plan))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(shapes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        for expected, outcomes in zip(serial, results):
            assert len(outcomes) == 6
            for outcome in outcomes:
                np.testing.assert_array_equal(outcome.predictions, expected.predictions)
                np.testing.assert_array_equal(outcome.spike_counts, expected.spike_counts)
                assert outcome.counters.as_dict() == expected.counters.as_dict()

    def test_plan_shape_mismatch_raises(self):
        engine = _engine((12, 6), crossbar=8, event_driven=True)
        plan = KernelPlan(engine.program, 2, 3)
        with pytest.raises(ValueError, match="batch=2"):
            engine.run_batch(np.ones((3, 4, 12)), plan=plan)
        with pytest.raises(ValueError, match="timesteps=3"):
            engine.run_batch(np.ones((5, 2, 12)), plan=plan)

    def test_plan_program_mismatch_raises(self):
        engine_a = _engine((12, 6), crossbar=8, event_driven=True, seed=0)
        engine_b = _engine((12, 6), crossbar=8, event_driven=True, seed=1)
        plan = KernelPlan(engine_a.program, 2, 3)
        with pytest.raises(ValueError, match="different program"):
            engine_b.run_batch(np.ones((3, 2, 12)), plan=plan)

    def test_invalid_plan_shapes_rejected(self):
        engine = _engine((12, 6), crossbar=8, event_driven=True)
        with pytest.raises(ValueError, match="batch"):
            KernelPlan(engine.program, 0, 3)
        with pytest.raises(ValueError, match="timesteps"):
            KernelPlan(engine.program, 2, 0)


class TestPlanCache:
    def test_hit_miss_and_reuse(self):
        engine = _engine((12, 6), crossbar=8, event_driven=True)
        cache = PlanCache()
        plan_a, hit_a = cache.get(engine.program, 4, 3)
        plan_b, hit_b = cache.get(engine.program, 4, 3)
        plan_c, hit_c = cache.get(engine.program, 8, 3)
        assert (hit_a, hit_b, hit_c) == (False, True, False)
        assert plan_a is plan_b and plan_a is not plan_c
        assert cache.stats() == {"hits": 1, "misses": 2, "size": 2}

    def test_lru_eviction(self):
        engine = _engine((12, 6), crossbar=8, event_driven=True)
        cache = PlanCache(capacity=2)
        cache.get(engine.program, 1, 1)
        cache.get(engine.program, 2, 1)
        cache.get(engine.program, 1, 1)  # refresh batch=1
        cache.get(engine.program, 3, 1)  # evicts batch=2
        assert len(cache) == 2
        _, hit = cache.get(engine.program, 1, 1)
        assert hit
        _, hit = cache.get(engine.program, 2, 1)
        assert not hit

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


class TestSessionPlanCache:
    def test_session_reuses_plans_and_reports_metadata(self):
        from repro.serve import ChipSession, InferenceRequest
        from repro.serve.metrics import MetricsRegistry

        rng = np.random.default_rng(11)
        network = Network(
            (16,),
            [Dense(16, 5, activation=None, use_bias=False, rng=rng, name="out")],
            name="cache-mlp",
        )
        snn = convert_to_snn(network, rng.random((6, 16)))
        registry = MetricsRegistry()
        session = ChipSession(
            snn,
            config=ArchitectureConfig(crossbar_rows=8, crossbar_columns=8),
            timesteps=4,
            seed=0,
            registry=registry,
        )
        request = InferenceRequest(inputs=rng.random((3, 16)))
        first = session.infer(request)
        second = session.infer(request)
        assert first.metadata["plan"]["cache"] == "miss"
        assert first.metadata["plan"]["build_s"] >= 0.0
        assert second.metadata["plan"]["cache"] == "hit"
        assert session.plan_cache.stats() == {"hits": 1, "misses": 1, "size": 1}
        families = registry.snapshot()["families"]
        assert (
            families["repro_session_plan_cache_hits_total"]["series"][0]["value"] == 1
        )
        assert (
            families["repro_session_plan_cache_misses_total"]["series"][0]["value"] == 1
        )
        # Caching must not change the served result.
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.spike_counts, second.spike_counts)

    def test_plans_hold_run_state_and_the_session_one_arena(self):
        """After a session serves several shapes, its cached plans own only
        batch-sized run state (spike counts and membranes), and its engine
        holds one arena, sized by the tallest chunk."""
        from repro.serve import ChipSession, InferenceRequest
        from repro.serve.metrics import MetricsRegistry

        rng = np.random.default_rng(14)
        network = Network(
            (20,),
            [
                Dense(20, 12, use_bias=False, rng=rng, name="fc0"),
                Dense(12, 5, activation=None, use_bias=False, rng=rng, name="out"),
            ],
            name="arena-mlp",
        )
        session = ChipSession(
            convert_to_snn(network, rng.random((6, 20))),
            config=ArchitectureConfig(crossbar_rows=8, crossbar_columns=8),
            timesteps=4,
            seed=0,
            registry=MetricsRegistry(),
        )
        shapes = [(3, 4), (40, 8), (CHUNK_ROWS + 44, 2), (7, 16)]
        for batch, timesteps in shapes:
            session.infer(InferenceRequest(inputs=rng.random((batch, 20)), timesteps=timesteps))
        program = session._engine.program
        plans = []
        for batch, timesteps in shapes:
            plan, hit = session.plan_cache.get(program, batch, timesteps)
            assert hit
            plans.append(plan)
            buffers = [
                value
                for owner in (plan, *plan.layers)
                for value in vars(owner).values()
                if isinstance(value, (np.ndarray, ChunkCountScratch))
            ]
            assert len(buffers) == 1 + len(program.layers)
            for buffer in buffers:
                assert isinstance(buffer, np.ndarray) and buffer.shape[0] == batch
        arena = session._engine.arena
        assert arena.rows == max(plan.rows for plan in plans) == CHUNK_ROWS + 44

    def test_plan_build_time_excludes_the_kernel_run(self, monkeypatch):
        """A miss reports the plan build, not the kernel run after it."""
        import repro.serve.session as session_module
        from repro.serve import ChipSession, InferenceRequest
        from repro.serve.metrics import MetricsRegistry

        now = [0.0]
        monkeypatch.setattr(
            session_module, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        run_batch = VectorizedChipEngine.run_batch

        def kernel_taking_100_s(engine, spike_train, plan=None):
            now[0] += 100.0
            return run_batch(engine, spike_train, plan=plan)

        monkeypatch.setattr(VectorizedChipEngine, "run_batch", kernel_taking_100_s)
        rng = np.random.default_rng(13)
        network = Network(
            (16,),
            [Dense(16, 5, activation=None, use_bias=False, rng=rng, name="out")],
            name="clock-mlp",
        )
        session = ChipSession(
            convert_to_snn(network, rng.random((6, 16))),
            config=ArchitectureConfig(crossbar_rows=8, crossbar_columns=8),
            timesteps=4,
            seed=0,
            registry=MetricsRegistry(),
        )
        response = session.infer(InferenceRequest(inputs=rng.random((3, 16))))
        assert response.metadata["plan"] == {"cache": "miss", "build_s": 0.0}
        assert now[0] == 100.0

    def test_structural_session_has_no_plan_cache(self):
        rng = np.random.default_rng(12)
        network = Network(
            (8,),
            [Dense(8, 4, activation=None, use_bias=False, rng=rng, name="out")],
            name="structural-mlp",
        )
        snn = convert_to_snn(network, rng.random((4, 8)))
        from repro.serve import ChipSession, InferenceRequest

        session = ChipSession(
            snn,
            config=ArchitectureConfig(crossbar_rows=8, crossbar_columns=8),
            timesteps=2,
            backend="structural",
            seed=0,
        )
        assert session.plan_cache is None
        response = session.infer(InferenceRequest(inputs=rng.random((2, 8))))
        assert "plan" not in response.metadata
