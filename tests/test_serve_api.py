"""The serving API: session inference, pool sharding parity, result schema.

Follows the ``tests/test_backend_parity.py`` contract style: a sharded
:class:`~repro.serve.ChipPool` run is only allowed to be *parallel* — never
different.  Predictions, spike counts and every integer event counter must
match a single :class:`~repro.serve.ChipSession` exactly; the accumulated
float energies agree to floating-point accumulation order (1e-9 relative).
The schema tests assert that a response survives a ``to_dict -> JSON ->
from_dict`` round trip losslessly.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ArchitectureConfig, EventCounters
from repro.energy.model import EnergyReport
from repro.serve import ChipPool, ChipSession, InferenceRequest, InferenceResponse
from repro.serve.metrics import MetricsRegistry
from repro.snn import Dense, EncoderState, Network, convert_to_snn
from repro.snn.encoding import DeterministicRateEncoder, PoissonEncoder
from repro.utils.rng import derive_rng

ENERGY_RTOL = 1e-9

#: Integer event counters that must match exactly across jobs counts.
EXACT_COUNTERS = [
    name
    for name in EventCounters().as_dict()
    if name != "crossbar_device_energy_j"
]


def _mlp(seed: int, dims: tuple[int, ...]):
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
    network = Network((dims[0],), layers, name=f"serve-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(5, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(42)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


def _assert_responses_identical(single, sharded):
    np.testing.assert_array_equal(single.predictions, sharded.predictions)
    np.testing.assert_array_equal(single.spike_counts, sharded.spike_counts)
    assert single.accuracy == sharded.accuracy
    s, p = single.counters.as_dict(), sharded.counters.as_dict()
    for name in EXACT_COUNTERS:
        assert s[name] == p[name], f"counter {name}: session={s[name]} pool={p[name]}"
    assert p["crossbar_device_energy_j"] == pytest.approx(
        s["crossbar_device_energy_j"], rel=ENERGY_RTOL
    )
    assert sharded.energy.total_j == pytest.approx(single.energy.total_j, rel=ENERGY_RTOL)
    for component, energy_j in single.energy.components.items():
        assert sharded.energy.components[component] == pytest.approx(
            energy_j, rel=ENERGY_RTOL, abs=1e-30
        ), f"energy component {component}"


class TestChipSession:
    def test_repeated_inference_is_deterministic(self, workload):
        snn, config, inputs, labels = workload
        session = ChipSession(
            snn, config=config, timesteps=6, encoder="poisson", seed=3
        )
        first = session.infer(InferenceRequest(inputs=inputs, labels=labels))
        second = session.infer(InferenceRequest(inputs=inputs, labels=labels))
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.spike_counts, second.spike_counts)
        assert first.counters.as_dict() == second.counters.as_dict()
        assert first.energy.components == second.energy.components

    def test_per_request_overrides(self, workload):
        snn, config, inputs, labels = workload
        session = ChipSession(snn, config=config, timesteps=6, seed=0)
        base = session.infer(InferenceRequest(inputs=inputs))
        assert base.accuracy is None
        assert base.timesteps == 6
        assert base.batch_size == len(inputs)
        longer = session.infer(InferenceRequest(inputs=inputs, timesteps=9, labels=labels))
        assert longer.timesteps == 9
        assert longer.accuracy is not None
        assert longer.spike_counts.sum() >= base.spike_counts.sum()
        single = session.infer(InferenceRequest(inputs=inputs[0]))
        assert single.predictions.shape == (1,)

    def test_session_rejects_mismatched_chip_config(self, workload):
        snn, config, _, _ = workload
        chip = ChipSession(snn, config=config, seed=0).chip
        with pytest.raises(ValueError, match="different ArchitectureConfig"):
            ChipSession(snn, chip=chip, config=ArchitectureConfig())

    def test_invalid_request_parameters_rejected(self, workload):
        snn, config, inputs, _ = workload
        with pytest.raises(ValueError, match="timesteps"):
            InferenceRequest(inputs=inputs, timesteps=0)
        with pytest.raises(ValueError, match="sample_offset"):
            InferenceRequest(inputs=inputs, sample_offset=-1)
        with pytest.raises(ValueError, match="backend"):
            ChipSession(snn, config=config, backend="quantum")
        with pytest.raises(ValueError, match="timesteps"):
            ChipSession(snn, config=config, timesteps=0)
        with pytest.raises(ValueError, match="encoder"):
            ChipSession(snn, config=config, encoder="other")


class TestChipPoolParity:
    @pytest.mark.parametrize("encoder", ["deterministic", "poisson"])
    def test_pool_matches_single_session_vectorized(self, workload, encoder):
        snn, config, inputs, labels = workload
        session = ChipSession(
            snn, config=config, timesteps=7, encoder=encoder, seed=11
        )
        single = session.infer(InferenceRequest(inputs=inputs, labels=labels))
        with ChipPool(
            snn, jobs=4, config=config, timesteps=7, encoder=encoder, seed=11
        ) as pool:
            sharded = pool.infer(InferenceRequest(inputs=inputs, labels=labels))
        assert sharded.jobs == 4
        _assert_responses_identical(single, sharded)

    def test_pool_matches_single_session_structural(self, workload):
        snn, config, inputs, labels = workload
        session = ChipSession(
            snn, config=config, timesteps=5, encoder="poisson", backend="structural", seed=2
        )
        single = session.infer(InferenceRequest(inputs=inputs[:6], labels=labels[:6]))
        with ChipPool(
            snn,
            jobs=3,
            config=config,
            timesteps=5,
            encoder="poisson",
            backend="structural",
            seed=2,
        ) as pool:
            sharded = pool.infer(InferenceRequest(inputs=inputs[:6], labels=labels[:6]))
        _assert_responses_identical(single, sharded)

    def test_jobs_counts_agree_with_each_other(self, workload):
        snn, config, inputs, labels = workload
        responses = []
        for jobs in (1, 2, 4):
            with ChipPool(
                snn, jobs=jobs, config=config, timesteps=6, encoder="poisson", seed=9
            ) as pool:
                responses.append(pool.infer(InferenceRequest(inputs=inputs, labels=labels)))
        _assert_responses_identical(responses[0], responses[1])
        _assert_responses_identical(responses[0], responses[2])

    def test_batch_smaller_than_jobs(self, workload):
        snn, config, inputs, labels = workload
        with ChipPool(snn, jobs=8, config=config, timesteps=5, seed=1) as pool:
            response = pool.infer(InferenceRequest(inputs=inputs[:3], labels=labels[:3]))
        assert response.batch_size == 3
        assert response.jobs <= 3
        assert response.predictions.shape == (3,)

    def test_jobs_4_batch_2_drops_empty_shards(self, workload):
        # Regression: with batch < jobs the empty shards must be dropped, so
        # no worker ever receives a degenerate zero-sample request, and the
        # result still matches a single session exactly.
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs[:2], labels=labels[:2])
        session = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=1)
        single = session.infer(request)
        with ChipPool(
            snn, jobs=4, config=config, timesteps=5, encoder="poisson", seed=1
        ) as pool:
            assert pool._shard_bounds(2) == [(0, 1), (1, 2)]
            assert all(stop > start for start, stop in pool._shard_bounds(2))
            response = pool.infer(request)
        assert response.jobs == 2
        _assert_responses_identical(single, response)

    def test_empty_batch_raises_clear_error(self, workload):
        snn, config, _, _ = workload
        with pytest.raises(ValueError, match="batch is empty"):
            InferenceRequest(inputs=np.zeros((0, 48)))
        with ChipPool(snn, jobs=4, config=config, timesteps=5, seed=1) as pool:
            # The pool never even sees a zero-sample request — the schema
            # rejects it at construction, which is the clear error we want.
            with pytest.raises(ValueError, match="batch is empty"):
                pool.infer(InferenceRequest(inputs=np.zeros((0, 48))))

    def test_concurrent_callers_are_serialised(self, workload):
        # Shard tasks are pinned to fixed worker sessions (whose structural
        # chips are mutated in place), so the pool serialises infer() calls;
        # concurrent callers must still each get the exact single-caller
        # answer.
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs[:6], labels=labels[:6])
        with ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson",
            backend="structural", seed=8,
        ) as pool:
            expected = pool.infer(request)
            with ThreadPoolExecutor(max_workers=4) as callers:
                responses = list(callers.map(pool.infer, [request] * 4))
        for response in responses:
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(response.spike_counts, expected.spike_counts)
            got, want = response.counters.as_dict(), expected.counters.as_dict()
            for name in EXACT_COUNTERS:
                assert got[name] == want[name], name
            # The structural chip's lifetime energy accumulator loses ulps
            # as it grows across runs (see the prebuilt-chip parity test).
            assert got["crossbar_device_energy_j"] == pytest.approx(
                want["crossbar_device_energy_j"], rel=ENERGY_RTOL
            )

    def test_closed_pool_rejects_requests(self, workload):
        snn, config, inputs, _ = workload
        pool = ChipPool(snn, jobs=2, config=config, timesteps=4, seed=0)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.infer(InferenceRequest(inputs=inputs))

    @pytest.mark.parametrize("join_s", [0.0, 0.2])
    def test_close_waits_for_the_dispatch_in_flight(self, workload, join_s):
        # Three 1-sample requests on two workers run in waves [[0, 1], [2]].
        # Hold the dispatch between its waves and close the pool from
        # another thread: close() must wait for the dispatch, whose second
        # wave still needs the worker threads.  ``join_s`` only gives
        # close() time to reach its wait; the outcome must not depend on it.
        snn, config, inputs, _ = workload
        requests = [
            InferenceRequest(inputs=inputs[i : i + 1], sample_offset=i)
            for i in range(3)
        ]
        session = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=3)
        expected = [session.infer(request) for request in requests]
        pool = ChipPool(
            snn, jobs=2, config=config, timesteps=5, encoder="poisson", seed=3,
            executor="thread",
        )
        assert pool._pack_waves([1, 1, 1], pool.jobs) == [[0, 1], [2]]
        between_waves, release = threading.Event(), threading.Event()
        run_shards = pool._shard_executor.run_shards

        def gated_run_shards(shards):
            responses = run_shards(shards)
            if not between_waves.is_set():
                between_waves.set()
                release.wait(timeout=60)
            return responses

        pool._shard_executor.run_shards = gated_run_shards
        closer = threading.Thread(target=pool.close)
        with ThreadPoolExecutor(max_workers=1) as caller:
            dispatch = caller.submit(pool.infer_many, requests)
            try:
                assert between_waves.wait(timeout=60)
                closer.start()
                closer.join(timeout=join_s)
                assert closer.is_alive(), "close() returned mid-dispatch"
            finally:
                release.set()
            responses = dispatch.result(timeout=60)
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert len(responses) == 3
        for want, got in zip(expected, responses):
            _assert_responses_identical(want, got)
        with pytest.raises(RuntimeError, match="pool is closed"):
            pool.infer(requests[0])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_dispatch_observes_compute_seconds(self, workload, jobs):
        # The single-shard fast path must feed the compute histogram too:
        # one observation per dispatch, whether or not the request shards.
        snn, config, inputs, _ = workload
        registry = MetricsRegistry(enabled=True)
        with ChipPool(
            snn, jobs=jobs, config=config, timesteps=4, seed=0, registry=registry
        ) as pool:
            pool.infer(InferenceRequest(inputs=inputs[:1]))  # never shards
            pool.infer(InferenceRequest(inputs=inputs))  # shards when jobs > 1
        dispatches = registry.counter("repro_pool_dispatches_total").value
        assert dispatches == 2
        assert registry.histogram("repro_pool_compute_seconds").count == dispatches

    def test_invalid_jobs_rejected(self, workload):
        snn, config, _, _ = workload
        with pytest.raises(ValueError, match="jobs"):
            ChipPool(snn, jobs=0, config=config)


class TestResultSchema:
    def test_response_json_round_trip_is_lossless(self, workload):
        snn, config, inputs, labels = workload
        with ChipPool(
            snn, jobs=2, config=config, timesteps=6, encoder="poisson", seed=4
        ) as pool:
            response = pool.infer(InferenceRequest(inputs=inputs, labels=labels))
        payload = response.to_json()
        restored = InferenceResponse.from_json(payload)
        np.testing.assert_array_equal(restored.predictions, response.predictions)
        np.testing.assert_array_equal(restored.spike_counts, response.spike_counts)
        assert restored.accuracy == response.accuracy
        # Bit-exact float round trip, including the accumulated energies.
        assert restored.counters.as_dict() == response.counters.as_dict()
        assert restored.energy.components == response.energy.components
        assert restored.energy.label == response.energy.label
        assert dict(restored.energy.group_map) == dict(response.energy.group_map)
        assert restored.timesteps == response.timesteps
        assert restored.backend == response.backend
        assert restored.batch_size == response.batch_size
        assert restored.jobs == response.jobs

    def test_request_round_trip(self, workload):
        _, _, inputs, labels = workload
        request = InferenceRequest(
            inputs=inputs, labels=labels, timesteps=9, sample_offset=5
        )
        restored = InferenceRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        np.testing.assert_array_equal(restored.batch, request.batch)
        np.testing.assert_array_equal(restored.labels, request.labels)
        assert restored.timesteps == 9
        assert restored.sample_offset == 5

    def test_event_counters_round_trip_and_unknown_keys(self):
        counters = EventCounters(crossbar_evaluations=3, switch_hops=7.0)
        assert EventCounters.from_dict(counters.as_dict()).as_dict() == counters.as_dict()
        with pytest.raises(ValueError, match="unknown counter"):
            EventCounters.from_dict({"warp_drive_engagements": 1.0})

    def test_energy_report_round_trip(self):
        report = EnergyReport(label="unit", group_map={"a": "g"})
        report.add("a", 1.2345678901234567e-9)
        report.add("b", 0.1 + 0.2)  # a float that exposes lossy serialisation
        restored = EnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.components == report.components
        assert restored.label == "unit"
        assert dict(restored.group_map) == {"a": "g"}

    def test_schema_version_guard(self):
        with pytest.raises(ValueError, match="schema version"):
            InferenceResponse.from_dict({"schema_version": 99})


class TestEncoderState:
    def test_shard_encoding_matches_full_batch_slice(self):
        state = EncoderState(kind="poisson", seed=13)
        values = np.random.default_rng(0).random((10, 6))
        full = state.encode(values, timesteps=8)
        part = state.shard(4).encode(values[4:9], timesteps=8)
        np.testing.assert_array_equal(part, full[:, 4:9])

    @pytest.mark.parametrize("offset", [0, 3])
    @pytest.mark.parametrize("kind", ["poisson", "deterministic"])
    def test_encode_emits_the_stock_encoders_spikes_as_bool(self, kind, offset):
        """One byte per spike, and the very spikes of the stock encoders:
        sample ``i`` of a Poisson state is its derived generator's train."""
        state = EncoderState(kind=kind, seed=13, max_rate=0.8, sample_offset=offset)
        values = np.random.default_rng(2).random((5, 7))
        values[0, :3] = (-0.5, 0.0, 1.5)  # clipped into [0, 1]
        train = state.encode(values, timesteps=9)
        assert train.dtype == bool and train.shape == (9, 5, 7)
        if kind == "deterministic":
            expected = DeterministicRateEncoder(max_rate=0.8).encode(values, 9) != 0
        else:
            expected = np.stack(
                [
                    PoissonEncoder(
                        rng=derive_rng(13, "encoder", offset + i), max_rate=0.8
                    ).encode(values[i], 9)
                    != 0
                    for i in range(5)
                ],
                axis=1,
            )
        np.testing.assert_array_equal(train, expected)

    def test_deterministic_kind_is_offset_invariant(self):
        state = EncoderState(kind="deterministic", seed=0)
        values = np.random.default_rng(1).random((5, 4))
        np.testing.assert_array_equal(
            state.encode(values, 6), state.shard(3).encode(values, 6)
        )

    def test_state_round_trip_and_validation(self):
        state = EncoderState(kind="poisson", seed=3, max_rate=0.5, sample_offset=2)
        assert EncoderState.from_dict(state.to_dict()) == state
        with pytest.raises(ValueError, match="kind"):
            EncoderState(kind="laser")
        with pytest.raises(ValueError, match="shard start"):
            state.shard(-1)


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def prepared(self):
        """A prepared workload, its context and one ``jobs=2`` reference run."""
        from repro.experiments import ExperimentSettings, WorkloadContext

        settings = ExperimentSettings(
            timesteps=4,
            eval_samples=4,
            train_samples=16,
            test_samples=8,
            train_epochs=0,
            network_scale=0.15,
            seed=11,
        )
        context = WorkloadContext(settings)
        workload = context.prepare("mnist-mlp")
        return context, workload, context.evaluate_chip(workload, crossbar_size=32, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_evaluate_chip_jobs_parity(self, prepared, jobs):
        # ``jobs`` (the runner's --jobs) changes speed, never the answer.
        context, workload, reference = prepared
        run = context.evaluate_chip(workload, crossbar_size=32, jobs=jobs)
        _assert_responses_identical(reference, run)
