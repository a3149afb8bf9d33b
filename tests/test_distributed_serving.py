"""The distributed serving subsystem: executors, server/client, gateway.

The parity bar is the one :mod:`tests.test_serve_api` sets for the thread
pool: a distributed run is only allowed to be *parallel* (or *remote*) —
never different.  Predictions, spike counts and every integer event counter
must match a single :class:`~repro.serve.ChipSession` exactly; accumulated
float energies agree to 1e-9 relative.  That must hold for every shard
executor (inline / thread), for a response read back over the
chip server's socket, and for a gateway merge across mixed local/remote
endpoints.
"""

from __future__ import annotations

import socket
import sys

import numpy as np
import pytest

from repro.core import ArchitectureConfig, EventCounters
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.serve.distributed import (
    EXECUTORS,
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
    load_benchmark_workload,
    make_executor,
    parse_endpoint,
)
from repro.serve.schema import request_envelope
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9

EXACT_COUNTERS = [
    name for name in EventCounters().as_dict() if name != "crossbar_device_energy_j"
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
    network = Network((dims[0],), layers, name=f"dist-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(5, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(42)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_response(workload):
    snn, config, inputs, labels = workload
    session = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
    return session.infer(InferenceRequest(inputs=inputs, labels=labels))


def _assert_responses_identical(single, other):
    np.testing.assert_array_equal(single.predictions, other.predictions)
    np.testing.assert_array_equal(single.spike_counts, other.spike_counts)
    assert single.accuracy == other.accuracy
    s, p = single.counters.as_dict(), other.counters.as_dict()
    for name in EXACT_COUNTERS:
        assert s[name] == p[name], f"counter {name}: single={s[name]} other={p[name]}"
    assert p["crossbar_device_energy_j"] == pytest.approx(
        s["crossbar_device_energy_j"], rel=ENERGY_RTOL
    )
    assert other.energy.total_j == pytest.approx(single.energy.total_j, rel=ENERGY_RTOL)
    for component, energy_j in single.energy.components.items():
        assert other.energy.components[component] == pytest.approx(
            energy_j, rel=ENERGY_RTOL, abs=1e-30
        ), f"energy component {component}"


# -- executors ----------------------------------------------------------------------


class TestExecutors:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_every_executor_matches_single_session(
        self, workload, single_response, executor
    ):
        snn, config, inputs, labels = workload
        with ChipPool(
            snn,
            jobs=3,
            config=config,
            timesteps=6,
            encoder="poisson",
            seed=11,
            executor=executor,
        ) as pool:
            assert pool.executor == executor
            sharded = pool.infer(InferenceRequest(inputs=inputs, labels=labels))
        assert sharded.jobs == 3
        _assert_responses_identical(single_response, sharded)

    @staticmethod
    def _structural_run(workload, executor, batches):
        """One structural session's answer and ``batches`` runs of a pool."""
        snn, config, inputs, labels = workload
        request = InferenceRequest(inputs=inputs[:4], labels=labels[:4])
        session = ChipSession(
            snn, config=config, timesteps=4, encoder="poisson",
            backend="structural", seed=2,
        )
        single = session.infer(request)
        # Switch threads as often as possible, so two workers that wrongly
        # shared one chip would interleave on it instead of taking turns.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ChipPool(
                snn,
                jobs=2,
                config=config,
                timesteps=4,
                encoder="poisson",
                backend="structural",
                seed=2,
                executor=executor,
            ) as pool:
                assert pool.executor == executor
                sharded = [pool.infer(request) for _ in range(batches)]
        finally:
            sys.setswitchinterval(previous)
        return single, sharded

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_structural_backend_matches_single_session(self, workload, executor):
        # Structural workers mutate their chip in place, so the thread
        # executor rebuilds one chip per worker from the pool's spec.
        single, (sharded,) = self._structural_run(workload, executor, batches=1)
        assert sharded.jobs == 2
        _assert_responses_identical(single, sharded)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_structural_backend_repeated_batches(self, workload, executor):
        # Worker chips live for the pool's lifetime; the second batch must
        # not inherit state from the first (counters are per-run deltas).
        single, (first, second) = self._structural_run(workload, executor, batches=2)
        _assert_responses_identical(single, first)
        _assert_responses_identical(first, second)

    def test_single_worker_pool_downgrades_to_inline(self, workload, single_response):
        # jobs=1 never shards, so no worker thread (or structural worker
        # chip) should be provisioned; the executor name is still validated.
        snn, config, inputs, labels = workload
        with ChipPool(
            snn, jobs=1, config=config, timesteps=6, encoder="poisson",
            seed=11, executor="thread",
        ) as pool:
            assert pool.executor == "inline"
            response = pool.infer(InferenceRequest(inputs=inputs, labels=labels))
        _assert_responses_identical(single_response, response)
        with pytest.raises(ValueError, match="executor must be one of"):
            ChipPool(snn, jobs=1, config=config, executor="bogus")

    def test_unknown_executor_rejected(self, workload):
        snn, config, _, _ = workload
        with pytest.raises(ValueError, match="executor must be one of"):
            ChipPool(snn, jobs=2, config=config, executor="carrier-pigeon")
        with pytest.raises(ValueError, match="executor must be one of"):
            ChipPool(snn, jobs=2, config=config, executor="process")
        with pytest.raises(ValueError, match="executor must be one of"):
            make_executor("quantum")


# -- server / client ----------------------------------------------------------------


@pytest.fixture(scope="module")
def served_pool(workload):
    snn, config, _, _ = workload
    with ChipPool(
        snn, jobs=2, config=config, timesteps=6, encoder="poisson", seed=11
    ) as pool:
        with ChipServer(pool, port=0, workload="dist-test").start() as server:
            yield server


class TestServerClient:
    def test_remote_infer_is_result_identical(
        self, served_pool, workload, single_response
    ):
        _, _, inputs, labels = workload
        with PipelinedSession.connect(served_pool.endpoint) as remote:
            response = remote.infer(InferenceRequest(inputs=inputs, labels=labels))
        assert response.jobs == 2
        _assert_responses_identical(single_response, response)
        # The frame round trip is lossless, so the float counters and
        # energy components are not just close — they are bit-identical.
        assert response.counters.as_dict() == pytest.approx(
            single_response.counters.as_dict(), rel=ENERGY_RTOL
        )

    def test_ping_info_and_session_surface(self, served_pool):
        with PipelinedSession.connect(served_pool.endpoint) as remote:
            assert remote.ping()
            info = remote.info()
            assert info["workload"] == "dist-test"
            assert info["jobs"] == 2
            assert remote.capacity == 2
            assert remote.backend == "vectorized"
            assert remote.timesteps == 6

    def test_many_requests_on_one_connection(self, served_pool, workload):
        _, _, inputs, _ = workload
        with PipelinedSession.connect(served_pool.endpoint) as remote:
            first = remote.infer(InferenceRequest(inputs=inputs[:3]))
            second = remote.infer(InferenceRequest(inputs=inputs[:3]))
        np.testing.assert_array_equal(first.predictions, second.predictions)

    def test_server_error_replies(self, served_pool, frame_io):
        host, port = served_pool.address
        with socket.create_connection((host, port), timeout=10) as raw:
            stream = raw.makefile("rwb")
            for envelope, fragment in [
                (request_envelope("warp", request_id=1), "unknown op"),
                (request_envelope("infer", request_id=2), "request"),
                (
                    request_envelope("infer", request_id=3, request={"bogus": 1}),
                    "missing required",
                ),
            ]:
                frame_io.send(stream, envelope)
                reply = frame_io.read(stream)
                assert reply["ok"] is False
                assert reply["id"] == envelope["id"]
                assert fragment in reply["error"], reply["error"]

    def test_concurrent_clients_on_bare_structural_session(self, workload):
        # A bare ChipSession is not thread-safe (the structural backend
        # mutates live chip state per run); the server must serialise
        # concurrent clients so each still gets the exact single-client
        # answer.
        from concurrent.futures import ThreadPoolExecutor

        snn, config, inputs, labels = workload
        session = ChipSession(
            snn, config=config, timesteps=4, encoder="poisson",
            backend="structural", seed=6,
        )
        request = InferenceRequest(inputs=inputs[:4], labels=labels[:4])
        expected = session.infer(request)

        def one_client(_):
            with PipelinedSession.connect(server.address) as remote:
                return remote.infer(request)

        with ChipServer(session, port=0, workload="structural").start() as server:
            with ThreadPoolExecutor(max_workers=4) as clients:
                responses = list(clients.map(one_client, range(4)))
        for response in responses:
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(response.spike_counts, expected.spike_counts)

    def test_shutdown_op_stops_server(self, workload):
        snn, config, inputs, _ = workload
        session = ChipSession(snn, config=config, timesteps=4, seed=0)
        server = ChipServer(session, port=0, workload="ephemeral").start()
        with PipelinedSession.connect(server.address) as remote:
            response = remote.infer(InferenceRequest(inputs=inputs[:2]))
            assert response.batch_size == 2
            remote.shutdown_server()
        server.close()  # idempotent with the remote shutdown
        with pytest.raises(OSError):
            PipelinedSession(*server.address)

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert parse_endpoint("chips.internal:80") == ("chips.internal", 80)
        for bad, match in [
            ("nonsense", "HOST:PORT"),
            (":7070", "HOST:PORT"),
            ("host:", "must be an integer"),
            ("host:seventy", "must be an integer"),
            ("host:0", r"\[1, 65535\]"),
            ("host:99999", r"\[1, 65535\]"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_endpoint(bad)

    def test_load_benchmark_workload_rejects_cnn(self):
        with pytest.raises(ValueError, match="not an MLP"):
            load_benchmark_workload("mnist-cnn")


# -- gateway ------------------------------------------------------------------------


class TestGateway:
    def test_local_endpoints_match_single_session(self, workload, single_response):
        snn, config, inputs, labels = workload
        a = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        b = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        with InferenceGateway(
            [
                GatewayEndpoint(target=a, capacity=1, name="a"),
                GatewayEndpoint(target=b, capacity=3, name="b"),
            ]
        ) as gateway:
            merged = gateway.infer(InferenceRequest(inputs=inputs, labels=labels))
        _assert_responses_identical(single_response, merged)
        shards = merged.metadata["shards"]
        assert [s["endpoint"] for s in shards] == ["a", "b"]
        # capacity 1 vs 3 on 13 samples: cumulative rounding gives 3 + 10.
        assert [(s["start"], s["stop"]) for s in shards] == [(0, 3), (3, 13)]

    def test_mixed_remote_and_local_endpoints(
        self, served_pool, workload, single_response
    ):
        snn, config, inputs, labels = workload
        local = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        with PipelinedSession.connect(served_pool.endpoint) as remote:
            with InferenceGateway([remote, local]) as gateway:
                # The remote pool advertises capacity 2, the session 1.
                assert gateway.total_capacity == 3.0
                merged = gateway.infer(
                    InferenceRequest(inputs=inputs, labels=labels)
                )
        _assert_responses_identical(single_response, merged)
        assert merged.metadata["gateway"] == "gateway"

    def test_capacity_defaults_from_pool_jobs(self, workload):
        snn, config, _, _ = workload
        with ChipPool(
            snn, jobs=4, config=config, timesteps=6, encoder="poisson", seed=11
        ) as pool:
            endpoint = GatewayEndpoint(target=pool)
            assert endpoint.capacity == 4.0

    def test_shard_plan_covers_batch_exactly(self, workload):
        snn, config, _, _ = workload
        sessions = [
            ChipSession(snn, config=config, timesteps=4, seed=11) for _ in range(3)
        ]
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=s, capacity=c)
                for s, c in zip(sessions, (1.0, 2.5, 0.5))
            ]
        )
        for batch in (1, 2, 3, 7, 13, 64):
            plan = gateway.shard_plan(batch)
            assert plan[0].start == 0
            assert plan[-1].stop == batch
            for earlier, later in zip(plan, plan[1:]):
                assert earlier.stop == later.start
                assert later.stop > later.start
        gateway.close()

    def test_small_batch_skips_low_capacity_endpoints(self, workload, single_response):
        snn, config, inputs, labels = workload
        a = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        b = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        with InferenceGateway(
            [
                GatewayEndpoint(target=a, capacity=1, name="small"),
                GatewayEndpoint(target=b, capacity=100, name="big"),
            ]
        ) as gateway:
            response = gateway.infer(
                InferenceRequest(inputs=inputs[:2], labels=labels[:2])
            )
        np.testing.assert_array_equal(
            response.predictions, single_response.predictions[:2]
        )
        np.testing.assert_array_equal(
            response.spike_counts, single_response.spike_counts[:2]
        )

    def test_single_endpoint_response_keeps_gateway_shape(
        self, workload, single_response
    ):
        # Even a one-shard plan must produce a gateway-shaped response
        # (metadata["gateway"]/["shards"]), not the endpoint's raw response.
        snn, config, inputs, labels = workload
        session = ChipSession(snn, config=config, timesteps=6, encoder="poisson", seed=11)
        with InferenceGateway([session], name="solo") as gateway:
            response = gateway.infer(InferenceRequest(inputs=inputs, labels=labels))
        _assert_responses_identical(single_response, response)
        assert response.metadata["gateway"] == "solo"
        assert [(s["start"], s["stop"]) for s in response.metadata["shards"]] == [
            (0, 13)
        ]

    def test_gateway_validation(self, workload):
        snn, config, _, _ = workload
        session = ChipSession(snn, config=config, timesteps=4, seed=0)
        with pytest.raises(ValueError, match="at least one endpoint"):
            InferenceGateway([])
        with pytest.raises(TypeError, match="must provide infer"):
            GatewayEndpoint(target="not-a-session")
        with pytest.raises(ValueError, match="capacity must be > 0"):
            GatewayEndpoint(target=session, capacity=-1)

    def test_closed_gateway_rejects_requests(self, workload):
        snn, config, inputs, _ = workload
        session = ChipSession(snn, config=config, timesteps=4, seed=0)
        gateway = InferenceGateway([session])
        gateway.close()
        gateway.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            gateway.infer(InferenceRequest(inputs=inputs))


# -- experiment / runner integration ------------------------------------------------


class TestExperimentWiring:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.experiments import ExperimentSettings, WorkloadContext

        return WorkloadContext(
            ExperimentSettings(
                timesteps=4,
                eval_samples=4,
                train_samples=16,
                test_samples=8,
                train_epochs=0,
                network_scale=0.15,
                seed=11,
            )
        )

    def test_evaluate_chip_endpoint_roundtrip(self, context):
        # A server wrapping the *same prepared workload* must hand back the
        # exact numbers a local pooled run produces, and the runner's default
        # single-session run agrees with both.
        prepared = context.prepare("mnist-mlp")
        local = context.evaluate_chip(prepared, jobs=2)
        runner_default = context.evaluate_chip(prepared)
        from repro.core import ArchitectureConfig as AC
        from repro.utils.rng import stable_seed

        s = context.settings
        with ChipPool(
            prepared.snn,
            jobs=2,
            config=AC().with_crossbar_size(64).with_event_driven(True),
            timesteps=s.timesteps,
            encoder="poisson",
            seed=stable_seed(s.seed, "chip", prepared.name),
        ) as pool:
            with ChipServer(pool, port=0, workload="mnist-mlp").start() as server:
                remote = context.evaluate_chip(prepared, endpoint=server.endpoint)
        np.testing.assert_array_equal(local.predictions, remote.predictions)
        np.testing.assert_array_equal(local.spike_counts, remote.spike_counts)
        assert local.counters.as_dict() == remote.counters.as_dict()
        assert remote.energy.total_j == pytest.approx(
            local.energy.total_j, rel=ENERGY_RTOL
        )
        _assert_responses_identical(runner_default, remote)

    def test_evaluate_chip_endpoint_rejects_wrong_workload(self, context, workload):
        # A single-workload server cannot answer for another benchmark; the
        # mismatch must fail before any batch is sent, with a message naming
        # both workloads.
        snn, config, _, _ = workload
        prepared = context.prepare("mnist-mlp")
        session = ChipSession(snn, config=config, timesteps=4, seed=0)
        with ChipServer(session, port=0, workload="svhn-mlp").start() as server:
            with pytest.raises(ValueError, match="serves 'svhn-mlp', not 'mnist-mlp'"):
                context.evaluate_chip(prepared, endpoint=server.endpoint)

    def test_settings_validation(self):
        from repro.experiments import ExperimentSettings

        with pytest.raises(ValueError, match="HOST:PORT"):
            ExperimentSettings(chip_endpoint="not-an-endpoint")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "0"],
            ["--endpoint", "nonsense"],
            ["--endpoint", "host:99999"],
            ["--endpoint", "host:7070", "--jobs", "2"],
            ["--endpoint", "host:7070", "--backend", "vectorized"],
        ],
    )
    def test_runner_rejects_inconsistent_arguments(self, argv):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
