"""Replica processes, the graceful drain and the gateway's endpoint plumbing.

Retiring or re-placing work may change *where* samples run, never the
numbers:

* **replica lifecycle**: :class:`ReplicaManager` boots real ChipServer
  processes from a picklable :class:`SessionSpec`, gives each a distinct
  identity, health-checks them, serves results that match a single
  :class:`~repro.serve.ChipSession` exactly, drains every replica to exit
  code 0, and turns a replica that dies while booting into a
  ``RuntimeError`` with its exit code;
* the **graceful ``drain`` op**: a draining server refuses new work with a
  structured ``draining`` error but answers everything already admitted,
  then its serving loop exits;
* the **gateway's endpoint plumbing**: a shard shed by a draining server is
  retried on a sibling with a bit-identical merge, and the gateway never
  polls an endpoint.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
    RemoteServerError,
)
from repro.serve.distributed.executors import SessionSpec
from repro.serve.fleet import ReplicaManager, ReplicaSpec
from repro.serve.schema import ERROR_DRAINING
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9


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
    network = Network((dims[0],), layers, name=f"fleet-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(9, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(33)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


def _fresh_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


@pytest.fixture(scope="module")
def session_spec(workload):
    snn, config, _, _ = workload
    primary = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)
    assert primary.encoder_state is not None
    return SessionSpec(
        snn=snn,
        config=primary.config,
        library=None,
        timesteps=5,
        backend="vectorized",
        seed=21,
        encoder_state=primary.encoder_state,
    )


def _assert_identical(expected, actual):
    np.testing.assert_array_equal(expected.predictions, actual.predictions)
    np.testing.assert_array_equal(expected.spike_counts, actual.spike_counts)
    e, a = expected.counters.as_dict(), actual.counters.as_dict()
    for name, value in e.items():
        if name == "crossbar_device_energy_j":
            assert a[name] == pytest.approx(value, rel=ENERGY_RTOL)
        else:
            assert a[name] == value, f"counter {name}: {a[name]} != {value}"
    assert actual.energy.total_j == pytest.approx(
        expected.energy.total_j, rel=ENERGY_RTOL
    )


class _GatedTarget:
    """Holds every dispatch at a gate so drain races are deterministic."""

    def __init__(self, session):
        self._session = session
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._session, name)

    def infer(self, request):
        self.entered.set()
        assert self.release.wait(timeout=60), "gate never released"
        return self._session.infer(request)


# -- replica lifecycle --------------------------------------------------------------


class TestReplicaLifecycle:
    def test_boot_identity_serve_and_drain(self, workload, session_spec, single_session):
        """Two replicas of one manager: distinct, exact, both drain to exit 0."""
        _, _, inputs, _ = workload
        spec = ReplicaSpec(session_spec=session_spec, workload="fleet-test")
        manager = ReplicaManager(spec, boot_timeout_s=120.0)
        replicas = []
        try:
            replicas = [manager.start_replica(), manager.start_replica()]
            assert len(manager) == 2
            assert replicas[0].replica_id != replicas[1].replica_id
            request = InferenceRequest(inputs=inputs[:6])
            expected = single_session.infer(request)
            for replica in replicas:
                assert replica.alive
                info = replica.client.info(refresh=True)
                # The identity the manager checks at boot, plus the state.
                assert info["replica_id"] == replica.replica_id
                assert info["pid"] == replica.process.pid
                assert info["state"] == "serving"
                _assert_identical(expected, replica.client.infer(request))
            assert manager.check_health() == {
                replica.replica_id: True for replica in replicas
            }
        finally:
            manager.stop_all()
        assert len(manager) == 0
        for replica in replicas:
            assert not replica.alive
            assert replica.exitcode == 0, (
                f"drained replica {replica.replica_id} exited with "
                f"{replica.exitcode}"
            )

    def test_boot_failure_raises_with_the_exit_code(self, session_spec):
        """A replica that dies while booting raises with its exit code."""
        spec = ReplicaSpec(
            session_spec=dataclasses.replace(session_spec, backend="bogus"),
            workload="fleet-bogus",
        )
        manager = ReplicaManager(spec, boot_timeout_s=120.0)
        with pytest.raises(RuntimeError, match=r"died during boot \(exit code 1\)"):
            manager.start_replica()
        assert len(manager) == 0
        assert not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("chip-replica-fleet-bogus")
        ]

    def test_drain_of_dead_replica_is_clean(self, session_spec):
        spec = ReplicaSpec(session_spec=session_spec, workload="fleet-dead")
        manager = ReplicaManager(spec, boot_timeout_s=120.0)
        replica = manager.start_replica()
        replica.process.terminate()
        replica.process.join(timeout=10)
        # An already-dead replica drains without raising (health said no).
        manager.drain_replica(replica, timeout_s=10.0)
        assert len(manager) == 0


# -- the graceful drain op ----------------------------------------------------------


class TestDrainOp:
    def test_drain_answers_admitted_work_and_refuses_new(self, workload):
        """The drain contract: admitted work exact, new work refused, loop exits."""
        _, _, inputs, _ = workload
        serial = _fresh_session(workload)
        gate = _GatedTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:5])
        queued = InferenceRequest(inputs=inputs[5:9], sample_offset=5)
        with ChipServer(gate, port=0, workload="drain-test").start() as server:
            with PipelinedSession.connect(
                server.address, connections=1, timeout=60
            ) as client:
                future_head = client.submit(head)
                assert gate.entered.wait(timeout=30)
                future_queued = client.submit(queued)
                # No wait: the infer's task is admitted in its first step, before the drain's.
                ack = client.drain_server(timeout=30)
                assert ack["draining"] is True
                assert ack["was_draining"] is False
                # Everything after the drain gets the structured refusal.
                with pytest.raises(RemoteServerError) as excinfo:
                    client.submit(head).result(timeout=30)
                assert excinfo.value.code == ERROR_DRAINING
                # A second drain is idempotent, not an error.
                assert client.drain_server(timeout=30)["was_draining"] is True
                info = client.info(refresh=True)
                assert info["state"] == "draining"
                assert info["stats"]["drain_rejected"] == 1
                gate.release.set()
                # Both admitted requests still get their exact answers.
                _assert_identical(serial.infer(head), future_head.result(timeout=60))
                _assert_identical(
                    serial.infer(queued), future_queued.result(timeout=60)
                )
            # The serving loop exits on its own once the queue is answered.
            server._thread.join(timeout=30)
            assert not server._thread.is_alive(), "drained server never exited"


# -- the gateway's endpoint plumbing -----------------------------------------------


class TestGatewayShedRetryAndNoPolls:
    def test_draining_server_sheds_onto_sibling(self, workload, single_session):
        """A racing scale-down's ``draining`` error retries on a sibling."""
        _, _, inputs, _ = workload

        class _DrainingTarget:
            capacity = 1

            def __init__(self):
                self.calls = 0

            def infer(self, request):
                self.calls += 1
                raise RemoteServerError(
                    "server is draining; request refused", code=ERROR_DRAINING
                )

        draining = _DrainingTarget()
        request = InferenceRequest(inputs=inputs[:12])
        expected = single_session.infer(request)
        with InferenceGateway(
            [
                GatewayEndpoint(target=draining, name="retiring"),
                GatewayEndpoint(target=_fresh_session(workload), name="sibling"),
            ],
            name="drain-shed",
        ) as gateway:
            response = gateway.infer(request)
        assert draining.calls == 1
        _assert_identical(expected, response)
        retried = [
            shard
            for shard in response.metadata["shards"]
            if shard.get("retried_from") == "retiring"
        ]
        assert retried, f"expected a retried shard: {response.metadata}"

    def test_submit_never_polls_endpoints_synchronously(self, workload):
        """The gateway plans from static capacities and never polls ``info``."""
        _, _, inputs, _ = workload

        class _PollRecorder:
            capacity = 1

            def __init__(self, session):
                self._session = session
                self.polls = 0

            def info(self, refresh: bool = False, *, timeout: float | None = None):
                self.polls += 1
                return {"queue_depth": 0, "inflight": 0}

            def infer(self, request):
                return self._session.infer(request)

        recorders = [
            _PollRecorder(_fresh_session(workload)),
            _PollRecorder(_fresh_session(workload)),
        ]
        with InferenceGateway(
            [
                GatewayEndpoint(target=recorder, name=f"r{i}")
                for i, recorder in enumerate(recorders)
            ],
            name="no-sync-polls",
        ) as gateway:
            for _ in range(3):
                gateway.infer(InferenceRequest(inputs=inputs[:8]))
        assert [r.polls for r in recorders] == [0, 0], (
            "the gateway must never poll an endpoint"
        )
