"""Replica processes, the graceful drain and dynamic gateway membership.

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
* **dynamic gateway membership**: endpoints join, drain and leave while
  batches are in flight, with every merged response bit-identical to the
  single-session run, and ``submit()`` never polling an endpoint
  synchronously.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time

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


class _PermitTarget:
    """Serves one dispatch per released permit, so backlogs are scripted."""

    def __init__(self, session):
        self._session = session
        self.permits = threading.Semaphore(0)

    def __getattr__(self, name):
        return getattr(self._session, name)

    def infer(self, request):
        assert self.permits.acquire(timeout=60), "permit never released"
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
                # Wait for the queued request to be *admitted* (decode runs
                # off-loop, so a prompt drain could overtake it and shed it).
                deadline = time.monotonic() + 30
                while client.info(refresh=True).get("queue_depth", 0) < 1:
                    assert time.monotonic() < deadline, (
                        "queued request never reached the server queue"
                    )
                    time.sleep(0.01)
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


# -- dynamic gateway membership -----------------------------------------------------


class TestGatewayMembership:
    def test_membership_changes_mid_stream_stay_exact(self, workload, single_session):
        """add/drain/remove between batches: every merge stays bit-identical."""
        _, _, inputs, _ = workload
        request = InferenceRequest(inputs=inputs[:12])
        expected = single_session.infer(request)
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=_fresh_session(workload), name="a"),
                GatewayEndpoint(target=_fresh_session(workload), name="b"),
            ],
            name="membership",
            load_poll_s=3600.0,
        )
        with gateway:
            _assert_identical(expected, gateway.infer(request))
            gateway.add_endpoint(
                GatewayEndpoint(target=_fresh_session(workload), name="c")
            )
            assert [e.name for e in gateway.endpoints] == ["a", "b", "c"]
            _assert_identical(expected, gateway.infer(request))
            gateway.drain_endpoint("a")
            # A draining endpoint never appears in a new plan.
            plan = gateway.shard_plan(12)
            assert all(shard.endpoint.name != "a" for shard in plan)
            _assert_identical(expected, gateway.infer(request))
            gateway.remove_endpoint("a")
            assert [e.name for e in gateway.endpoints] == ["b", "c"]
            _assert_identical(expected, gateway.infer(request))
            # Draining the whole fleet leaves nothing to plan onto.
            gateway.drain_endpoint("b")
            gateway.drain_endpoint("c")
            with pytest.raises(RuntimeError, match="no serving endpoints"):
                gateway.shard_plan(12)

    def test_unknown_endpoint_names_raise(self, workload):
        with InferenceGateway(
            [GatewayEndpoint(target=_fresh_session(workload), name="a")],
            name="unknown-name",
            load_poll_s=3600.0,
        ) as gateway:
            with pytest.raises(KeyError):
                gateway.drain_endpoint("nope")
            with pytest.raises(KeyError):
                gateway.remove_endpoint("nope")
            with pytest.raises(ValueError, match="already has an endpoint"):
                gateway.add_endpoint(
                    GatewayEndpoint(target=_fresh_session(workload), name="a")
                )

    def test_inflight_plan_completes_against_drained_endpoint(
        self, workload, single_session
    ):
        """Draining mid-flight never reroutes a shard already dispatched."""
        _, _, inputs, _ = workload
        gate = _GatedTarget(_fresh_session(workload))
        request = InferenceRequest(inputs=inputs[:12])
        expected = single_session.infer(request)
        with InferenceGateway(
            [
                GatewayEndpoint(target=gate, name="gated"),
                GatewayEndpoint(target=_fresh_session(workload), name="plain"),
            ],
            name="inflight-drain",
            load_poll_s=3600.0,
        ) as gateway:
            future = gateway.submit(request)
            assert gate.entered.wait(timeout=30)
            gateway.drain_endpoint("gated")
            gate.release.set()
            response = future.result(timeout=60)
            _assert_identical(expected, response)
            # The gated endpoint really served its planned shard.
            assert any(
                shard["endpoint"] == "gated"
                for shard in response.metadata["shards"]
            )

    def test_queued_shards_move_to_an_endpoint_that_joins(
        self, workload, single_session
    ):
        """A replica joining mid-burst takes shards queued before it existed."""
        _, _, inputs, _ = workload
        busy = _PermitTarget(_fresh_session(workload))
        with InferenceGateway(
            [GatewayEndpoint(target=busy, name="busy")],
            name="late-join",
            load_poll_s=3600.0,
        ) as gateway:
            # Every dispatch thread ends up holding a shard on "busy" (one
            # inside infer, the rest on its lock); two more requests stay
            # queued in the dispatch pool, bound to "busy" by their plans.
            workers = gateway._threads._max_workers
            requests = [
                InferenceRequest(inputs=inputs[i : i + 1], sample_offset=i)
                for i in range(workers + 2)
            ]
            expected = [single_session.infer(request) for request in requests]
            futures = [gateway.submit(request) for request in requests]
            (busy_endpoint,) = gateway.endpoints
            try:
                deadline = time.monotonic() + 30
                while busy_endpoint.dispatched < workers:
                    assert time.monotonic() < deadline, (
                        "dispatch threads never reached the busy endpoint"
                    )
                    time.sleep(0.005)
                gateway.add_endpoint(
                    GatewayEndpoint(target=_fresh_session(workload), name="joined")
                )
                # One permit frees one thread; "busy" still holds the
                # others, so each queued shard it picks up moves to "joined".
                busy.permits.release()
                for future in futures[workers:]:
                    response = future.result(timeout=30)
                    assert [s["endpoint"] for s in response.metadata["shards"]] == [
                        "joined"
                    ]
            finally:
                # Never leave dispatch threads parked on "busy" (close()
                # joins them), whatever failed above.
                for _ in requests:
                    busy.permits.release()
            for index, (want, future) in enumerate(zip(expected, futures)):
                response = future.result(timeout=60)
                _assert_identical(want, response)
                if index < workers:
                    assert response.metadata["shards"][0]["endpoint"] == "busy"
            assert busy_endpoint.inflight == 0
            assert busy_endpoint.dispatched == 0

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
            load_poll_s=3600.0,
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
        """The submit path reads cached hints only; polls live on the refresher."""
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
            load_poll_s=3600.0,
        ) as gateway:
            for _ in range(3):
                gateway.infer(InferenceRequest(inputs=inputs[:8]))
            assert [r.polls for r in recorders] == [0, 0], (
                "submit() must never poll an endpoint synchronously"
            )
            gateway.refresh_load_hints()
            assert [r.polls for r in recorders] == [1, 1]

    def test_close_joins_the_load_refresher(self, workload):
        """No daemon-thread leak: close() stops and joins the refresher."""
        for cycle in range(3):
            name = f"refresh-close-{cycle}"
            gateway = InferenceGateway(
                [GatewayEndpoint(target=_fresh_session(workload), name="a")],
                name=name,
                load_poll_s=0.01,
            )
            thread_name = f"{name}-load-refresh"
            assert any(
                t.name == thread_name for t in threading.enumerate()
            ), "adaptive gateway must run a load refresher"
            gateway.close()
            assert not any(
                t.name == thread_name and t.is_alive()
                for t in threading.enumerate()
            ), "close() must join the refresher thread"
