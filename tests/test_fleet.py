"""The elastic fleet: replica lifecycle, graceful drain, autoscaling, membership.

The PR-7 subsystem held to the established parity bar — scaling the fleet
may change *placement* and *throughput*, never numbers:

* **replica lifecycle**: :class:`ReplicaManager` boots real ChipServer
  processes from a picklable :class:`SessionSpec`, health-checks them, and
  the served results match a single :class:`~repro.serve.ChipSession`
  exactly;
* the **graceful ``drain`` op**: a draining server refuses new work with a
  structured ``draining`` error but answers everything already admitted —
  no in-flight request is ever failed by a scale-down;
* **dynamic gateway membership**: endpoints join, drain and leave while
  batches are in flight, with every merged response bit-identical to the
  single-session run, and ``submit()`` never polling an endpoint
  synchronously;
* the **autoscaling controller**: EWMA pressure + hysteresis, proven
  deterministic against a scripted fleet and an injected clock, then live
  against real replica processes under a synthetic-latency flood.
"""

from __future__ import annotations

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
from repro.serve.fleet import (
    ElasticFleet,
    FleetController,
    FleetPolicy,
    ReplicaManager,
    ReplicaSpec,
)
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
        _, _, inputs, _ = workload
        spec = ReplicaSpec(session_spec=session_spec, workload="fleet-test")
        manager = ReplicaManager(spec, boot_timeout_s=120.0)
        replica = manager.start_replica()
        try:
            assert replica.alive
            assert len(manager) == 1
            info = replica.client.info(refresh=True)
            # The identity triple the controller (and smoke CLI) reads.
            assert info["replica_id"] == replica.replica_id
            assert info["pid"] == replica.process.pid
            assert info["state"] == "serving"
            assert manager.check_health() == {replica.replica_id: True}
            request = InferenceRequest(inputs=inputs[:6])
            _assert_identical(
                single_session.infer(request),
                replica.client.infer(request),
            )
        finally:
            manager.stop_all()
        assert len(manager) == 0
        assert not replica.alive
        assert replica.exitcode == 0, "drained replica must exit cleanly"

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
            deadline = time.monotonic() + 30
            while server._thread.is_alive():
                assert time.monotonic() < deadline, "drained server never exited"
                time.sleep(0.01)


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
        """Draining mid-flight never reroutes a shard already placed."""
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


# -- the autoscaling controller (scripted, deterministic) ---------------------------


class _ScriptedFleet:
    """A fleet whose load and scaling the test scripts directly."""

    def __init__(self, replicas: int = 1):
        self.replicas = replicas
        self.backlog = 0.0
        self.shed_total = 0
        self.refuse = False

    def replica_count(self) -> int:
        return self.replicas

    def load_signals(self):
        return [
            {"backlog": self.backlog, "shed": self.shed_total}
            for _ in range(self.replicas)
        ]

    def scale_up(self) -> bool:
        if self.refuse:
            return False
        self.replicas += 1
        return True

    def scale_down(self) -> bool:
        if self.refuse:
            return False
        self.replicas -= 1
        return True


class TestFleetController:
    def _policy(self, **overrides):
        defaults = dict(
            min_replicas=1,
            max_replicas=3,
            interval_s=0.1,
            target_backlog=2.0,
            scale_up_stable_s=1.0,
            idle_backlog=0.5,
            scale_down_stable_s=2.0,
            cooldown_s=3.0,
            ewma_alpha=1.0,
        )
        defaults.update(overrides)
        return FleetPolicy(**defaults)

    def test_hysteresis_is_deterministic_under_an_injected_clock(self):
        fleet = _ScriptedFleet(replicas=1)
        controller = FleetController(fleet, self._policy())
        fleet.backlog = 5.0
        # Above target, but not yet sustained for scale_up_stable_s.
        assert controller.step(now=0.0) is None
        assert controller.step(now=0.5) is None
        event = controller.step(now=1.0)
        assert event["event"] == "scale_up"
        assert (event["replicas_before"], event["replicas_after"]) == (1, 2)
        # Hysteresis re-armed + cooldown: sustained pressure alone is not
        # enough until cooldown_s elapsed since the last action.
        assert controller.step(now=1.5) is None
        assert controller.step(now=2.5) is None
        event = controller.step(now=4.0)
        assert event["event"] == "scale_up"
        assert fleet.replicas == 3
        # At max_replicas the controller refuses to even try.
        assert controller.step(now=5.5) is None
        assert fleet.replicas == 3

    def test_scale_down_needs_a_sustained_idle_window(self):
        fleet = _ScriptedFleet(replicas=3)
        controller = FleetController(fleet, self._policy())
        fleet.backlog = 0.0
        assert controller.step(now=0.0) is None
        assert controller.step(now=1.9) is None  # idle 1.9s < 2.0s
        event = controller.step(now=2.0)
        assert event["event"] == "scale_down"
        assert fleet.replicas == 2
        # Next scale-down needs a fresh idle window *and* the cooldown.
        assert controller.step(now=3.0) is None
        assert controller.step(now=4.9) is None
        event = controller.step(now=5.0)
        assert event["event"] == "scale_down"
        assert fleet.replicas == 1
        # Never below min_replicas, no matter how long the idle lasts.
        for now in (8.0, 12.0, 20.0):
            assert controller.step(now=now) is None
        assert fleet.replicas == 1

    def test_bursty_pressure_does_not_flap(self):
        """A signal that dips below target resets the sustained window."""
        fleet = _ScriptedFleet(replicas=1)
        controller = FleetController(fleet, self._policy())
        fleet.backlog = 5.0
        assert controller.step(now=0.0) is None
        fleet.backlog = 0.0  # the burst ends before the window fills
        assert controller.step(now=0.9) is None
        fleet.backlog = 5.0
        assert controller.step(now=1.0) is None  # window restarted at 1.0
        assert controller.step(now=1.9) is None
        assert controller.step(now=2.0)["event"] == "scale_up"

    def test_refused_actions_are_recorded_not_retried_blindly(self):
        fleet = _ScriptedFleet(replicas=1)
        controller = FleetController(fleet, self._policy())
        fleet.backlog = 5.0
        fleet.refuse = True
        assert controller.step(now=0.0) is None
        assert controller.step(now=1.0) is None
        assert fleet.replicas == 1
        assert controller.events[-1]["event"] == "scale_up_refused"
        # The refusal did not burn the cooldown: once the fleet accepts,
        # the still-sustained window acts immediately.
        fleet.refuse = False
        assert controller.step(now=1.1)["event"] == "scale_up"

    def test_shed_counters_raise_pressure_and_never_go_negative(self):
        fleet = _ScriptedFleet(replicas=1)
        policy = self._policy(ewma_alpha=0.5)
        controller = FleetController(fleet, policy)
        controller.step(now=0.0)  # seeds EWMAs and the shed baseline at 0
        fleet.shed_total = 4
        controller.step(now=1.0)
        status = controller.status()
        # delta 4 sheds / 1 replica, EWMA alpha 0.5 over a 0 seed -> 2.0.
        assert status["ewma_shed_rate"] == pytest.approx(2.0)
        assert status["pressure"] == pytest.approx(
            status["ewma_backlog"] + policy.shed_weight * 2.0
        )
        # A retiring replica stepping the cumulative counter *down* clamps
        # the delta at zero instead of producing negative pressure.
        fleet.shed_total = 1
        controller.step(now=2.0)
        assert controller.status()["ewma_shed_rate"] == pytest.approx(1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            FleetPolicy(min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            FleetPolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError, match="ewma_alpha"):
            FleetPolicy(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="idle_backlog"):
            FleetPolicy(idle_backlog=3.0, target_backlog=2.0)


# -- the live fleet (real replica processes) ----------------------------------------


class TestElasticFleet:
    def test_flood_scales_up_then_idles_down_to_min_exactly(
        self, workload, session_spec
    ):
        """The whole loop: flood -> scale-up -> exact merges -> idle -> min."""
        _, _, inputs, _ = workload
        serial = _fresh_session(workload)
        spec = ReplicaSpec(
            session_spec=session_spec,
            workload="fleet-live",
            dispatch_delay_s=0.05,
        )
        policy = FleetPolicy(
            min_replicas=1,
            max_replicas=2,
            interval_s=0.05,
            target_backlog=1.0,
            scale_up_stable_s=0.1,
            idle_backlog=0.25,
            scale_down_stable_s=0.3,
            cooldown_s=0.2,
        )
        requests = [
            InferenceRequest(inputs=inputs[offset : offset + 4], sample_offset=offset)
            for offset in (0, 3, 6, 9) * 6
        ]
        expected = {offset: serial.infer(request) for offset, request in
                    {r.sample_offset: r for r in requests}.items()}
        with ElasticFleet(
            spec, policy=policy, name="live-fleet", gateway_load_poll_s=0.05
        ) as fleet:
            assert fleet.replica_count() == 1
            futures = [fleet.submit(request) for request in requests]
            for request, future in zip(requests, futures):
                _assert_identical(
                    expected[request.sample_offset], future.result(timeout=120)
                )
            status = fleet.fleet_status()
            assert status["controller"]["actions"]["scale_up"] >= 1, (
                f"the flood never scaled the fleet up: {status}"
            )
            # The flood is answered; a sustained idle window shrinks the
            # fleet back to the floor — and never below it.
            deadline = time.monotonic() + 60
            while fleet.replica_count() > policy.min_replicas:
                assert time.monotonic() < deadline, (
                    f"fleet never scaled back down: {fleet.fleet_status()}"
                )
                time.sleep(0.05)
            time.sleep(0.5)
            assert fleet.replica_count() == policy.min_replicas
            # One more request after all the churn: still exact.
            _assert_identical(expected[0], fleet.infer(requests[0]))
            replicas = fleet.manager.replicas
        assert fleet.replica_count() == 0
        for replica in replicas:
            assert not replica.alive
            assert replica.exitcode == 0, (
                f"replica {replica.replica_id} exited with {replica.exitcode}"
            )

    def test_scale_bounds_are_enforced_by_the_fleet_itself(
        self, workload, session_spec
    ):
        spec = ReplicaSpec(session_spec=session_spec, workload="fleet-bounds")
        policy = FleetPolicy(min_replicas=1, max_replicas=1, scale_down_stable_s=1.0)
        with ElasticFleet(
            spec, policy=policy, name="bounds-fleet", start_controller=False
        ) as fleet:
            assert fleet.replica_count() == 1
            assert fleet.scale_up() is False
            assert fleet.scale_down() is False
            assert fleet.replica_count() == 1
