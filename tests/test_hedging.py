"""Tail-latency machinery: hedged dispatch, retry budgets, backoff.

The invariants under test:

* a hedge duplicates a straggling shard onto a sibling, the first answer
  wins, and the merged response stays bit-identical to a single session —
  with the hedge recorded in counters, response metadata and the
  per-endpoint hedged-against load signal;
* a hedge never fires past the request deadline (the timer is simply not
  armed when the threshold cannot precede it), and every armed straggler
  timer is cancelled once its shard resolves, failures included;
* cancelling the losing attempt is best-effort — a broken cancel channel
  must never fail a request the winner already answered;
* shed/drain retries draw from one per-request :class:`RetryBudget`; when
  it runs dry the caller gets the structured
  :class:`RetryBudgetExhausted` naming the attempts, and the gateway
  counts it;
* the jittered-exponential backoff helper shared by the remote client and
  the gateway stays bounded and jittered.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import (
    ChipSession,
    InferenceRequest,
    RetryBudget,
    RetryBudgetExhausted,
    retry_backoff,
)
from repro.serve.distributed import (
    GatewayEndpoint,
    InferenceGateway,
    RemoteServerError,
)
from repro.serve.schema import ERROR_OVERLOADED
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(19)
    network = Network(
        (32,),
        [
            Dense(32, 16, use_bias=False, rng=rng, name="fc1"),
            Dense(16, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="hedge-mlp",
    )
    snn = convert_to_snn(network, rng.random((12, 32)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    inputs = rng.random((6, 32))
    return snn, config, inputs


def _session(workload) -> ChipSession:
    snn, config, _ = workload
    return ChipSession(snn, config=config, timesteps=4, encoder="poisson", seed=11)


class _GatedTarget:
    """Holds every dispatch until released — a deterministic straggler."""

    def __init__(self, session: ChipSession):
        self.session = session
        self.release = threading.Event()

    def infer(self, request: InferenceRequest):
        if not self.release.wait(timeout=60):
            raise RuntimeError("gate never released")
        return self.session.infer(request)


@pytest.fixture
def timers(monkeypatch) -> list[threading.Timer]:
    """Every ``threading.Timer`` built while the test runs (the hedge timers)."""
    made: list[threading.Timer] = []

    class _RecordedTimer(threading.Timer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Timer", _RecordedTimer)
    return made


class _FailingTarget:
    """Fails every dispatch with an error the gateway does not retry."""

    def infer(self, request: InferenceRequest):
        raise RuntimeError("endpoint broken")


def _assert_no_inflight(gateway: InferenceGateway) -> None:
    """No attempt leaked its inflight charge.

    Call after ``close()``, which joins every dispatch task, so one read is
    final.
    """
    loads = gateway.endpoint_loads()
    assert all(load["inflight"] == 0 for load in loads.values()), loads


class TestHedgedDispatch:
    def test_hedge_wins_exactly_and_is_recorded(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))
        gate = _GatedTarget(_session(workload))
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=gate, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            hedge_after_s=0.02,
        )
        try:
            response = gateway.submit(InferenceRequest(inputs=inputs)).result(
                timeout=60
            )
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            np.testing.assert_array_equal(
                response.spike_counts, expected.spike_counts
            )
            assert abs(response.energy.total_j - expected.energy.total_j) <= (
                ENERGY_RTOL * expected.energy.total_j
            ), "hedged merge energy diverged from the single session"
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 1
            assert tail["hedge_wins"] == 1
            assert tail["budget_exhausted"] == 0
            hedged = [
                shard
                for shard in response.metadata["shards"]
                if shard.get("hedged_from") == "straggler"
            ]
            assert hedged and all(s["endpoint"] == "sibling" for s in hedged)
            assert all(s["hedged_to"] == "sibling" for s in hedged)
            # The straggler was hedged against: the slow-server signal.
            assert gateway.endpoint_loads()["straggler"]["hedges"] == 1
        finally:
            gate.release.set()
            # The losing attempt (blocking infer; uncancellable) must still
            # complete, count as wasted compute and release its charge.
            gateway.close()
        _assert_no_inflight(gateway)
        assert gateway.tail_stats()["hedge_wasted_compute"] == 1

    def test_hedge_never_fires_past_deadline(self, workload, timers):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))
        slow = _GatedTarget(_session(workload))
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=slow, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            hedge_after_s=0.05,
        )
        try:
            # Threshold (50ms) cannot precede the deadline (20ms): the
            # straggler timer must not be armed at all.  Local sessions do
            # not enforce deadlines, so the request still completes once
            # the gate opens — without a single hedge.
            future = gateway.submit(
                InferenceRequest(inputs=inputs), deadline_s=0.02
            )
            # submit() arms every timer it will ever arm before returning.
            assert timers == []
            slow.release.set()
            response = future.result(timeout=60)
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 0
            assert tail["hedge_wins"] == 0
            assert gateway.endpoint_loads()["straggler"]["hedges"] == 0
        finally:
            slow.release.set()
            gateway.close()
        _assert_no_inflight(gateway)

    def test_failed_request_cancels_its_hedge_timers(self, workload, timers):
        """A shard that fails outright leaves no straggler timer armed."""
        _, _, inputs = workload
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=_FailingTarget(), name="a"),
                GatewayEndpoint(target=_FailingTarget(), name="b"),
            ],
            hedge_after_s=5.0,
        )
        try:
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RuntimeError, match="endpoint broken"):
                future.result(timeout=60)
        finally:
            gateway.close()
        assert len(timers) == 2, "one straggler timer per shard"
        assert all(timer.finished.is_set() for timer in timers)
        _assert_no_inflight(gateway)

    def test_losing_cancel_failure_never_fails_the_request(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))

        class _BrokenCancelFuture(Future):
            def cancel(self) -> bool:
                raise RuntimeError("cancel channel broken")

        class _StuckSubmitTarget:
            """Cancellable-looking endpoint that never answers."""

            def __init__(self):
                self.futures: list[Future] = []

            def infer(self, request: InferenceRequest):
                raise AssertionError("submit path expected")

            def submit(self, request: InferenceRequest) -> Future:
                future = _BrokenCancelFuture()
                self.futures.append(future)
                return future

        stuck = _StuckSubmitTarget()
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=stuck, name="straggler"),
                GatewayEndpoint(target=_session(workload), name="sibling"),
            ],
            hedge_after_s=0.02,
        )
        try:
            response = gateway.submit(InferenceRequest(inputs=inputs)).result(
                timeout=60
            )
            # The stuck endpoint's shard only has an answer because the
            # hedge won on the sibling; its cancel raised and was ignored.
            np.testing.assert_array_equal(response.predictions, expected.predictions)
            tail = gateway.tail_stats()
            assert tail["hedges_issued"] == 1
            assert tail["hedge_wins"] == 1
            assert stuck.futures, "the straggler was never dispatched to"
        finally:
            # Unblock the worker parked on the stuck future, then close.
            for future in stuck.futures:
                future.set_exception(CancelledError())
            gateway.close()
        _assert_no_inflight(gateway)


class _AlwaysShedTarget:
    """Sheds every dispatch with the structured ``overloaded`` error."""

    def __init__(self):
        self.calls = 0

    def infer(self, request: InferenceRequest):
        self.calls += 1
        raise RemoteServerError("server overloaded", code=ERROR_OVERLOADED)


class TestRetryBudgets:
    def test_shed_retry_moves_shard_and_is_recorded(self, workload):
        snn, config, inputs = workload
        expected = _session(workload).infer(InferenceRequest(inputs=inputs))

        class _ShedOnceTarget:
            def __init__(self, session: ChipSession):
                self.session = session
                self.calls = 0

            def infer(self, request: InferenceRequest):
                self.calls += 1
                if self.calls == 1:
                    raise RemoteServerError("overloaded", code=ERROR_OVERLOADED)
                return self.session.infer(request)

        flaky = _ShedOnceTarget(_session(workload))
        gateway = InferenceGateway(
            [
                # Capacity skew: the whole batch plans onto the flaky
                # endpoint; the healthy one exists to absorb the retry.
                GatewayEndpoint(target=flaky, capacity=100, name="flaky"),
                GatewayEndpoint(target=_session(workload), capacity=1, name="ok"),
            ],
        )
        budget = RetryBudget(2, backoff_base_s=0.001, backoff_cap_s=0.002)
        request = InferenceRequest(inputs=inputs).with_retry_budget(budget)
        with gateway:
            response = gateway.infer(request)
        np.testing.assert_array_equal(response.predictions, expected.predictions)
        assert flaky.calls == 1
        shards = response.metadata["shards"]
        assert [s["endpoint"] for s in shards] == ["ok"]
        assert shards[0]["retried_from"] == "flaky"
        assert shards[0]["retries"] == 1
        assert gateway.tail_stats()["retries"] == 1
        assert gateway.tail_stats()["budget_exhausted"] == 0

    def test_budget_exhaustion_surfaces_structured_error(self, workload):
        snn, config, inputs = workload
        shed_a, shed_b = _AlwaysShedTarget(), _AlwaysShedTarget()
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=shed_a, capacity=100, name="a"),
                GatewayEndpoint(target=shed_b, capacity=1, name="b"),
            ],
        )
        budget = RetryBudget(2, backoff_base_s=0.001, backoff_cap_s=0.002)
        request = InferenceRequest(inputs=inputs).with_retry_budget(budget)
        with gateway:
            future = gateway.submit(request)
            with pytest.raises(RetryBudgetExhausted, match=r"2 attempt"):
                future.result(timeout=60)
        # 2 attempts total: the plan's dispatch plus one budgeted retry.
        assert shed_a.calls + shed_b.calls == 2
        assert budget.remaining == 0
        tail = gateway.tail_stats()
        assert tail["retries"] == 1
        assert tail["budget_exhausted"] == 1
        _assert_no_inflight(gateway)

    def test_default_budget_allows_one_retry_per_shard(self, workload):
        """Without a request budget, a request gets ``1 + shards`` attempts."""
        snn, config, inputs = workload
        shed_a, shed_b = _AlwaysShedTarget(), _AlwaysShedTarget()
        gateway = InferenceGateway(
            [
                GatewayEndpoint(target=shed_a, capacity=1, name="a"),
                GatewayEndpoint(target=shed_b, capacity=1, name="b"),
            ],
        )
        with gateway:
            future = gateway.submit(InferenceRequest(inputs=inputs))
            with pytest.raises(RetryBudgetExhausted) as excinfo:
                future.result(timeout=60)
            assert excinfo.value.attempts == 3
        _assert_no_inflight(gateway)
        # Two planned dispatches plus the two budgeted retries; each shard
        # then finds the pooled budget dry.
        assert shed_a.calls + shed_b.calls == 4
        tail = gateway.tail_stats()
        assert tail["retries"] == 2
        assert tail["budget_exhausted"] == 2

    def test_exhaustion_error_names_attempts_and_cause(self):
        budget = RetryBudget(3)
        assert budget.try_consume() == 0
        assert budget.try_consume() == 1
        assert budget.try_consume() is None
        error = budget.exhausted(ValueError("boom"))
        assert isinstance(error, RetryBudgetExhausted)
        assert error.attempts == 3
        assert error.retries == 2
        assert "3 attempt(s)" in str(error)
        assert "ValueError: boom" in str(error)
        assert isinstance(error.__cause__, ValueError)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(0)
        with pytest.raises(ValueError):
            RetryBudget(1, backoff_base_s=-0.1)


class TestSharedBackoff:
    def test_backoff_grows_and_jitters(self):
        for attempt, base in ((0, 0.05), (1, 0.1), (2, 0.2)):
            delays = {retry_backoff(attempt) for _ in range(20)}
            assert all(base * 0.5 <= delay <= base * 1.5 for delay in delays)
            assert len(delays) > 1, "backoff must be jittered, not constant"

    def test_backoff_cap(self):
        for _ in range(20):
            assert retry_backoff(10, base_s=0.05, cap_s=0.2) <= 0.2 * 1.5
