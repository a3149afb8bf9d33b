"""Multi-endpoint inference gateway: capacity-weighted sharding, streaming merge.

:class:`InferenceGateway` fans one request batch out across several
endpoints — local :class:`~repro.serve.ChipSession`\\ s and
:class:`~repro.serve.ChipPool`\\ s, remote
:class:`~repro.serve.distributed.client.PipelinedSession`\\ s, anything with
the ``infer`` contract — and merges the shard responses into one exact
result.

Sharding is *capacity-weighted and load-aware*: an endpoint with capacity 3
(say, a remote pool with ``jobs=3``) receives three times the samples of a
capacity-1 session, via cumulative rounding so the contiguous shard sizes
always sum to the batch exactly — but the static weight is discounted by the
endpoint's observed backlog (gateway shards planned onto it and not yet
finished, plus the server's last-polled ``queue_depth``/``inflight``), so a
congested server receives less of each new batch instead of stretching its
queue further.  Server backlog is polled by a **background refresher
thread**, never on the submit path: ``submit()`` reads only cached hints, so
a wedged endpoint's ``info`` can never stall dispatch.  A shard that an
overloaded or draining server *sheds* (structured ``overloaded`` /
``draining`` error) is retried on the least-loaded sibling endpoint within
the request's :class:`~repro.serve.retry.RetryBudget` (jittered backoff
between hops; exhaustion surfaces as a structured
:class:`~repro.serve.retry.RetryBudgetExhausted`), and per-request deadlines
propagate to every endpoint whose ``submit`` takes one.

The gateway also mitigates *stragglers*: with hedging enabled
(``hedge_after_s`` and/or ``hedge_percentile``), a shard whose wait exceeds
the straggler threshold is **hedged** — duplicated to the least-loaded
serving sibling.  The first attempt to finish wins the shard; the loser is
cancelled best-effort (over the wire via the ``cancel`` op, tagged
``reason="hedge"``, when the endpoint hands out cancellable futures), and a
losing attempt that still completes is counted as wasted compute.  Hedging
is exact for the same reason shed-retry is: shards are deterministic,
idempotent functions of their absolute sample range, so whichever attempt
wins returns bit-identical numbers.  A hedge never fires past the request
deadline, and a failed hedge cancel never fails the request.  Because every
shard carries its absolute ``sample_offset`` and every endpoint derives
spike trains from the same shard-stable
:class:`~repro.snn.encoding.EncoderState` seeding, the merged response is
result-identical to running the whole batch on any single endpoint — any
placement the load feedback picks yields the same numbers — provided the
endpoints serve the *same workload* (same SNN, config, seed, encoder and
timesteps), which is the operator's contract.

The gateway is **non-blocking**: :meth:`InferenceGateway.submit` dispatches
every shard concurrently and returns a :class:`concurrent.futures.Future`
immediately.  Shard completions stream into the merged result as they
arrive — the big per-sample arrays are written straight into their
preallocated slots — and the first shard failure resolves the future with
an error naming the endpoint instead of hanging the merge on the survivors.
Multiple batches may be in flight at once; a per-endpoint lock keeps each
endpoint serving one shard at a time (endpoints own their internal
concurrency), so successive batches pipeline across endpoints instead of
running lock-step.

Membership is **dynamic**: :meth:`InferenceGateway.add_endpoint`,
:meth:`~InferenceGateway.drain_endpoint` and
:meth:`~InferenceGateway.remove_endpoint` change the endpoint set while
batches are in flight.  A shard plan holds direct references to its
endpoints, so a shard already dispatched always completes against the
endpoint it was sent to; the next ``submit()`` sees the updated membership.
A shard still *queued* in the gateway's dispatch pool when the membership
changes is re-placed as it dispatches (adaptive gateways only): it goes to
the serving endpoint with the most spare capacity, judged by the shards
already dispatched to each, so a replica that joins mid-burst takes part of
the backlog queued before it existed.  Draining endpoints are skipped by
the planner (and by shed-retry) but keep serving the shards already
dispatched to them, so a replica can be retired without failing work.

The merge is exact: predictions and spike counts concatenate per-sample,
event counters sum, and the energy report is the component-wise sum of the
shard reports (every component is linear in its counters and in the shard's
batch-duration, so the sum equals the full-batch report to floating-point
accumulation order).  Counters and energy are reduced in shard-plan order
regardless of completion order, so the merged numbers are deterministic.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import deque
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serve.distributed.client import RemoteServerError
from repro.serve.metrics import (
    PHASE_MERGE,
    MetricsRegistry,
    get_default_registry,
    merge_phases,
    record_phase,
)
from repro.serve.retry import RetryBudget, RetryBudgetExhausted
from repro.serve.schema import (
    ERROR_DRAINING,
    ERROR_OVERLOADED,
    InferenceRequest,
    InferenceResponse,
)

__all__ = ["GatewayEndpoint", "InferenceGateway"]

#: Hard bound on one endpoint load poll.  Polls run on the background
#: refresher thread (never the submit path), but one wedged endpoint must
#: not starve the refresh of its healthy siblings for longer than this.
LOAD_POLL_TIMEOUT_S = 1.0

#: Structured server errors that make a shard eligible for retry on a
#: sibling endpoint (the server refused the work without starting it).
_SHED_RETRY_CODES = frozenset({ERROR_OVERLOADED, ERROR_DRAINING})

#: Rolling window of observed shard latencies feeding the adaptive
#: (percentile-derived) straggler threshold.
_HEDGE_LATENCY_WINDOW = 128

#: Minimum observations before the percentile threshold is trusted; until
#: then a percentile-only gateway does not hedge (and a fixed
#: ``hedge_after_s`` keeps working on its own).
_HEDGE_MIN_SAMPLES = 8

#: Floor on any hedge threshold: hedging sub-millisecond "stragglers" would
#: duplicate nearly every shard.
_HEDGE_FLOOR_S = 1e-3


@dataclass
class GatewayEndpoint:
    """One inference target behind the gateway, with its sharding weight.

    ``capacity`` defaults to the target's own ``capacity`` attribute (a
    :class:`PipelinedSession` reports its server's worker count), then to its
    ``jobs`` attribute (a local pool), then to 1.  An explicit capacity must
    be positive — a zero-capacity endpoint could never receive a shard.

    The gateway additionally tracks per-endpoint *load*: how many of its own
    shards are currently on the endpoint (``inflight``) plus the endpoint's
    last-polled server backlog (``load_hint``), which together discount the
    static capacity during adaptive sharding.
    """

    target: object
    capacity: float | None = None
    name: str = ""
    #: Serialises this endpoint's shards across in-flight gateway batches.
    lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: Gateway shards planned onto this endpoint and not yet finished
    #: (queued behind the endpoint lock, executing, or mid-retry).
    inflight: int = field(default=0, init=False, repr=False, compare=False)
    #: Attempts handed to this endpoint and not yet returned (waiting on
    #: ``lock`` or executing) — ``inflight`` minus the shards still queued
    #: in the gateway's dispatch pool.
    dispatched: int = field(default=0, init=False, repr=False, compare=False)
    #: Last polled remote backlog (server queue depth + inflight).
    load_hint: float = field(default=0.0, init=False, repr=False, compare=False)
    #: Draining (graceful retirement): the planner and shed-retry skip this
    #: endpoint, but shards already dispatched to it run to completion.
    draining: bool = field(default=False, init=False, repr=False, compare=False)
    #: Whether ``target.submit`` exists (pipelined remotes): hedged dispatch
    #: then gets a cancellable future, so losing attempts can be revoked on
    #: the server instead of computing an orphaned answer.
    supports_submit: bool = field(default=False, init=False, repr=False, compare=False)
    #: Whether that ``submit`` accepts a ``deadline_s`` keyword (local
    #: sessions have no ``submit``: they execute immediately, so there is
    #: nothing for a deadline to shed).
    submit_supports_deadline: bool = field(
        default=False, init=False, repr=False, compare=False
    )
    #: Hedges issued *against* this endpoint (its shard straggled and was
    #: duplicated elsewhere) — the slow-replica signal.
    hedges: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not hasattr(self.target, "infer"):
            raise TypeError(
                f"gateway endpoint target must provide infer(); got "
                f"{type(self.target).__name__}"
            )
        if self.capacity is None:
            self.capacity = float(
                getattr(self.target, "capacity", 0)
                or getattr(self.target, "jobs", 0)
                or 1
            )
        self.capacity = float(self.capacity)
        if self.capacity <= 0:
            raise ValueError(f"endpoint capacity must be > 0, got {self.capacity}")
        if not self.name:
            self.name = f"{type(self.target).__name__.lower()}"
        submitter = getattr(self.target, "submit", None)
        if callable(submitter):
            try:
                self.submit_supports_deadline = (
                    "deadline_s" in inspect.signature(submitter).parameters
                )
                self.supports_submit = True
            except (TypeError, ValueError):
                self.supports_submit = False


@dataclass
class _ShardPlan:
    endpoint: GatewayEndpoint
    start: int
    stop: int
    response: InferenceResponse | None = field(default=None, repr=False)
    #: Name of the endpoint originally planned, when the shard was shed
    #: there and re-ran on ``endpoint`` instead.
    retried_from: str | None = None
    #: Sibling a hedge duplicate was dispatched to (set when it fires).
    hedged_to: str | None = None
    #: Straggler endpoint a *winning* hedge rescued this shard from.
    hedged_from: str | None = None
    #: Shed retries this shard consumed from the request's budget.
    retries: int = 0
    #: Membership epoch the plan was made against (see
    #: :meth:`_ShardRun._replace_if_membership_changed`).
    epoch: int = 0


class _MergeState:
    """Accumulates streaming shard completions into one merged response."""

    def __init__(
        self,
        gateway: "InferenceGateway",
        request: InferenceRequest,
        plan: list[_ShardPlan],
        result: Future,
    ):
        self.gateway = gateway
        self.request = request
        self.plan = plan
        self.result = result
        self.lock = threading.Lock()
        self.remaining = len(plan)
        self.resolved = False
        self.predictions: np.ndarray | None = None
        self.spike_counts: np.ndarray | None = None
        self.shard_futures: list[Future] = []

    def shard_done(self, shard: _ShardPlan, future: Future) -> None:
        try:
            self._absorb(shard, future)
        except Exception as exc:  # noqa: BLE001 - the caller only sees the future
            # A merge failure (say, endpoints serving different output
            # widths) must surface on the result, never vanish into the
            # callback machinery and leave the caller hanging.
            with self.lock:
                self.resolved = True
            try:
                self.result.set_exception(exc)
            except InvalidStateError:
                pass

    def _absorb(self, shard: _ShardPlan, future: Future) -> None:
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            # First failure wins: surface it now, cancel what has not
            # started, and let the in-flight survivors finish idle.
            with self.lock:
                if self.resolved:
                    return
                self.resolved = True
                siblings = [f for f in self.shard_futures if f is not future]
            # Outside the lock: cancelling a pending future runs its
            # done-callback (this method, for the sibling shard) inline on
            # this very thread, which must not find the lock held.
            for other in siblings:
                other.cancel()
            if isinstance(exc, RetryBudgetExhausted):
                # Already a structured, self-describing error (attempts,
                # retries, chained cause): surface it unwrapped so callers
                # can branch on the type.
                self.result.set_exception(exc)
                return
            self.result.set_exception(
                RuntimeError(
                    f"gateway endpoint {shard.endpoint.name!r} failed on "
                    f"shard [{shard.start}:{shard.stop}): "
                    f"{type(exc).__name__}: {exc}"
                )
            )
            return
        response: InferenceResponse = future.result()
        with self.lock:
            if self.resolved:
                return
            shard.response = response
            # Stream the per-sample arrays straight into the merged slots.
            batch = self.request.batch_size
            if self.predictions is None:
                self.predictions = np.zeros(batch, dtype=response.predictions.dtype)
                self.spike_counts = np.zeros(
                    (batch, response.spike_counts.shape[1]),
                    dtype=response.spike_counts.dtype,
                )
            self.predictions[shard.start : shard.stop] = response.predictions
            self.spike_counts[shard.start : shard.stop] = response.spike_counts
            self.remaining -= 1
            if self.remaining > 0:
                return
            self.resolved = True
        self._finalise()

    def _finalise(self) -> None:
        merge_started = time.monotonic()
        plan, request = self.plan, self.request
        responses = [shard.response for shard in plan]
        # Deterministic reduction: counters and energy merge in plan order,
        # whatever order the shards completed in.
        counters = responses[0].counters
        energy = responses[0].energy
        for shard_response in responses[1:]:
            counters = counters.merge(shard_response.counters)
            energy = energy.merged_with(shard_response.energy)
        accuracy = None
        if request.labels is not None:
            accuracy = float(
                np.mean(self.predictions == np.asarray(request.labels, dtype=int))
            )
        backends = {r.backend for r in responses}
        metadata: dict[str, object] = {
            "gateway": self.gateway.name,
            "shards": [
                {
                    "endpoint": shard.endpoint.name,
                    "start": shard.start,
                    "stop": shard.stop,
                    "jobs": shard.response.jobs,
                    **(
                        {"retried_from": shard.retried_from}
                        if shard.retried_from is not None
                        else {}
                    ),
                    **({"retries": shard.retries} if shard.retries else {}),
                    **(
                        {"hedged_to": shard.hedged_to}
                        if shard.hedged_to is not None
                        else {}
                    ),
                    **(
                        {"hedged_from": shard.hedged_from}
                        if shard.hedged_from is not None
                        else {}
                    ),
                }
                for shard in plan
            ],
        }
        # Shards ran concurrently, so the merged request's phase spans
        # follow the critical path: per phase, the slowest shard's span.
        # The gateway's own merge work is then added on top.
        merge_phases(metadata, [r.metadata for r in responses])
        merge_s = time.monotonic() - merge_started
        record_phase(metadata, PHASE_MERGE, merge_s)
        self.gateway._m_merge.observe(merge_s)
        self.result.set_result(
            InferenceResponse(
                predictions=self.predictions,
                spike_counts=self.spike_counts,
                accuracy=accuracy,
                counters=counters,
                energy=energy,
                timesteps=responses[0].timesteps,
                backend=backends.pop() if len(backends) == 1 else "mixed",
                batch_size=request.batch_size,
                jobs=int(sum(r.jobs for r in responses)),
                metadata=metadata,
            )
        )


class _ShardAttempt:
    """One dispatch of a shard onto one endpoint (primary or hedge)."""

    __slots__ = ("endpoint", "hedge", "started", "task", "wire_future", "ended")

    def __init__(self, endpoint: GatewayEndpoint, *, hedge: bool):
        self.endpoint = endpoint
        self.hedge = hedge
        self.started: float | None = None
        #: The dispatch pool task running this attempt (cancellable only
        #: while still queued).
        self.task: Future | None = None
        #: The endpoint's in-flight cancellable future, while blocked on it.
        self.wire_future: Future | None = None
        #: Set exactly once, when the attempt's inflight charge is released.
        self.ended = False


class _ShardRun:
    """One shard's dispatch lifecycle: primary attempt, hedge, budget retries.

    Every attempt is an independent dispatch-pool task; the run resolves
    ``result`` (what the merge consumes) with whichever attempt finishes
    first.  Nothing here ever blocks on another pool task, so hedging adds
    load to the pool but can never deadlock it.  The straggler timer fires
    on its own daemon thread and only *schedules* the hedge.
    """

    def __init__(
        self,
        gateway: "InferenceGateway",
        shard: _ShardPlan,
        sub_request: InferenceRequest,
        deadline_s: float | None,
        budget: RetryBudget,
        result: Future,
    ):
        self.gateway = gateway
        self.shard = shard
        self.sub_request = sub_request
        self.deadline_s = deadline_s
        self.budget = budget
        self.result = result
        self.lock = threading.Lock()
        self.attempts: list[_ShardAttempt] = []
        self.winner: _ShardAttempt | None = None
        self.hedged = False
        self.timer: threading.Timer | None = None

    # -- launch -------------------------------------------------------------------

    def start(self) -> None:
        """Dispatch the primary attempt and arm the straggler timer.

        The hedge timer is armed only when a threshold exists *and* it
        precedes the request deadline: past the deadline the server has
        already shed the primary, so a duplicate could never win — a hedge
        never fires past the request deadline.
        """
        primary = _ShardAttempt(self.shard.endpoint, hedge=False)
        with self.lock:
            self.attempts.append(primary)
        threshold = self.gateway.hedge_threshold()
        if threshold is not None and (
            self.deadline_s is None or threshold < self.deadline_s
        ):
            self.timer = threading.Timer(threshold, self._fire_hedge)
            self.timer.daemon = True
            self.timer.start()
        primary.task = self.gateway._threads.submit(self._run_attempt, primary)

    def abandon(self) -> None:
        """The merged request no longer wants this shard; revoke best-effort."""
        if self.timer is not None:
            self.timer.cancel()
        with self.lock:
            pending = [a for a in self.attempts if not a.ended]
        for attempt in pending:
            if self.gateway._cancel_attempt(attempt):
                self._end_attempt(attempt)

    # -- hedging ------------------------------------------------------------------

    def _fire_hedge(self) -> None:
        """Timer body: duplicate the straggling shard onto a sibling."""
        with self.lock:
            if self.winner is not None or self.hedged or self.result.done():
                return
            primary = self.attempts[0]
            attempted = [a.endpoint for a in self.attempts]
        if self.deadline_s is not None:
            # Re-check at fire time: an early timer must still never hedge
            # work the deadline has already condemned.
            if time.monotonic() - (primary.started or 0.0) >= self.deadline_s:
                return
        sibling = self.gateway._fallback_for(primary.endpoint, exclude=attempted)
        if sibling is None:
            return
        attempt = _ShardAttempt(sibling, hedge=True)
        with self.lock:
            if self.winner is not None or self.result.done():
                return
            self.hedged = True
            self.attempts.append(attempt)
        self.shard.hedged_to = sibling.name
        with self.gateway._load_lock:
            sibling.inflight += 1
            primary.endpoint.hedges += 1
        self.gateway._count_tail("hedges_issued", self.gateway._m_hedges)
        try:
            attempt.task = self.gateway._threads.submit(self._run_attempt, attempt)
        except RuntimeError:  # gateway closed under the timer
            self._end_attempt(attempt)

    # -- attempt execution --------------------------------------------------------

    def _run_attempt(self, attempt: _ShardAttempt) -> None:
        attempt.started = time.monotonic()
        with self.lock:
            already_won = self.winner is not None
        if already_won:  # lost before ever starting (pool queue)
            self._attempt_cancelled(attempt)
            return
        if not attempt.hedge:
            self._replace_if_membership_changed(attempt)
        while True:
            try:
                response = self.gateway._infer_on_attempt(
                    attempt, self.sub_request, self.deadline_s
                )
            except CancelledError:
                self._attempt_cancelled(attempt)
                return
            except RemoteServerError as exc:
                error: BaseException = exc
                if exc.code in _SHED_RETRY_CODES:
                    with self.lock:
                        won = self.winner is not None
                    if not won:
                        moved = self._shed_retry(attempt, exc)
                        if moved is None:
                            continue
                        error = moved
                self._attempt_failed(attempt, error)
                return
            except BaseException as exc:  # noqa: BLE001 - routed into the future
                self._attempt_failed(attempt, exc)
                return
            self._attempt_finished(attempt, response)
            return

    def _replace_if_membership_changed(self, attempt: _ShardAttempt) -> None:
        """Re-place a primary attempt whose plan predates a membership change.

        Under a burst a shard can wait in the dispatch pool for longer than
        a replica takes to join or drain.  When the membership changed since
        planning, the attempt goes to the serving endpoint with the most
        spare capacity *now*, judged by the attempts already dispatched to
        each endpoint rather than by ``inflight``: the shards still queued
        and bound to an endpoint are exactly the ones that may move.  The
        planned endpoint keeps the shard on ties, a non-adaptive gateway
        keeps its static plan, a shard already hedged stays put (its
        duplicate took the least-loaded sibling), and a fleet with nothing
        serving keeps the plan (the endpoint's own refusal then surfaces).
        """
        gateway = self.gateway
        # An unchanged epoch (the common case) costs one attribute read.
        if not gateway.adaptive or self.shard.epoch == gateway._membership_epoch:
            return
        with self.lock:
            if self.hedged:
                return
        endpoints = gateway._serving_endpoints()
        if not endpoints:
            return
        planned = attempt.endpoint

        def spare(endpoint: GatewayEndpoint) -> float:
            return endpoint.capacity / (
                1.0 + endpoint.dispatched + endpoint.load_hint
            )

        with gateway._load_lock:
            # max() keeps the earliest endpoint on full ties.
            best = max(endpoints, key=spare)
            if any(e is planned for e in endpoints) and spare(planned) >= spare(best):
                return
            planned.inflight -= 1
            best.inflight += 1
        with self.lock:
            attempt.endpoint = best
            self.shard.endpoint = best

    def _shed_retry(
        self, attempt: _ShardAttempt, exc: RemoteServerError
    ) -> BaseException | None:
        """Move a shed attempt to a sibling within the request's budget.

        Returns ``None`` when the attempt moved (caller loops and re-runs),
        else the error to surface — the original shed error when no sibling
        is available, or the structured budget-exhaustion error.
        """
        with self.lock:
            attempted = [a.endpoint for a in self.attempts if a is not attempt]
        fallback = self.gateway._fallback_for(attempt.endpoint, exclude=attempted)
        if fallback is None:
            return exc
        consumed = self.budget.try_consume()
        if consumed is None:
            self.gateway._count_tail(
                "budget_exhausted", self.gateway._m_budget_exhausted
            )
            return self.budget.exhausted(exc)
        # Jittered backoff before the hop: an overloaded fleet being
        # hammered by synchronized immediate retries stays overloaded.
        time.sleep(self.budget.backoff_s(consumed))
        with self.gateway._load_lock:
            attempt.endpoint.inflight -= 1
            fallback.inflight += 1
        with self.lock:
            if not attempt.hedge and self.shard.retried_from is None:
                self.shard.retried_from = attempt.endpoint.name
            self.shard.retries += 1
            attempt.endpoint = fallback
        self.gateway._count_tail("retries", self.gateway._m_retries)
        return None

    # -- attempt outcomes ---------------------------------------------------------

    def _end_attempt(self, attempt: _ShardAttempt) -> None:
        """Release the attempt's inflight charge (idempotent)."""
        with self.lock:
            if attempt.ended:
                return
            attempt.ended = True
        with self.gateway._load_lock:
            attempt.endpoint.inflight -= 1

    def _attempt_finished(
        self, attempt: _ShardAttempt, response: InferenceResponse
    ) -> None:
        if attempt.started is not None:
            self.gateway._observe_shard_latency(time.monotonic() - attempt.started)
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                # Lost the race but computed a full answer anyway: the
                # cancel could not save this work.
                wasted = True
                losers: list[_ShardAttempt] = []
            else:
                self.winner = attempt
                wasted = False
                losers = [a for a in self.attempts if a is not attempt and not a.ended]
        if wasted:
            self.gateway._count_tail("hedge_wasted_compute", self.gateway._m_wasted)
            return
        if self.timer is not None:
            self.timer.cancel()
        for loser in losers:
            # Best-effort: a failed cancel must never fail the request.
            if self.gateway._cancel_attempt(loser):
                self._end_attempt(loser)
        if attempt.hedge:
            self.shard.hedged_from = self.attempts[0].endpoint.name
            self.gateway._count_tail("hedge_wins", self.gateway._m_hedge_wins)
        self.shard.endpoint = attempt.endpoint
        with contextlib.suppress(InvalidStateError):
            self.result.set_result(response)

    def _attempt_failed(self, attempt: _ShardAttempt, exc: BaseException) -> None:
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                # A loser failing after the win (typically: its cancel
                # landed server-side as a structured ``cancelled`` error)
                # is the hedge working as intended.
                return
            if any(not a.ended for a in self.attempts if a is not attempt):
                # A sibling attempt is still live; give it the chance to
                # win before surfacing anything.
                return
        with contextlib.suppress(InvalidStateError):
            self.result.set_exception(exc)

    def _attempt_cancelled(self, attempt: _ShardAttempt) -> None:
        self._end_attempt(attempt)
        with self.lock:
            if self.winner is not None:
                return
            if any(not a.ended for a in self.attempts if a is not attempt):
                return
        # Every attempt revoked with no winner: the request abandoned us.
        self.result.cancel()


class InferenceGateway:
    """Fan batches out across endpoints and merge the responses exactly.

    Parameters
    ----------
    adaptive:
        When True (default), sharding weights are the endpoints' *effective*
        capacities — the static weight discounted by the observed backlog
        (gateway shards already on the endpoint plus the server's polled
        queue depth): ``capacity / (1 + backlog)``.  Idle endpoints keep
        their static weights exactly, so a quiet gateway plans the same
        shards the static planner did.  Any shard split is result-identical
        (sharding is exact), so adaptivity changes placement, never numbers.
    load_poll_s:
        Interval of the background load refresher (seconds).  The refresher
        thread polls every endpoint's backlog on this cadence and caches
        the hints; ``submit()`` only ever reads the cache.  Only pipelined
        remotes (thread-safe ``info``, live ``queue_depth`` / ``inflight``
        fields) are polled, each poll bounded by
        :data:`LOAD_POLL_TIMEOUT_S`; other targets may export a ``load()``
        method returning their backlog from local state, and everything
        else contributes only the gateway's own planned-shard count.
        :meth:`refresh_load_hints` forces one synchronous sweep (what the
        refresher runs; handy in tests and controllers).
    hedge_after_s:
        Fixed straggler threshold: a shard still unfinished after this many
        seconds is duplicated onto the least-loaded serving sibling; the
        first attempt to finish wins, the loser is cancelled best-effort.
        ``None`` (default) disables the fixed threshold.
    hedge_percentile:
        Adaptive straggler threshold: hedge once a shard's wait exceeds
        this percentile of the last :data:`_HEDGE_LATENCY_WINDOW` observed
        shard latencies (needs :data:`_HEDGE_MIN_SAMPLES` observations;
        combined with ``hedge_after_s`` the *larger* of the two wins, so a
        fixed knob acts as a floor under a twitchy percentile).  ``None``
        (default) disables.  Hedging is off only when both are ``None``.
    retry_attempts:
        Shed/``draining`` retries per *planned shard* folded into the
        default per-request :class:`RetryBudget` (pooled across the whole
        request) when the request does not carry its own budget.  The
        default of 1 preserves the historical single-hop allowance — now
        with jittered backoff between hops.
    retry_backoff_base_s / retry_backoff_cap_s:
        Backoff policy of that default budget (first hop sleeps about
        ``base``, doubling per retry up to ``cap``, jittered ±50%).
    """

    def __init__(
        self,
        endpoints: Sequence[GatewayEndpoint | object],
        *,
        name: str = "gateway",
        adaptive: bool = True,
        load_poll_s: float = 0.25,
        registry: MetricsRegistry | None = None,
        hedge_after_s: float | None = None,
        hedge_percentile: float | None = None,
        retry_attempts: int = 1,
        retry_backoff_base_s: float = 0.02,
        retry_backoff_cap_s: float = 0.5,
    ):
        if not endpoints:
            raise ValueError("gateway needs at least one endpoint")
        if load_poll_s < 0:
            raise ValueError(f"load_poll_s must be >= 0, got {load_poll_s}")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be > 0, got {hedge_after_s}")
        if hedge_percentile is not None and not 0 < hedge_percentile < 100:
            raise ValueError(
                f"hedge_percentile must be in (0, 100), got {hedge_percentile}"
            )
        if retry_attempts < 0:
            raise ValueError(f"retry_attempts must be >= 0, got {retry_attempts}")
        self.name = name
        self.adaptive = adaptive
        self.load_poll_s = load_poll_s
        self.hedge_after_s = hedge_after_s
        self.hedge_percentile = hedge_percentile
        self.retry_attempts = int(retry_attempts)
        self.retry_backoff_base_s = float(retry_backoff_base_s)
        self.retry_backoff_cap_s = float(retry_backoff_cap_s)
        self.metrics = registry if registry is not None else get_default_registry()
        self._m_requests = self.metrics.counter(
            "repro_gateway_requests_total", "batches submitted"
        )
        self._m_shards = self.metrics.counter(
            "repro_gateway_shards_total", "shards planned"
        )
        self._m_retries = self.metrics.counter(
            "repro_gateway_retries_total", "shards retried on a sibling"
        )
        self._m_hedges = self.metrics.counter(
            "repro_gateway_hedges_issued_total",
            "straggling shards duplicated onto a sibling",
        )
        self._m_hedge_wins = self.metrics.counter(
            "repro_gateway_hedge_wins_total",
            "shards won by the hedged duplicate",
        )
        self._m_wasted = self.metrics.counter(
            "repro_gateway_hedge_wasted_compute_total",
            "losing attempts that still computed a full response",
        )
        self._m_budget_exhausted = self.metrics.counter(
            "repro_gateway_budget_exhausted_total",
            "shards failed by an exhausted retry budget",
        )
        self._m_merge = self.metrics.histogram(
            "repro_gateway_merge_seconds", "shard merge wall per request"
        )
        # Plain-int mirrors of the tail counters: load-bearing (controller
        # signals, tests, benches) even when the metrics registry is the
        # process-wide disabled default.  Guarded by _load_lock.
        self._tail = {
            "hedges_issued": 0,
            "hedge_wins": 0,
            "hedge_wasted_compute": 0,
            "retries": 0,
            "budget_exhausted": 0,
        }
        #: Rolling observed shard latencies feeding hedge_percentile.
        self._shard_latencies: deque[float] = deque(maxlen=_HEDGE_LATENCY_WINDOW)
        self._endpoints = [
            e if isinstance(e, GatewayEndpoint) else GatewayEndpoint(target=e)
            for e in endpoints
        ]
        # Guards membership changes (add/remove/drain) against concurrent
        # planners; planners work on snapshots, so holding it is brief.
        self._membership_lock = threading.Lock()
        # Bumped by every membership change; a queued shard planned under an
        # older epoch is re-placed when it dispatches.
        self._membership_epoch = 0
        # Guards the per-endpoint inflight counters and load hints (the
        # endpoint `lock` is held for whole inferences — too coarse here).
        self._load_lock = threading.Lock()
        # Sized for several batches in flight: shards of batch k+1 queue up
        # behind the per-endpoint locks while batch k still computes.
        self._threads = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._endpoints)),
            thread_name_prefix="gateway",
        )
        self._closed = False
        # Background load refresher: the ONLY place endpoint `info` is
        # polled, so submit() can never block on a wedged endpoint.  It
        # waits a full interval before the first sweep (an idle start plans
        # exactly like the static planner anyway), and close() joins it.
        self._refresh_stop = threading.Event()
        self._refresher: threading.Thread | None = None
        if self.adaptive:
            self._refresher = threading.Thread(
                target=self._refresh_loop,
                name=f"{self.name}-load-refresh",
                daemon=True,
            )
            self._refresher.start()

    # -- lifecycle ----------------------------------------------------------------

    def close(self, *, close_endpoints: bool = False) -> None:
        """Shut down the refresher + dispatch threads; optionally endpoints too."""
        if not self._closed:
            self._closed = True
            self._refresh_stop.set()
            if self._refresher is not None:
                self._refresher.join(timeout=10.0)
            self._threads.shutdown(wait=True)
        if close_endpoints:
            for endpoint in self.endpoints:
                closer = getattr(endpoint.target, "close", None)
                if callable(closer):
                    closer()

    def __enter__(self) -> "InferenceGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- membership ---------------------------------------------------------------

    @property
    def endpoints(self) -> list[GatewayEndpoint]:
        """Snapshot of the current membership (copy; mutation-safe)."""
        with self._membership_lock:
            return list(self._endpoints)

    def add_endpoint(
        self,
        target: GatewayEndpoint | object,
        *,
        capacity: float | None = None,
        name: str | None = None,
    ) -> GatewayEndpoint:
        """Join an endpoint; the next ``submit()`` can use it.

        Shards already dispatched are untouched; shards still queued in
        the dispatch pool may move to it as they dispatch (see
        :meth:`_ShardRun._replace_if_membership_changed`).  Endpoint names
        must be unique — they are what :meth:`drain_endpoint` /
        :meth:`remove_endpoint` address.
        """
        endpoint = (
            target
            if isinstance(target, GatewayEndpoint)
            else GatewayEndpoint(target=target, capacity=capacity, name=name or "")
        )
        with self._membership_lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            if any(e.name == endpoint.name for e in self._endpoints):
                raise ValueError(
                    f"gateway already has an endpoint named {endpoint.name!r}"
                )
            self._endpoints.append(endpoint)
            self._membership_epoch += 1
            # Keep ~2 dispatch threads available per endpoint.  stdlib pools
            # have no public resize; raising the cap is how they grow (the
            # attribute is stable across supported CPythons).
            self._threads._max_workers = max(
                self._threads._max_workers, 4, 2 * len(self._endpoints)
            )
        return endpoint

    def drain_endpoint(self, name: str) -> GatewayEndpoint:
        """Stop planning new shards onto ``name`` (in-flight work finishes).

        The retirement handshake: drain here first, then drain the server
        (it answers everything already admitted), then
        :meth:`remove_endpoint` once it exits.
        """
        with self._membership_lock:
            for endpoint in self._endpoints:
                if endpoint.name == name:
                    endpoint.draining = True
                    self._membership_epoch += 1
                    return endpoint
        raise KeyError(f"gateway has no endpoint named {name!r}")

    def remove_endpoint(self, name: str) -> GatewayEndpoint:
        """Remove an endpoint.  In-flight plans still complete against it."""
        with self._membership_lock:
            for index, endpoint in enumerate(self._endpoints):
                if endpoint.name == name:
                    del self._endpoints[index]
                    self._membership_epoch += 1
                    return endpoint
        raise KeyError(f"gateway has no endpoint named {name!r}")

    def _serving_endpoints(self) -> list[GatewayEndpoint]:
        """Endpoints new shards may be planned onto (non-draining)."""
        with self._membership_lock:
            return [e for e in self._endpoints if not e.draining]

    # -- load tracking ------------------------------------------------------------

    def _refresh_loop(self) -> None:
        # Clamp the busy-loop floor: load_poll_s=0 means "as fresh as
        # possible", not "spin a core".
        interval = max(self.load_poll_s, 0.05)
        while not self._refresh_stop.wait(interval):
            self.refresh_load_hints()

    def refresh_load_hints(self) -> None:
        """One synchronous backlog sweep over the current membership.

        This is the refresher thread's body, exposed so tests can force a
        fresh sample instead of waiting out the poll interval.  ``submit()``
        itself never calls it.
        """
        for endpoint in self.endpoints:
            self._poll_backlog(endpoint)

    def _poll_backlog(self, endpoint: GatewayEndpoint) -> float:
        """Refresh and return the endpoint's remote backlog hint.

        Two duck-typed sources, both optional: a ``load()`` method on the
        target (a local-state read), else an ``info`` poll (a pipelined
        remote answers it alongside in-flight shards on the same
        connections).  The info poll is bounded by :data:`LOAD_POLL_TIMEOUT_S`
        so one wedged endpoint cannot starve its siblings' refresh.  Poll
        failures (including timeouts) keep the previous hint: a dying
        endpoint's shard will fail loudly on its own.
        """
        target = endpoint.target
        hint: float | None = None
        loader = getattr(target, "load", None)
        if callable(loader):
            try:
                hint = float(loader())
            except Exception:  # noqa: BLE001 - load probes must never fail a plan
                hint = None
        elif callable(getattr(target, "info", None)):
            try:
                info = target.info(refresh=True, timeout=LOAD_POLL_TIMEOUT_S)
                hint = float(info.get("queue_depth", 0)) + float(
                    info.get("inflight", 0)
                )
            except Exception:  # noqa: BLE001 - load probes must never fail a plan
                hint = None
        with self._load_lock:
            if hint is not None:
                endpoint.load_hint = max(0.0, hint)
            return endpoint.load_hint

    def _backlog_of(self, endpoint: GatewayEndpoint) -> float:
        """Observed backlog: planned-but-unfinished shards + cached hint.

        A pure cached read — no I/O — so every caller on the submit path
        (planning, shed-retry fallback selection) stays non-blocking.
        """
        with self._load_lock:
            return float(endpoint.inflight) + float(endpoint.load_hint)

    def endpoint_loads(self) -> dict[str, dict[str, object]]:
        """Per-endpoint load snapshot (cached; safe to call from anywhere).

        The gateway-side planned-shard count, the refresher's last server
        hint, the draining flag and the hedges issued against each endpoint.
        """
        snapshot = self.endpoints
        loads: dict[str, dict[str, object]] = {}
        with self._load_lock:
            for endpoint in snapshot:
                loads[endpoint.name] = {
                    "backlog": float(endpoint.inflight) + float(endpoint.load_hint),
                    "inflight": int(endpoint.inflight),
                    "load_hint": float(endpoint.load_hint),
                    "draining": bool(endpoint.draining),
                    "hedges": int(endpoint.hedges),
                }
        return loads

    def _effective_capacity(self, endpoint: GatewayEndpoint) -> float:
        """Static weight discounted by backlog (equal to it when idle)."""
        if not self.adaptive:
            return float(endpoint.capacity)
        return float(endpoint.capacity) / (1.0 + self._backlog_of(endpoint))

    # -- sharding -----------------------------------------------------------------

    @property
    def total_capacity(self) -> float:
        """Sum of the static capacities of the serving (non-draining) endpoints."""
        return float(sum(e.capacity for e in self._serving_endpoints()))

    def shard_plan(self, batch: int) -> list[_ShardPlan]:
        """Load-aware contiguous shards covering ``[0, batch)`` exactly.

        Weights are the endpoints' effective capacities (static capacity
        discounted by cached backlog; see the class docstring) — on idle
        endpoints this is exactly the historical static capacity plan.
        Cumulative rounding keeps the boundaries monotone and the final
        boundary equal to ``batch``; endpoints whose rounded share is empty
        (small batches, heavy backlog) are skipped rather than sent
        degenerate requests.  Draining endpoints never appear in a new
        plan.  A single-endpoint plan degenerates to one whole-batch shard
        — no splitting, just the dispatch/merge envelope.
        """
        # Read before the snapshot: a change in between only makes the
        # shards re-check their placement when they dispatch.
        epoch = self._membership_epoch
        endpoints = self._serving_endpoints()
        if not endpoints:
            raise RuntimeError(
                f"gateway {self.name!r} has no serving endpoints (every "
                f"endpoint was removed or is draining)"
            )
        if len(endpoints) == 1:
            weights = [1.0]
        else:
            weights = [self._effective_capacity(e) for e in endpoints]
        total = sum(weights)
        plan: list[_ShardPlan] = []
        start = 0
        cumulative = 0.0
        for endpoint, weight in zip(endpoints, weights):
            cumulative += weight
            stop = round(batch * cumulative / total)
            if stop > start:
                plan.append(
                    _ShardPlan(endpoint=endpoint, start=start, stop=stop, epoch=epoch)
                )
                start = stop
        return plan

    # -- tail-latency accounting ----------------------------------------------------

    def _count_tail(self, key: str, metric) -> None:
        """Bump one tail counter in both the registry and the plain mirror."""
        with self._load_lock:
            self._tail[key] += 1
        metric.inc()

    def tail_stats(self) -> dict[str, int]:
        """Cumulative tail-latency counters (hedges, retries, exhaustions)."""
        with self._load_lock:
            return dict(self._tail)

    def _observe_shard_latency(self, seconds: float) -> None:
        with self._load_lock:
            self._shard_latencies.append(float(seconds))

    def hedge_threshold(self) -> float | None:
        """Current straggler threshold in seconds, or None when not hedging.

        The percentile-derived threshold needs :data:`_HEDGE_MIN_SAMPLES`
        observed shard latencies; before that (or with ``hedge_percentile``
        unset) the fixed ``hedge_after_s`` stands alone.  When both apply,
        the larger wins, and every threshold is floored at
        :data:`_HEDGE_FLOOR_S`.
        """
        if self.hedge_after_s is None and self.hedge_percentile is None:
            return None
        adaptive: float | None = None
        if self.hedge_percentile is not None:
            with self._load_lock:
                samples = (
                    list(self._shard_latencies)
                    if len(self._shard_latencies) >= _HEDGE_MIN_SAMPLES
                    else None
                )
            if samples is not None:
                adaptive = float(np.percentile(samples, self.hedge_percentile))
        if adaptive is None:
            if self.hedge_after_s is None:
                return None
            return max(self.hedge_after_s, _HEDGE_FLOOR_S)
        return max(adaptive, self.hedge_after_s or 0.0, _HEDGE_FLOOR_S)

    # -- inference ----------------------------------------------------------------

    def _infer_on_attempt(
        self,
        attempt: _ShardAttempt,
        sub_request: InferenceRequest,
        deadline_s: float | None,
    ) -> InferenceResponse:
        # One shard at a time per endpoint: endpoints own their internal
        # concurrency (pools shard further, pipelined remotes pipeline),
        # and most targets' infer() is not reentrant.  The inflight counter
        # is maintained by plan-time accounting and the attempt lifecycle,
        # not here, so queued-but-unstarted shards count too; ``dispatched``
        # counts only the attempts that reached this point.
        endpoint = attempt.endpoint
        with self._load_lock:
            endpoint.dispatched += 1
        try:
            with endpoint.lock:
                if endpoint.supports_submit:
                    # Dispatch through submit() so the in-flight work has a
                    # cancellable handle: if this attempt loses a hedge race,
                    # cancel() revokes it (frees the server queue slot) and
                    # unblocks this worker with CancelledError.
                    if deadline_s is not None and endpoint.submit_supports_deadline:
                        future = endpoint.target.submit(
                            sub_request, deadline_s=deadline_s
                        )
                    else:
                        future = endpoint.target.submit(sub_request)
                    attempt.wire_future = future
                    try:
                        return future.result()
                    finally:
                        attempt.wire_future = None
                return endpoint.target.infer(sub_request)
        finally:
            with self._load_lock:
                endpoint.dispatched -= 1

    def _cancel_attempt(self, attempt: _ShardAttempt) -> bool:
        """Best-effort revocation of a losing attempt; never raises.

        Still queued in the dispatch pool → the task is cancelled outright;
        returns True so the caller releases its inflight charge (the task
        will never run to release it itself).  Blocked on a cancellable
        endpoint future → that future is cancelled with ``reason="hedge"``,
        which revokes the server-side work and unblocks the worker.
        Anything else (a blocking ``infer`` mid-compute) runs to completion
        and is counted as wasted compute when it lands.
        """
        task = attempt.task
        if task is not None and task.cancel():
            return True
        wire_future = attempt.wire_future
        if wire_future is not None:
            with contextlib.suppress(Exception):
                wire_future.cancel_reason = "hedge"
                wire_future.cancel()
        return False

    def _fallback_for(
        self,
        shed: GatewayEndpoint,
        exclude: Sequence[GatewayEndpoint] = (),
    ) -> GatewayEndpoint | None:
        """The least-backlogged *other* serving endpoint, or None when alone.

        ``exclude`` names further endpoints to avoid — a hedge must not
        land on an endpoint already attempting this very shard.
        """
        excluded = {id(e) for e in exclude}
        excluded.add(id(shed))
        candidates = [
            e for e in self._serving_endpoints() if id(e) not in excluded
        ]
        if not candidates:
            return None
        # Least backlog first; static capacity breaks ties (deterministic:
        # min() keeps the earliest endpoint on full ties).
        return min(candidates, key=lambda e: (self._backlog_of(e), -e.capacity))

    def submit(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> Future:
        """Dispatch one batch without blocking.

        Returns a future resolving to the merged
        :class:`InferenceResponse`.  All endpoint shards go out
        concurrently; completions merge as they stream in, and a shard
        failure resolves the future immediately with an error naming the
        endpoint.  A shard shed by an overloaded endpoint is retried on the
        least-loaded sibling within the request's retry budget (the
        request's own :class:`RetryBudget` when it carries one, else a
        default pooled budget of ``retry_attempts`` hops per planned
        shard), and a straggling shard is hedged onto a sibling once its
        wait crosses :meth:`hedge_threshold`.  ``deadline_s`` propagates to
        every endpoint whose ``submit`` accepts it (remote sessions pass it
        to the server's admission control).  Safe to call again before
        earlier batches resolve — batches pipeline across the endpoints.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        plan = self.shard_plan(request.batch_size)
        self._m_requests.inc()
        self._m_shards.inc(len(plan))
        budget = request.retry_budget
        if budget is None:
            budget = RetryBudget(
                1 + self.retry_attempts * len(plan),
                backoff_base_s=self.retry_backoff_base_s,
                backoff_cap_s=self.retry_backoff_cap_s,
            )
            # Shards carry the shared budget so endpoint-internal retries
            # (a PipelinedSession resubmitting after a dead connection)
            # draw from the same per-request pool.
            request = request.with_retry_budget(budget)
        result: Future = Future()
        state = _MergeState(self, request, plan, result)
        # Plan-time load accounting: the primary attempt counts against its
        # endpoint from the moment it is planned (queued work is backlog
        # too); each attempt releases its own charge however it ends —
        # completed, failed, or cancelled before it ever ran.
        with self._load_lock:
            for shard in plan:
                shard.endpoint.inflight += 1
        runs = [
            _ShardRun(
                self,
                shard,
                request.shard(shard.start, shard.stop),
                deadline_s,
                budget,
                Future(),
            )
            for shard in plan
        ]
        state.shard_futures.extend(run.result for run in runs)
        for shard, run in zip(plan, runs):
            run.result.add_done_callback(
                lambda done, run=run: run.abandon() if done.cancelled() else None
            )
            run.result.add_done_callback(
                lambda done, shard=shard: state.shard_done(shard, done)
            )
        for run in runs:
            run.start()
        return result

    def infer(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> InferenceResponse:
        """Shard one request across the endpoints and merge the responses."""
        return self.submit(request, deadline_s=deadline_s).result()

    def infer_many(
        self,
        requests: list[InferenceRequest],
        *,
        deadline_s: float | None = None,
    ) -> list[InferenceResponse]:
        """Pipeline several batches through the endpoints at once.

        The first failure cancels every outstanding future instead of
        abandoning the remaining work in flight on the endpoints.
        """
        futures = [
            self.submit(request, deadline_s=deadline_s) for request in requests
        ]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                if not future.done():
                    future.cancel()
            raise
