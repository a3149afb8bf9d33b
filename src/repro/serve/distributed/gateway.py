"""Multi-endpoint inference gateway: capacity-weighted sharding, streaming merge.

:class:`InferenceGateway` fans one request batch out across several
endpoints — local :class:`~repro.serve.ChipSession`\\ s and
:class:`~repro.serve.ChipPool`\\ s, remote
:class:`~repro.serve.distributed.client.PipelinedSession`\\ s, anything with
the ``infer`` contract — and merges the shard responses into one exact
result.

Sharding is *static and capacity-weighted*: an endpoint with capacity 3
(say, a remote pool with ``jobs=3``) receives three times the samples of a
capacity-1 session, via cumulative rounding so the contiguous shard sizes
always sum to the batch exactly.  The plan is a pure function of the batch
size and the endpoints' capacities — like RESPARC's mapping of a network
onto identical tiles, it is fixed before the work runs — so the gateway
never polls an endpoint.  A shard that an overloaded or draining server
*sheds* (structured ``overloaded`` / ``draining`` error) is retried on the
sibling with the fewest of this gateway's shards in flight, within the
request's :class:`~repro.serve.retry.RetryBudget` (jittered backoff between
hops; exhaustion surfaces as a structured
:class:`~repro.serve.retry.RetryBudgetExhausted`), and per-request deadlines
propagate to every endpoint whose ``submit`` takes one.

The gateway also mitigates *stragglers*: with hedging enabled
(``hedge_after_s``), a shard whose wait exceeds the straggler threshold is
**hedged** — duplicated to the least-loaded sibling.  The first attempt to
finish wins the shard; the loser is cancelled best-effort (over the wire via
the ``cancel`` op, tagged ``reason="hedge"``, when the endpoint hands out
cancellable futures), and a losing attempt that still completes is counted
as wasted compute.  Hedging is exact for the same reason shed-retry is:
shards are deterministic, idempotent functions of their absolute sample
range, so whichever attempt wins returns bit-identical numbers.  A hedge
never fires past the request deadline, and a failed hedge cancel never fails
the request.  Because every shard carries its absolute ``sample_offset`` and
every endpoint derives spike trains from the same shard-stable
:class:`~repro.snn.encoding.EncoderState` seeding, the merged response is
result-identical to running the whole batch on any single endpoint — any
placement a retry or hedge picks yields the same numbers — provided the
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

The endpoint set is fixed at construction.  A shard that races a server
drain gets the structured ``draining`` error and is retried on a sibling
like any other shed shard.

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

#: Structured server errors that make a shard eligible for retry on a
#: sibling endpoint (the server refused the work without starting it).
_SHED_RETRY_CODES = frozenset({ERROR_OVERLOADED, ERROR_DRAINING})

#: Floor on any hedge threshold: hedging sub-millisecond "stragglers" would
#: duplicate nearly every shard.
_HEDGE_FLOOR_S = 1e-3

#: Backoff of the default per-request retry budget (first hop sleeps about
#: the base, doubling per retry up to the cap, jittered ±50%).
_RETRY_BACKOFF_BASE_S = 0.02
_RETRY_BACKOFF_CAP_S = 0.5


@dataclass
class GatewayEndpoint:
    """One inference target behind the gateway, with its sharding weight.

    ``capacity`` defaults to the target's own ``capacity`` attribute (a
    :class:`PipelinedSession` reports its server's worker count), then to its
    ``jobs`` attribute (a local pool), then to 1.  An explicit capacity must
    be positive — a zero-capacity endpoint could never receive a shard.

    The gateway also counts how many of its own shards are on the endpoint
    (``inflight``).  The count never moves a shard boundary; it only picks
    the sibling a shed retry or a hedge goes to.
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
    #: duplicated elsewhere) — the slow-server signal.
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

    # -- launch -------------------------------------------------------------------

    def start(self) -> None:
        """Dispatch the primary attempt and arm the straggler timer.

        The hedge timer is armed only when a threshold exists *and* it
        precedes the request deadline: past the deadline the server has
        already shed the primary, so a duplicate could never win — a hedge
        never fires past the request deadline.  However the run resolves
        (won, failed or abandoned), resolving ``result`` cancels the timer.
        """
        primary = _ShardAttempt(self.shard.endpoint, hedge=False)
        with self.lock:
            self.attempts.append(primary)
        threshold = self.gateway.hedge_threshold()
        if threshold is not None and (
            self.deadline_s is None or threshold < self.deadline_s
        ):
            timer = threading.Timer(threshold, self._fire_hedge)
            timer.daemon = True
            self.result.add_done_callback(lambda _done: timer.cancel())
            timer.start()
        primary.task = self.gateway._threads.submit(self._run_attempt, primary)

    def abandon(self) -> None:
        """The merged request no longer wants this shard; revoke best-effort."""
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

    Every batch is split by :meth:`shard_plan` in proportion to the
    endpoints' static capacities; the gateway runs no thread of its own
    until the first shard is dispatched.

    Parameters
    ----------
    hedge_after_s:
        Straggler threshold: a shard still unfinished after this many
        seconds is duplicated onto the least-loaded sibling; the first
        attempt to finish wins, the loser is cancelled best-effort.
        ``None`` (default) disables hedging.

    A request without its own :class:`RetryBudget` gets a default one per
    request: ``1 + shards`` attempts, pooled across the whole request, with
    jittered backoff between hops.
    """

    def __init__(
        self,
        endpoints: Sequence[GatewayEndpoint | object],
        *,
        name: str = "gateway",
        registry: MetricsRegistry | None = None,
        hedge_after_s: float | None = None,
    ):
        if not endpoints:
            raise ValueError("gateway needs at least one endpoint")
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be > 0, got {hedge_after_s}")
        self.name = name
        self.hedge_after_s = hedge_after_s
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
        # Plain-int mirrors of the tail counters: load-bearing (tests,
        # benches) even when the metrics registry is the process-wide
        # disabled default.  Guarded by _load_lock.
        self._tail = {
            "hedges_issued": 0,
            "hedge_wins": 0,
            "hedge_wasted_compute": 0,
            "retries": 0,
            "budget_exhausted": 0,
        }
        self._endpoints = [
            e if isinstance(e, GatewayEndpoint) else GatewayEndpoint(target=e)
            for e in endpoints
        ]
        # Guards the per-endpoint inflight and hedge counters (the endpoint
        # `lock` is held for whole inferences — too coarse here).
        self._load_lock = threading.Lock()
        # Sized for several batches in flight: shards of batch k+1 queue up
        # behind the per-endpoint locks while batch k still computes.
        self._threads = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._endpoints)),
            thread_name_prefix="gateway",
        )
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self, *, close_endpoints: bool = False) -> None:
        """Join the dispatch threads once every shard ends; optionally close endpoints."""
        if not self._closed:
            self._closed = True
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

    @property
    def endpoints(self) -> list[GatewayEndpoint]:
        """The endpoints, fixed at construction (a copy)."""
        return list(self._endpoints)

    # -- load tracking ------------------------------------------------------------

    def endpoint_loads(self) -> dict[str, dict[str, object]]:
        """Per-endpoint load snapshot (safe to call from anywhere).

        This gateway's shards on each endpoint and the hedges issued
        against it.
        """
        loads: dict[str, dict[str, object]] = {}
        with self._load_lock:
            for endpoint in self._endpoints:
                loads[endpoint.name] = {
                    "inflight": int(endpoint.inflight),
                    "hedges": int(endpoint.hedges),
                }
        return loads

    # -- sharding -----------------------------------------------------------------

    @property
    def total_capacity(self) -> float:
        """Sum of the endpoints' static capacities."""
        return float(sum(e.capacity for e in self._endpoints))

    def shard_plan(self, batch: int) -> list[_ShardPlan]:
        """Capacity-weighted contiguous shards covering ``[0, batch)`` exactly.

        A pure function of ``batch`` and the endpoints' static capacities:
        what is in flight never moves a boundary.  Cumulative rounding keeps
        the boundaries monotone and the final boundary equal to ``batch``;
        endpoints whose rounded share is empty (small batches) are skipped
        rather than sent degenerate requests.  A single-endpoint plan is one
        whole-batch shard — no splitting, just the dispatch/merge envelope.
        """
        total = self.total_capacity
        plan: list[_ShardPlan] = []
        start = 0
        cumulative = 0.0
        for endpoint in self._endpoints:
            cumulative += endpoint.capacity
            stop = round(batch * cumulative / total)
            if stop > start:
                plan.append(_ShardPlan(endpoint=endpoint, start=start, stop=stop))
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

    def hedge_threshold(self) -> float | None:
        """Straggler threshold in seconds, or None when not hedging.

        ``hedge_after_s``, floored at :data:`_HEDGE_FLOOR_S`.
        """
        if self.hedge_after_s is None:
            return None
        return max(self.hedge_after_s, _HEDGE_FLOOR_S)

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
        # not here, so queued-but-unstarted shards count too.
        endpoint = attempt.endpoint
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
        """The *other* endpoint with the fewest in-flight shards, or None when alone.

        ``exclude`` names further endpoints to avoid — a hedge must not
        land on an endpoint already attempting this very shard.
        """
        excluded = {id(e) for e in exclude}
        excluded.add(id(shed))
        candidates = [e for e in self._endpoints if id(e) not in excluded]
        if not candidates:
            return None
        # Fewest in-flight shards first; static capacity breaks ties
        # (deterministic: min() keeps the earliest endpoint on full ties).
        with self._load_lock:
            return min(candidates, key=lambda e: (e.inflight, -e.capacity))

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
        default pooled budget of one hop per planned shard), and a
        straggling shard is hedged onto a sibling once its
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
                1 + len(plan),
                backoff_base_s=_RETRY_BACKOFF_BASE_S,
                backoff_cap_s=_RETRY_BACKOFF_CAP_S,
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
