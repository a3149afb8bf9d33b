"""Asyncio chip server: pipelined binary-frame inference over TCP.

:class:`ChipServer` wraps any inference target that answers
``infer(InferenceRequest) -> InferenceResponse`` — a
:class:`~repro.serve.ChipSession`, a :class:`~repro.serve.ChipPool`, even a
gateway — behind a tiny protocol:

* client sends one envelope per message: ``{"op": "infer", "request":
  {...}}``, ``{"op": "info"}``, ``{"op": "ping"}``, ``{"op": "metrics"}``,
  ``{"op": "drain"}`` or ``{"op": "shutdown"}``, each tagged with the
  protocol version ``"v": 3`` and a request ``"id"``;
* server answers one envelope per message: ``{"ok": true, ...}`` on success
  or ``{"ok": false, "error": "..."}`` on failure — corrupt frames, envelope
  violations, schema violations and inference errors all surface as error
  replies rather than dropped connections.  Replies echo the request's
  ``id``.

Every envelope travels as a protocol-v3 length-prefixed binary frame
(:data:`~repro.serve.schema.FRAME_MAGIC` header, compact-JSON metadata, raw
little-endian array payload — see :mod:`repro.serve.schema`), so an
``infer`` round trip serialises the batch as two memcpys.  A peer whose
first byte is not the frame magic (an old JSON-line client) gets one error
frame naming protocol 3, then the server hangs up.

The server core is an :mod:`asyncio` event loop, so a connection is not a
lock-step request/reply channel: a client may keep several tagged requests
in flight and match the replies by ``id``.  Every ``infer`` lands on a
single server-wide queue; a dispatcher coroutine drains the queue and
**dynamically batches** compatible requests — same ``timesteps`` override
— from any number of clients into one ``target.infer_many`` pool
dispatch.  Responses are split back per request by the pool, exactly
(shard-stable encoding means coalescing changes throughput, never
numbers).  Chip work runs on a one-thread executor so the event loop stays
responsive while the chips crunch; the frame codec runs on the loop itself
(decoding is zero-copy), so that hand-off is a request's only thread hop.

The queue is also the server's **admission-control plane**: ``max_queue``
bounds how many requests may wait at once, and excess load is rejected with
a structured ``overloaded`` error reply; per-request ``deadline_s`` expires
waiting work with ``deadline_exceeded`` (checked on every queue sweep and
again immediately before dispatch), and the ``cancel`` op removes a
connection's own queued request.  Live load (``queue_depth``,
``inflight``) and the shed/expired/cancelled counters are exported through
the ``info`` op for operators; the gateway shards by static capacity and
never polls them.

The payloads are exactly the serve-schema dicts with their arrays kept raw,
so a response read off the wire is lossless (`InferenceResponse.from_dict`),
and the numbers a remote client sees are bit-identical to a local run.

:func:`load_benchmark_workload` builds a servable SNN from the benchmark
registry (network → synthetic dataset → ANN→SNN conversion), which is what
``python -m repro.serve.distributed serve --workload mnist-mlp`` uses.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.datasets import make_dataset
from repro.serve.schema import (
    ERROR_CANCELLED,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_DRAINING,
    ERROR_OVERLOADED,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    InferenceRequest,
    decode_frame_payload,
    encode_frame,
    error_envelope,
    parse_frame_header,
    reply_envelope,
    validate_envelope,
)
from repro.serve.metrics import (
    PHASE_COMPUTE,
    PHASE_DISPATCH,
    PHASE_MERGE,
    PHASE_QUEUE_WAIT,
    MetricsRegistry,
    get_default_registry,
    read_phases,
    record_phase,
    render_prometheus,
)
from repro.serve.metrics.exposition import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.snn.conversion import SpikingNetwork, convert_to_snn
from repro.workloads import get_benchmark

__all__ = [
    "ChipServer",
    "ServeRejection",
    "ServingWorkload",
    "load_benchmark_workload",
]

class ServeRejection(Exception):
    """An admission-control rejection, carried to the wire as a coded error.

    ``code`` is one of the structured wire codes
    (:data:`~repro.serve.schema.ERROR_OVERLOADED`,
    :data:`~repro.serve.schema.ERROR_DEADLINE_EXCEEDED`,
    :data:`~repro.serve.schema.ERROR_CANCELLED`); the server turns the
    exception into an error reply whose ``code`` field clients branch on.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


@dataclass
class ServingWorkload:
    """A benchmark prepared for serving: the SNN plus its evaluation split."""

    name: str
    snn: SpikingNetwork
    test_inputs: np.ndarray
    test_labels: np.ndarray


def load_benchmark_workload(
    benchmark: str,
    *,
    scale: float = 1.0,
    seed: int = 7,
    train_samples: int = 64,
    test_samples: int = 32,
) -> ServingWorkload:
    """Build a servable SNN for a registered MLP benchmark.

    Deterministic in ``(benchmark, scale, seed, train_samples)``: a server
    and a client that load the same workload with the same arguments hold
    the same network, which is what makes remote results comparable to local
    ones.
    """
    spec = get_benchmark(benchmark)
    if not spec.is_mlp:
        raise ValueError(
            f"{benchmark!r} is not an MLP; the chip server executes fully "
            f"connected networks only (choose from the *-mlp benchmarks)"
        )
    network = spec.build(scale=scale, seed=seed)
    dataset = make_dataset(
        spec.dataset, train_samples=train_samples, test_samples=test_samples, seed=seed
    )
    train_inputs = dataset.train_images.reshape(dataset.train_images.shape[0], -1)
    test_inputs = dataset.test_images.reshape(dataset.test_images.shape[0], -1)
    snn = convert_to_snn(network, train_inputs[: min(32, len(train_inputs))])
    return ServingWorkload(
        name=benchmark,
        snn=snn,
        test_inputs=test_inputs,
        test_labels=dataset.test_labels,
    )


@dataclass
class _QueuedInfer:
    """One infer request waiting in the server's dynamic-batching queue."""

    key: object  # compatibility key: requests sharing it may coalesce
    request: InferenceRequest
    future: asyncio.Future
    #: Absolute loop-clock deadline (``loop.time()`` based), or None.
    deadline: float | None = None
    #: Loop-clock instant the request entered the dispatch queue; the
    #: dispatcher turns the difference to its pop time into the
    #: ``queue_wait_s`` phase span.
    admitted_at: float | None = None
    #: True once the dispatcher has handed the request to the work thread;
    #: dispatched work can no longer be cancelled (dispatch wins).
    dispatched: bool = False


class ChipServer:
    """Serve an inference target on a TCP port (asyncio core).

    Parameters
    ----------
    target:
        Anything with ``infer(InferenceRequest) -> InferenceResponse``.
        Targets that additionally provide ``infer_many(list) -> list`` (a
        :class:`~repro.serve.ChipPool`) get cross-client dynamic batching:
        queued compatible requests coalesce into one pool dispatch.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address`).  The socket is bound eagerly in the constructor,
        so :attr:`address` is valid before serving starts.
    workload:
        Human-readable workload name reported by the ``info`` op.
    max_batch:
        Most requests one dynamic batch may coalesce (>= 1).  Only what is
        already queued coalesces — batching under concurrency, zero added
        latency when idle.
    max_queue:
        Most ``infer`` requests that may wait for dispatch at once (0 =
        unbounded, the historical behaviour).  With a bound, overload
        degrades gracefully instead of accumulating latency without limit:
        an ``infer`` arriving at a full queue is answered immediately with
        a structured ``overloaded`` error reply.

    Use :meth:`serve_forever` to block, or :meth:`start` to serve on a
    background thread; :meth:`close` (or the context manager) tears down
    either way.  A ``drain`` op retires the server gracefully: admission
    stops (new ``infer`` requests answer a structured ``draining`` error),
    every already-admitted request is computed and its reply delivered, and
    only then does the serving loop exit.
    """

    def __init__(
        self,
        target,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workload: str = "custom",
        max_batch: int = 8,
        max_queue: int = 0,
        metrics_port: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.target = target
        self.workload = workload
        self.max_batch = max_batch
        self.max_queue = max_queue
        #: Unix timestamp of server construction (the socket binds here, so
        #: this is when the endpoint became connectable).
        self.started_at = time.time()
        # Bind eagerly so `address` works immediately and `start()` has no
        # listening race; asyncio adopts this socket in _serve_async.
        self._sock = socket.create_server((host, port), reuse_port=False)
        bound = self._sock.getsockname()[:2]
        self._address = (str(bound[0]), int(bound[1]))
        #: Per-instance metrics registry: the source of truth for every
        #: serving counter (the legacy ``stats`` dict is a read-only view
        #: over it), exposed through the ``metrics`` wire op and the
        #: Prometheus endpoint.  Per-instance — never the process default —
        #: so two servers in one test process cannot share counters, and
        #: always enabled unless the caller injects a disabled registry
        #: (``info``'s counters and the drain ack's final snapshot read it).
        self.metrics = registry if registry is not None else MetricsRegistry(enabled=True)
        self._m_requests = self.metrics.counter(
            "repro_server_requests_total", "infer requests served"
        )
        self._m_batches = self.metrics.counter(
            "repro_server_batches_total", "coalesced dispatches made"
        )
        self._m_shed = self.metrics.counter(
            "repro_server_shed_total", "requests shed by admission control"
        )
        self._m_deadline = self.metrics.counter(
            "repro_server_deadline_exceeded_total",
            "requests expired before dispatch",
        )
        self._m_cancelled = self.metrics.counter(
            "repro_server_cancelled_total", "queued requests cancelled"
        )
        self._m_hedge_cancelled = self.metrics.counter(
            "repro_server_hedge_cancelled_total",
            "queued requests revoked by a gateway hedge (cancel reason=hedge)",
        )
        self._m_drain_rejected = self.metrics.counter(
            "repro_server_drain_rejected_total",
            "requests refused while draining",
        )
        self._m_max_coalesced = self.metrics.gauge(
            "repro_server_max_coalesced", "largest coalesced dispatch"
        )
        self._m_queue_depth = self.metrics.gauge(
            "repro_server_queue_depth", "requests admitted, not yet dispatched"
        )
        self._m_inflight = self.metrics.gauge(
            "repro_server_inflight", "requests on the work thread"
        )
        self._m_queue_wait = self.metrics.histogram(
            "repro_request_queue_wait_seconds",
            "admission to dispatcher pop",
        )
        self._m_dispatch = self.metrics.histogram(
            "repro_request_dispatch_seconds",
            "dispatcher pop to compute start",
        )
        self._m_compute = self.metrics.histogram(
            "repro_request_compute_seconds", "chip compute wall time"
        )
        self._m_merge = self.metrics.histogram(
            "repro_request_merge_seconds", "shard merge wall time"
        )
        self._m_wall = self.metrics.histogram(
            "repro_request_wall_seconds",
            "admission to reply-ready wall time",
        )
        #: Optional Prometheus scrape listener, bound eagerly like the main
        #: socket (``metrics_port=0`` picks a free port; None disables it).
        self._metrics_sock: socket.socket | None = None
        self._metrics_address: tuple[str, int] | None = None
        if metrics_port is not None:
            self._metrics_sock = socket.create_server(
                (host, metrics_port), reuse_port=False
            )
            bound = self._metrics_sock.getsockname()[:2]
            self._metrics_address = (str(bound[0]), int(bound[1]))
        #: Requests admitted but not yet dispatched (the live queue depth the
        #: admission bound applies to; includes items the dispatcher holds).
        self._backlog = 0
        #: Requests currently executing on the work thread.
        self._inflight = 0
        #: ``infer`` messages whose replies have not been fully written yet
        #: (admitted, queued, computing or mid-write).  A drain completes —
        #: and the serving loop exits — only when this reaches zero, so a
        #: scale-down can never drop an answer a client is still owed.
        self._active_infers = 0
        #: True once a ``drain`` op arrived: admission is closed for good.
        self._draining = False
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._queue: asyncio.Queue[_QueuedInfer] | None = None
        # Chip work runs on exactly one worker thread, which is the
        # serialisation point: bare targets (a structural ChipSession
        # mutates live chip state per run) are not thread-safe, and a busy
        # worker is what lets queued requests pile up and coalesce.
        self._work = ThreadPoolExecutor(max_workers=1, thread_name_prefix="chip-work")
        self._serving = False
        self._closed = False

    # -- introspection ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (cached at bind time)."""
        return self._address

    @property
    def endpoint(self) -> str:
        """The bound address as a ``host:port`` string."""
        host, port = self.address
        return f"{host}:{port}"

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The Prometheus endpoint's ``(host, port)`` (None when disabled)."""
        return self._metrics_address

    @property
    def stats(self) -> dict[str, int]:
        """The serving counters, as a view over the registry.

        ``info`` and the drain acknowledgement carry this dict; the
        registry is the storage.
        """
        return {
            "requests": int(self._m_requests.value),
            "batches": int(self._m_batches.value),
            "max_coalesced": int(self._m_max_coalesced.value),
            "shed": int(self._m_shed.value),
            "deadline_exceeded": int(self._m_deadline.value),
            "cancelled": int(self._m_cancelled.value),
            "hedge_cancelled": int(self._m_hedge_cancelled.value),
            "drain_rejected": int(self._m_drain_rejected.value),
        }

    def metrics_snapshot(self) -> dict[str, object]:
        """Everything this process observed: server registry + layer registry.

        The server's per-instance families are joined with the
        process-default registry's (session/pool/gateway instrumentation
        lands there), own families winning on a name collision, so one
        scrape shows the whole serving stack of this process.
        """
        combined = get_default_registry().snapshot()
        own = self.metrics.snapshot()
        families = dict(combined["families"])
        families.update(own["families"])
        return {"enabled": own["enabled"], "families": families}

    def metrics_payload(self) -> dict[str, object]:
        """The ``metrics`` op result: one snapshot, rendered once.

        The Prometheus endpoint renders the same snapshot shape, so both
        surfaces serve identical values by construction.
        """
        snapshot = self.metrics_snapshot()
        return {
            "schema_version": SCHEMA_VERSION,
            "replica_id": self.endpoint,
            "workload": self.workload,
            "snapshot": snapshot,
            "text": render_prometheus(snapshot),
        }

    def info(self) -> dict[str, object]:
        """Metadata reported to clients (duck-typed off the target)."""
        session = getattr(self.target, "session", self.target)
        jobs = int(getattr(self.target, "jobs", 1))
        info: dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "protocol_version": PROTOCOL_VERSION,
            "workload": self.workload,
            # Process identity (the bound address and pid), plus the
            # lifecycle state a drain flips.
            "replica_id": self.endpoint,
            "pid": os.getpid(),
            "state": "draining" if self._draining else "serving",
            "backend": getattr(session, "backend", "unknown"),
            "timesteps": int(getattr(session, "timesteps", 0)),
            "jobs": jobs,
            # Capacity drives gateway sharding weights; a pool's capacity is
            # its worker count.
            "capacity": jobs,
            "max_batch": self.max_batch,
            # Live load for operators: admitted-but-undispatched requests
            # and requests on the work thread right now.
            "queue_depth": self._backlog,
            "inflight": self._inflight,
            "max_queue": self.max_queue,
            "started_at": self.started_at,
            "uptime_s": max(0.0, time.time() - self.started_at),
            "stats": dict(self.stats),
        }
        executor = getattr(self.target, "executor", None)
        if executor is not None:
            info["executor"] = executor
        if self._metrics_address is not None:
            host, port = self._metrics_address
            info["metrics_endpoint"] = f"{host}:{port}"
        return info

    # -- admission control --------------------------------------------------------

    def _release_slot(self) -> None:
        """Return one backlog slot.

        Called whenever an admitted request leaves the queue — dispatched,
        expired or cancelled.
        """
        self._backlog -= 1
        self._m_queue_depth.set(self._backlog)

    def _reject_draining(self) -> ServeRejection:
        self._m_drain_rejected.inc()
        return ServeRejection(
            "server is draining; no new work is admitted", code=ERROR_DRAINING
        )

    def _admit(self, item: _QueuedInfer) -> None:
        """Apply the queue bound, then enqueue (never partially admits).

        A full queue sheds the request immediately with a structured
        ``overloaded`` error, and a draining server admits nothing:
        requests answer a structured ``draining`` error instead.  There is
        no await between the bound check and the enqueue, so admission is
        atomic on the event loop.
        """
        assert self._loop is not None and self._queue is not None
        if self._draining:
            raise self._reject_draining()
        if self.max_queue and self._backlog >= self.max_queue:
            self._m_shed.inc()
            raise ServeRejection(
                f"server queue is full ({self._backlog}/{self.max_queue} "
                f"requests waiting); request shed",
                code=ERROR_OVERLOADED,
            )
        self._backlog += 1
        self._m_queue_depth.set(self._backlog)
        item.admitted_at = self._loop.time()
        self._queue.put_nowait(item)

    # -- graceful drain -----------------------------------------------------------

    def _begin_drain(self) -> dict[str, object]:
        """Close admission for good (idempotent; event-loop only)."""
        already = self._draining
        self._draining = True
        return {
            "draining": True,
            "was_draining": already,
            "pending": self._active_infers,
            # Final observability snapshot, so a drain never discards this
            # server's shed/deadline/cancel history: the drain ack is the
            # last reply its client is guaranteed to read before the
            # serving loop exits.
            "stats": dict(self.stats),
            "metrics": self.metrics.snapshot(),
        }

    def _maybe_finish_drain(self) -> None:
        """Exit the serving loop once a drain owes no client a reply.

        ``_active_infers`` covers the whole life of an admitted request —
        queued, dispatched, and the reply write itself — so stopping here
        can never cut off an answer mid-delivery.
        """
        if (
            self._draining
            and self._active_infers == 0
            and self._stop_event is not None
        ):
            self._stop_event.set()

    # -- protocol -----------------------------------------------------------------

    @staticmethod
    def _parse_deadline(message: dict[str, object]) -> float | None:
        deadline_s = message.get("deadline_s")
        if deadline_s is None:
            return None
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or deadline_s <= 0
        ):
            raise ValueError(
                f"deadline_s must be a positive number of seconds, got {deadline_s!r}"
            )
        return float(deadline_s)

    async def _execute(
        self, message: dict[str, object], conn_pending: dict[object, _QueuedInfer]
    ) -> dict[str, object]:
        """Turn one parsed envelope into a reply envelope (never raises).

        ``conn_pending`` maps this connection's still-pending ``infer`` ids
        to their queue items, which is what the ``cancel`` op reaches into
        (and how it tells queued work from dispatched work).
        """
        op = message.get("op")
        request_id = message.get("id")
        try:
            if op == "ping":
                result: dict[str, object] = {"pong": True}
            elif op == "info":
                result = {"info": self.info()}
            elif op == "infer":
                payload = message.get("request")
                if not isinstance(payload, dict):
                    raise ValueError('infer needs a "request" object payload')
                deadline_s = self._parse_deadline(message)
                assert self._loop is not None and self._queue is not None
                request = InferenceRequest.from_dict(payload)
                future = self._loop.create_future()
                deadline = (
                    None if deadline_s is None else self._loop.time() + deadline_s
                )
                # Compatibility key: only requests sharing the encoding
                # window may ride in one coalesced dispatch.
                item = _QueuedInfer(
                    key=request.timesteps,
                    request=request,
                    future=future,
                    deadline=deadline,
                )
                admit_started = self._loop.time()
                self._admit(item)
                conn_pending[request_id] = item
                try:
                    # A cancel op resolves this future with a structured
                    # ServeRejection; the dispatcher resolves it with the
                    # response (or the dispatch failure).
                    response = await future
                finally:
                    conn_pending.pop(request_id, None)
                self._m_wall.observe(self._loop.time() - admit_started)
                # The reply frame carries the arrays raw; building the wire
                # dict is O(1) in the batch (no per-float conversion), so it
                # can stay on the loop.
                result = {"response": response.to_wire_dict()}
            elif op == "cancel":
                target = message.get("target")
                if target is None:
                    raise ValueError(
                        'cancel needs a "target" field naming the request id '
                        "of a pending infer on this connection"
                    )
                pending = conn_pending.get(target)
                cancelled = False
                # Only *queued* work is cancellable: once the dispatcher has
                # handed the request to the work thread, dispatch wins and
                # the computed result is delivered normally.
                if (
                    pending is not None
                    and not pending.dispatched
                    and not pending.future.done()
                ):
                    # Resolve (don't cancel) the dispatch future: task
                    # cancellation also cancels awaited futures, and the two
                    # must stay distinguishable.  The waiting infer task
                    # turns this into a structured `cancelled` error reply;
                    # the dispatcher sweeps the dead item out of the queue.
                    pending.future.set_exception(
                        ServeRejection(
                            f"request {target!r} cancelled before dispatch",
                            code=ERROR_CANCELLED,
                        )
                    )
                    self._m_cancelled.inc()
                    if message.get("reason") == "hedge":
                        # The gateway revoked a losing hedged duplicate:
                        # this cancel *freed* a queue slot that would have
                        # been wasted compute.
                        self._m_hedge_cancelled.inc()
                    cancelled = True
                result = {"cancelled": cancelled, "target": target}
            elif op == "metrics":
                # The payload matches the Prometheus endpoint byte for byte
                # (both render one registry snapshot).
                result = {"metrics": self.metrics_payload()}
            elif op == "drain":
                result = self._begin_drain()
            elif op == "shutdown":
                result = {"stopping": True}
            else:
                raise ValueError(
                    f"unknown op {op!r}; expected ping, info, infer, cancel, "
                    f"metrics, drain or shutdown"
                )
            return reply_envelope(op, result, request_id=request_id)
        except asyncio.CancelledError:
            raise
        except ServeRejection as exc:
            return error_envelope(
                str(exc), op=op, request_id=request_id, code=exc.code
            )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a reply
            return error_envelope(
                f"{type(exc).__name__}: {exc}", op=op, request_id=request_id
            )

    def _run_batch(self, requests: list[InferenceRequest]):
        """Execute one coalesced dispatch (only ever on the single work thread).

        Returns ``(responses, compute_started, compute_finished)`` on the
        monotonic clock so the dispatcher can split the executor hop
        (``dispatch_s``) from the chip time (``compute_s``) per request.
        """
        infer_many = getattr(self.target, "infer_many", None)
        started = time.monotonic()
        if infer_many is not None and len(requests) > 1:
            responses = infer_many(requests)
        else:
            responses = [self.target.infer(request) for request in requests]
        return responses, started, time.monotonic()

    async def _batch_loop(self) -> None:
        """Drain the request queue, coalescing compatible requests.

        Deadline enforcement happens here, at both ends of the queue: every
        sweep re-checks every held request (items parked behind an
        incompatible head expire promptly, not when they finally match), and
        the check runs immediately before dispatch, so a request never
        reaches the work thread after its deadline has passed.
        """
        assert self._loop is not None and self._queue is not None
        pending: deque[_QueuedInfer] = deque()
        while True:
            if not pending:
                pending.append(await self._queue.get())
            # Everything already queued joins the candidate set at once.
            with contextlib.suppress(asyncio.QueueEmpty):
                while True:
                    pending.append(self._queue.get_nowait())
            # Sweep out dead (cancelled) and expired requests, then coalesce
            # the first live request with every compatible follower (FIFO
            # order preserved for the rest).
            now = self._loop.time()
            key: object = None
            key_set = False
            batch: list[_QueuedInfer] = []
            rest: deque[_QueuedInfer] = deque()
            for item in pending:
                if item.future.done():
                    # Cancelled (or otherwise resolved) while queued.
                    self._release_slot()
                    continue
                if item.deadline is not None and now > item.deadline:
                    self._m_deadline.inc()
                    item.future.set_exception(
                        ServeRejection(
                            "deadline expired before the request was "
                            "dispatched",
                            code=ERROR_DEADLINE_EXCEEDED,
                        )
                    )
                    self._release_slot()
                    continue
                if not key_set:
                    key, key_set = item.key, True
                if item.key == key and len(batch) < self.max_batch:
                    batch.append(item)
                else:
                    rest.append(item)
            pending = rest
            if not batch:
                continue
            # Marking dispatched and handing off happen in one synchronous
            # block (no awaits until the executor hop), so a concurrent
            # cancel task can never observe a half-dispatched batch.
            dispatched_at = self._loop.time()
            for item in batch:
                item.dispatched = True
                self._release_slot()
            self._m_requests.inc(len(batch))
            self._m_batches.inc()
            self._m_max_coalesced.set_max(len(batch))
            self._inflight = len(batch)
            self._m_inflight.set(len(batch))
            try:
                responses, compute_started, compute_finished = (
                    await self._loop.run_in_executor(
                        self._work, self._run_batch, [item.request for item in batch]
                    )
                )
            except Exception as exc:  # noqa: BLE001 - surfaced per request
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            finally:
                self._inflight = 0
                self._m_inflight.set(0)
            # asyncio's loop clock IS time.monotonic, so the dispatcher-side
            # marks and the work-thread marks live on one timeline: the
            # executor hop is `dispatch_s`, the chip time `compute_s`.
            dispatch_s = max(0.0, compute_started - dispatched_at)
            compute_s = max(0.0, compute_finished - compute_started)
            for item, response in zip(batch, responses):
                metadata = getattr(response, "metadata", None)
                if isinstance(metadata, dict):
                    phases = read_phases(metadata)
                    queue_wait = (
                        max(0.0, dispatched_at - item.admitted_at)
                        if item.admitted_at is not None
                        else 0.0
                    )
                    record_phase(metadata, PHASE_QUEUE_WAIT, queue_wait)
                    record_phase(metadata, PHASE_DISPATCH, dispatch_s)
                    self._m_queue_wait.observe(queue_wait)
                    self._m_dispatch.observe(dispatch_s)
                    # A pool target already split its own compute/merge
                    # spans per request; only fill compute in for bare
                    # targets so the phases never double-count.
                    if PHASE_COMPUTE not in phases:
                        record_phase(metadata, PHASE_COMPUTE, compute_s)
                    phases = read_phases(metadata)
                    self._m_compute.observe(phases.get(PHASE_COMPUTE, compute_s))
                    if PHASE_MERGE in phases:
                        self._m_merge.observe(phases[PHASE_MERGE])
                if not item.future.done():
                    item.future.set_result(response)

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[
        dict[str, object] | None, tuple[str, object, object] | None, bool
    ]:
        """Read one binary frame off the connection.

        Returns ``(message, error, fatal)``: a decoded envelope, or an error
        triple for the structured error reply, with ``fatal`` True when the
        stream cannot be framed (not a frame at all, or a corrupt header)
        and the connection must hang up after the reply.  EOF — between
        frames or mid-frame — raises :class:`asyncio.IncompleteReadError`
        to the caller: there is no peer left to answer.
        """
        # Peek one byte before waiting for a whole header: an old JSON-line
        # peer's ``{"op": "ping"}\n`` is shorter than a header, so reading
        # the header first would leave both sides waiting forever.
        first = await reader.readexactly(1)
        if first != FRAME_MAGIC[:1]:
            return None, (
                f"ValueError: this server speaks protocol {PROTOCOL_VERSION} "
                f"binary frames only; the message starts with {first!r}, not "
                f"the frame magic {FRAME_MAGIC!r}",
                None,
                None,
            ), True
        header = first + await reader.readexactly(FRAME_HEADER_SIZE - 1)
        try:
            meta_len, payload_len = parse_frame_header(header)
        except ValueError as exc:
            # Bad magic or oversized declaration: the byte stream can no
            # longer be framed; tell the client why, then hang up.
            return None, (f"ValueError: {exc}", None, None), True
        meta = await reader.readexactly(meta_len)
        payload = await reader.readexactly(payload_len)
        try:
            message = validate_envelope(decode_frame_payload(meta, payload))
        except ValueError as exc:
            # The frame was well-delimited (lengths were honoured), so the
            # stream stays in sync: answer with a structured error and keep
            # serving.  Best effort to tag the reply from the raw metadata.
            op = request_id = None
            with contextlib.suppress(ValueError, UnicodeDecodeError):
                raw = json.loads(meta.decode("utf-8"))
                if isinstance(raw, dict) and isinstance(raw.get("envelope"), dict):
                    envelope = raw["envelope"]
                    op, request_id = envelope.get("op"), envelope.get("id")
            return None, (f"ValueError: {exc}", op, request_id), False
        return message, None, False

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one Prometheus scrape (minimal HTTP/1.1, close-delimited).

        ``GET /metrics`` (or ``/``) renders the registry snapshot as
        text-format 0.0.4; anything else is a 404.  One response per
        connection — scrapers reconnect per scrape, which keeps the
        handler stateless.
        """
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            while True:
                header = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if not header.strip():
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else "/"
            if method == "GET" and path in ("/metrics", "/"):
                body = render_prometheus(self.metrics_snapshot()).encode("utf-8")
                status, content_type = "200 OK", _PROMETHEUS_CONTENT_TYPE
            else:
                body = b"only GET /metrics is served here\n"
                status, content_type = "404 Not Found", "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _infer_reply_done(self, _task: asyncio.Task) -> None:
        """Done callback for every ``infer`` message's process task."""
        self._active_infers -= 1
        self._maybe_finish_drain()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        saw_shutdown = False
        saw_drain = False
        # Infer requests of THIS connection still waiting for their reply;
        # the cancel op may only reach its own connection's work.
        conn_pending: dict[object, _QueuedInfer] = {}

        async def process(
            message: dict[str, object] | None,
            error: tuple[str, object, object] | None,
        ) -> None:
            op = None if message is None else message.get("op")
            if error is not None:
                text, err_op, request_id = error
                reply = error_envelope(text, op=err_op, request_id=request_id)
            else:
                assert message is not None
                reply = await self._execute(message, conn_pending)
            try:
                async with write_lock:
                    writer.write(encode_frame(reply))
                    await writer.drain()
            finally:
                if op == "shutdown" and self._stop_event is not None:
                    # The reply goes out first so the asking client sees the
                    # acknowledgement — but the stop must happen even if
                    # that client already hung up (fire-and-forget scripts).
                    self._stop_event.set()
                if op == "drain":
                    # Likewise after the drain acknowledgement: if nothing
                    # is in flight the serving loop may exit right now.
                    self._maybe_finish_drain()

        try:
            # asyncio disables Nagle only on sockets whose proto is
            # IPPROTO_TCP; socket.create_server binds with proto 0, which
            # accepted sockets inherit.  With Nagle on, a reply written while
            # the previous one is unacknowledged waits for the client's ACK.
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            while True:
                message, error, fatal = await self._read_frame(reader)
                if fatal:
                    assert error is not None
                    text, op, request_id = error
                    reply = error_envelope(text, op=op, request_id=request_id)
                    async with write_lock:
                        writer.write(encode_frame(reply))
                        await writer.drain()
                    break
                msg_op = None if message is None else message.get("op")
                if msg_op == "shutdown":
                    saw_shutdown = True
                elif msg_op == "drain":
                    saw_drain = True
                task = asyncio.create_task(process(message, error))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if msg_op == "infer":
                    # Counted from the moment the message is read until its
                    # reply is fully written (the done callback fires even
                    # for tasks cancelled before their first step, so the
                    # count can never leak and wedge a drain).
                    self._active_infers += 1
                    task.add_done_callback(self._infer_reply_done)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if saw_shutdown and self._stop_event is not None:
                # A fire-and-forget client may hang up before its shutdown
                # task ran (and the hangup cancels pending tasks above); the
                # op must still win.  Setting the event twice is harmless.
                self._stop_event.set()
            if saw_drain:
                # Same for a fire-and-forget drain: the hangup may have
                # cancelled the drain task before it flipped the flag.
                self._begin_drain()
                self._maybe_finish_drain()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle ----------------------------------------------------------------

    async def _serve_async(self) -> None:
        self._stop_event = asyncio.Event()
        self._queue = asyncio.Queue()
        # The loop is published LAST: start() returns (and close() may run)
        # as soon as it appears, and close() needs the stop event with it.
        self._loop = asyncio.get_running_loop()
        # Every accepted connection's handler task, with its writer.
        connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

        def accept(handler):
            def on_connect(reader, writer) -> None:
                # A plain callback runs inside the transport's
                # connection_made, so the connection is registered before
                # its handler takes a step, and a stop can hang up on it
                # even if the handler never runs.
                task = asyncio.create_task(handler(reader, writer))
                connections[task] = writer
                task.add_done_callback(connections.pop)

            return on_connect

        dispatcher = asyncio.create_task(self._batch_loop())
        # The stream-reader limit is the frame cap: with the 64 KiB default,
        # readexactly pauses and resumes the transport over and over while a
        # multi-megabyte frame arrives.
        servers = [
            await asyncio.start_server(
                accept(self._handle_client), sock=self._sock, limit=MAX_FRAME_BYTES
            )
        ]
        if self._metrics_sock is not None:
            servers.append(
                await asyncio.start_server(
                    accept(self._handle_metrics_http), sock=self._metrics_sock
                )
            )
        try:
            await self._stop_event.wait()
        finally:
            dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dispatcher
            # Stop accepting, but keep the servers open until the accepts
            # already made reach on_connect: asyncio attaches each new
            # transport to its server (asserting the server is still open)
            # one loop iteration after the accept, and calls
            # connection_made one iteration after that.
            for server in servers:
                for sock in server.sockets:
                    self._loop.remove_reader(sock)
            for _ in range(2):
                await asyncio.sleep(0)
            for server in servers:
                server.close()
            # Hang up on every client, handlers that never ran included: an
            # idle connection must not stall the shutdown, and on newer
            # Pythons wait_closed() waits for every connection.
            hung_up = list(connections.items())
            for task, writer in hung_up:
                task.cancel()
                writer.close()
            await asyncio.gather(
                *(task for task, _ in hung_up),
                *(writer.wait_closed() for _, writer in hung_up),
                return_exceptions=True,
            )
            for server in servers:
                with contextlib.suppress(Exception):
                    await server.wait_closed()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` or a shutdown op."""
        self._serving = True
        try:
            asyncio.run(self._serve_async())
        finally:
            self._serving = False

    def start(self) -> "ChipServer":
        """Serve on a background daemon thread and return self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="chip-server", daemon=True
        )
        self._thread.start()
        # serve_forever owns the listening socket from here; wait until the
        # loop exists so an immediate close() can reach it.
        while self._thread.is_alive() and self._loop is None:
            time.sleep(0.001)
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._work.shutdown(wait=True)
        with contextlib.suppress(OSError):
            self._sock.close()
        if self._metrics_sock is not None:
            with contextlib.suppress(OSError):
                self._metrics_sock.close()

    def __enter__(self) -> "ChipServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
