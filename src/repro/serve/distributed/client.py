"""Remote chip client: the ``ChipSession`` surface over a socket.

:class:`PipelinedSession` speaks the chip server's wire protocol (see
:mod:`repro.serve.schema` for the envelope and the binary frame) over a
small pool of connections, each carrying many tagged requests in flight at
once.  :meth:`PipelinedSession.submit` returns a
:class:`concurrent.futures.Future` immediately, so callers overlap network
and compute (and give the server's dynamic batcher something to coalesce);
the blocking :meth:`PipelinedSession.infer` /
:meth:`PipelinedSession.infer_many` adapters sit on top.  Requests caught
on a connection that dies are resent within a
:class:`~repro.serve.retry.RetryBudget` (inference is a pure function of
the request, so a resend is safe).

The client speaks protocol-3 binary frames from the first byte: raw
little-endian array payloads instead of number-by-number text.  It is a
drop-in gateway endpoint (it exposes ``capacity`` / ``backend`` /
``timesteps`` from the server's ``info``), and its responses are
bit-identical to a local run — the wire round trip is lossless.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
from concurrent.futures import Future, InvalidStateError

from repro.serve.retry import RetryBudget
from repro.serve.schema import (
    FRAME_HEADER_SIZE,
    InferenceRequest,
    InferenceResponse,
    decode_frame_payload,
    encode_frame,
    parse_frame_header,
    request_envelope,
)

__all__ = [
    "CancellableFuture",
    "PipelinedSession",
    "RemoteServerError",
    "parse_endpoint",
    "split_endpoints",
]


class RemoteServerError(RuntimeError):
    """The server answered a request with ``ok: false``.

    ``code`` carries the server's structured error code when it supplied
    one — ``"overloaded"`` (request shed by admission control),
    ``"deadline_exceeded"`` (deadline expired before dispatch) or
    ``"cancelled"`` — and is ``None`` for unstructured errors, so callers
    can branch on the failure class without parsing the message text.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


def _error_from_reply(reply: dict) -> RemoteServerError:
    """Build the client-side error for an ``ok: false`` reply envelope."""
    code = reply.get("code")
    return RemoteServerError(
        str(reply.get("error", "unknown server error")),
        code=code if isinstance(code, str) else None,
    )


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Parse ``"host:port"`` into ``(host, port)`` with actionable errors.

    IPv6 literals use the bracketed form ``[::1]:7070``; the brackets are
    the endpoint syntax only and are stripped from the returned host, which
    is what :func:`socket.create_connection` expects.

    Every rejection names the offending endpoint string: a bad port buried
    in a comma-separated ``--endpoint`` list must be identifiable from the
    message alone.
    """
    text = str(endpoint).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"endpoint must look like HOST:PORT (for example 127.0.0.1:7070), "
            f"got {endpoint!r}"
        )
    if host.startswith("["):
        if not host.endswith("]") or len(host) < 3:
            raise ValueError(
                f"bracketed IPv6 endpoint must look like [ADDR]:PORT "
                f"(for example [::1]:7070), got {endpoint!r}"
            )
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"endpoint port must be an integer, got {port_text!r} in {endpoint!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"endpoint port must be in [1, 65535], got {port} in {endpoint!r}"
        )
    return host, port


def split_endpoints(endpoints: str) -> list[str]:
    """Split a (possibly comma-separated) endpoint option, validating each part."""
    parts = [part.strip() for part in str(endpoints).split(",") if part.strip()]
    if not parts:
        raise ValueError(
            f"endpoint must look like HOST:PORT (or a comma-separated list of "
            f"them), got {endpoints!r}"
        )
    for part in parts:
        parse_endpoint(part)  # raises with an actionable message
    return parts


def _encode_message(message: dict[str, object]) -> bytes:
    """Serialise one request envelope to a binary frame.

    ``message["request"]`` may hold a live :class:`InferenceRequest`: it is
    turned into its frame representation here, per wire attempt, so a
    retry re-encodes from the request itself.
    """
    payload = dict(message)
    request = payload.get("request")
    if isinstance(request, InferenceRequest):
        payload["request"] = request.to_wire_dict()
    return encode_frame(payload)


def _read_exact(file, count: int) -> bytes:
    data = file.read(count)
    if data is None or len(data) < count:
        raise ConnectionError("server closed the connection mid-frame")
    return data


def _read_frame_reply(file) -> dict[str, object]:
    """Read one reply frame from a blocking file.

    EOF and frame-level corruption surface as :class:`ConnectionError`: the
    byte stream cannot be resynchronised, so the caller must drop the
    connection (and, for idempotent ops, retry on a fresh one).
    """
    header = _read_exact(file, FRAME_HEADER_SIZE)
    try:
        meta_len, payload_len = parse_frame_header(header)
    except ValueError as exc:
        raise ConnectionError(f"desynchronised reply stream: {exc}") from None
    meta = _read_exact(file, meta_len)
    payload = _read_exact(file, payload_len)
    try:
        return decode_frame_payload(meta, payload)
    except ValueError as exc:
        raise ConnectionError(f"corrupt reply frame: {exc}") from None


# -- pipelined client ---------------------------------------------------------------


class _PipelinedConnection:
    """One socket carrying many tagged requests; a reader thread routes replies."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self._socket = socket.create_connection((host, port), timeout=timeout)
        # Requests go out back to back: Nagle would hold one until the
        # server acknowledges the previous one.
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._socket.makefile("rwb")
        # The timeout above governs connection establishment only.  The
        # reader must block indefinitely between replies: a pipelined
        # connection is legitimately idle for long stretches, and a read
        # timeout firing then would wrongly kill every in-flight request.
        # Per-request deadlines belong to future.result(timeout=...).
        self._socket.settimeout(None)
        self._lock = threading.Lock()
        self._pending: dict[object, Future] = {}
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop, name="chip-client-reader", daemon=True
        )
        self._reader.start()

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def send(self, message: dict[str, object], future: Future) -> None:
        """Register ``future`` under the message id and put it on the wire."""
        request_id = message["id"]
        # Serialise outside the lock — encoding a megabyte batch must not
        # stall other senders.
        data = _encode_message(message)
        with self._lock:
            if self._dead:
                raise ConnectionError(
                    f"connection to {self.host}:{self.port} is down"
                )
            self._pending[request_id] = future
            try:
                self._file.write(data)
                self._file.flush()
            except (OSError, ValueError) as exc:
                del self._pending[request_id]
                raise ConnectionError(
                    f"connection to {self.host}:{self.port} failed mid-send: {exc}"
                ) from exc

    def _read_loop(self) -> None:
        try:
            while True:
                reply = _read_frame_reply(self._file)
                with self._lock:
                    future = self._pending.pop(reply.get("id"), None)
                if future is None:
                    continue  # untagged or stale reply; nothing to route
                # A locally-cancelled future may already be done when its
                # (cancelled-error) reply arrives; dropping it is correct.
                with contextlib.suppress(InvalidStateError):
                    if reply.get("ok"):
                        future.set_result(reply)
                    else:
                        future.set_exception(_error_from_reply(reply))
        except (OSError, ValueError):
            pass
        finally:
            self._fail_pending(
                ConnectionError(
                    f"chip server at {self.host}:{self.port} closed the connection"
                )
            )

    def abandon(self, request_id: object) -> None:
        """Forget a pending request (a bounded wait gave up on its reply).

        Without this, every timed-out poll of a wedged-but-connected server
        would leave its future in the routing table forever, inflating
        ``in_flight`` and steering connection selection off real load.  A
        reply that does arrive later is dropped as stale.
        """
        with self._lock:
            self._pending.pop(request_id, None)

    def _fail_pending(self, exc: Exception) -> None:
        with self._lock:
            self._dead = True
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    def close(self) -> None:
        with self._lock:
            self._dead = True
        # Unblock the reader first: closing the buffered file while the
        # reader thread is blocked reading a frame would deadlock on the
        # buffer's internal lock.  shutdown() delivers EOF.
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=5.0)
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._socket.close()


class CancellableFuture(Future):
    """A result future whose :meth:`cancel` also revokes the remote work.

    :meth:`PipelinedSession.submit` returns these: the future is never in
    the executor sense "running" (replies resolve it from the reader
    thread), so ``cancel()`` succeeds whenever the result has not arrived —
    and on success additionally fires the attached canceller, which sends a
    ``cancel`` op so the server drops the still-queued request instead of
    computing an answer nobody will read.  Waiters see the standard
    :class:`concurrent.futures.CancelledError`.
    """

    _canceller = None
    #: Optional tag the canceller forwards on the wire (``reason`` field of
    #: the ``cancel`` op) so the server can attribute the cancellation —
    #: the gateway stamps ``"hedge"`` on losing hedged attempts.
    cancel_reason: str | None = None

    def cancel(self) -> bool:
        cancelled = super().cancel()
        if cancelled and self._canceller is not None:
            # Best effort: the remote side may already be dispatching (the
            # server then simply completes the work) or the connection may
            # be gone; local cancellation stands either way.
            with contextlib.suppress(Exception):
                self._canceller()
        return cancelled


#: Ops whose effect does not repeat safely: never resent after a dead
#: connection (every other op is a pure read or a pure function).
_NEVER_RESENT = frozenset({"drain", "shutdown"})


class PipelinedSession:
    """Pipelined chip client: many requests in flight over a connection pool.

    Parameters
    ----------
    host, port:
        Server address.
    connections:
        Size of the connection pool (requests are spread across the least
        loaded live connections; one is plenty for pure pipelining, two or
        three overlap TCP flow control on large batches).
    timeout:
        Connection-establishment timeout in seconds, and the bound on the
        ``info`` read behind :attr:`capacity` / :attr:`backend` /
        :attr:`timesteps`.  Established connections otherwise wait
        indefinitely for replies (they are legitimately idle between
        batches); put per-request deadlines on ``future.result(timeout=...)``
        or the ``timeout`` of the metadata ops.

    :meth:`submit` returns a :class:`CancellableFuture` resolving to the
    :class:`InferenceResponse` — cancelling it also sends a ``cancel`` op so
    the server drops the still-queued work — and accepts a per-request
    ``deadline_s`` that the server enforces before dispatch.  A request
    caught on a connection that dies is resent on a fresh one after a
    jittered backoff, within the request's :class:`RetryBudget` or, without
    one, a single resend (inference is idempotent — a pure function of the
    request); exhaustion raises
    :class:`~repro.serve.retry.RetryBudgetExhausted` chained to
    the connection error.  ``drain`` and ``shutdown`` are never resent.
    The blocking :meth:`infer` / :meth:`infer_many` adapters mirror the
    ``ChipSession`` surface, so a pipelined remote is also a valid gateway
    endpoint.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connections: int = 2,
        timeout: float = 120.0,
    ):
        if connections < 1:
            raise ValueError(f"connections must be >= 1, got {connections}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._info: dict[str, object] | None = None
        self._closed = False
        # Fail fast: the first connection opens eagerly.
        self._connections: list[_PipelinedConnection | None] = [
            _PipelinedConnection(host, port, timeout)
        ] + [None] * (connections - 1)

    @classmethod
    def connect(
        cls,
        endpoint: str | tuple[str, int],
        *,
        connections: int = 2,
        timeout: float = 120.0,
    ) -> "PipelinedSession":
        """Connect to ``"host:port"`` (or a ``(host, port)`` tuple)."""
        host, port = (
            parse_endpoint(endpoint) if isinstance(endpoint, str) else endpoint
        )
        return cls(host, port, connections=connections, timeout=timeout)

    # -- connection pool ----------------------------------------------------------

    def _pick_connection(self) -> _PipelinedConnection:
        """The least-loaded live connection, (re)opening slots as needed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pipelined session is closed")
            best: _PipelinedConnection | None = None
            best_load = 0
            open_slot: int | None = None
            for index, connection in enumerate(self._connections):
                if connection is None or connection.dead:
                    if open_slot is None:
                        open_slot = index
                    continue
                load = connection.in_flight
                if best is None or load < best_load:
                    best, best_load = connection, load
            # An idle live connection (or no free slot) means no reconnect.
            if best is not None and (best_load == 0 or open_slot is None):
                return best
            if open_slot is None:
                raise ConnectionError(
                    f"no usable connection to {self.host}:{self.port}"
                )  # pragma: no cover - slots always exist
        # Prefer opening the idle slot over queueing behind live traffic —
        # but connect OUTSIDE the session lock: establishment can block for
        # the whole timeout and must not stall submits that could ride the
        # healthy connections.
        fresh = _PipelinedConnection(self.host, self.port, self.timeout)
        with self._lock:
            if self._closed:
                fresh.close()
                raise RuntimeError("pipelined session is closed")
            current = self._connections[open_slot]
            if current is not None and not current.dead:
                # Another thread reconnected this slot first; use theirs.
                fresh.close()
                return current
            self._connections[open_slot] = fresh
        if current is not None:
            # The dead connection leaves the pool: release its socket now
            # rather than at garbage collection.
            current.close()
        return fresh

    # -- protocol -----------------------------------------------------------------

    def _submit_op(
        self,
        op: str,
        *,
        sent: dict[str, object] | None = None,
        budget: RetryBudget | None = None,
        **fields: object,
    ) -> Future:
        """Send one envelope, returning a future for its reply envelope.

        ``sent`` (when given) is updated in place with the connection and
        request id of the most recent wire attempt, which is what a later
        ``cancel`` op must target.  Dead-connection resends draw from
        ``budget`` (see :meth:`_retry_later`).
        """
        outer: Future = Future()
        self._attempt(op, fields, outer, sent, budget)
        return outer

    def _retry_later(
        self,
        op: str,
        fields: dict[str, object],
        outer: Future,
        sent: dict[str, object] | None,
        budget: RetryBudget | None,
        cause: BaseException,
    ) -> None:
        """Resend after a dead connection, within a budget, backed off on a timer.

        ``drain`` and ``shutdown`` are never resent: a connection that drops
        after the send most likely means the op took effect.  Every other op
        is idempotent; without a request budget it gets a one-resend
        :class:`RetryBudget`, built only here so the success path pays
        nothing for it.  The backoff must never run on the reader thread (it
        is routing every other reply of that connection), so a daemon timer
        pays the delay.
        """
        if op in _NEVER_RESENT:
            with contextlib.suppress(InvalidStateError):
                outer.set_exception(cause)
            return
        if budget is None:
            budget = RetryBudget(2)
        consumed = budget.try_consume()
        if consumed is None:
            with contextlib.suppress(InvalidStateError):
                outer.set_exception(budget.exhausted(cause))
            return

        def resend() -> None:
            try:
                self._attempt(op, fields, outer, sent, budget)
            except Exception as retry_exc:  # noqa: BLE001 - into the future
                with contextlib.suppress(InvalidStateError):
                    outer.set_exception(retry_exc)

        timer = threading.Timer(budget.backoff_s(consumed), resend)
        timer.daemon = True
        timer.start()

    def _attempt(
        self,
        op: str,
        fields: dict[str, object],
        outer: Future,
        sent: dict[str, object] | None,
        budget: RetryBudget | None,
    ) -> None:
        request_id = next(self._ids)
        message = request_envelope(op, request_id=request_id, **fields)
        inner: Future = Future()

        def relay(done: Future) -> None:
            if outer.done():  # locally cancelled while in flight
                return
            exc = done.exception()
            if isinstance(exc, ConnectionError):
                # The connection died with this request in flight.
                self._retry_later(op, fields, outer, sent, budget, exc)
                return
            with contextlib.suppress(InvalidStateError):
                if exc is not None:
                    outer.set_exception(exc)
                else:
                    outer.set_result(done.result())

        inner.add_done_callback(relay)
        try:
            connection = self._pick_connection()
            connection.send(message, inner)
            if sent is not None:
                sent["connection"] = connection
                sent["id"] = request_id
        except ConnectionError as exc:
            self._retry_later(op, fields, outer, sent, budget, exc)
        except RuntimeError as exc:  # session closed while retrying
            with contextlib.suppress(InvalidStateError):
                outer.set_exception(exc)

    # -- the pipelined surface ----------------------------------------------------

    def submit(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> CancellableFuture:
        """Queue one inference; the future resolves to its InferenceResponse.

        ``deadline_s`` rides the envelope: the server sheds the request with
        a structured ``deadline_exceeded`` error if that much time passes
        before dispatch.  The returned :class:`CancellableFuture`'s
        ``cancel()`` additionally sends a ``cancel`` op, so the server drops
        the still-queued work rather than computing an orphaned answer.
        """
        outer = CancellableFuture()
        # The live request rides the fields; each connection's send()
        # encodes it per attempt.
        fields: dict[str, object] = {"request": request}
        if deadline_s is not None:
            fields["deadline_s"] = float(deadline_s)
        sent: dict[str, object] = {}
        raw = self._submit_op(
            "infer", sent=sent, budget=request.retry_budget, **fields
        )

        def cancel_remote() -> None:
            connection = sent.get("connection")
            request_id = sent.get("id")
            if (
                not isinstance(connection, _PipelinedConnection)
                or connection.dead
                or request_id is None
            ):
                return
            cancel_fields: dict[str, object] = {"target": request_id}
            if outer.cancel_reason is not None:
                cancel_fields["reason"] = str(outer.cancel_reason)
            # Fire and forget: the reply (routed by its own fresh id) lands
            # on a throwaway future nobody waits for.
            connection.send(
                request_envelope(
                    "cancel", request_id=next(self._ids), **cancel_fields
                ),
                Future(),
            )

        outer._canceller = cancel_remote

        def convert(done: Future) -> None:
            if outer.done():  # locally cancelled; the late reply is noise
                return
            try:
                response = InferenceResponse.from_dict(done.result()["response"])
            except Exception as exc:  # noqa: BLE001 - routed into the future
                with contextlib.suppress(InvalidStateError):
                    outer.set_exception(exc)
                return
            with contextlib.suppress(InvalidStateError):
                outer.set_result(response)

        raw.add_done_callback(convert)
        return outer

    def infer(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> InferenceResponse:
        """Blocking single inference (the ``ChipSession`` contract)."""
        return self.submit(request, deadline_s=deadline_s).result()

    def infer_many(
        self,
        requests: list[InferenceRequest],
        *,
        deadline_s: float | None = None,
    ) -> list[InferenceResponse]:
        """Submit every request before collecting any reply (full pipelining).

        The first failure cancels every outstanding future — which also
        revokes the matching still-queued work on the server — instead of
        abandoning it in flight.
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

    def _bounded_reply(
        self, op: str, timeout: float | None, **fields: object
    ) -> dict[str, object]:
        """One op round trip whose bounded wait cleans up after itself.

        On timeout the pending entry is abandoned on its connection, so a
        wedged-but-connected server cannot inflate ``in_flight`` one leaked
        future per poll.
        """
        sent: dict[str, object] = {}
        raw = self._submit_op(op, sent=sent, **fields)
        try:
            return raw.result(timeout)
        except TimeoutError:
            connection = sent.get("connection")
            if isinstance(connection, _PipelinedConnection):
                connection.abandon(sent.get("id"))
            raise

    def ping(self, timeout: float | None = None) -> bool:
        """Round-trip a no-op message (optionally bounded by ``timeout``)."""
        return bool(self._bounded_reply("ping", timeout).get("pong"))

    def info(
        self, refresh: bool = False, *, timeout: float | None = None
    ) -> dict[str, object]:
        """Server metadata: workload, backend, timesteps, jobs, capacity."""
        if self._info is None or refresh:
            self._info = dict(self._bounded_reply("info", timeout)["info"])
        return self._info

    @property
    def capacity(self) -> int:
        """Worker count of the remote pool (gateway sharding weight)."""
        return int(self.info(timeout=self.timeout).get("capacity", 1))

    @property
    def backend(self) -> str:
        """Execution backend of the remote chip."""
        return str(self.info(timeout=self.timeout).get("backend", "unknown"))

    @property
    def timesteps(self) -> int:
        """Default rate-coding window of the remote session."""
        return int(self.info(timeout=self.timeout).get("timesteps", 0))

    def metrics(self, *, timeout: float | None = None) -> dict[str, object]:
        """Scrape the server's metrics registry (``metrics`` op).

        Returns the structured payload: a JSON-safe registry ``snapshot``
        plus the same data rendered as Prometheus ``text``.
        """
        return dict(self._bounded_reply("metrics", timeout)["metrics"])

    def drain_server(self, *, timeout: float | None = None) -> dict[str, object]:
        """Retire the server gracefully (``drain`` op; never retried).

        Returns the drain acknowledgement (``{"draining": True, ...}``).
        In-flight requests on this session still complete: the server
        answers every admitted request before it exits.
        """
        return self._bounded_reply("drain", timeout)

    def shutdown_server(self) -> None:
        """Ask the server process to stop serving (never retried)."""
        self._submit_op("shutdown").result()

    def close(self) -> None:
        """Close every connection (idempotent); in-flight requests fail."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections, self._connections = self._connections, []
        for connection in connections:
            if connection is not None:
                connection.close()

    def __enter__(self) -> "PipelinedSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
