"""Remote chip clients: the ``ChipSession`` surface over a socket.

Two client shapes speak the chip server's wire protocol (see
:mod:`repro.serve.schema` for the envelope and the binary frame):

* :class:`RemoteSession` — one connection, strict request/reply, the same
  ``infer(InferenceRequest) -> InferenceResponse`` contract as a local
  :class:`~repro.serve.ChipSession`.  Idempotent ops (``ping`` / ``info`` /
  ``infer`` — inference is a pure function of the request) transparently
  reconnect and retry once when the server restarts under the session.
* :class:`PipelinedSession` — the async/pipelined mode: a small pool of
  connections, each carrying many tagged requests in flight at once.
  :meth:`PipelinedSession.submit` returns a
  :class:`concurrent.futures.Future` immediately, so callers overlap
  network and compute (and give the server's dynamic batcher something to
  coalesce); the blocking :meth:`PipelinedSession.infer` /
  :meth:`PipelinedSession.infer_many` adapters sit on top.

Both clients speak protocol-3 binary frames from the first byte: raw
little-endian array payloads instead of number-by-number text.

Both clients are drop-in gateway endpoints (they expose ``capacity`` /
``backend`` / ``timesteps`` from the server's ``info``), and both return
responses bit-identical to a local run — the wire round trip is lossless.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError

from repro.serve.retry import RetryBudget, RetryBudgetExhausted, retry_backoff
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
    "RemoteSession",
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


def _connect_with_wait(factory, wait: float):
    """Retry ``factory()`` on connection errors for up to ``wait`` seconds."""
    deadline = time.monotonic() + wait
    while True:
        try:
            return factory()
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


#: Reconnect backoff: retry *n* sleeps about ``base * 2**n`` seconds,
#: jittered, so clients of a restarting server spread out instead of
#: hammering the listen queue in lockstep.  Kept as a module-level name so
#: tests (and operators) can patch the client's backoff in isolation; the
#: policy itself is the stack-wide helper in :mod:`repro.serve.retry`.
_retry_backoff = retry_backoff


def _encode_message(
    message: dict[str, object], *, buffer: bytearray | None = None
):
    """Serialise one request envelope to a binary frame.

    ``message["request"]`` may hold a live :class:`InferenceRequest`: it is
    turned into its frame representation here, per wire attempt, so a
    retry re-encodes from the request itself.
    """
    payload = dict(message)
    request = payload.get("request")
    if isinstance(request, InferenceRequest):
        payload["request"] = request.to_wire_dict()
    return encode_frame(payload, buffer=buffer)


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


class RemoteSession:
    """A chip session served by a remote :class:`ChipServer`.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Per-request socket timeout in seconds (inference on a large batch is
        slow; size accordingly).
    retries:
        Reconnect-and-resend attempts for idempotent ops after a connection
        failure (a server restart leaves the session holding a dead socket;
        one retry rides out a reboot).  ``0`` disables the resilience.
        Retries back off with jitter so a rebooting server is not hammered.

    The session holds one persistent connection; requests are serialised on
    it (one message out, one message in).  Use one ``RemoteSession`` per
    thread — or :class:`PipelinedSession` — for concurrent callers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 120.0,
        retries: int = 1,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self._socket: socket.socket | None = None
        self._file = None
        self._ids = itertools.count(1)
        self._info: dict[str, object] | None = None
        self._closed = False
        # Reused across frame encodes: the socket write completes before
        # the next request is serialised, so one buffer serves the session.
        self._encode_buffer = bytearray()
        self._connect()

    @classmethod
    def connect(
        cls,
        endpoint: str | tuple[str, int],
        *,
        timeout: float = 120.0,
        retries: int = 1,
        wait: float = 0.0,
    ) -> "RemoteSession":
        """Connect to ``"host:port"`` (or a ``(host, port)`` tuple).

        ``wait`` keeps retrying for up to that many seconds while the server
        boots (0 means a single attempt).
        """
        host, port = (
            parse_endpoint(endpoint) if isinstance(endpoint, str) else endpoint
        )
        return _connect_with_wait(
            lambda: cls(host, port, timeout=timeout, retries=retries),
            wait,
        )

    # -- connection management ----------------------------------------------------

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._socket.makefile("rwb")

    def _drop_connection(self) -> None:
        file, sock = self._file, self._socket
        self._file = self._socket = None
        try:
            if file is not None:
                file.close()
        except OSError:
            pass
        finally:
            if sock is not None:
                sock.close()

    # -- protocol -----------------------------------------------------------------

    def _call(
        self, message: dict[str, object], *, idempotent: bool = True
    ) -> dict[str, object]:
        """One request/reply round trip, reconnecting on a dead connection.

        Idempotent ops are resent once per configured retry after a
        connection-level failure (server restart, dead socket); a
        :class:`RemoteServerError` is a *successful* round trip and is never
        retried.  When the message carries an :class:`InferenceRequest` with
        a :class:`RetryBudget`, that budget overrides the session's
        ``retries`` knob: reconnect resends consume from the request's
        shared pool and exhaustion raises :class:`RetryBudgetExhausted`.
        """
        if self._closed:
            raise RuntimeError("remote session is closed")
        budget: RetryBudget | None = None
        carried = message.get("request")
        if idempotent and isinstance(carried, InferenceRequest):
            budget = carried.retry_budget
        attempts = 1 + (self.retries if idempotent else 0)
        last_error: Exception | None = None
        attempt = 0
        while True:
            try:
                if self._file is None:
                    self._connect()
                request_id = next(self._ids)
                payload = dict(message)
                payload["id"] = request_id
                self._file.write(
                    _encode_message(payload, buffer=self._encode_buffer)
                )
                self._file.flush()
                reply = _read_frame_reply(self._file)
                if reply.get("id") not in (None, request_id):
                    raise ConnectionError(
                        f"chip server at {self.host}:{self.port} answered request "
                        f"{request_id} with id {reply.get('id')!r} (desynchronised "
                        f"connection)"
                    )
                if not reply.get("ok"):
                    raise _error_from_reply(reply)
                return reply
            except TimeoutError:
                # A slow server is not a dead one: resending would duplicate
                # the work and mask the real problem.  The connection is
                # desynchronised (the late reply is still coming), so drop
                # it, but surface the timeout as-is.
                self._drop_connection()
                raise
            except (ConnectionError, OSError) as exc:
                self._drop_connection()
                last_error = exc
                if budget is not None:
                    consumed = budget.try_consume()
                    if consumed is None:
                        raise budget.exhausted(exc)
                    time.sleep(budget.backoff_s(consumed))
                elif attempt + 1 < attempts:
                    # A restarting server needs a beat to come back; an
                    # immediate resend just hammers the dead port and burns
                    # the retry budget inside the boot window.
                    time.sleep(_retry_backoff(attempt))
                else:
                    break
                attempt += 1
        assert last_error is not None
        raise ConnectionError(
            f"chip server at {self.host}:{self.port} unreachable after "
            f"{attempts} attempt(s): {last_error}"
        ) from last_error

    # -- the session surface ------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip a no-op message."""
        return bool(self._call(request_envelope("ping")).get("pong"))

    def info(self, refresh: bool = False) -> dict[str, object]:
        """Server metadata: workload, backend, timesteps, jobs, capacity."""
        if self._info is None or refresh:
            self._info = dict(self._call(request_envelope("info"))["info"])
        return self._info

    @property
    def capacity(self) -> int:
        """Worker count of the remote pool (gateway sharding weight)."""
        return int(self.info().get("capacity", 1))

    @property
    def backend(self) -> str:
        """Execution backend of the remote chip."""
        return str(self.info().get("backend", "unknown"))

    @property
    def timesteps(self) -> int:
        """Default rate-coding window of the remote session."""
        return int(self.info().get("timesteps", 0))

    def infer(
        self, request: InferenceRequest, *, deadline_s: float | None = None
    ) -> InferenceResponse:
        """Run one batch on the remote chip (same contract as ChipSession).

        ``deadline_s`` rides the envelope to the server, which sheds the
        request with a structured ``deadline_exceeded`` error if that much
        time passes before dispatch (see :class:`RemoteServerError.code`).
        """
        # The live request rides the envelope; _call encodes it per attempt.
        fields: dict[str, object] = {"request": request}
        if deadline_s is not None:
            fields["deadline_s"] = float(deadline_s)
        reply = self._call(request_envelope("infer", **fields))
        return InferenceResponse.from_dict(reply["response"])

    def metrics(self) -> dict[str, object]:
        """Scrape the server's metrics registry (``metrics`` op).

        Returns the structured payload: a JSON-safe registry ``snapshot``
        plus the same data rendered as Prometheus ``text`` — identical to
        what the server's HTTP exposition endpoint serves.
        """
        return dict(self._call(request_envelope("metrics"))["metrics"])

    def drain_server(self) -> dict[str, object]:
        """Retire the server gracefully (idempotent ``drain`` op).

        The server stops admitting new ``infer`` requests (they answer a
        structured ``draining`` error), finishes and delivers everything
        already admitted, then exits its serving loop.
        """
        return self._call(request_envelope("drain"), idempotent=False)

    def shutdown_server(self) -> None:
        """Ask the server process to stop serving (clean remote teardown).

        Never retried: a connection that drops after the send most likely
        means the shutdown worked.
        """
        self._call(request_envelope("shutdown"), idempotent=False)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- pipelined client ---------------------------------------------------------------


class _PipelinedConnection:
    """One socket carrying many tagged requests; a reader thread routes replies."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self._socket = socket.create_connection((host, port), timeout=timeout)
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
        # stall other senders.  No shared encode buffer here: several
        # threads may be in this section at once.
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
        # reader thread sits in readline() would deadlock on the buffer's
        # internal lock until the socket timeout.  shutdown() delivers EOF.
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
        Connection-establishment timeout in seconds.  Established
        connections wait indefinitely for replies (they are legitimately
        idle between batches); put per-request deadlines on
        ``future.result(timeout=...)``.

    :meth:`submit` returns a :class:`CancellableFuture` resolving to the
    :class:`InferenceResponse` — cancelling it also sends a ``cancel`` op so
    the server drops the still-queued work — and accepts a per-request
    ``deadline_s`` that the server enforces before dispatch; requests
    already on a connection that dies are transparently resubmitted once on
    a fresh connection (inference is idempotent — a pure function of the
    request).  The blocking :meth:`infer` / :meth:`infer_many` adapters
    mirror the ``ChipSession`` surface, so a pipelined remote is also a
    valid gateway endpoint.
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
        # Fail fast like RemoteSession: the first connection opens eagerly.
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
        wait: float = 0.0,
    ) -> "PipelinedSession":
        """Connect to ``"host:port"`` (or a tuple), waiting out a server boot."""
        host, port = (
            parse_endpoint(endpoint) if isinstance(endpoint, str) else endpoint
        )
        return _connect_with_wait(
            lambda: cls(host, port, connections=connections, timeout=timeout),
            wait,
        )

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
        return fresh

    # -- protocol -----------------------------------------------------------------

    def _submit_op(
        self,
        op: str,
        *,
        retry: bool = True,
        sent: dict[str, object] | None = None,
        budget: RetryBudget | None = None,
        **fields: object,
    ) -> Future:
        """Send one envelope, returning a future for its reply envelope.

        ``sent`` (when given) is updated in place with the connection and
        request id of the most recent wire attempt, which is what a later
        ``cancel`` op must target.  With a ``budget``, dead-connection
        resubmits are bounded by the request's shared retry pool (with
        jittered backoff) instead of the default single immediate resend.
        """
        outer: Future = Future()
        self._attempt(
            op, fields, outer, retries_left=1 if retry else 0, sent=sent, budget=budget
        )
        return outer

    def _retry_later(
        self,
        op: str,
        fields: dict[str, object],
        outer: Future,
        sent: dict[str, object] | None,
        budget: RetryBudget,
        cause: BaseException,
    ) -> None:
        """Budgeted resubmit after a dead connection, backed off on a timer.

        The backoff must never run on the reader thread (it is routing every
        other reply of that connection), so a daemon timer pays the delay.
        """
        consumed = budget.try_consume()
        if consumed is None:
            with contextlib.suppress(InvalidStateError):
                outer.set_exception(budget.exhausted(cause))
            return

        def resend() -> None:
            try:
                self._attempt(op, fields, outer, retries_left=0, sent=sent, budget=budget)
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
        retries_left: int,
        sent: dict[str, object] | None = None,
        budget: RetryBudget | None = None,
    ) -> None:
        request_id = next(self._ids)
        message = request_envelope(op, request_id=request_id, **fields)
        inner: Future = Future()

        def relay(done: Future) -> None:
            if outer.done():  # locally cancelled while in flight
                return
            exc = done.exception()
            if isinstance(exc, ConnectionError) and budget is not None:
                # The connection died with this request in flight; resend on
                # a fresh one within the request's retry budget.
                self._retry_later(op, fields, outer, sent, budget, exc)
            elif isinstance(exc, ConnectionError) and retries_left > 0:
                # Legacy single resend (idempotent ops only reach this path).
                try:
                    self._attempt(op, fields, outer, retries_left - 1, sent=sent)
                except Exception as retry_exc:  # noqa: BLE001 - into the future
                    with contextlib.suppress(InvalidStateError):
                        outer.set_exception(retry_exc)
            else:
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
            if budget is not None:
                self._retry_later(op, fields, outer, sent, budget, exc)
            elif retries_left > 0:
                self._attempt(op, fields, outer, retries_left - 1, sent=sent)
            elif not outer.done():
                with contextlib.suppress(InvalidStateError):
                    outer.set_exception(exc)
        except RuntimeError as exc:  # session closed while retrying
            if not outer.done():
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
        return int(self.info().get("capacity", 1))

    @property
    def backend(self) -> str:
        """Execution backend of the remote chip."""
        return str(self.info().get("backend", "unknown"))

    @property
    def timesteps(self) -> int:
        """Default rate-coding window of the remote session."""
        return int(self.info().get("timesteps", 0))

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
        return self._bounded_reply("drain", timeout, retry=False)

    def shutdown_server(self) -> None:
        """Ask the server process to stop serving (never retried)."""
        self._submit_op("shutdown", retry=False).result()

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
