"""Protocol 3 on the wire: binary frames, parity, and frame errors.

The serving stack has one wire carrier: length-prefixed binary frames
(protocol 3), every request tagged with an ``id``.  This suite pins it:

* typed clients and raw frame peers get responses bit-identical to a local
  ``ChipSession``;
* malformed and truncated frames, envelopes of another protocol version or
  without an ``id``, and non-frame input (an old JSON-line peer) surface as
  structured error replies — the connection is kept when the stream stays
  framed, hung up when it cannot be resynchronised;
* the graceful ``drain`` op: a raw peer can drive it, a draining server
  answers everything admitted and refuses new work with the structured
  ``draining`` error, and typed clients surface it as
  :class:`RemoteServerError` with ``.code == "draining"``;
* the one client retry path: resends after a dead connection draw from a
  :class:`~repro.serve.retry.RetryBudget` (the request's own, else a
  one-resend default) and end in ``RetryBudgetExhausted``;
* bounded metadata reads, IPv6 endpoint parsing, and ``infer_many``
  cancelling outstanding work on failure.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest, InferenceResponse
from repro.serve.distributed import (
    ChipServer,
    InferenceGateway,
    PipelinedSession,
    RemoteServerError,
    parse_endpoint,
)
from repro.serve.distributed.client import CancellableFuture
from repro.serve.retry import RetryBudget, RetryBudgetExhausted
from repro.serve.schema import (
    ERROR_DRAINING,
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    request_envelope,
)
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
    network = Network((dims[0],), layers, name=f"wire-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(5, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(44)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)


@pytest.fixture(scope="module")
def server(workload):
    snn, config, _, _ = workload
    session = ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)
    with ChipServer(session, port=0, workload="wire-matrix").start() as served:
        yield served


def _assert_identical(expected, actual):
    np.testing.assert_array_equal(expected.predictions, actual.predictions)
    np.testing.assert_array_equal(expected.spike_counts, actual.spike_counts)
    assert expected.accuracy == actual.accuracy
    e, a = expected.counters.as_dict(), actual.counters.as_dict()
    for name, value in e.items():
        if name == "crossbar_device_energy_j":
            assert a[name] == pytest.approx(value, rel=ENERGY_RTOL)
        else:
            assert a[name] == value, f"counter {name}: {a[name]} != {value}"
    assert actual.energy.total_j == pytest.approx(
        expected.energy.total_j, rel=ENERGY_RTOL
    )


# -- endpoint parsing (IPv6 regression) ---------------------------------------------


class TestParseEndpoint:
    def test_ipv4(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)

    def test_ipv6_brackets_are_stripped(self):
        # socket.create_connection wants the bare address, not "[::1]".
        assert parse_endpoint("[::1]:7070") == ("::1", 7070)
        assert parse_endpoint("[2001:db8::2]:80") == ("2001:db8::2", 80)

    @pytest.mark.parametrize(
        "endpoint",
        ["[::1]", "[]:7070", "[::1:7070", "7070", ":7070", "host:", "host:nan"],
    )
    def test_rejects_malformed(self, endpoint):
        with pytest.raises(ValueError):
            parse_endpoint(endpoint)


# -- graceful drain over the wire ---------------------------------------------------


class TestDrainOverTheWire:
    def test_raw_peer_drains_and_new_work_gets_structured_error(
        self, workload, single_session, frame_io
    ):
        """A raw frame peer drives the drain; admitted work still gets its answer."""
        snn, config, inputs, _ = workload

        class _Gate:
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

        gate = _Gate(
            ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=17)
        )
        request = InferenceRequest(inputs=inputs[:5])
        with ChipServer(gate, port=0, workload="drain-wire").start() as served:
            with contextlib.ExitStack() as stack:
                # One admitted request occupies the work thread: the drain
                # below must wait for it, keeping the server in the
                # ``draining`` state while the refusals are probed.
                held = stack.enter_context(
                    socket.create_connection(served.address, timeout=30)
                )
                held_stream = held.makefile("rwb")
                frame_io.send(
                    held_stream,
                    request_envelope(
                        "infer", request_id="held", request=request.to_wire_dict()
                    ),
                )
                assert gate.entered.wait(timeout=30)
                # A second raw peer drives the drain op directly.
                peer = stack.enter_context(
                    socket.create_connection(served.address, timeout=30)
                )
                peer_stream = peer.makefile("rwb")
                frame_io.send(peer_stream, request_envelope("drain", request_id="d1"))
                ack = frame_io.read(peer_stream)
                assert ack["ok"] is True
                assert ack["id"] == "d1"
                assert ack["draining"] is True
                assert ack["pending"] == 1
                # New work on the same peer: a structured error envelope
                # with the machine-readable ``draining`` code, not a hangup.
                frame_io.send(
                    peer_stream,
                    request_envelope(
                        "infer", request_id="late", request=request.to_wire_dict()
                    ),
                )
                refusal = frame_io.read(peer_stream)
                assert refusal["ok"] is False
                assert refusal["id"] == "late"
                assert refusal["code"] == ERROR_DRAINING
                assert "draining" in refusal["error"]
                # A typed client surfaces the same refusal as a
                # RemoteServerError carrying the code.
                with PipelinedSession.connect(served.address, timeout=30) as remote:
                    with pytest.raises(RemoteServerError) as excinfo:
                        remote.submit(request).result(timeout=30)
                    assert excinfo.value.code == ERROR_DRAINING
                # Release the held request: it gets its exact answer even
                # though the server has been draining the whole time.
                gate.release.set()
                reply = frame_io.read(held_stream)
                assert reply["ok"] is True
                assert reply["id"] == "held"
                _assert_identical(
                    single_session.infer(request),
                    InferenceResponse.from_dict(reply["response"]),
                )


# -- v3 parity ---------------------------------------------------------------------


class TestV3Parity:
    def test_pipelined_session_matches_local(self, server, workload, single_session):
        _, _, inputs, labels = workload
        requests = [
            InferenceRequest(inputs=inputs, labels=labels),
            InferenceRequest(inputs=inputs[:4], sample_offset=2),
        ]
        with PipelinedSession(*server.address, connections=2) as remote:
            info = remote.info(timeout=30)
            assert info["protocol_version"] == PROTOCOL_VERSION == 3
            assert remote.ping(timeout=30)
            responses = remote.infer_many(requests)
        for request, response in zip(requests, responses):
            _assert_identical(single_session.infer(request), response)

    def test_raw_v3_frame_round_trip(self, server, workload, single_session, frame_io):
        _, _, inputs, labels = workload
        request = InferenceRequest(inputs=inputs, labels=labels)
        envelope = request_envelope(
            "infer", request_id="raw-v3", request=request.to_wire_dict()
        )
        with socket.create_connection(server.address, timeout=30) as raw:
            stream = raw.makefile("rwb")
            frame_io.send(stream, envelope)
            reply = frame_io.read(stream)
        assert reply["ok"] is True
        assert reply["id"] == "raw-v3"
        assert isinstance(reply["response"]["predictions"], np.ndarray)
        _assert_identical(
            single_session.infer(request),
            InferenceResponse.from_dict(reply["response"]),
        )


# -- malformed and truncated frames -------------------------------------------------


def _frame_with_meta(meta: dict, payload: bytes = b"") -> bytes:
    """A well-delimited frame carrying ``meta`` verbatim (no validation)."""
    encoded = json.dumps(meta, separators=(",", ":")).encode()
    header = struct.pack("<4sIQ", FRAME_MAGIC, len(encoded), len(payload))
    return header + encoded + payload


class TestFrameErrors:
    @pytest.mark.parametrize(
        ("data", "fragment"),
        [
            pytest.param(
                struct.pack("<4sIQ", b"\x93XXX", 0, 0), "magic", id="bad-magic"
            ),
            pytest.param(
                struct.pack("<4sIQ", FRAME_MAGIC, 16, MAX_FRAME_BYTES),
                "exceeds",
                id="oversized",
            ),
            # An old JSON-line peer: shorter than a frame header, so the
            # server must answer from the first byte alone.
            pytest.param(b'{"op": "ping"}\n', "protocol 3", id="json-line"),
        ],
    )
    def test_unframeable_stream_gets_error_reply_then_hangup(
        self, server, frame_io, data, fragment
    ):
        with socket.create_connection(server.address, timeout=30) as raw:
            stream = raw.makefile("rwb")
            stream.write(data)
            stream.flush()
            reply = frame_io.read(stream)
            assert reply["ok"] is False
            assert fragment in reply["error"]
            # The stream cannot be resynchronised: the server hangs up.
            assert stream.read(1) == b""

    @pytest.mark.parametrize(
        ("frame", "fragment", "echoed_id"),
        [
            pytest.param(
                struct.pack("<4sIQ", FRAME_MAGIC, 16, 0) + b"this is not json",
                "metadata",
                None,
                id="corrupt-metadata",
            ),
            # Valid framing, structurally broken metadata: the error reply
            # is structured AND tagged, so a pipelined client can route it.
            pytest.param(
                _frame_with_meta(
                    {
                        "envelope": {"v": 3, "op": "ping", "id": "bad-dtype"},
                        "arrays": [{"dtype": "<f4", "shape": [1], "offset": 0}],
                    },
                    bytes(8),
                ),
                "dtype",
                "bad-dtype",
                id="bad-descriptor",
            ),
            pytest.param(
                encode_frame({"v": 3, "op": "ping"}), '"id"', None, id="no-id"
            ),
            pytest.param(
                encode_frame({"v": 2, "op": "ping", "id": "old"}),
                "unsupported protocol version",
                "old",
                id="protocol-2",
            ),
        ],
    )
    def test_bad_frame_gets_error_reply_and_connection_keeps_serving(
        self, server, frame_io, frame, fragment, echoed_id
    ):
        with socket.create_connection(server.address, timeout=30) as raw:
            stream = raw.makefile("rwb")
            stream.write(frame)
            stream.flush()
            reply = frame_io.read(stream)
            assert reply["ok"] is False
            assert fragment in reply["error"]
            assert reply.get("id") == echoed_id
            # The frame was well-delimited, so the stream stays in sync: a
            # valid request on the same connection still gets served.
            frame_io.send(stream, request_envelope("ping", request_id="after"))
            reply = frame_io.read(stream)
            assert reply["ok"] is True
            assert reply["id"] == "after"
            assert reply["pong"] is True

    def test_truncated_frame_then_eof_drops_connection(self, server):
        header = struct.pack("<4sIQ", FRAME_MAGIC, 64, 128)
        with socket.create_connection(server.address, timeout=30) as raw:
            stream = raw.makefile("rwb")
            stream.write(header + b"only-part-of-the-meta")
            stream.flush()
            raw.shutdown(socket.SHUT_WR)
            # There is nobody to answer: the server just drops the peer.
            assert stream.read(1) == b""

    def test_server_still_healthy_after_frame_abuse(self, server, workload):
        _, _, inputs, _ = workload
        with PipelinedSession(*server.address, connections=1) as remote:
            assert remote.ping(timeout=30)
            request = InferenceRequest(inputs=inputs[:2])
            assert remote.submit(request).result(timeout=30).batch_size == 2


# -- one retry path -----------------------------------------------------------------


class TestRetryPath:
    @pytest.mark.parametrize(
        ("max_attempts", "ordinals"),
        [
            pytest.param(None, [0], id="default-budget"),
            pytest.param(3, [0, 1], id="carried-budget"),
        ],
    )
    def test_dead_connection_resends_draw_from_a_budget(
        self, server, workload, monkeypatch, max_attempts, ordinals
    ):
        _, _, inputs, _ = workload
        drawn: list[int] = []
        monkeypatch.setattr(
            RetryBudget,
            "backoff_s",
            lambda self, attempt: (drawn.append(attempt), 0.0)[1],
        )
        request = InferenceRequest(inputs=inputs[:2])
        budget = None if max_attempts is None else RetryBudget(max_attempts)
        if budget is not None:
            request = request.with_retry_budget(budget)
        with ChipServer(server.target, port=0, workload="doomed").start() as doomed:
            remote = PipelinedSession(*doomed.address, connections=1)
        # The server is gone: the in-flight attempt and every resend fail.
        try:
            with pytest.raises(RetryBudgetExhausted) as excinfo:
                remote.submit(request).result(timeout=30)
        finally:
            remote.close()
        assert drawn == ordinals
        assert excinfo.value.attempts == len(ordinals) + 1
        assert isinstance(excinfo.value.__cause__, ConnectionError)
        if budget is not None:
            assert budget.retries_used == 2


class TestBoundedMetadataReads:
    @pytest.mark.parametrize("prop", ["capacity", "backend", "timesteps"])
    def test_property_read_times_out_on_a_wedged_server(self, wedged_server, prop):
        # A gateway reads ``capacity`` when it wraps a session: a server that
        # accepts but never answers must not hang that read forever.
        outcome: list[BaseException] = []

        def read() -> None:
            try:
                getattr(remote, prop)
            except Exception as exc:  # noqa: BLE001 - handed to the test
                outcome.append(exc)

        remote = PipelinedSession(*wedged_server, timeout=0.5)
        worker = threading.Thread(target=read, daemon=True)
        try:
            worker.start()
            worker.join(timeout=5.0)
            assert not worker.is_alive(), f"{prop} read hung on a wedged server"
        finally:
            remote.close()  # fails the pending read, releasing a stuck thread
            worker.join(timeout=5.0)
        assert len(outcome) == 1 and isinstance(outcome[0], TimeoutError), outcome


# -- infer_many cancels outstanding work on failure ---------------------------------


class TestInferManyCancellation:
    def _wired_futures(self, count: int, failing: int):
        futures = [CancellableFuture() for _ in range(count)]
        revoked: list[int] = []
        for index, future in enumerate(futures):
            future._canceller = lambda index=index: revoked.append(index)
        futures[failing].set_exception(RemoteServerError("boom", code="overloaded"))
        return futures, revoked

    def test_pipelined_infer_many_cancels_outstanding(self, monkeypatch):
        futures, revoked = self._wired_futures(3, failing=0)
        session = PipelinedSession.__new__(PipelinedSession)
        handed = iter(futures)
        monkeypatch.setattr(
            PipelinedSession,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        with pytest.raises(RemoteServerError):
            session.infer_many([object(), object(), object()])
        assert futures[1].cancelled() and futures[2].cancelled()
        # Cancelling a CancellableFuture also revokes the remote work.
        assert sorted(revoked) == [1, 2]

    def test_pipelined_infer_many_success_path_untouched(self, monkeypatch):
        futures = [CancellableFuture(), CancellableFuture()]
        revoked: list[int] = []
        for index, future in enumerate(futures):
            future._canceller = lambda index=index: revoked.append(index)
        futures[0].set_result("a")
        futures[1].set_result("b")
        session = PipelinedSession.__new__(PipelinedSession)
        handed = iter(futures)
        monkeypatch.setattr(
            PipelinedSession,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        assert session.infer_many([object(), object()]) == ["a", "b"]
        assert revoked == []

    def test_gateway_infer_many_cancels_outstanding(self, monkeypatch):
        futures = [Future() for _ in range(3)]
        futures[0].set_exception(RemoteServerError("boom"))
        gateway = InferenceGateway.__new__(InferenceGateway)
        handed = iter(futures)
        monkeypatch.setattr(
            InferenceGateway,
            "submit",
            lambda self, request, deadline_s=None: next(handed),
        )
        with pytest.raises(RemoteServerError):
            gateway.infer_many([object(), object(), object()])
        assert futures[1].cancelled() and futures[2].cancelled()
