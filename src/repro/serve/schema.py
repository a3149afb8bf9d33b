"""Serializable request/response schema of the serving API.

A server, queue worker or sweep harness needs results that can cross a
process boundary.  :class:`InferenceRequest` and :class:`InferenceResponse`
are the wire-level counterparts of the in-memory simulation types: plain
dataclasses whose :meth:`to_dict` / :meth:`from_dict` round-trip losslessly
through JSON (Python's ``json`` serialises floats with shortest round-trip
precision), carrying :class:`~repro.core.stats.EventCounters` and
:class:`~repro.energy.model.EnergyReport` via their own dict codecs.

The schema is versioned (``SCHEMA_VERSION``) so a deserialiser can reject
payloads written by an incompatible producer instead of mis-reading them.

This module also defines the *wire protocol* the chip server and its
clients exchange: **version 3**, whose only carrier is the *binary frame*.
A frame is a fixed little-endian header (:data:`FRAME_MAGIC`, metadata
length, payload length), a compact-JSON metadata section holding the
request/reply *envelope* (``op``/``reply`` framing plus a request ``id``)
with its large arrays replaced by indexed placeholders, and a raw payload of
little-endian ``float64`` / ``int64`` array bytes (``inputs``, ``labels``,
``predictions``, ``spike_counts``).  Arrays cross the wire as their raw
bytes, so a response read off the wire is **bit-identical** to a local run.
Every request carries ``"v": 3`` and an ``id``; replies echo the ``id``, so
several requests can be in flight on one connection and their replies
matched out of order.

The envelope also carries the admission-control surface (all optional):

* an ``infer`` request may set ``deadline_s`` (positive seconds); the server
  rejects the request once that much time has passed before dispatch;
* a ``cancel`` request (``{"op": "cancel", "target": <id>}``) removes the
  still-queued ``infer`` tagged ``target`` on the same connection;
* error replies may carry a machine-readable ``code`` —
  :data:`ERROR_OVERLOADED`, :data:`ERROR_DEADLINE_EXCEEDED`,
  :data:`ERROR_CANCELLED` or :data:`ERROR_DRAINING` — next to the
  human-readable ``error`` message, so clients and the gateway can react
  (retry elsewhere, surface a timeout) without parsing prose;
* a ``drain`` request (``{"op": "drain"}``) puts the server into graceful
  retirement: new ``infer`` requests are rejected with
  ``code == "draining"``, already-admitted work runs to completion with
  replies delivered, and the server exits once its queue is empty.  The op
  is idempotent.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.stats import EventCounters
from repro.energy.model import EnergyReport
from repro.serve.retry import RetryBudget

__all__ = [
    "ERROR_CANCELLED",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_DRAINING",
    "ERROR_OVERLOADED",
    "FRAME_HEADER_SIZE",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "InferenceRequest",
    "InferenceResponse",
    "decode_frame",
    "decode_frame_payload",
    "encode_frame",
    "error_envelope",
    "parse_frame_header",
    "reply_envelope",
    "request_envelope",
]

#: Version tag embedded in every serialised response.
SCHEMA_VERSION = 1

#: Wire-protocol version: the only one a server accepts, carried in every
#: envelope's ``v`` field and always on the binary frame carrier
#: (:func:`encode_frame`).
PROTOCOL_VERSION = 3

#: Structured error codes carried in error replies (the ``code`` field).
#: The request was shed by the server's admission control (queue full).
ERROR_OVERLOADED = "overloaded"
#: The request's ``deadline_s`` expired before the server dispatched it.
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
#: The request was cancelled (a ``cancel`` op, or the client went away).
ERROR_CANCELLED = "cancelled"
#: The server is draining (graceful retirement): it no longer admits new
#: ``infer`` requests but still finishes and answers already-admitted work.
ERROR_DRAINING = "draining"


# -- wire envelope ------------------------------------------------------------------


def request_envelope(
    op: str, *, request_id: object = None, **fields: object
) -> dict[str, object]:
    """Build one request envelope of the wire protocol.

    ``request_id`` (any JSON scalar) tags the request so its reply can be
    matched out of order.  The server rejects untagged envelopes, so leave
    it out only to build one of those on purpose.
    """
    envelope: dict[str, object] = {"v": PROTOCOL_VERSION, "op": op}
    if request_id is not None:
        envelope["id"] = request_id
    envelope.update(fields)
    return envelope


def reply_envelope(
    op: object, result: dict[str, object], *, request_id: object = None
) -> dict[str, object]:
    """Build a success reply, echoing the request's ``op`` and ``id``."""
    envelope: dict[str, object] = {"ok": True, "v": PROTOCOL_VERSION, "reply": op}
    if request_id is not None:
        envelope["id"] = request_id
    envelope.update(result)
    return envelope


def error_envelope(
    message: str,
    *,
    op: object = None,
    request_id: object = None,
    code: str | None = None,
) -> dict[str, object]:
    """Build an error reply (a failure becomes a reply, never a dropped message).

    ``code`` attaches a machine-readable error code (:data:`ERROR_OVERLOADED`,
    :data:`ERROR_DEADLINE_EXCEEDED`, :data:`ERROR_CANCELLED`) so clients can
    branch on the failure class without parsing the message text.
    """
    envelope: dict[str, object] = {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "reply": op,
        "error": message,
    }
    if code is not None:
        envelope["code"] = code
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def validate_envelope(message: dict[str, object]) -> dict[str, object]:
    """Check a decoded request envelope: protocol 3, tagged with an ``id``.

    Raises :class:`ValueError` otherwise; the server turns that into a
    structured error reply (echoing the ``id`` when there is one) and keeps
    serving the connection.
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION} only)"
        )
    if message.get("id") is None:
        raise ValueError(
            'request envelope has no "id"; every request must be tagged'
        )
    return message


# -- binary frame carrier -----------------------------------------------------------

#: First bytes of every binary frame.  ``0x93`` is a UTF-8 continuation
#: byte, so it can never start a JSON text: the server peeks one byte per
#: message and answers a peer that sends anything but a frame (an old
#: JSON-line client) with one error frame before hanging up.
FRAME_MAGIC = b"\x93RF3"

#: Fixed frame header: magic, metadata length (u32), payload length (u64),
#: all little-endian.  The metadata section (compact JSON) and the raw array
#: payload follow back to back.
_FRAME_HEADER = struct.Struct("<4sIQ")
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Largest accepted frame (header + metadata + payload): big enough for
#: production batches, small enough to bound a misbehaving peer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Array dtypes allowed on the wire: everything numeric crosses as either
#: little-endian float64 or little-endian int64 (bit-identical to the
#: in-memory arrays; JSON text round trip is the *harder* path to keep
#: exact).
_FRAME_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}

#: Reserved placeholder key marking an extracted array in frame metadata.
_ARRAY_KEY = "__nd__"


def _wire_dtype(array: np.ndarray) -> np.dtype:
    """The on-wire dtype for an array (floats -> ``<f8``, ints -> ``<i8``)."""
    if array.dtype.kind == "f":
        return _FRAME_DTYPES["<f8"]
    if array.dtype.kind in "iub":
        return _FRAME_DTYPES["<i8"]
    raise ValueError(
        f"cannot carry dtype {array.dtype} in a binary frame (float64/int64 "
        f"payloads only)"
    )


def _extract_arrays(
    value: object, arrays: list[np.ndarray], descriptors: list[dict[str, object]]
) -> object:
    """Replace every ndarray in a tree with an indexed placeholder.

    The returned tree is pure JSON; extracted arrays are appended (as
    C-contiguous little-endian float64/int64) with a matching descriptor.
    """
    if isinstance(value, np.ndarray):
        wire = np.ascontiguousarray(value, dtype=_wire_dtype(value))
        arrays.append(wire)
        descriptors.append(
            {
                "dtype": wire.dtype.str,
                "shape": list(wire.shape),
            }
        )
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(value, dict):
        if _ARRAY_KEY in value:
            raise ValueError(
                f"frame metadata may not contain the reserved key {_ARRAY_KEY!r}"
            )
        return {
            key: _extract_arrays(item, arrays, descriptors)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_extract_arrays(item, arrays, descriptors) for item in value]
    if isinstance(value, np.generic):  # numpy scalar leaked into metadata
        return value.item()
    return value


def _restore_arrays(value: object, arrays: list[np.ndarray]) -> object:
    """Inverse of :func:`_extract_arrays`: placeholders become ndarrays."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            index = value[_ARRAY_KEY]
            if not isinstance(index, int) or not 0 <= index < len(arrays):
                raise ValueError(
                    f"frame metadata references array {index!r} but the frame "
                    f"carries {len(arrays)}"
                )
            return arrays[index]
        return {key: _restore_arrays(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore_arrays(item, arrays) for item in value]
    return value


def _pad8(n: int) -> int:
    """Round up to the frame's 8-byte array alignment."""
    return (n + 7) & ~7


def encode_frame(envelope: dict[str, object]) -> bytes:
    """Serialise one envelope to a binary frame.

    Every :class:`numpy.ndarray` anywhere in the envelope ships as raw
    little-endian bytes in the payload section (8-byte aligned); the rest of
    the envelope becomes the compact-JSON metadata section.
    """
    arrays: list[np.ndarray] = []
    descriptors: list[dict[str, object]] = []
    stripped = _extract_arrays(envelope, arrays, descriptors)
    offset = 0
    for descriptor, array in zip(descriptors, arrays):
        descriptor["offset"] = offset
        offset += _pad8(array.nbytes)
    meta = json.dumps(
        {"envelope": stripped, "arrays": descriptors}, separators=(",", ":")
    ).encode("utf-8")
    # Zero-filled, so the alignment padding between arrays needs no writes.
    out = bytearray(FRAME_HEADER_SIZE + len(meta) + offset)
    _FRAME_HEADER.pack_into(out, 0, FRAME_MAGIC, len(meta), offset)
    start = FRAME_HEADER_SIZE
    out[start : start + len(meta)] = meta
    start += len(meta)
    for descriptor, array in zip(descriptors, arrays):
        at = start + descriptor["offset"]
        out[at : at + array.nbytes] = array.tobytes()
    return bytes(out)


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header, returning ``(meta_len, payload_len)``.

    Raises :class:`ValueError` on a bad magic or a frame larger than
    :data:`MAX_FRAME_BYTES`, so wire readers can turn header corruption into
    a structured error reply instead of mis-framing the stream.
    """
    if len(header) != FRAME_HEADER_SIZE:
        raise ValueError(
            f"truncated frame header: got {len(header)} of "
            f"{FRAME_HEADER_SIZE} bytes"
        )
    magic, meta_len, payload_len = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ValueError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r}); the "
            f"connection is desynchronised"
        )
    total = FRAME_HEADER_SIZE + meta_len + payload_len
    if total > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {total} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
        )
    return int(meta_len), int(payload_len)


def decode_frame_payload(meta: bytes, payload: bytes | memoryview) -> dict[str, object]:
    """Rebuild an envelope from a frame's metadata + payload sections.

    Array views are created zero-copy over ``payload`` (pass a
    :class:`memoryview` to avoid even the slice copies).  Every structural
    violation — malformed metadata JSON, unknown dtypes, descriptors
    pointing outside the payload — raises :class:`ValueError` with a message
    naming the problem.
    """
    try:
        decoded = json.loads(bytes(meta).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed frame metadata: {exc}") from None
    if (
        not isinstance(decoded, dict)
        or not isinstance(decoded.get("envelope"), dict)
        or not isinstance(decoded.get("arrays"), list)
    ):
        raise ValueError(
            "frame metadata must be a JSON object with 'envelope' and "
            "'arrays' sections"
        )
    view = memoryview(payload)
    arrays: list[np.ndarray] = []
    for index, descriptor in enumerate(decoded["arrays"]):
        if not isinstance(descriptor, dict):
            raise ValueError(f"frame array descriptor {index} is not an object")
        dtype = _FRAME_DTYPES.get(descriptor.get("dtype"))
        shape = descriptor.get("shape")
        offset = descriptor.get("offset")
        if dtype is None:
            raise ValueError(
                f"frame array {index} has unsupported dtype "
                f"{descriptor.get('dtype')!r} (expected one of "
                f"{sorted(_FRAME_DTYPES)})"
            )
        if (
            not isinstance(shape, list)
            or not all(isinstance(dim, int) and dim >= 0 for dim in shape)
            or not isinstance(offset, int)
            or offset < 0
        ):
            raise ValueError(f"frame array {index} has a malformed descriptor")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(view):
            raise ValueError(
                f"frame array {index} spans [{offset}, {offset + nbytes}) but "
                f"the payload holds {len(view)} bytes"
            )
        arrays.append(
            np.frombuffer(view[offset : offset + nbytes], dtype=dtype).reshape(shape)
        )
    return _restore_arrays(decoded["envelope"], arrays)


def decode_frame(frame: bytes | memoryview) -> dict[str, object]:
    """Rebuild an envelope from one complete frame (header included)."""
    view = memoryview(frame)
    meta_len, payload_len = parse_frame_header(bytes(view[:FRAME_HEADER_SIZE]))
    if len(view) < FRAME_HEADER_SIZE + meta_len + payload_len:
        raise ValueError(
            f"truncated frame: header declares "
            f"{FRAME_HEADER_SIZE + meta_len + payload_len} bytes, got {len(view)}"
        )
    meta = bytes(view[FRAME_HEADER_SIZE : FRAME_HEADER_SIZE + meta_len])
    payload = view[
        FRAME_HEADER_SIZE + meta_len : FRAME_HEADER_SIZE + meta_len + payload_len
    ]
    return decode_frame_payload(meta, payload)


def _as_batch(inputs: np.ndarray) -> np.ndarray:
    """Coerce request inputs to a flattened ``(batch, features)`` float array.

    Degenerate inputs are rejected here (the reshape below cannot infer a
    feature axis for them anyway): a request must carry at least one sample
    and each sample at least one feature.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        # An empty 1-D input is an empty batch, not a single empty sample.
        x = x.reshape(0, 0) if x.size == 0 else x[np.newaxis]
    if x.shape[0] == 0:
        raise ValueError(
            "request batch is empty: inputs must contain at least one sample"
        )
    if x.size == 0:
        raise ValueError(
            "request samples are empty: each sample needs at least one feature"
        )
    return x.reshape(x.shape[0], -1)


def _load_payload(payload: str, what: str) -> dict[str, object]:
    """Parse a JSON payload into a mapping, raising :class:`ValueError` on junk.

    Wire-facing consumers (the chip server, queue workers) must be able to
    treat every deserialisation failure uniformly, so malformed JSON and
    non-object payloads surface as ``ValueError`` like every other schema
    violation rather than leaking :class:`json.JSONDecodeError`.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} JSON payload: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(
            f"{what} payload must be a JSON object, got {type(data).__name__}"
        )
    return data


def _check_fields(
    data: dict[str, object], *, what: str, required: set[str], optional: set[str]
) -> None:
    """Reject payloads with missing required or unknown fields (schema drift)."""
    missing = required - set(data)
    if missing:
        raise ValueError(f"{what} payload missing required fields: {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise ValueError(f"{what} payload has unknown fields: {sorted(unknown)}")


@dataclass(frozen=True)
class InferenceRequest:
    """One batch of inputs for a :class:`~repro.serve.ChipSession`.

    Attributes
    ----------
    inputs:
        Intensity array of shape ``(batch, ...)`` (a single 1-D sample is
        promoted to a batch of one); trailing axes are flattened.
    labels:
        Optional integer labels; when present the response carries accuracy.
    timesteps:
        Per-request override of the session's rate-coding window.
    sample_offset:
        Absolute index of ``inputs[0]`` within the logical batch.  Used by
        :class:`~repro.serve.ChipPool` so a shard's stochastic encoding is
        identical to the same slice of a single full-batch request.
    retry_budget:
        Optional :class:`~repro.serve.retry.RetryBudget` bounding the total
        retries this request (and every shard of it) may consume across
        layers — gateway shed retries, hedges gone wrong, client
        reconnects.  Sender-side policy only: never serialized, and
        :meth:`shard` hands every shard the *same* budget object so the
        accounting is per request, not per shard.
    """

    inputs: np.ndarray
    labels: np.ndarray | None = None
    timesteps: int | None = None
    sample_offset: int = 0
    retry_budget: RetryBudget | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.timesteps is not None and self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if self.sample_offset < 0:
            raise ValueError(f"sample_offset must be >= 0, got {self.sample_offset}")
        batch = self.batch  # raises on empty batches / featureless samples
        if self.labels is not None and len(np.asarray(self.labels)) != batch.shape[0]:
            raise ValueError(
                f"labels length {len(np.asarray(self.labels))} does not match "
                f"batch size {batch.shape[0]}"
            )

    @property
    def batch(self) -> np.ndarray:
        """The inputs as a flattened ``(batch, features)`` array."""
        return _as_batch(self.inputs)

    @property
    def batch_size(self) -> int:
        """Number of samples in the request."""
        return self.batch.shape[0]

    def shard(self, start: int, stop: int) -> "InferenceRequest":
        """The sub-request covering samples ``[start, stop)`` of this batch."""
        x = self.batch
        labels = None
        if self.labels is not None:
            labels = np.asarray(self.labels)[start:stop]
        return replace(
            self,
            inputs=x[start:stop],
            labels=labels,
            sample_offset=self.sample_offset + start,
        )

    def with_retry_budget(self, budget: RetryBudget | None) -> "InferenceRequest":
        """A copy of this request carrying ``budget`` (shared by all its shards)."""
        return replace(self, retry_budget=budget)

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible representation."""
        return {
            "schema_version": SCHEMA_VERSION,
            "inputs": self.batch.tolist(),
            "labels": None if self.labels is None else np.asarray(self.labels).tolist(),
            "timesteps": self.timesteps,
            "sample_offset": self.sample_offset,
        }

    def to_wire_dict(self) -> dict[str, object]:
        """Frame-carrier representation: same fields, arrays stay ndarrays.

        :func:`encode_frame` ships the arrays as raw little-endian bytes, so
        this codec never pays a per-float text conversion.  The key set is
        identical to :meth:`to_dict` and :meth:`from_dict` reads both.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "inputs": self.batch,
            "labels": (
                None if self.labels is None else np.asarray(self.labels, dtype=np.int64)
            ),
            "timesteps": self.timesteps,
            "sample_offset": self.sample_offset,
        }

    def to_frame(self) -> bytes:
        """Serialise to one standalone binary frame (see :func:`encode_frame`)."""
        return encode_frame(self.to_wire_dict())

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "InferenceRequest":
        """Rebuild a request from a frame produced by :meth:`to_frame`."""
        return cls.from_dict(decode_frame(frame))

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "InferenceRequest":
        """Rebuild a request produced by :meth:`to_dict`.

        Payloads missing ``inputs`` or carrying fields this build does not
        know are rejected with a :class:`ValueError`, so a drifted producer
        fails loudly instead of being silently mis-read.
        """
        _check_version(data)
        _check_fields(
            data,
            what="request",
            required={"inputs"},
            optional={"schema_version", "labels", "timesteps", "sample_offset"},
        )
        labels = data.get("labels")
        timesteps = data.get("timesteps")
        return cls(
            inputs=np.asarray(data["inputs"], dtype=float),
            labels=None if labels is None else np.asarray(labels, dtype=int),
            timesteps=None if timesteps is None else int(timesteps),
            sample_offset=int(data.get("sample_offset", 0)),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "InferenceRequest":
        """Deserialise from a JSON string; malformed JSON is a ValueError."""
        return cls.from_dict(_load_payload(payload, "request"))


@dataclass(frozen=True)
class InferenceResponse:
    """Outcome of one chip inference batch, local or served.

    The chip's answer (predictions, spike counts, accuracy, event counters,
    energy) plus the serving metadata a client needs: the executing
    backend, the batch size and how many pool workers the batch was sharded
    across.  Experiments read it as the result of a chip run.
    """

    predictions: np.ndarray
    spike_counts: np.ndarray
    accuracy: float | None
    counters: EventCounters
    energy: EnergyReport
    timesteps: int
    backend: str
    batch_size: int
    jobs: int = 1
    metadata: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible representation (lossless float round trip)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "predictions": self.predictions.tolist(),
            "spike_counts": self.spike_counts.tolist(),
            "accuracy": self.accuracy,
            "counters": self.counters.as_dict(),
            "energy": self.energy.to_dict(),
            "timesteps": self.timesteps,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "jobs": self.jobs,
            "metadata": dict(self.metadata),
        }

    def to_wire_dict(self) -> dict[str, object]:
        """Frame-carrier representation: the big arrays stay ndarrays.

        ``predictions`` and ``spike_counts`` — the only payloads that scale
        with the batch — ship as raw bytes through :func:`encode_frame`; the
        scalar-sized counters/energy breakdowns stay compact JSON, whose
        shortest-round-trip float printing is already lossless.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "predictions": np.asarray(self.predictions, dtype=np.int64),
            "spike_counts": np.asarray(self.spike_counts, dtype=np.float64),
            "accuracy": self.accuracy,
            "counters": self.counters.as_dict(),
            "energy": self.energy.to_dict(),
            "timesteps": self.timesteps,
            "backend": self.backend,
            "batch_size": self.batch_size,
            "jobs": self.jobs,
            "metadata": dict(self.metadata),
        }

    def to_frame(self) -> bytes:
        """Serialise to one standalone binary frame (see :func:`encode_frame`)."""
        return encode_frame(self.to_wire_dict())

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "InferenceResponse":
        """Rebuild a response from a frame produced by :meth:`to_frame`."""
        return cls.from_dict(decode_frame(frame))

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "InferenceResponse":
        """Rebuild a response produced by :meth:`to_dict`.

        Like :meth:`InferenceRequest.from_dict`, missing required fields and
        unknown fields raise :class:`ValueError`.
        """
        _check_version(data)
        _check_fields(
            data,
            what="response",
            required={
                "predictions",
                "spike_counts",
                "counters",
                "energy",
                "timesteps",
                "backend",
                "batch_size",
            },
            optional={"schema_version", "accuracy", "jobs", "metadata"},
        )
        accuracy = data.get("accuracy")
        return cls(
            predictions=np.asarray(data["predictions"], dtype=int),
            spike_counts=np.asarray(data["spike_counts"], dtype=float),
            accuracy=None if accuracy is None else float(accuracy),
            counters=EventCounters.from_dict(data["counters"]),
            energy=EnergyReport.from_dict(data["energy"]),
            timesteps=int(data["timesteps"]),
            backend=str(data["backend"]),
            batch_size=int(data["batch_size"]),
            jobs=int(data.get("jobs", 1)),
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "InferenceResponse":
        """Deserialise from a JSON string; malformed JSON is a ValueError."""
        return cls.from_dict(_load_payload(payload, "response"))


def _check_version(data: dict[str, object]) -> None:
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r} (this build reads {SCHEMA_VERSION})"
        )
