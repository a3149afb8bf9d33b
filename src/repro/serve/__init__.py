"""Service-layer inference API.

The serving subsystem wraps the chip models behind the session/pool shape a
server, queue worker or sweep harness can sit on:

* :class:`~repro.serve.schema.InferenceRequest` /
  :class:`~repro.serve.schema.InferenceResponse` — the serializable request
  and result schema (lossless JSON round trip, including event counters and
  the energy report).
* :class:`~repro.serve.session.ChipSession` — one programmed chip plus its
  compiled fastpath program and encoder state, serving ``infer`` requests
  with per-request batch/labels/timesteps overrides.
* :class:`~repro.serve.pool.ChipPool` — N workers sharding a large batch
  behind a pluggable executor (``inline`` / ``thread`` / ``process``),
  merging shard responses into one result identical to a single-session
  run.
* :mod:`repro.serve.distributed` — the multi-host layer: the executor
  registry, a socket chip server plus :class:`PipelinedSession` client, and a
  capacity-weighted multi-endpoint :class:`InferenceGateway`.

Quickstart::

    from repro.serve import ChipPool, ChipSession, InferenceRequest

    session = ChipSession(snn, timesteps=16, encoder="poisson", seed=7)
    response = session.infer(InferenceRequest(inputs=images, labels=labels))

    with ChipPool(snn, jobs=4, timesteps=16, encoder="poisson", seed=7) as pool:
        sharded = pool.infer(InferenceRequest(inputs=images, labels=labels))

    payload = sharded.to_json()  # ships across a process boundary
"""

from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
)
from repro.serve.pool import ChipPool
from repro.serve.retry import (
    RetryBudget,
    RetryBudgetExhausted,
    retry_backoff,
)
from repro.serve.schema import (
    FRAME_MAGIC,
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    InferenceRequest,
    InferenceResponse,
    decode_frame,
    encode_frame,
)
from repro.serve.session import ChipSession

__all__ = [
    "FRAME_MAGIC",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "decode_frame",
    "encode_frame",
    "ChipPool",
    "ChipServer",
    "ChipSession",
    "GatewayEndpoint",
    "InferenceGateway",
    "InferenceRequest",
    "InferenceResponse",
    "PipelinedSession",
    "RetryBudget",
    "RetryBudgetExhausted",
    "retry_backoff",
]
