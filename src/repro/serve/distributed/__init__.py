"""Distributed serving: executors, socket server/client, and the gateway.

Three layers share the :class:`~repro.serve.InferenceRequest` ->
:class:`~repro.serve.InferenceResponse` contract and are each result-
identical to a single local :class:`~repro.serve.ChipSession`:

* **executors** (:mod:`~repro.serve.distributed.executors`) — in-process
  shard execution for :class:`~repro.serve.ChipPool`: ``inline`` (on the
  calling thread) or ``thread`` (one worker session per thread).
* **server/client** (:mod:`~repro.serve.distributed.server` /
  :mod:`~repro.serve.distributed.client`) — an :mod:`asyncio` chip daemon
  answering protocol-3 binary frames with pipelined request ids and
  cross-client dynamic batching, and :class:`PipelinedSession`, which gives
  a chip on another host the ``ChipSession`` surface, keeps many tagged
  requests in flight over a small connection pool, and resends across
  server restarts within a retry budget.
* **gateway** (:mod:`~repro.serve.distributed.gateway`) — fans a batch out
  across several endpoints (local pools and/or remote sessions) with
  capacity-weighted sharding and an exact streaming merge;
  ``submit()`` is non-blocking, so successive batches pipeline across the
  endpoints.

Quickstart::

    from repro.serve import ChipPool, InferenceRequest
    from repro.serve.distributed import ChipServer, InferenceGateway, PipelinedSession

    pool = ChipPool(snn, jobs=4, seed=7)                       # multi-core
    server = ChipServer(pool, port=7070).start()               # multi-host
    remote = PipelinedSession.connect("127.0.0.1:7070")        # many in flight
    gateway = InferenceGateway([remote, local_pool])           # multi-endpoint
    future = gateway.submit(InferenceRequest(inputs=images))   # non-blocking
    response = future.result()

``python -m repro.serve.distributed serve --workload mnist-mlp`` runs the
daemon from the command line, and ``infer`` sends it one batch (see
:mod:`~repro.serve.distributed.cli`).
"""

from repro.serve.distributed.client import (
    CancellableFuture,
    PipelinedSession,
    RemoteServerError,
    parse_endpoint,
    split_endpoints,
)
from repro.serve.distributed.executors import (
    EXECUTORS,
    InlineExecutor,
    SessionSpec,
    ShardExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.serve.distributed.gateway import GatewayEndpoint, InferenceGateway
from repro.serve.distributed.server import (
    ChipServer,
    ServeRejection,
    ServingWorkload,
    load_benchmark_workload,
)

__all__ = [
    "EXECUTORS",
    "CancellableFuture",
    "ChipServer",
    "GatewayEndpoint",
    "InferenceGateway",
    "InlineExecutor",
    "PipelinedSession",
    "RemoteServerError",
    "ServeRejection",
    "ServingWorkload",
    "SessionSpec",
    "ShardExecutor",
    "ThreadExecutor",
    "load_benchmark_workload",
    "make_executor",
    "parse_endpoint",
    "split_endpoints",
]
