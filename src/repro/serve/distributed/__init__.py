"""Distributed serving: executors, socket server/client, and the gateway.

Three layers share the :class:`~repro.serve.InferenceRequest` ->
:class:`~repro.serve.InferenceResponse` contract and are each result-
identical to a single local :class:`~repro.serve.ChipSession`:

* **executors** (:mod:`~repro.serve.distributed.executors`) — pluggable
  shard execution for :class:`~repro.serve.ChipPool`: ``inline``, ``thread``
  or ``process`` (one programmed chip per ``multiprocessing`` worker, shard
  arrays shipped through shared memory).
* **server/client** (:mod:`~repro.serve.distributed.server` /
  :mod:`~repro.serve.distributed.client`) — an :mod:`asyncio` chip daemon
  answering protocol-3 binary frames with pipelined request ids and
  cross-client dynamic batching, :class:`RemoteSession`, which gives a chip
  on another host the ``ChipSession`` surface (with reconnect-and-retry
  across server restarts), and :class:`PipelinedSession`, which keeps many
  tagged requests in flight over a small connection pool.
* **gateway** (:mod:`~repro.serve.distributed.gateway`) — fans a batch out
  across several endpoints (local pools and/or remote sessions) with
  capacity-weighted sharding and an exact streaming merge;
  ``submit()`` is non-blocking, so successive batches pipeline across the
  endpoints.

Quickstart::

    from repro.serve import ChipPool, InferenceRequest
    from repro.serve.distributed import ChipServer, InferenceGateway, PipelinedSession

    pool = ChipPool(snn, jobs=4, executor="process", seed=7)   # multi-core
    server = ChipServer(pool, port=7070).start()               # multi-host
    remote = PipelinedSession.connect("127.0.0.1:7070")        # many in flight
    gateway = InferenceGateway([remote, local_pool])           # multi-endpoint
    future = gateway.submit(InferenceRequest(inputs=images))   # non-blocking
    response = future.result()

``python -m repro.serve.distributed serve --workload mnist-mlp`` runs the
daemon from the command line; ``infer`` and ``smoke`` client subcommands
live alongside it (see :mod:`~repro.serve.distributed.cli`).
"""

from repro.serve.distributed.client import (
    CancellableFuture,
    PipelinedSession,
    RemoteServerError,
    RemoteSession,
    parse_endpoint,
    split_endpoints,
)
from repro.serve.distributed.executors import (
    EXECUTORS,
    InlineExecutor,
    ProcessExecutor,
    SessionSpec,
    ShardExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.serve.distributed.gateway import GatewayEndpoint, InferenceGateway
from repro.serve.distributed.server import (
    SHED_POLICIES,
    ChipServer,
    ServeRejection,
    ServingWorkload,
    load_benchmark_workload,
)

__all__ = [
    "EXECUTORS",
    "SHED_POLICIES",
    "CancellableFuture",
    "ChipServer",
    "GatewayEndpoint",
    "InferenceGateway",
    "InlineExecutor",
    "PipelinedSession",
    "ProcessExecutor",
    "RemoteServerError",
    "RemoteSession",
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
