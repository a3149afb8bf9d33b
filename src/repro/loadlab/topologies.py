"""Every serving topology behind one ``submit(request)`` surface.

The lab drives the same :class:`~repro.serve.distributed.executors.SessionSpec`
derived workload through each layer of the serving stack:

========== ====================================================================
``session``  one :class:`~repro.serve.ChipSession` (the exactness baseline)
``pool``     a :class:`~repro.serve.ChipPool` sharding across thread workers
``server``   an in-process :class:`~repro.serve.distributed.ChipServer` with a
             :class:`~repro.serve.distributed.PipelinedSession` client — the
             full wire protocol, dynamic batcher and admission control
``gateway``  two in-process servers behind an
             :class:`~repro.serve.distributed.InferenceGateway`
========== ====================================================================

Shard-stable encoding makes every topology result-identical for the same
request, so any throughput/latency/energy difference the sweep measures is
pure serving overhead, never numerics.  Each builder returns a
:class:`Topology` whose ``submit`` is thread-safe and whose ``close``
tears the whole arrangement down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
)
from repro.serve.distributed.executors import SessionSpec
from repro.serve.pool import ChipPool
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.serve.session import ChipSession
from repro.snn import Dense, Network, convert_to_snn

__all__ = [
    "TOPOLOGIES",
    "LabWorkload",
    "Topology",
    "build_topology",
    "default_workload",
]


@dataclass(frozen=True)
class LabWorkload:
    """The network + input corpus every topology serves."""

    session_spec: SessionSpec
    inputs: np.ndarray
    labels: np.ndarray

    def make_request(
        self, index: int, rng: np.random.Generator, batch_size: int
    ) -> InferenceRequest:
        """A seeded random contiguous slice of the corpus, labels attached."""
        total = self.inputs.shape[0]
        size = min(batch_size, total)
        start = int(rng.integers(0, total - size + 1))
        return InferenceRequest(
            inputs=self.inputs[start : start + size],
            labels=self.labels[start : start + size],
        )


def default_workload(
    *,
    features: int = 32,
    hidden: int = 16,
    classes: int = 10,
    samples: int = 64,
    timesteps: int = 4,
    seed: int = 7,
) -> LabWorkload:
    """A small MLP workload sized so a sweep cell finishes in seconds."""
    rng = np.random.default_rng(seed)
    network = Network(
        (features,),
        [
            Dense(features, hidden, use_bias=False, rng=rng, name="fc1"),
            Dense(hidden, classes, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name=f"loadlab-{features}x{hidden}x{classes}",
    )
    snn = convert_to_snn(network, rng.random((12, features)))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    # One primary session pins the encoder state every topology shares, so
    # placements stay result-identical across the sweep.
    primary = ChipSession(
        snn, config=config, timesteps=timesteps, encoder="deterministic", seed=seed
    )
    assert primary.encoder_state is not None
    spec = SessionSpec(
        snn=snn,
        config=primary.config,
        library=None,
        timesteps=timesteps,
        backend="vectorized",
        seed=seed,
        encoder_state=primary.encoder_state,
    )
    inputs = rng.random((samples, features))
    labels = rng.integers(0, classes, size=samples)
    return LabWorkload(session_spec=spec, inputs=inputs, labels=labels)


class Topology:
    """One built serving arrangement: a thread-safe ``submit`` + teardown."""

    def __init__(self, name: str, submit, close, *, serialized: bool = False):
        self.name = name
        self._submit = submit
        self._close = close
        self._lock = threading.Lock() if serialized else None
        self._closed = False

    def submit(self, request: InferenceRequest) -> InferenceResponse:
        if self._lock is not None:
            with self._lock:
                return self._submit(request)
        return self._submit(request)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._close()

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _build_session(workload: LabWorkload, options: dict) -> Topology:
    session = workload.session_spec.build_session()
    # A bare session has no dispatch queue; serialize concurrent callers.
    return Topology("session", session.infer, lambda: None, serialized=True)


def _build_pool(workload: LabWorkload, options: dict) -> Topology:
    pool = ChipPool(
        workload.session_spec.snn,
        jobs=int(options.get("jobs", 2)),
        config=workload.session_spec.config,
        timesteps=workload.session_spec.timesteps,
        seed=workload.session_spec.seed,
        encoder_state=workload.session_spec.encoder_state,
        executor="thread",
    )
    return Topology("pool", pool.infer, pool.close)


def _start_server(workload: LabWorkload, options: dict, name: str) -> ChipServer:
    return ChipServer(
        workload.session_spec.build_session(),
        port=0,
        workload=name,
        max_batch=int(options.get("max_batch", 8)),
        max_queue=int(options.get("max_queue", 0)),
        metrics_port=0 if options.get("metrics") else None,
    ).start()


def _build_server(workload: LabWorkload, options: dict) -> Topology:
    server = _start_server(workload, options, "loadlab-server")
    client = PipelinedSession.connect(server.address, connections=2)

    def close() -> None:
        try:
            client.close()
        finally:
            server.close()

    return Topology("server", client.infer, close)


def _build_gateway(workload: LabWorkload, options: dict) -> Topology:
    replicas = int(options.get("replicas", 2))
    servers = [
        _start_server(workload, options, f"loadlab-gw-{i}") for i in range(replicas)
    ]
    clients = [PipelinedSession.connect(s.address, connections=2) for s in servers]
    gateway = InferenceGateway(
        [
            GatewayEndpoint(target=client, name=f"gw-{i}")
            for i, client in enumerate(clients)
        ],
        name="loadlab-gateway",
    )

    def close() -> None:
        gateway.close()
        for client in clients:
            client.close()
        for server in servers:
            server.close()

    return Topology("gateway", gateway.infer, close)


TOPOLOGIES = {
    "session": _build_session,
    "pool": _build_pool,
    "server": _build_server,
    "gateway": _build_gateway,
}


def build_topology(
    name: str, workload: LabWorkload, **options: object
) -> Topology:
    """Build one named topology over ``workload`` (see :data:`TOPOLOGIES`)."""
    if name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        )
    return TOPOLOGIES[name](workload, dict(options))
