"""Shard executors for :class:`~repro.serve.pool.ChipPool`.

A pool splits each request batch into contiguous shards; *how* the shards
execute is this module's concern.  Every executor implements the same tiny
contract — :meth:`ShardExecutor.start` with a :class:`SessionSpec`,
:meth:`ShardExecutor.run_shards` mapping shard requests to responses, and
:meth:`ShardExecutor.close` — and every executor is **result-identical**:
predictions, spike counts and integer event counters match a single
:class:`~repro.serve.session.ChipSession` run exactly, and energies agree to
floating-point accumulation order.  That identity holds because

* encoding is shard-stable (:class:`~repro.snn.encoding.EncoderState` seeds
  spike streams per absolute sample index),
* chip programming is a pure function of ``(snn, config, seed)``, so every
  worker session holds an identically programmed chip, and
* counters are per-run deltas that sum exactly across shards.

Both executors run in the pool's own process:

* :class:`InlineExecutor` — runs shards sequentially on the caller's thread
  (the debugging/profiling baseline: sharding semantics, no concurrency).
* :class:`ThreadExecutor` — the default: one worker session per job on a
  thread pool (the vectorized backend releases the GIL in its NumPy
  kernels).  Vectorized workers share the primary session's chip and
  compiled program; structural workers rebuild their own chip.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config import ArchitectureConfig
from repro.core.resparc import ResparcChip
from repro.energy.components import ComponentLibrary
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.serve.session import ChipSession
from repro.snn.conversion import SpikingNetwork

__all__ = [
    "SessionSpec",
    "ShardExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "EXECUTORS",
    "make_executor",
]


@dataclass(frozen=True)
class SessionSpec:
    """Recipe for building interchangeable worker sessions.

    Everything a pool worker needs to build a :class:`ChipSession` whose
    chip is programmed identically to the pool's primary session and whose
    encoder state is the primary's, so worker encoding is shard-stable.
    """

    snn: SpikingNetwork
    config: ArchitectureConfig
    library: ComponentLibrary | None
    timesteps: int
    encoder: str
    backend: str
    seed: int

    def build_session(self, chip: ResparcChip | None = None) -> ChipSession:
        """Build a worker session (optionally reusing a prebuilt chip)."""
        return ChipSession(
            self.snn,
            chip=chip,
            config=self.config,
            library=self.library,
            timesteps=self.timesteps,
            encoder=self.encoder,
            backend=self.backend,
            seed=self.seed,
        )


class ShardExecutor(ABC):
    """Executes a pool's shard requests on worker sessions."""

    #: Registry name (what ``ChipPool(executor=...)`` selects by).
    name = "abstract"

    @abstractmethod
    def start(self, spec: SessionSpec, jobs: int, primary: ChipSession) -> None:
        """Provision ``jobs`` workers from ``spec``.

        ``primary`` is the pool's already-built primary session; executors
        reuse it (and, on the vectorized backend, its chip) instead of
        building a redundant worker.
        """

    @abstractmethod
    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        """Run the shard requests and return their responses, in order.

        ``len(shards)`` never exceeds the ``jobs`` the executor was started
        with (:meth:`~repro.serve.pool.ChipPool.infer_many` chunks larger
        coalesced dispatches into waves); the pool guarantees at most one
        call in flight at a time and never calls :meth:`close` during one.
        """

    def close(self) -> None:
        """Release worker resources (idempotent)."""


class InlineExecutor(ShardExecutor):
    """Sequential execution on the calling thread.

    Shards run one after another on the primary session — valid because
    counters are per-run deltas (the structural backend resets chip state
    per sample) — so the pool's sharding semantics can be exercised and
    profiled without any concurrency in the way.
    """

    name = "inline"

    def start(self, spec: SessionSpec, jobs: int, primary: ChipSession) -> None:
        self._primary = primary

    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        return [self._primary.infer(shard) for shard in shards]


class ThreadExecutor(ShardExecutor):
    """One worker session per job on a thread pool (the historical pool)."""

    name = "thread"

    def start(self, spec: SessionSpec, jobs: int, primary: ChipSession) -> None:
        # Vectorized workers share the primary's chip (and therefore its
        # cached compiled program); the engine never mutates either.  The
        # structural backend mutates live component state, so each worker
        # rebuilds its own chip from the same seed, which programs
        # identically.
        shared_chip = primary.chip if spec.backend == "vectorized" else None
        self.sessions = [primary]
        for _ in range(jobs - 1):
            self.sessions.append(spec.build_session(chip=shared_chip))
        self._threads = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="chip-pool"
        )

    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        # Shards are pinned to fixed sessions: structural workers mutate
        # their chip in place, so a session must never run two shards of the
        # same dispatch wave.  An over-capacity wave would silently drop
        # shards in the zip below — reject it loudly instead.
        if len(shards) > len(self.sessions):
            raise ValueError(
                f"thread executor holds {len(self.sessions)} worker sessions "
                f"but received {len(shards)} shards in one wave"
            )
        futures = [
            self._threads.submit(session.infer, shard)
            for session, shard in zip(self.sessions, shards)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._threads.shutdown(wait=True)


#: Executor registry, keyed by the names ``ChipPool(executor=...)`` accepts.
EXECUTORS: dict[str, type[ShardExecutor]] = {
    InlineExecutor.name: InlineExecutor,
    ThreadExecutor.name: ThreadExecutor,
}


def make_executor(name: str) -> ShardExecutor:
    """Build the executor registered under ``name``."""
    if name not in EXECUTORS:
        raise ValueError(f"executor must be one of {sorted(EXECUTORS)}, got {name!r}")
    return EXECUTORS[name]()
