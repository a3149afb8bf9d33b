"""Pluggable shard executors for :class:`~repro.serve.pool.ChipPool`.

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
  worker — thread or process — holds an identically programmed chip, and
* counters are per-run deltas that sum exactly across shards.

Three executors are provided:

* :class:`InlineExecutor` — runs shards sequentially on the caller's thread
  (the debugging/profiling baseline: sharding semantics, no concurrency).
* :class:`ThreadExecutor` — the classic pool behaviour: one worker session
  per job on a thread pool (the vectorized backend releases the GIL in its
  NumPy kernels).  Vectorized workers share the primary session's chip and
  compiled program; structural workers rebuild their own chip.
* :class:`ProcessExecutor` — ``multiprocessing`` workers, each holding its
  own programmed chip in its own interpreter.  The batch-sized arrays cross
  the process boundary through a :mod:`multiprocessing.shared_memory`
  segment (written once by the pool, read and filled in place by the
  workers), so inter-process transfer cost is O(1) in the batch size; the
  scalar-sized remainder of each request/response rides compact JSON.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.core.resparc import ResparcChip
from repro.energy.components import ComponentLibrary
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.serve.session import ChipSession
from repro.snn.conversion import SpikingNetwork
from repro.snn.encoding import EncoderState

__all__ = [
    "SessionSpec",
    "ShardExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
]


@dataclass(frozen=True)
class SessionSpec:
    """Picklable recipe for building interchangeable worker sessions.

    Everything a worker — in this process or another — needs to build a
    :class:`ChipSession` whose chip is programmed identically to the pool's
    primary session.  The spec always carries an explicit
    :class:`EncoderState` (never a legacy RNG stream), so worker encoding is
    shard-stable by construction.
    """

    snn: SpikingNetwork
    config: ArchitectureConfig
    library: ComponentLibrary | None
    timesteps: int
    backend: str
    seed: int
    encoder_state: EncoderState

    def build_session(self, chip: ResparcChip | None = None) -> ChipSession:
        """Build a worker session (optionally reusing a prebuilt chip)."""
        return ChipSession(
            self.snn,
            chip=chip,
            config=self.config,
            library=self.library,
            timesteps=self.timesteps,
            backend=self.backend,
            seed=self.seed,
            encoder_state=self.encoder_state,
        )


class ShardExecutor(ABC):
    """Executes a pool's shard requests on worker sessions."""

    #: Registry name (what ``ChipPool(executor=...)`` selects by).
    name = "abstract"

    @abstractmethod
    def start(self, spec: SessionSpec, jobs: int, primary: ChipSession) -> None:
        """Provision ``jobs`` workers from ``spec``.

        ``primary`` is the pool's already-built primary session; executors
        that run in-process may reuse it (and, on the vectorized backend,
        its chip) instead of building a redundant worker.
        """

    @abstractmethod
    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        """Run the shard requests and return their responses, in order.

        ``len(shards)`` never exceeds the ``jobs`` the executor was started
        with (:meth:`~repro.serve.pool.ChipPool.infer_many` chunks larger
        coalesced dispatches into waves); the pool guarantees at most one
        call in flight at a time.
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


# -- process workers ---------------------------------------------------------------
#
# Worker state lives in a module global because ``multiprocessing`` worker
# functions must be importable top-level callables.  Each worker process
# builds its own session (and therefore its own programmed chip) once, in the
# pool initializer, then serves shard requests from it.

_WORKER_SESSION: ChipSession | None = None


def _process_worker_init(spec: SessionSpec) -> None:
    global _WORKER_SESSION
    _WORKER_SESSION = spec.build_session()


def _pad8(offset: int) -> int:
    """Round ``offset`` up to the next 8-byte boundary (array slot alignment)."""
    return (offset + 7) & ~7


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a pool-owned shared-memory segment without adopting it.

    Before Python 3.13, ``SharedMemory`` registers *attaches* with the
    resource tracker exactly like creations, so a worker exiting would
    unlink a segment the parent still owns; unregister immediately — only
    the creating process cleans up.
    """
    segment = shared_memory.SharedMemory(name=name)
    with contextlib.suppress(Exception):
        resource_tracker.unregister(segment._name, "shared_memory")
    return segment


def _process_worker_infer_shm(task: str) -> str:
    """Run one shard whose arrays live in a shared-memory segment.

    ``task`` is compact JSON: the segment name, the request's scalar fields,
    and the offsets of the input/label slots to read and the
    prediction/spike-count slots to fill.  The return value is the
    response's scalar remainder (counters, energy, metadata) — the arrays
    never leave the segment.
    """
    if _WORKER_SESSION is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("process worker used before initialisation")
    info = json.loads(task)
    segment = _attach_segment(info["segment"])
    try:
        return _infer_into_segment(info, segment)
    finally:
        # An exception traceback can briefly pin array views of the buffer;
        # the mapping then frees with the frames instead of failing here.
        with contextlib.suppress(BufferError):
            segment.close()


def _infer_into_segment(
    info: dict[str, object], segment: shared_memory.SharedMemory
) -> str:
    n = int(info["n"])
    features = int(info["features"])
    output_dim = int(info["output_dim"])
    data = dict(info["request"])
    data["inputs"] = np.frombuffer(
        segment.buf, dtype="<f8", count=n * features, offset=int(info["inputs_offset"])
    ).reshape(n, features)
    labels_offset = info["labels_offset"]
    data["labels"] = (
        None
        if labels_offset is None
        else np.frombuffer(
            segment.buf, dtype="<i8", count=n, offset=int(labels_offset)
        )
    )
    response = _WORKER_SESSION.infer(InferenceRequest.from_dict(data))
    wire = response.to_wire_dict()
    predictions = np.asarray(wire.pop("predictions"), dtype="<i8")
    spike_counts = np.asarray(wire.pop("spike_counts"), dtype="<f8")
    if predictions.shape != (n,) or spike_counts.shape != (n, output_dim):
        raise RuntimeError(
            f"shard produced predictions {predictions.shape} / spike counts "
            f"{spike_counts.shape}, but the pool reserved slots for "
            f"({n},) / ({n}, {output_dim})"
        )
    np.frombuffer(
        segment.buf, dtype="<i8", count=n, offset=int(info["predictions_offset"])
    )[...] = predictions
    np.frombuffer(
        segment.buf,
        dtype="<f8",
        count=n * output_dim,
        offset=int(info["spike_counts_offset"]),
    ).reshape(n, output_dim)[...] = spike_counts
    return json.dumps(wire)


class ProcessExecutor(ShardExecutor):
    """``multiprocessing`` workers, one programmed chip per process.

    The executor sidesteps the GIL entirely (useful for the structural
    backend, whose per-sample Python loop threads cannot parallelise), and
    ships each dispatch wave's arrays through one
    :mod:`multiprocessing.shared_memory` segment: the pool writes inputs
    and labels raw and reserves prediction/spike-count slots, workers
    attach by name and fill their slots in place, and only scalar-sized
    JSON (request overrides out, counters and energy back) crosses the pipe
    — inter-process transfer is O(1) in batch size.  Results are exact
    because float64/int64 arrays transfer bit-identically by construction.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"`` or ``None`` for the platform default).  All methods
        work because :class:`SessionSpec` is picklable and segments are
        attached by name.
    """

    name = "process"

    def __init__(self, start_method: str | None = None):
        self._start_method = start_method
        self._pool: multiprocessing.pool.Pool | None = None
        self._output_dim = 0

    def start(self, spec: SessionSpec, jobs: int, primary: ChipSession) -> None:
        # The output slots are sized before dispatch, so the executor must
        # know the chip's output width up front; every worker builds an
        # identically-programmed chip from the same spec.
        self._output_dim = int(primary.chip.output_dim)
        context = multiprocessing.get_context(self._start_method)
        self._pool = context.Pool(
            processes=jobs, initializer=_process_worker_init, initargs=(spec,)
        )

    def run_shards(self, shards: list[InferenceRequest]) -> list[InferenceResponse]:
        if self._pool is None:
            raise RuntimeError("process executor is not started")
        if not shards:
            return []
        # One segment per dispatch wave: lay out every shard's input/label
        # arrays plus its preallocated output slots, 8-byte aligned.
        entries = []
        size = 0
        for shard in shards:
            wire = shard.to_wire_dict()
            inputs = np.ascontiguousarray(wire.pop("inputs"), dtype="<f8")
            labels = wire.pop("labels")
            if labels is not None:
                labels = np.ascontiguousarray(labels, dtype="<i8")
            n = int(inputs.shape[0])
            inputs_offset = size
            size = _pad8(size + inputs.nbytes)
            labels_offset = None
            if labels is not None:
                labels_offset = size
                size = _pad8(size + labels.nbytes)
            predictions_offset = size
            size = _pad8(size + n * 8)
            spike_counts_offset = size
            size = _pad8(size + n * self._output_dim * 8)
            entries.append(
                (
                    wire,
                    inputs,
                    labels,
                    n,
                    inputs_offset,
                    labels_offset,
                    predictions_offset,
                    spike_counts_offset,
                )
            )
        segment = shared_memory.SharedMemory(create=True, size=max(size, 1))
        try:
            tasks = []
            for (
                wire,
                inputs,
                labels,
                n,
                inputs_offset,
                labels_offset,
                predictions_offset,
                spike_counts_offset,
            ) in entries:
                np.frombuffer(
                    segment.buf, dtype="<f8", count=inputs.size, offset=inputs_offset
                ).reshape(inputs.shape)[...] = inputs
                if labels is not None:
                    np.frombuffer(
                        segment.buf, dtype="<i8", count=n, offset=labels_offset
                    )[...] = labels
                tasks.append(
                    json.dumps(
                        {
                            "segment": segment.name,
                            "request": wire,
                            "n": n,
                            "features": int(inputs.shape[1]),
                            "output_dim": self._output_dim,
                            "inputs_offset": inputs_offset,
                            "labels_offset": labels_offset,
                            "predictions_offset": predictions_offset,
                            "spike_counts_offset": spike_counts_offset,
                        }
                    )
                )
            replies = self._pool.map(_process_worker_infer_shm, tasks, chunksize=1)
            responses = []
            for reply, entry in zip(replies, entries):
                n = entry[3]
                predictions_offset, spike_counts_offset = entry[6], entry[7]
                data = json.loads(reply)
                # Copy out before the segment dies: the responses outlive it.
                data["predictions"] = np.frombuffer(
                    segment.buf, dtype="<i8", count=n, offset=predictions_offset
                ).copy()
                data["spike_counts"] = (
                    np.frombuffer(
                        segment.buf,
                        dtype="<f8",
                        count=n * self._output_dim,
                        offset=spike_counts_offset,
                    )
                    .reshape(n, self._output_dim)
                    .copy()
                )
                responses.append(InferenceResponse.from_dict(data))
            return responses
        finally:
            # Only the creating process unlinks (workers detach without
            # registering); close() tolerates views briefly pinned by an
            # in-flight exception's traceback.
            with contextlib.suppress(BufferError):
                segment.close()
            segment.unlink()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


#: Executor registry, keyed by the names ``ChipPool(executor=...)`` accepts.
EXECUTORS: dict[str, type[ShardExecutor]] = {
    InlineExecutor.name: InlineExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(executor: str | ShardExecutor) -> ShardExecutor:
    """Resolve an executor name (or pass through an instance)."""
    if isinstance(executor, ShardExecutor):
        return executor
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {sorted(EXECUTORS)} or a ShardExecutor "
            f"instance, got {executor!r}"
        )
    return EXECUTORS[executor]()
