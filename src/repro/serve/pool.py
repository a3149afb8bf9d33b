"""Sharded inference across a pool of chip sessions.

:class:`ChipPool` owns a primary :class:`~repro.serve.ChipSession` plus a
:class:`~repro.serve.distributed.executors.ShardExecutor` that runs ``jobs``
workers, inline on the calling thread or on a thread pool.  Each request
batch is split into contiguous shards, one per worker, and the merged
response is *result-identical* to running the whole batch on one session
with the same seed, whatever the executor and ``jobs`` (``jobs=1`` runs
that one session inline):

* encoding is shard-stable — every worker derives the pool's
  :class:`~repro.snn.encoding.EncoderState` and receives its shard's
  absolute ``sample_offset``, so sample ``i`` gets the same spike train no
  matter how the batch is partitioned;
* chip programming is a pure function of ``(snn, config, seed)``, so
  vectorized workers sharing the primary chip and structural workers
  rebuilding their own execute the same hardware;
* predictions and spike counts are per-sample and concatenate exactly;
* event counters are integer totals that sum exactly across shards, and the
  merged counters are converted to energy through the primary session's own
  pipeline, so components agree with a single-session run to floating-point
  accumulation order (<< 1e-9 relative).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.energy.components import ComponentLibrary
from repro.serve.distributed.executors import SessionSpec, make_executor
from repro.serve.metrics import (
    PHASE_COMPUTE,
    PHASE_MERGE,
    MetricsRegistry,
    get_default_registry,
    record_phase,
)
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.serve.session import ChipSession
from repro.snn.conversion import SpikingNetwork

__all__ = ["ChipPool"]


class ChipPool:
    """N workers sharding large batches behind one ``infer`` call.

    Parameters
    ----------
    executor:
        Worker strategy: ``"inline"`` (sequential, debugging baseline) or
        ``"thread"`` (default; NumPy kernels release the GIL).  Both return
        identical results.  A ``jobs=1`` pool never shards, so no workers
        are provisioned and the executor is ``inline`` whatever was asked.
    """

    def __init__(
        self,
        snn: SpikingNetwork,
        jobs: int = 2,
        *,
        config: ArchitectureConfig | None = None,
        library: ComponentLibrary | None = None,
        timesteps: int = 32,
        encoder: str = "deterministic",
        backend: str = "vectorized",
        seed: int = 0,
        executor: str = "thread",
        registry: MetricsRegistry | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.metrics = registry if registry is not None else get_default_registry()
        self._m_dispatches = self.metrics.counter(
            "repro_pool_dispatches_total", "coalesced pool dispatches"
        )
        self._m_shards = self.metrics.counter(
            "repro_pool_shards_total", "shards executed"
        )
        self._m_compute = self.metrics.histogram(
            "repro_pool_compute_seconds", "wave execution wall per dispatch"
        )
        self._m_merge = self.metrics.histogram(
            "repro_pool_merge_seconds", "shard merge wall per request"
        )
        # Validate the requested executor even when it will not be used; a
        # single-worker pool downgrades to inline rather than provisioning
        # workers that infer()'s single-shard fast path can never reach.
        requested = make_executor(executor)
        self._shard_executor = requested if jobs > 1 else make_executor("inline")
        primary = ChipSession(
            snn,
            config=config,
            library=library,
            timesteps=timesteps,
            encoder=encoder,
            backend=backend,
            seed=seed,
            registry=registry,
        )
        self._primary = primary
        self._shard_executor.start(
            SessionSpec(
                snn=snn,
                config=primary.config,
                library=library,
                timesteps=timesteps,
                encoder=encoder,
                backend=backend,
                seed=seed,
            ),
            jobs,
            primary,
        )
        # Shard tasks are pinned to fixed workers, and structural workers
        # mutate their chip in place — so only one batch may be in flight per
        # pool.  Callers' infer() calls serialise on this lock.
        self._infer_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the workers (idempotent).

        Waits for the dispatch in flight, whose later waves still need the
        workers; every dispatch after this raises ``RuntimeError``.
        """
        with self._infer_lock:
            if not self._closed:
                self._closed = True
                self._shard_executor.close()

    def __enter__(self) -> "ChipPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def session(self) -> ChipSession:
        """The primary session (shared chip / encoder state / energy context)."""
        return self._primary

    @property
    def executor(self) -> str:
        """Name of the active shard executor."""
        return self._shard_executor.name

    # -- inference ----------------------------------------------------------------

    def _shard_bounds(self, batch: int, shards: int | None = None) -> list[tuple[int, int]]:
        """Contiguous, near-equal shard boundaries; empty shards are dropped.

        With ``batch < shards`` some workers have nothing to do; their empty
        shards are dropped here so no worker ever receives a degenerate
        zero-sample request (which the schema rejects).
        """
        shards = self.jobs if shards is None else shards
        sizes = [len(part) for part in np.array_split(np.arange(batch), shards)]
        bounds = []
        start = 0
        for size in sizes:
            if size:
                bounds.append((start, start + size))
            start += size
        return bounds

    def _shard_allocation(self, requests: list[InferenceRequest]) -> list[int]:
        """How many shards each request receives in one coalesced dispatch.

        Shard sizes are levelled against the dispatch's *ideal makespan* —
        ``ceil(total samples / jobs)``, the wall-clock of a perfectly
        balanced dispatch: request ``i`` is split into
        ``ceil(batch_i / ideal)`` shards, so no single shard ever exceeds
        the ideal and an oversized request is re-batched into sub-shards
        that pack worker slots alongside the small requests riding in the
        same dispatch.  When the requests fit one wave this reduces to the
        historical proportional allocation; when they do not, the spill is
        balanced sub-shards across extra waves rather than one monolithic
        whole-request shard pinning a worker while its siblings idle.
        """
        sizes = [request.batch_size for request in requests]
        ideal = max(1, -(-sum(sizes) // self.jobs))
        return [-(-size // ideal) for size in sizes]

    @staticmethod
    def _pack_waves(sizes: list[int], jobs: int) -> list[list[int]]:
        """Pack shard indices into waves of at most ``jobs``, largest first.

        A wave's wall-clock is its largest shard, so sorting the shards by
        descending size and chunking minimises the summed wave maxima (each
        wave's maximum is then exactly the smallest it can possibly be given
        the shards that remain).  The sort is stable, so equal-sized shards
        dispatch in plan order — packing is deterministic.
        """
        order = sorted(range(len(sizes)), key=lambda index: -sizes[index])
        return [order[start : start + jobs] for start in range(0, len(order), jobs)]

    def infer(self, request: InferenceRequest) -> InferenceResponse:
        """Shard one request across the workers and merge their responses.

        Thread-safe: concurrent callers are serialised, one dispatch in
        flight at a time (the workers parallelise *within* a dispatch).
        """
        return self.infer_many([request])[0]

    def infer_many(self, requests: list[InferenceRequest]) -> list[InferenceResponse]:
        """Run several requests as one coalesced pool dispatch.

        This is the dynamic-batching seam the async chip server drains its
        request queue through: every queued request is split into contiguous
        shards carrying its *own* absolute ``sample_offset``, the shards are
        **re-batched at the shard level** — an oversized request becomes
        several sub-shards no larger than the dispatch's ideal makespan, and
        the flattened shard set is packed into worker waves largest-first,
        so sub-shards of a big request fill slots alongside small requests
        instead of pinning one worker per request — and the shard responses
        are regrouped per request with exactly the merge a standalone
        :meth:`infer` performs.  Because encoding is shard-stable per
        absolute sample index, each returned response is result-identical to
        running that request alone on a single
        :class:`~repro.serve.ChipSession` — re-batching changes throughput,
        never numbers.

        Requests may disagree on ``timesteps``/``labels``; each shard
        carries its request's own overrides (shards with different
        ``timesteps`` may share a wave — workers are independent sessions).
        More shards than worker slots execute in successive waves of at most
        ``jobs`` shards.
        """
        if not requests:
            raise ValueError("infer_many needs at least one request")
        with self._infer_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            plans = [
                self._shard_bounds(request.batch_size, shards)
                for request, shards in zip(requests, self._shard_allocation(requests))
            ]
            if len(requests) == 1 and len(plans[0]) <= 1:
                # Historic fast path: a request too small to shard runs on
                # the primary session without touching the executor.
                started = time.monotonic()
                response = self.session.infer(requests[0])
                compute_s = time.monotonic() - started
                record_phase(response.metadata, PHASE_COMPUTE, compute_s)
                self._m_dispatches.inc()
                self._m_shards.inc()
                self._m_compute.observe(compute_s)
                return [response]
            shard_requests = [
                request.shard(start, stop)
                for request, bounds in zip(requests, plans)
                for start, stop in bounds
            ]
            # Executors pin shards to fixed workers and a wave never exceeds
            # the worker count; packing decides which shards share a wave.
            responses: list[InferenceResponse | None] = [None] * len(shard_requests)
            waves = self._pack_waves(
                [shard.batch_size for shard in shard_requests], self.jobs
            )
            compute_started = time.monotonic()
            for wave in waves:
                for index, response in zip(
                    wave,
                    self._shard_executor.run_shards(
                        [shard_requests[index] for index in wave]
                    ),
                ):
                    responses[index] = response
            compute_s = time.monotonic() - compute_started
        self._m_dispatches.inc()
        self._m_shards.inc(len(shard_requests))
        self._m_compute.observe(compute_s)
        merged = []
        cursor = 0
        for request, bounds in zip(requests, plans):
            merge_started = time.monotonic()
            response = self._merge_request(
                request, responses[cursor : cursor + len(bounds)]
            )
            merge_s = time.monotonic() - merge_started
            # Every request in the dispatch waited for every wave (merging
            # starts only once all shards are back), so the dispatch's
            # compute wall is each request's compute span; the merge span
            # is the request's own.
            record_phase(response.metadata, PHASE_COMPUTE, compute_s)
            record_phase(response.metadata, PHASE_MERGE, merge_s)
            self._m_merge.observe(merge_s)
            merged.append(response)
            cursor += len(bounds)
        return merged

    def _merge_request(
        self, request: InferenceRequest, responses: list[InferenceResponse]
    ) -> InferenceResponse:
        """Merge one request's shard responses (exact, same as a single run)."""
        if len(responses) == 1:
            return responses[0]
        batch = request.batch_size
        timesteps = (
            request.timesteps
            if request.timesteps is not None
            else self.session.timesteps
        )
        predictions = np.concatenate([r.predictions for r in responses])
        spike_counts = np.vstack([r.spike_counts for r in responses])
        counters = responses[0].counters
        for shard in responses[1:]:
            counters = counters.merge(shard.counters)
        # Recompute energy from the merged counters through the primary
        # session's pipeline: identical to a single full-batch run (the
        # static/leakage terms are linear in the batch size).
        energy = self.session.energy_for(counters, batch=batch, timesteps=timesteps)
        accuracy = None
        if request.labels is not None:
            accuracy = float(
                np.mean(predictions == np.asarray(request.labels, dtype=int))
            )
        return InferenceResponse(
            predictions=predictions,
            spike_counts=spike_counts,
            accuracy=accuracy,
            counters=counters,
            energy=energy,
            timesteps=timesteps,
            backend=self.session.backend,
            batch_size=batch,
            jobs=len(responses),
        )
