"""In-memory spans around the program's public entry points.

A :class:`Tracer` records one span per call into a wrapped function: its
name, start, end, parent span and request id, plus a few attributes taken
from the arguments or the result (frame sizes, batch shapes, plan-cache
hits).  Spans stay in memory and are written out once, when the run ends.

The wrappers are installed by patching the entry points at class or module
level — the program itself is unchanged and knows nothing of the tracer:

* generator process (:func:`install_client`): ``PipelinedSession.submit``,
  ``InferenceGateway.submit`` and the client module's frame codec;
* server processes (:func:`install_server`): the server module's frame
  codec, ``ChipPool.infer_many``, the inline and thread executors'
  ``run_shards``,
  ``ChipSession.infer`` / ``energy_for``, ``EncoderState.encode``,
  ``PlanCache.get``, ``VectorizedChipEngine.run_batch``, and the set-up
  calls ``compile_chip`` and ``ResparcChip.from_spiking_network``.

Parents come from a per-thread stack of open spans.  Pool worker threads
start with an empty stack, so a session span opened there takes the
executor span that is currently dispatching as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

__all__ = [
    "Span",
    "Tracer",
    "install_client",
    "install_server",
    "load_spans",
    "self_times",
    "union_length",
]

#: Span layout: ``[id, name, start_ns, end_ns, parent_id, rid, attrs]``.
Span = list

#: Spans that may run on a pool worker thread and then take the executor
#: span dispatching at that moment as their parent.
_DISPATCH_CHILDREN = frozenset({"ChipSession.infer"})


class Tracer:
    """Collects spans from any thread; ``spans`` is the flat record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The executor span currently dispatching shards (one at a time:
        #: a pool serialises its dispatches).
        self.dispatch_parent: int | None = None
        #: ``(owner, attribute, original)`` of every patched entry point.
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapped) -> None:
        """Replace ``owner.attr`` with ``wrapped`` until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every patched entry point back (latest patch first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid: object) -> None:
        """Tag spans opened on this thread from now on with ``rid``."""
        self._local.rid = rid

    def wrap(self, name: str, fn, attrs=None, *, dispatches: bool = False):
        """``fn`` wrapped to record a span; ``attrs(args, kwargs, result)``
        returns the span's attribute dict.  A ``dispatches`` span is the
        parent of session spans opened on worker threads while it runs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif name in _DISPATCH_CHILDREN:
                parent = self.dispatch_parent
            else:
                parent = None
            span = [next(self._ids), name, time.perf_counter_ns(), 0, parent,
                    getattr(self._local, "rid", None), None]
            stack.append(span[0])
            if dispatches:
                self.dispatch_parent = span[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                if dispatches:
                    self.dispatch_parent = None
                stack.pop()
                span[3] = time.perf_counter_ns()
                self.spans.append(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list[Span]:
    return json.loads(path.read_text()) if path.exists() else []


def _frame_attrs(args, kwargs, result) -> dict:
    envelope = args[0]
    return {
        "bytes": len(result),
        "id": envelope.get("id"),
        "op": envelope.get("op") or envelope.get("reply"),
    }


def _decoded_attrs(args, kwargs, result) -> dict:
    return {
        "bytes": len(args[0]) + len(args[1]),
        "id": result.get("id"),
        "op": result.get("op") or result.get("reply"),
    }


def install_client(tracer: Tracer) -> None:
    """Wrap the generator-side entry points (client, gateway, codec)."""
    from repro.serve.distributed import client, gateway

    def submit_attrs(args, kwargs, future):
        span_attrs = {"batch": args[1].batch_size}
        # The reply lands later, on the reader thread: stamp its arrival.
        future.add_done_callback(
            lambda _f: span_attrs.__setitem__("done_ns", time.perf_counter_ns())
        )
        return span_attrs

    tracer.patch(client.PipelinedSession, "submit", tracer.wrap(
        "PipelinedSession.submit", client.PipelinedSession.submit, submit_attrs))
    tracer.patch(gateway.InferenceGateway, "submit", tracer.wrap(
        "InferenceGateway.submit", gateway.InferenceGateway.submit))
    tracer.patch(client, "encode_frame", tracer.wrap(
        "encode_frame", client.encode_frame, _frame_attrs))
    tracer.patch(client, "decode_frame_payload", tracer.wrap(
        "decode_frame_payload", client.decode_frame_payload, _decoded_attrs))


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side entry points (codec, pool, session, set-up)."""
    import repro.fastpath as fastpath
    from repro.core.resparc import ResparcChip
    from repro.fastpath.engine import VectorizedChipEngine
    from repro.fastpath.plan import PlanCache
    from repro.serve.distributed import executors, server
    from repro.serve.pool import ChipPool
    from repro.serve.session import ChipSession
    from repro.snn.encoding import EncoderState

    tracer.patch(server, "encode_frame", tracer.wrap(
        "encode_frame", server.encode_frame, _frame_attrs))
    tracer.patch(server, "decode_frame_payload", tracer.wrap(
        "decode_frame_payload", server.decode_frame_payload, _decoded_attrs))
    tracer.patch(ChipPool, "infer_many", tracer.wrap(
        "ChipPool.infer_many", ChipPool.infer_many,
        lambda a, k, r: {"requests": len(a[1])}))
    for executor in (executors.InlineExecutor, executors.ThreadExecutor):
        tracer.patch(executor, "run_shards", tracer.wrap(
            "ShardExecutor.run_shards", executor.run_shards,
            lambda a, k, r: {"shards": len(a[1])}, dispatches=True))
    tracer.patch(ChipSession, "infer", tracer.wrap(
        "ChipSession.infer", ChipSession.infer,
        lambda a, k, r: {"batch": a[1].batch_size, "timesteps": r.timesteps}))
    tracer.patch(ChipSession, "energy_for", tracer.wrap(
        "ChipSession.energy_for", ChipSession.energy_for))
    tracer.patch(EncoderState, "encode", tracer.wrap(
        "EncoderState.encode", EncoderState.encode))
    tracer.patch(PlanCache, "get", tracer.wrap(
        "PlanCache.get", PlanCache.get, lambda a, k, r: {"hit": bool(r[1])}))
    tracer.patch(VectorizedChipEngine, "run_batch", tracer.wrap(
        "VectorizedChipEngine.run_batch", VectorizedChipEngine.run_batch,
        lambda a, k, r: {
            "steps": int(r.timesteps),
            "batch": int(r.predictions.shape[0]),
            "tiles": sum(layer.fused.n_tiles for layer in a[0].program.layers),
        }))
    tracer.patch(fastpath, "compile_chip", tracer.wrap(
        "compile_chip", fastpath.compile_chip))
    original_build = ResparcChip.from_spiking_network.__func__
    tracer.patch(ResparcChip, "from_spiking_network", classmethod(tracer.wrap(
        "ResparcChip.from_spiking_network", original_build)))


# -- analysis -------------------------------------------------------------------------


def union_length(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of every span: its length minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2])
        - union_length(children.get(span[0], []), span[2], span[3])
        for span in spans
    }
