"""Per-layer metrics of a traced run, and the static work of the kernel.

The layers are the program's modules.  Times come from the spans recorded
around each module's entry points (generator side and server side share
one monotonic clock), from the phase spans every response carries, and
from the servers' ``metrics`` wire op; counts come from the responses
themselves.  A layer that is not on a workload's request path (the gateway
outside ``offline``) reports 0.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from spans import self_times, union_length

#: Network layers reported individually (the MLPs have 3 or 4).
NETWORK_LAYERS = 4


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries sort last and win."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == float("inf"):
        return float("inf") if pos > lo or data[lo] == float("inf") else data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _op(span) -> object:
    """The wire op a codec span carried (None when the call raised)."""
    return (span[6] or {}).get("op")


def phases(record) -> dict[str, float]:
    from repro.serve.metrics import read_phases

    return read_phases(record.response.metadata)


# -- static work ----------------------------------------------------------------------


def _owned_bytes(obj) -> int:
    """Bytes of the arrays ``obj`` owns, including those of its chunk-count
    scratch buffers (views into them are not counted)."""
    from repro.fastpath.plan import ChunkCountScratch

    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray) and value.base is None:
            total += value.nbytes
        elif isinstance(value, ChunkCountScratch):
            total += _owned_bytes(value)
    return total


def layer_work(layer, arena, batch: int) -> tuple[float, float]:
    """``(flop, bytes)`` of one sample-step of a fused layer, from tensor sizes.

    FLOPs are the stacked matmul's.  Bytes are every tensor of the layer's
    fused program (read once per step and shared by the ``batch`` samples)
    plus every buffer of its plan arena, each touched once per step: so the
    figure follows the kernel's tensors, not a tally of its passes.
    """
    fused = layer.fused
    rows, cols = fused.geometry
    flop = 2 * fused.n_tiles * rows * cols
    weights = sum(getattr(fused, f.name).nbytes for f in dataclasses.fields(fused))
    moved = (weights + _owned_bytes(arena)) / batch
    return float(flop), float(moved)


def static_metrics(program, batch: int, timesteps: int) -> dict[str, tuple[float, str]]:
    """Per-network-layer tiles, MFLOP and MB per sample-step, plus plan MB."""
    from repro.fastpath.plan import KernelPlan

    plan = KernelPlan(program, batch, timesteps)
    plan_bytes = _owned_bytes(plan) + sum(_owned_bytes(arena) for arena in plan.layers)
    metrics: dict[str, tuple[float, str]] = {"fastpath.plan_mb": (plan_bytes / 1e6, "MB")}
    for n in range(NETWORK_LAYERS):
        tiles = flop = moved = 0.0
        if n < len(program.layers):
            layer = program.layers[n]
            tiles = float(layer.fused.n_tiles)
            flop, moved = layer_work(layer, plan.layers[n], batch)
        metrics[f"fastpath.layer{n}.tiles"] = (tiles, "count")
        metrics[f"fastpath.layer{n}.mflop_per_sample_step"] = (flop / 1e6, "MFLOP")
        metrics[f"fastpath.layer{n}.mb_per_sample_step"] = (moved / 1e6, "MB")
    return metrics


# -- answers --------------------------------------------------------------------------


def answer_metrics(first) -> dict[str, tuple[float, str]]:
    """Event counts and Fig. 12 energy groups per sample, over the pool."""
    responses = [record.response for record in first.values()]
    samples = sum(response.batch_size for response in responses)
    counts = {
        "core.crossbar_evals_per_sample": "crossbar_evaluations",
        "core.switch_hops_per_sample": "switch_hops",
        "core.suppressed_packets_per_sample": "suppressed_packets",
        "core.io_bus_words_per_sample": "io_bus_words",
    }
    metrics = {
        name: (sum(getattr(r.counters, field) for r in responses) / samples, "count")
        for name, field in counts.items()
    }
    for group in ("crossbar", "neuron", "peripherals"):
        joules = sum(r.energy.grouped().get(group, 0.0) for r in responses)
        metrics[f"energy.{group}_uj_per_sample"] = (
            exact_energy(joules / samples * 1e6), "uJ")
    return metrics


def exact_energy(uj: float) -> float:
    """Energy rounded to 12 significant digits.

    Shard placement changes the order in which the chip energy components
    are summed, which moves the last bit or two; 12 digits keep every
    modelled effect while making the figure repeat exactly for a seed.
    """
    return float(f"{uj:.12g}")


# -- traced run -----------------------------------------------------------------------


def _counter(snapshots: list[dict], name: str, field: str = "value") -> float:
    total = 0.0
    for snapshot in snapshots:
        family = snapshot["families"].get(name)
        if family is not None:
            total += sum(series.get(field, 0.0) for series in family["series"])
    return total


def _delta(before: list[dict], after: list[dict], name: str, field: str = "value") -> float:
    return _counter(after, name, field) - _counter(before, name, field)


def _mean_delta_ms(before, after, name: str) -> float:
    count = _delta(before, after, name, "count")
    return 1e3 * _delta(before, after, name, "sum") / count if count else 0.0


class TracedRun:
    """Spans and snapshots of one traced measurement, indexed for analysis."""

    def __init__(self, measurement, server_spans: list[list]):
        self.m = measurement
        self.client = measurement.client_spans
        self.servers = server_spans
        lo = int(measurement.window[0] * 1e9)
        hi = int(measurement.window_end * 1e9)
        self.lo, self.hi = lo, hi

    def in_window(self, spans, name: str | None = None):
        return [s for s in spans if self.lo <= s[2] <= self.hi
                and (name is None or s[1] == name)]

    def server_window(self, name: str):
        return [s for spans in self.servers for s in self.in_window(spans, name)]


def _ms(ns: float) -> float:
    return ns / 1e6


def traced_metrics(workload, run: TracedRun, plain_sps: float,
                   traced_sps: float) -> dict[str, tuple[float, str]]:
    m = run.m
    ok = [r for r in m.window_records if r.ok]
    latency = {r.rid: m.latency(r) for r in ok}
    out: dict[str, tuple[float, str]] = {}

    # loadgen
    out["loadgen.lag_p99_ms"] = (
        1e3 * percentile([r.sent - r.due for r in m.window_records], 99), "ms")
    out["loadgen.outstanding_max"] = (float(m.outstanding_max), "count")

    # client
    submits = run.in_window(run.client, "PipelinedSession.submit")
    client_encodes = [s for s in run.in_window(run.client, "encode_frame")
                      if _op(s) == "infer"]
    out["client.send_us"] = (_median(s[3] - s[2] for s in submits) / 1e3, "us")
    out["client.outside_spans_ms"] = (
        _median(1e3 * (latency[r.rid] - sum(phases(r).values())) for r in ok), "ms")
    out["client.retries"] = (float(max(0, len(client_encodes) - len(submits))), "count")

    # schema
    server_encodes = [s for s in run.server_window("encode_frame") if _op(s) == "infer"]
    decodes = [s for s in run.in_window(run.client, "decode_frame_payload")
               + run.server_window("decode_frame_payload") if _op(s) == "infer"]
    out["schema.encode_us"] = (
        _median(s[3] - s[2] for s in client_encodes + server_encodes) / 1e3, "us")
    out["schema.decode_us"] = (_median(s[3] - s[2] for s in decodes) / 1e3, "us")
    out["schema.request_kb"] = (_median(s[6]["bytes"] for s in client_encodes) / 1e3, "kB")
    out["schema.response_kb"] = (_median(s[6]["bytes"] for s in server_encodes) / 1e3, "kB")

    # gateway (one caller: every shard sent while a request is open is its)
    overheads, skews = [], []
    if workload.servers > 1:
        for r in ok:
            shards = [(s[6]["done_ns"] - s[2]) / 1e9 for s in submits
                      if r.sent * 1e9 <= s[2] <= r.done * 1e9 and "done_ns" in (s[6] or {})]
            if shards:
                overheads.append(1e3 * (latency[r.rid] - max(shards)))
                skews.append(max(shards) / min(shards))
    before, after = m.client_metrics
    out["gateway.overhead_ms"] = (_median(overheads), "ms")
    out["gateway.shard_skew"] = (_median(skews), "ratio")
    out["gateway.merge_ms"] = (
        _mean_delta_ms(before, after, "repro_gateway_merge_seconds"), "ms")
    out["gateway.retries"] = (_delta(before, after, "repro_gateway_retries_total"), "count")
    out["gateway.hedges"] = (
        _delta(before, after, "repro_gateway_hedges_issued_total"), "count")

    # server
    sb, sa = m.server_metrics
    queue_waits = [1e3 * phases(r).get("queue_wait_s", 0.0) for r in ok]
    out["server.queue_wait_p50_ms"] = (percentile(queue_waits, 50), "ms")
    out["server.queue_wait_p99_ms"] = (percentile(queue_waits, 99), "ms")
    out["server.dispatch_ms"] = (
        _median(1e3 * phases(r).get("dispatch_s", 0.0) for r in ok), "ms")
    batches = _delta(sb, sa, "repro_server_batches_total")
    out["server.coalesced_per_batch"] = (
        _delta(sb, sa, "repro_server_requests_total") / batches if batches else 0.0,
        "count")
    span_ns = run.hi - run.lo
    out["server.busy_frac"] = (_mean(
        union_length([(s[2], s[3]) for s in run.in_window(spans, "ChipPool.infer_many")],
                     run.lo, run.hi) / span_ns
        for spans in run.servers), "frac")
    out["server.shed"] = (_delta(sb, sa, "repro_server_shed_total"), "count")

    # pool
    dispatches = _delta(sb, sa, "repro_pool_dispatches_total")
    out["pool.shards_per_dispatch"] = (
        _delta(sb, sa, "repro_pool_shards_total") / dispatches if dispatches else 0.0,
        "count")
    waves, busy, capacity = [], 0.0, 0.0
    for spans in run.servers:
        children: dict[int, list] = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)
        for dispatch in run.in_window(spans, "ChipPool.infer_many"):
            kids = children.get(dispatch[0], [])
            runs = [k for k in kids if k[1] == "ShardExecutor.run_shards"]
            waves.append(len(runs) or 1)
            sessions = [k for k in kids if k[1] == "ChipSession.infer"] + [
                g for k in runs for g in children.get(k[0], [])
                if g[1] == "ChipSession.infer"]
            busy += sum(s[3] - s[2] for s in sessions)
            capacity += workload.jobs * (dispatch[3] - dispatch[2])
    out["pool.waves_per_dispatch"] = (_mean(waves), "count")
    out["pool.worker_util"] = (busy / capacity if capacity else 0.0, "frac")
    out["pool.merge_ms"] = (_mean_delta_ms(sb, sa, "repro_pool_merge_seconds"), "ms")

    # session
    gets = run.server_window("PlanCache.get")
    misses = [s for spans in run.servers for s in spans
              if s[1] == "PlanCache.get" and not s[6]["hit"]]
    kernels = run.server_window("VectorizedChipEngine.run_batch")
    out["session.encode_ms"] = (
        _ms(_mean(s[3] - s[2] for s in run.server_window("EncoderState.encode"))), "ms")
    out["session.kernel_ms"] = (_ms(_mean(s[3] - s[2] for s in kernels)), "ms")
    out["session.energy_ms"] = (
        _ms(_mean(s[3] - s[2] for s in run.server_window("ChipSession.energy_for"))), "ms")
    out["session.plan_hit_ratio"] = (
        sum(s[6]["hit"] for s in gets) / len(gets) if gets else 0.0, "frac")
    out["session.plan_build_ms"] = (_ms(_mean(s[3] - s[2] for s in misses)), "ms")

    # fastpath and core set-up spans (whole server lifetime).  Summed per
    # server: a pool worker's session asks for the shared chip's program
    # again and gets it from the compile cache in ~0 s, which a mean would
    # average in as a compile.
    def setup_s(name: str) -> float:
        return _mean(sum((s[3] - s[2]) / 1e9 for s in spans if s[1] == name)
                     for spans in run.servers)

    out["fastpath.compile_s"] = (setup_s("compile_chip"), "s")
    work = sum(s[6]["tiles"] * s[6]["batch"] * s[6]["steps"] for s in kernels)
    out["fastpath.ns_per_tile_sample_step"] = (
        sum(s[3] - s[2] for s in kernels) / work if work else 0.0, "ns")
    out["core.chip_build_s"] = (setup_s("ResparcChip.from_spiking_network"), "s")

    out["trace.overhead_frac"] = (1.0 - traced_sps / plain_sps, "frac")
    return out


def path_breakdown(workload, run: TracedRun, p50_ms: float) -> list[tuple[str, float]]:
    """Mean self time per layer along the request path, for the median band.

    Averages each component over the requests whose latency lies in the
    middle tenth, then reports what the components leave of
    ``latency_p50_ms`` as the unattributed remainder (wire, event-loop
    hops, and work outside any wrapped entry point).
    """
    m = run.m
    ok = sorted((r for r in m.window_records if r.ok), key=m.latency)
    band = ok[int(len(ok) * 0.45): max(int(len(ok) * 0.55), int(len(ok) * 0.45) + 1)]
    own = self_times(run.client)
    by_rid: dict[object, list] = {}
    for span in run.client:
        by_rid.setdefault(span[5], []).append(span)
    wire: dict[tuple[str, object], list] = {}
    if workload.servers == 1:
        for span in run.servers[0]:
            if span[1] in ("encode_frame", "decode_frame_payload") and span[6]:
                wire.setdefault((span[1], span[6]["id"]), []).append(span)
        for span in run.client:
            if span[1] == "decode_frame_payload" and span[6]:
                wire.setdefault(("client-decode", span[6]["id"]), []).append(span)

    rows: dict[str, list[float]] = {}

    def add(name: str, seconds: float) -> None:
        rows.setdefault(name, []).append(1e3 * seconds)

    for r in band:
        spans = by_rid.get(r.rid, [])
        add("loadgen.lag", r.sent - r.due if workload.loop == "open" else 0.0)
        add("client.submit (self)", sum(own[s[0]] for s in spans
                                         if s[1].endswith(".submit")) / 1e9)
        encodes = [s for s in spans if s[1] == "encode_frame" and _op(s) == "infer"]
        add("schema.encode (client)", sum(s[3] - s[2] for s in encodes) / 1e9)
        wire_id = encodes[0][6]["id"] if encodes else None
        for key, label in (("decode_frame_payload", "schema.decode (server)"),
                           ("encode_frame", "schema.encode (server)"),
                           ("client-decode", "schema.decode (client)")):
            linked = wire.get((key, wire_id), [])
            add(label, sum(s[3] - s[2] for s in linked) / 1e9)
        for phase in ("queue_wait_s", "dispatch_s", "compute_s", "merge_s"):
            add(f"server.{phase[:-2]}", phases(r).get(phase, 0.0))
    breakdown = [(name, _mean(values)) for name, values in rows.items()]
    breakdown.append(("unattributed", p50_ms - sum(value for _, value in breakdown)))
    return breakdown
