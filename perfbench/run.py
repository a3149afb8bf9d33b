"""End-to-end benchmark of the served RESPARC chip.

Boots the chip server process(es) of one workload, drives seeded traffic at
them from this process, checks every answer, and prints the metrics named
in ``BENCHMARK.json``::

    python3 perfbench/run.py --workload online --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` measures the workload once
untraced and once with span timers around every layer's entry points, and
reports the per-layer metrics (see :mod:`layers`) plus the tracing overhead.
Lines before it are a human-readable report; the whole result, with the run
header (commit, seed, cores, Python/NumPy/BLAS), is also written to
``.perfbench/results/``.

Workloads (see :mod:`shapes`):

* ``offline`` — one closed-loop caller, batch-64 T=32 requests on the
  full-size mnist-mlp, split by an ``InferenceGateway`` over two servers.
* ``online`` — open-loop Poisson arrivals at 150 req/s of one-sample T=8
  requests on mnist-mlp at scale 0.15, one server.
* ``mixed`` — four closed-loop callers, batches 1-64 and T 8/16/32 on the
  full-size cifar10-mlp at RESPARC-128, one server with a 2-thread pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is the fastest.  A stall elsewhere
#: on the host can only add to a set-up, so the fastest of several is the
#: steadiest estimate of the program's own set-up time.
SETUPS = 7

#: Measured window of each self-test run.
SELF_TEST_SECONDS = 1.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- measurement ----------------------------------------------------------------------


@dataclass
class Measurement:
    """Everything one measured window produced."""

    workload: object
    setup_times: list[float]
    records: list = field(default_factory=list)
    window_records: list = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)
    window_end: float = 0.0
    outstanding_max: int = 0
    rss_mb: float = 0.0
    server_metrics: tuple[list, list] = ([], [])
    client_metrics: tuple[list, list] = ([], [])
    client_spans: list = field(default_factory=list)
    server_span_paths: list = field(default_factory=list)

    def latency(self, record) -> float:
        """Seconds; from the scheduled send (open loop) or the send."""
        if not record.ok:
            return float("inf")
        start = record.due if self.workload.loop == "open" else record.sent
        return record.done - start

    @property
    def samples_per_s(self) -> float:
        samples = sum(r.entry.batch for r in self.window_records if r.ok)
        return samples / (self.window_end - self.window[0])


def _drive(gen, workload, seed: int, seconds: float):
    from loadgen import closed_loop, open_loop
    from shapes import arrivals

    if workload.loop == "open":
        return open_loop(gen, arrivals(workload, seed, seconds), seconds)
    return closed_loop(gen, workload.callers, seconds)


def measure(workload, pool, seed: int, seconds: float, *, setups: int,
            trace: bool, tag: str) -> Measurement:
    """Boot ``setups`` times, keep the last cluster, drive one window.

    The generator runs on the cores :func:`cluster.placement` gives it
    (threads the client stack starts inherit them) and gets its previous
    cores back afterwards.
    """
    from cluster import placement

    previous = os.sched_getaffinity(0)
    cpus, _ = placement(workload)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    try:
        return _measure(workload, pool, seed, seconds, setups, trace, tag)
    finally:
        os.sched_setaffinity(0, previous)


def _measure(workload, pool, seed, seconds, setups, trace, tag) -> Measurement:
    from cluster import Cluster
    from loadgen import Generator, Record

    OUT.mkdir(exist_ok=True)
    setup_times, boot_records = [], []
    cluster = None
    for index in range(setups):
        cluster = Cluster(ROOT, workload, OUT, f"{tag}-{index}", trace=trace)
        try:
            setup_s, response = cluster.boot(pool[0])
        except BaseException:
            cluster.stop()
            raise
        setup_times.append(setup_s)
        record = Record(rid=-1 - index, entry=pool[0], due=0.0, done=setup_s,
                        response=response)
        boot_records.append(record)
        if index < setups - 1:
            cluster.stop()

    m = Measurement(workload=workload, setup_times=setup_times)
    tracer = None
    try:
        if trace:
            from repro.serve.metrics import get_default_registry
            from spans import Tracer, install_client

            tracer = Tracer()
            install_client(tracer)
        gen = Generator(cluster.submit, pool, tracer)
        _drive(gen, workload, seed + 1000, workload.warmup_s)
        first = len(gen.records)
        if trace:
            m.server_metrics = (cluster.metrics(), [])
            m.client_metrics = ([get_default_registry().snapshot()], [])
        gen.outstanding_max = 0
        m.window = _drive(gen, workload, seed, seconds)
        m.window_records = gen.records[first:]
        m.outstanding_max = gen.outstanding_max
        m.window_end = max(
            [r.done for r in m.window_records if r.done is not None] + [m.window[1]])
        if trace:
            m.server_metrics = (m.server_metrics[0], cluster.metrics())
            m.client_metrics = (m.client_metrics[0], [get_default_registry().snapshot()])
        # Every pool entry answered at least once, so answer-derived figures
        # cover the same requests on every run with this seed.
        answered = {r.entry.index for r in gen.records if r.response is not None}
        for entry in pool:
            if entry.index not in answered:
                gen.send(due=time.perf_counter(), entry=entry)
        gen.drain()
        m.records = boot_records + gen.records
        m.rss_mb = cluster.peak_rss_mb()
    finally:
        cluster.stop()
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        m.client_spans = tracer.spans
        m.server_span_paths = [server.trace_path for server in cluster.servers]
    return m


# -- metrics --------------------------------------------------------------------------


def sliced_percentile(latencies: list[float], q: float, tail_q: float) -> float:
    """Median over consecutive slices of the window of each slice's ``q``-th
    percentile, in ms.

    The window is cut into as many slices (in send order) as still leave
    10 requests beyond the tail percentile in each, so one slice hit by a
    stall elsewhere on the machine does not move the run's figure.
    """
    import numpy as np

    from layers import percentile

    slices = max(1, int(len(latencies) * (1 - tail_q) / 10))
    return 1e3 * statistics.median(
        percentile(list(part), q) for part in np.array_split(latencies, slices))


def end_to_end(workload, m: Measurement, first) -> dict[str, tuple[float, str]]:
    from layers import exact_energy

    latencies = [m.latency(r) for r in m.window_records]
    samples = sum(r.response.batch_size for r in first.values())
    energy_j = sum(r.response.energy.total_j for r in first.values())
    return {
        "setup_s": (min(m.setup_times), "s"),
        "samples_per_s": (m.samples_per_s, "1/s"),
        "latency_p50_ms": (sliced_percentile(latencies, 50, workload.tail_q), "ms"),
        "latency_tail_ms": (
            sliced_percentile(latencies, 100 * workload.tail_q, workload.tail_q), "ms"),
        "energy_uj_per_sample": (exact_energy(energy_j / samples * 1e6), "uJ"),
        "server_rss_mb": (m.rss_mb, "MB"),
    }


def check(workload, measurements, oracle, seed: int) -> int:
    """Repeatability on every measurement, the structural sample on the last."""
    from oracle import check_records, oracle_check

    for m in measurements:
        check_records(m.records, oracle.classes)
    return oracle_check(oracle, measurements[-1].records, workload, seed)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 corrupt: str | None = None) -> dict:
    """Measure, check and report one workload; returns the result record.

    ``corrupt`` (self-test only) names one of :data:`CORRUPTIONS` to apply
    to the answers before they are checked.
    """
    from layers import TracedRun
    from oracle import StructuralOracle, first_answers
    from shapes import build_pool
    from spans import load_spans

    pool = build_pool(workload, seed)
    tag = f"{workload.name}-{seed}"
    if trace:
        measurements = [
            measure(workload, pool, seed, seconds, setups=1, trace=False, tag=tag),
            measure(workload, pool, seed, seconds, setups=1, trace=True, tag=tag + "-t"),
        ]
    else:
        measurements = [
            measure(workload, pool, seed, seconds, setups=SETUPS, trace=False, tag=tag)
        ]
    final = measurements[-1]
    if corrupt is not None:
        _corrupt(final, corrupt, seed)
    oracle = StructuralOracle(workload)
    checked = check(workload, measurements, oracle, seed)
    first = first_answers(final.records)

    if trace:
        from repro.fastpath import compile_chip

        program = compile_chip(oracle.session.chip)
        spans = [load_spans(path) for path in final.server_span_paths]
        run = TracedRun(final, spans)
        metrics, breakdown = per_layer(workload, run, measurements, program, first)
    else:
        metrics, breakdown = end_to_end(workload, final, first), None

    from cluster import placement

    generator_cpus, server_cpus = placement(workload)
    attempted = sum(len(m.window_records) for m in measurements)
    failed = sum(1 for m in measurements for r in m.window_records if not r.ok)
    wrong = [r for m in measurements for r in m.records if r.wrong is not None]
    return {
        "workload": workload.name,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "wrong": len(wrong),
        "wrong_examples": [r.wrong for r in wrong[:5]],
        "errors": [repr(r.error) for m in measurements for r in m.window_records
                   if r.error is not None][:5],
        "oracle_rows": checked,
        "setup_times": [t for m in measurements for t in m.setup_times],
        "cpus": [sorted(cpus) if cpus else "any" for cpus in
                 (generator_cpus, *server_cpus)],
        "requests_per_entry": len(final.window_records) / len(pool),
        "breakdown": breakdown,
    }


def per_layer(workload, run, measurements, program, first):
    """Per-layer metrics of a traced run and its request-path breakdown."""
    from layers import (
        answer_metrics,
        path_breakdown,
        percentile,
        static_metrics,
        traced_metrics,
    )

    plain, traced = measurements
    metrics = traced_metrics(workload, run, plain.samples_per_s, traced.samples_per_s)
    # The kernel's largest shard: the biggest request split over every worker.
    batch = -(-max(entry.batch for entry in (r.entry for r in first.values()))
              // (workload.servers * workload.jobs))
    metrics.update(static_metrics(program, batch, workload.default_timesteps))
    metrics.update(answer_metrics(first))
    p50_ms = 1e3 * percentile([traced.latency(r) for r in traced.window_records], 50)
    breakdown = path_breakdown(workload, run, p50_ms)
    metrics["trace.unattributed_ms"] = (breakdown[-1][1], "ms")
    return metrics, breakdown


#: Self-test corruptions, each visible to one check only, and the words its
#: failure message carries: ``repeat`` flips one prediction of a repeated
#: window answer, so it disagrees with the first answer; ``structural``
#: flips every prediction of every answer to the pool entry the structural
#: check samples first, so the answers still agree with each other and only
#: the independent check can catch them.
CORRUPTIONS = {"repeat": "differ", "structural": "structural check"}


def _corrupt(m: Measurement, how: str, seed: int) -> None:
    import dataclasses

    from oracle import first_answers, sample_rng

    first = first_answers(m.records)
    if how == "repeat":
        rows = slice(0, 1)
        targets = [next(r for r in m.window_records
                        if r.ok and first[r.entry.index] is not r)]
    else:
        rows = slice(None)
        index = int(sample_rng(seed).permutation(sorted(first))[0])
        targets = [r for r in m.records
                   if r.response is not None and r.entry.index == index]
    for record in targets:
        predictions = record.response.predictions.copy()
        predictions[rows] = (predictions[rows] + 1) % record.response.spike_counts.shape[1]
        record.response = dataclasses.replace(record.response, predictions=predictions)


# -- run header -----------------------------------------------------------------------


def run_header(seed: int) -> dict:
    import numpy as np

    from cluster import SERVER_ENV

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {name: os.environ.get(name, "unset") for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"generator": threads, "servers": SERVER_ENV},
    }


# -- entry points ---------------------------------------------------------------------


def report(result: dict) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    name = result["workload"]
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name:8s} {metric:42s} {value:14.6g} {unit}")
    print(f"{name:8s} attempted={result['attempted']} failed={result['failed']} "
          f"wrong={result['wrong']} oracle_rows={result['oracle_rows']} "
          f"error_rate={result['failed'] / max(1, result['attempted']):.4g}")
    for problem in result["wrong_examples"] + result["errors"]:
        print(f"{name:8s} problem: {problem}")
    if result["breakdown"]:
        print(f"{name:8s} request path at latency_p50 (mean self time, ms):")
        for label, value in result["breakdown"]:
            print(f"{name:8s}   {label:28s} {value:10.4f}")


def _metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def self_test() -> int:
    """Every workload at toy size: names, units, and one corrupted answer
    per check, which that check must count as failed."""
    from shapes import WORKLOADS, toy

    problems = []
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(toy(workload), 1, SELF_TEST_SECONDS, trace)
            report(result)
            expected = _metric_units(trace)
            got = {metric: unit for metric, (_, unit) in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {got} != {expected}")
            if result["failed"] or result["wrong"]:
                problems.append(f"{name} trace={trace}: clean run failed requests")
        for how, message in CORRUPTIONS.items():
            corrupted = run_workload(toy(workload), 2, SELF_TEST_SECONDS, False,
                                     corrupt=how)
            caught = any(message in problem for problem in corrupted["wrong_examples"])
            if corrupted["failed"] < 1 or not caught:
                problems.append(f"{name}: a {how} corruption was not counted as failed "
                                f"by its check: {corrupted['wrong_examples']}")
    for problem in problems:
        print(f"self-test: FAIL {problem}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    from shapes import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    header = run_header(args.seed)
    print("header " + json.dumps(header, sort_keys=True))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    report(result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"header": header, **result}, indent=1, default=str))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A window whose requests mostly failed has infinite percentiles;
        # JSON has no infinity, so they print as the largest float.
        "metrics": {name: {"value": min(value, sys.float_info.max), "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, exit non-zero, print no result
        traceback.print_exc()
        sys.exit(1)
