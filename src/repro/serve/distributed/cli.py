"""Serve-CLI: run, query and smoke-test the socket chip server.

Three subcommands, all runnable as ``python -m repro.serve.distributed``:

* ``serve`` — load a registered MLP benchmark, open a :class:`ChipPool` on
  it and serve inference on a TCP port (protocol-3 binary frames) until
  interrupted (or a client sends the ``shutdown`` op)::

      PYTHONPATH=src python -m repro.serve.distributed serve \\
          --workload mnist-mlp --port 7070 --jobs 2

* ``infer`` — connect to a running server, send one batch of the workload's
  test split and print the result::

      PYTHONPATH=src python -m repro.serve.distributed infer \\
          --endpoint 127.0.0.1:7070 --workload mnist-mlp --samples 8

* ``smoke`` — the CI end-to-end check: boot a server subprocess on a free
  port (logging to ``--server-log``, dumped on failure), wait for
  readiness, run a client inference twice (asserting the served results
  are deterministic and well-formed), drive two concurrent pipelined
  clients and assert their dynamically batched responses are identical to
  the serial ones, scrape the ``metrics`` op and the Prometheus endpoint,
  tear the server down — then boot a bounded-queue server in process and
  drive one deliberately-shed request, asserting the structured
  ``overloaded`` reply while every admitted request stays exact.  Exit
  code 0 means the whole loop works.  The smoke runs no gateway; hedging
  and shed retries are checked in process by the test suite.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

import numpy as np

from repro.serve.distributed.client import (
    PipelinedSession,
    RemoteServerError,
    parse_endpoint,
)
from repro.serve.distributed.server import ChipServer, load_benchmark_workload
from repro.serve.pool import ChipPool
from repro.serve.retry import RetryBudget
from repro.serve.schema import ERROR_OVERLOADED, PROTOCOL_VERSION, InferenceRequest
from repro.serve.session import ChipSession
from repro.utils.units import format_energy
from repro.workloads import list_benchmarks

__all__ = ["main"]

MLP_BENCHMARKS = sorted(spec.name for spec in list_benchmarks(connectivity="MLP"))


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="mnist-mlp",
        choices=MLP_BENCHMARKS,
        help="registered MLP benchmark to serve",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="network width scale factor"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload/session seed")
    parser.add_argument(
        "--timesteps", type=int, default=16, help="rate-coding window per sample"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.distributed",
        description="Socket chip server, client and smoke check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a workload on a TCP port")
    _add_workload_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7070, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--jobs", type=int, default=2, help="pool worker count (>= 1)"
    )
    serve.add_argument(
        "--encoder",
        default="poisson",
        choices=["poisson", "deterministic"],
        help="input spike encoder",
    )
    serve.add_argument(
        "--backend",
        default="vectorized",
        choices=["structural", "vectorized"],
        help="chip execution backend",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="most queued compatible requests one dynamic batch may coalesce",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="most infer requests that may wait for dispatch at once "
        "(0 = unbounded); a full queue sheds new requests with a structured "
        "'overloaded' error",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus text-format metrics over HTTP on this "
        "port (0 picks a free port; omit to disable the endpoint)",
    )

    infer = sub.add_parser("infer", help="run one client inference")
    _add_workload_arguments(infer)
    infer.add_argument(
        "--endpoint", required=True, metavar="HOST:PORT", help="server address"
    )
    infer.add_argument(
        "--samples", type=int, default=8, help="test samples to send"
    )
    infer.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the connection and for each reply "
        "(size for the batch)",
    )
    infer.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request dispatch deadline enforced by the server "
        "(a structured 'deadline_exceeded' error once it passes)",
    )
    infer.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        metavar="N",
        help="attach a retry budget of N total attempts to the request "
        "(resends after a dead connection back off with jitter and stop "
        "with a structured budget-exhausted error; omit for the client's "
        "default of 2 attempts)",
    )

    smoke = sub.add_parser(
        "smoke", help="boot a server subprocess, run a client inference, tear down"
    )
    _add_workload_arguments(smoke)
    smoke.add_argument("--samples", type=int, default=4, help="test samples to send")
    smoke.add_argument("--jobs", type=int, default=2, help="server pool workers")
    smoke.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the connection and for each reply",
    )
    smoke.add_argument(
        "--boot-timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the server to accept connections",
    )
    smoke.add_argument(
        "--server-log",
        default=None,
        metavar="PATH",
        help="file the server subprocess logs to (default: a temp file); "
        "smoke dumps it when the check fails",
    )

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "samples", 1) < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if args.timesteps < 1:
        parser.error(f"--timesteps must be >= 1, got {args.timesteps}")
    if args.scale <= 0:
        parser.error(f"--scale must be > 0, got {args.scale}")
    if getattr(args, "max_batch", 1) < 1:
        parser.error(f"--max-batch must be >= 1, got {args.max_batch}")
    if getattr(args, "max_queue", 0) < 0:
        parser.error(f"--max-queue must be >= 0, got {args.max_queue}")
    if getattr(args, "timeout", 1.0) <= 0:
        parser.error(f"--timeout must be > 0 seconds, got {args.timeout}")
    if getattr(args, "deadline", None) is not None and args.deadline <= 0:
        parser.error(f"--deadline must be > 0 seconds, got {args.deadline}")
    if getattr(args, "retry_attempts", None) is not None and args.retry_attempts < 1:
        parser.error(f"--retry-attempts must be >= 1, got {args.retry_attempts}")
    if getattr(args, "endpoint", None) is not None:
        try:
            parse_endpoint(args.endpoint)
        except ValueError as exc:
            parser.error(str(exc))


# -- subcommands --------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    workload = load_benchmark_workload(args.workload, scale=args.scale, seed=args.seed)
    with ChipPool(
        workload.snn,
        jobs=args.jobs,
        timesteps=args.timesteps,
        encoder=args.encoder,
        backend=args.backend,
        seed=args.seed,
    ) as pool:
        with ChipServer(
            pool,
            host=args.host,
            port=args.port,
            workload=args.workload,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            metrics_port=args.metrics_port,
        ) as server:
            host, port = server.address
            print(
                f"chip-server: {args.workload} ({args.backend}, jobs={args.jobs}, "
                f"max_batch={args.max_batch}, "
                f"max_queue={args.max_queue or 'unbounded'}) "
                f"listening on {host}:{port}",
                flush=True,
            )
            if server.metrics_address is not None:
                metrics_host, metrics_port = server.metrics_address
                print(
                    f"chip-server: Prometheus metrics on "
                    f"http://{metrics_host}:{metrics_port}/metrics",
                    flush=True,
                )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
    print("chip-server: stopped", flush=True)
    return 0


def _client_inference(
    remote: PipelinedSession, args: argparse.Namespace
) -> tuple[InferenceRequest, object]:
    workload = load_benchmark_workload(args.workload, scale=args.scale, seed=args.seed)
    n = min(args.samples, len(workload.test_inputs))
    request = InferenceRequest(
        inputs=workload.test_inputs[:n], labels=workload.test_labels[:n]
    )
    retry_attempts = getattr(args, "retry_attempts", None)
    if retry_attempts is not None:
        request = request.with_retry_budget(RetryBudget(retry_attempts))
    deadline_s = getattr(args, "deadline", None)
    future = remote.submit(request, deadline_s=deadline_s)
    return request, future.result(timeout=args.timeout)


def _cmd_infer(args: argparse.Namespace) -> int:
    with PipelinedSession.connect(
        args.endpoint, connections=1, timeout=args.timeout
    ) as remote:
        info = remote.info(timeout=args.timeout)
        print(f"server    : {info}")
        request, response = _client_inference(remote, args)
        print(f"predictions: {response.predictions.tolist()}")
        print(
            f"result    : {response.batch_size} samples, "
            f"accuracy {response.accuracy:.2%}, "
            f"energy {format_energy(response.energy.total_j)}, "
            f"jobs {response.jobs}"
        )
    return 0


def _wait_for_listening_line(
    proc: subprocess.Popen, log_path: str, boot_timeout: float
) -> tuple[str, int]:
    """Poll the server's log file for the banner to learn the bound address.

    The server binds ``--port 0`` (the kernel picks a free port — no
    probe-then-rebind race) and prints ``listening on HOST:PORT`` into its
    log file; logging to a file (rather than a pipe) means the full server
    output survives for the failure dump and the server can never block on
    a full pipe nobody drains.
    """
    deadline = time.monotonic() + boot_timeout
    while True:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            match = re.search(r"listening on (\S+):(\d+)", log.read())
        if match:
            print(f"smoke: server {match.group(0)}", flush=True)
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            raise RuntimeError(
                f"server subprocess exited with {proc.returncode} before "
                f"listening"
            )
        if time.monotonic() >= deadline:
            raise RuntimeError(
                f"server did not print its listening banner within "
                f"{boot_timeout:.0f}s"
            )
        time.sleep(0.05)


def _dump_server_log(log_path: str) -> None:
    """Echo the server subprocess log (the smoke failure post-mortem)."""
    print(f"smoke: ---- server log ({log_path}) ----", flush=True)
    try:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            sys.stdout.write(log.read())
    except OSError as exc:
        print(f"smoke: could not read server log: {exc}")
    print("smoke: ---- end of server log ----", flush=True)


def _connect_to_booting_server(
    proc: subprocess.Popen,
    address: tuple[str, int],
    boot_timeout: float,
    timeout: float,
) -> PipelinedSession:
    """Retry-connect while the server boots, failing fast if it dies."""
    deadline = time.monotonic() + boot_timeout
    while True:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server subprocess exited with {proc.returncode} before "
                f"accepting connections"
            )
        try:
            return PipelinedSession.connect(
                address,
                connections=1,
                timeout=timeout,
                wait=min(0.5, max(0.0, deadline - time.monotonic())),
            )
        except OSError:
            if time.monotonic() >= deadline:
                raise


def _smoke_pipelined_clients(
    address: tuple[str, int],
    remote: PipelinedSession,
    request: InferenceRequest,
    timeout: float,
    clients: int = 2,
    rounds: int = 3,
) -> None:
    """Two concurrent pipelined clients must match the serial answers exactly.

    Each client keeps ``rounds`` tagged requests in flight at once, so the
    server's dispatcher sees a full queue and dynamically batches across the
    connections; dynamic batching must change throughput, never numbers.
    """
    shifted = InferenceRequest(
        inputs=request.batch,
        labels=request.labels,
        sample_offset=request.batch_size,
    )
    serial = {
        0: remote.submit(request).result(timeout=timeout),
        1: remote.submit(shifted).result(timeout=timeout),
    }
    sessions = [
        PipelinedSession.connect(address, connections=1, timeout=timeout)
        for _ in range(clients)
    ]
    try:
        futures = [
            (index % 2, session.submit(request if index % 2 == 0 else shifted))
            for index, session in enumerate(sessions * rounds)
        ]
        for which, future in futures:
            response = future.result(timeout=timeout)
            expected = serial[which]
            assert np.array_equal(response.predictions, expected.predictions), (
                "pipelined response predictions diverged from the serial run"
            )
            assert np.array_equal(response.spike_counts, expected.spike_counts), (
                "pipelined response spike counts diverged from the serial run"
            )
            got, want = response.counters.as_dict(), expected.counters.as_dict()
            for name, value in want.items():
                if name == "crossbar_device_energy_j":
                    # Float accumulation order may differ between a coalesced
                    # and a serial dispatch; everything else is integer-exact.
                    assert abs(got[name] - value) <= 1e-9 * max(abs(value), 1e-30)
                else:
                    assert got[name] == value, f"counter {name} diverged: " \
                        f"{got[name]} != {value}"
            assert abs(response.energy.total_j - expected.energy.total_j) <= (
                1e-9 * expected.energy.total_j
            ), "pipelined response energy diverged from the serial run"
    finally:
        for session in sessions:
            session.close()
    stats = remote.info(refresh=True, timeout=timeout).get("stats", {})
    print(
        f"smoke: {len(futures)} pipelined requests over {clients} clients ok "
        f"(server stats: {stats})",
        flush=True,
    )


class _GatedTarget:
    """Target that holds its first dispatch until released.

    The shed drive needs the server's one work thread deterministically
    busy while follow-up requests queue — real chip latency is too
    machine-dependent to rely on.
    """

    def __init__(self, session: ChipSession):
        self.session = session
        self.entered = threading.Event()
        self.release = threading.Event()

    @property
    def backend(self) -> str:
        return self.session.backend

    @property
    def timesteps(self) -> int:
        return self.session.timesteps

    def infer(self, request: InferenceRequest):
        self.entered.set()
        if not self.release.wait(timeout=120):
            raise RuntimeError("shed-drive gate never released")
        return self.session.infer(request)


#: Metric families the smoke requires after one served inference: the
#: request counter and the queue-wait phase histogram prove the whole
#: observability plane (registry -> op -> exposition) is live, and the
#: plan-cache counters prove the sessions' fused-kernel plan reuse is.
_SMOKE_REQUIRED_SERIES = (
    "repro_server_requests_total",
    "repro_server_batches_total",
    "repro_request_queue_wait_seconds_bucket",
    "repro_session_plan_cache_hits_total",
    "repro_session_plan_cache_misses_total",
)


def _smoke_metrics(remote: PipelinedSession, timeout: float) -> None:
    """Scrape the metrics op + Prometheus endpoint; both must agree.

    The server was booted with ``--metrics-port 0``, so ``info`` carries
    the HTTP exposition endpoint.  After the inferences the smoke already
    ran, the core serving series must be present with non-zero counts, and
    the wire op's rendered text must equal an HTTP scrape of the same
    snapshot (they are the same registry by construction).
    """
    info = remote.info(refresh=True, timeout=timeout)
    endpoint = info.get("metrics_endpoint")
    assert endpoint, f"server info lacks the metrics endpoint: {info}"
    payload = remote.metrics(timeout=timeout)
    assert payload["schema_version"] == 1, f"unexpected metrics schema: {payload}"
    text = payload["text"]
    for series in _SMOKE_REQUIRED_SERIES:
        assert series in text, f"metrics op lacks the {series} series"
    families = payload["snapshot"]["families"]
    served = families["repro_server_requests_total"]["series"][0]["value"]
    assert served > 0, f"request counter never moved: {served}"
    # The smoke served the same request shape repeatedly, so every session
    # must have built at least one kernel plan and reused at least one.
    plan_misses = families["repro_session_plan_cache_misses_total"]["series"][0][
        "value"
    ]
    plan_hits = families["repro_session_plan_cache_hits_total"]["series"][0]["value"]
    assert plan_misses >= 1, f"no kernel plan was ever built: {plan_misses}"
    assert plan_hits >= 1, (
        f"repeated request shapes never reused a kernel plan: {plan_hits}"
    )
    scraped = (
        urllib.request.urlopen(f"http://{endpoint}/metrics", timeout=30)
        .read()
        .decode("utf-8")
    )
    for series in _SMOKE_REQUIRED_SERIES:
        assert series in scraped, f"Prometheus endpoint lacks {series}"
    # Counters may advance between the two reads; re-render via the op and
    # compare against a fresh scrape taken while the server is idle.
    fresh = remote.metrics(timeout=timeout)
    scraped = (
        urllib.request.urlopen(f"http://{endpoint}/metrics", timeout=30)
        .read()
        .decode("utf-8")
    )
    assert fresh["text"] == scraped, (
        "metrics op and Prometheus endpoint render different snapshots"
    )
    print(
        f"smoke: metrics op == http://{endpoint}/metrics "
        f"({served:.0f} requests counted, "
        f"{len(families)} metric families)",
        flush=True,
    )


def _smoke_load_shedding(args: argparse.Namespace) -> None:
    """Drive one deliberately-shed request and assert the structured reply.

    An in-process server (real socket, real wire protocol) with
    ``max_queue=1`` and a gated target: the first request occupies the work
    thread, the second fills the queue, so the third **must** come back as
    a structured ``overloaded`` error while both admitted requests return
    the exact serial answers once the gate opens.
    """
    workload = load_benchmark_workload(args.workload, scale=args.scale, seed=args.seed)

    def session() -> ChipSession:
        return ChipSession(
            workload.snn, timesteps=args.timesteps, encoder="poisson", seed=args.seed
        )

    n = min(args.samples, len(workload.test_inputs))
    head = InferenceRequest(inputs=workload.test_inputs[:n])
    queued = InferenceRequest(inputs=workload.test_inputs[:n], sample_offset=n)
    serial = session()
    expected_head, expected_queued = serial.infer(head), serial.infer(queued)
    gate = _GatedTarget(session())
    with ChipServer(
        gate, port=0, workload=args.workload, max_queue=1
    ).start() as server:
        with PipelinedSession.connect(
            server.address, connections=1, timeout=args.timeout
        ) as client:
            info = client.info()
            print(
                f"smoke: shed-drive server protocol v{info['protocol_version']}, "
                f"started at {info['started_at']:.0f} "
                f"(uptime {info['uptime_s']:.2f}s), max_queue={info['max_queue']}",
                flush=True,
            )
            future_head = client.submit(head)
            assert gate.entered.wait(timeout=args.timeout), (
                "first request never reached the work thread"
            )
            future_queued = client.submit(queued)
            deadline = time.monotonic() + args.timeout
            while client.info(refresh=True).get("queue_depth", 0) < 1:
                assert time.monotonic() < deadline, (
                    "second request never reached the server queue"
                )
                time.sleep(0.01)
            # Queue full (bound 1), worker busy: this one must be shed.
            try:
                client.submit(head).result(timeout=args.timeout)
                raise AssertionError("third request was not shed by the full queue")
            except RemoteServerError as exc:
                assert exc.code == ERROR_OVERLOADED, (
                    f"expected a structured 'overloaded' reply, got "
                    f"code={exc.code!r} ({exc})"
                )
            gate.release.set()
            got_head = future_head.result(timeout=args.timeout)
            got_queued = future_queued.result(timeout=args.timeout)
            assert np.array_equal(got_head.predictions, expected_head.predictions), (
                "admitted head request diverged from the serial run"
            )
            assert np.array_equal(
                got_queued.predictions, expected_queued.predictions
            ), "admitted queued request diverged from the serial run"
            final = client.info(refresh=True)
            assert final["stats"]["shed"] == 1, f"unexpected shed stats: {final}"
            assert final["queue_depth"] == 0, f"queue not drained: {final}"
    print(
        "smoke: load shedding ok (1 shed with structured 'overloaded', "
        "2 admitted exact)",
        flush=True,
    )


def _cmd_smoke(args: argparse.Namespace) -> int:
    command = [
        sys.executable,
        "-m",
        "repro.serve.distributed.cli",
        "serve",
        "--workload", args.workload,
        "--scale", str(args.scale),
        "--seed", str(args.seed),
        "--timesteps", str(args.timesteps),
        "--jobs", str(args.jobs),
        "--host", "127.0.0.1",
        "--port", "0",
        "--metrics-port", "0",
    ]
    log_path = args.server_log
    if log_path is None:
        fd, log_path = tempfile.mkstemp(prefix="chip-server-", suffix=".log")
        os.close(fd)
    print(f"smoke: booting {' '.join(command)} (server log: {log_path})", flush=True)
    with open(log_path, "w", encoding="utf-8") as log_file:
        proc = subprocess.Popen(
            command, stdout=log_file, stderr=subprocess.STDOUT, text=True
        )
        try:
            address = _wait_for_listening_line(proc, log_path, args.boot_timeout)
            with _connect_to_booting_server(
                proc, address, args.boot_timeout, args.timeout
            ) as remote:
                assert remote.ping(timeout=args.timeout), "server did not answer ping"
                info = remote.info(timeout=args.timeout)
                assert info["protocol_version"] == PROTOCOL_VERSION, (
                    f"server speaks protocol v{info['protocol_version']}, "
                    f"this client v{PROTOCOL_VERSION}"
                )
                assert info["workload"] == args.workload, f"wrong workload: {info}"
                assert info["replica_id"], f"server info lacks a replica id: {info}"
                assert info["state"] == "serving", f"unexpected server state: {info}"
                assert isinstance(info["pid"], int) and info["pid"] > 0, (
                    f"server info carries no usable pid: {info}"
                )
                print(f"smoke: server info {info}", flush=True)
                print(
                    f"smoke: server identity replica_id={info['replica_id']} "
                    f"pid={info['pid']} state={info['state']}",
                    flush=True,
                )
                print(
                    f"smoke: server protocol v{info['protocol_version']} "
                    f"(binary frames), "
                    f"started at {info['started_at']:.0f} "
                    f"(uptime {info['uptime_s']:.2f}s)",
                    flush=True,
                )
                request, first = _client_inference(remote, args)
                again = remote.submit(request).result(timeout=args.timeout)
                assert first.batch_size == request.batch_size
                assert len(first.predictions) == request.batch_size
                assert first.energy.total_j > 0, "served response carries no energy"
                assert np.array_equal(first.predictions, again.predictions), (
                    "served inference is not deterministic"
                )
                assert first.counters.as_dict() == again.counters.as_dict()
                print(
                    f"smoke: {first.batch_size} samples, "
                    f"accuracy {first.accuracy:.2%}, "
                    f"energy {format_energy(first.energy.total_j)}, "
                    f"deterministic round trip ok",
                    flush=True,
                )
                _smoke_pipelined_clients(address, remote, request, args.timeout)
                _smoke_metrics(remote, args.timeout)
                remote.shutdown_server()
            returncode = proc.wait(timeout=30)
            assert returncode == 0, f"server exited with {returncode}"
        except BaseException:
            # The server log is the post-mortem: dump it before the failure
            # propagates (CI keeps only the smoke process output).
            _dump_server_log(log_path)
            raise
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    _smoke_load_shedding(args)
    print("smoke: OK", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    commands = {
        "serve": _cmd_serve,
        "infer": _cmd_infer,
        "smoke": _cmd_smoke,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
