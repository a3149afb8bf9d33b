"""Serve-CLI: run and query the socket chip server.

Two subcommands, both runnable as ``python -m repro.serve.distributed``:

* ``serve`` — load a registered MLP benchmark, open a :class:`ChipPool` on
  it and serve inference on a TCP port (protocol-3 binary frames) until
  interrupted, or until a client sends the ``shutdown`` or ``drain`` op::

      PYTHONPATH=src python -m repro.serve.distributed serve \\
          --workload mnist-mlp --port 7070 --jobs 2

  With ``--port 0`` the kernel picks a free port; the server binds before
  it prints ``listening on HOST:PORT``, so a client may connect as soon as
  it reads that line.

* ``infer`` — connect to a running server, send one batch of the workload's
  test split and print the result::

      PYTHONPATH=src python -m repro.serve.distributed infer \\
          --endpoint 127.0.0.1:7070 --workload mnist-mlp --samples 8
"""

from __future__ import annotations

import argparse

from repro.serve.distributed.client import PipelinedSession, parse_endpoint
from repro.serve.distributed.server import ChipServer, load_benchmark_workload
from repro.serve.pool import ChipPool
from repro.serve.retry import RetryBudget
from repro.serve.schema import InferenceRequest
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
        description="Socket chip server and client",
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


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    commands = {
        "serve": _cmd_serve,
        "infer": _cmd_infer,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
