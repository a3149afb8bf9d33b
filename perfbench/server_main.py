"""One chip server process of the benchmark.

Builds the served network, a ``ChipPool`` and a ``ChipServer`` on a free
port, prints ``PORT <n>`` on stdout once the socket is bound, and serves
until a ``shutdown`` op arrives.  With ``--trace-out`` it first wraps the
server-side entry points with span timers (see :mod:`spans`) and writes the
spans to that file when serving ends.

Run by ``run.py`` with ``PYTHONPATH=src`` from the repository root::

    python3 perfbench/server_main.py --model mnist-mlp --scale 1 \\
        --crossbar 64 --timesteps 32 --jobs 1 --executor inline --max-batch 8
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
from pathlib import Path

from spans import Tracer, install_server


def _exit_with_parent() -> None:
    """Ask Linux to terminate this server if the benchmark process dies, so
    a killed run leaves no server behind to disturb the next one."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    if os.getppid() == 1:  # the parent already died before prctl ran
        sys.exit(1)


#: ``prctl`` option: signal to deliver when the parent process exits.
_PR_SET_PDEATHSIG = 1


def main() -> int:
    _exit_with_parent()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--crossbar", type=int, required=True)
    parser.add_argument("--timesteps", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--executor", required=True)
    parser.add_argument("--max-batch", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        install_server(tracer)

    from repro.core.config import ArchitectureConfig
    from repro.serve.distributed.server import ChipServer, load_benchmark_workload
    from repro.serve.pool import ChipPool

    workload = load_benchmark_workload(args.model, scale=args.scale, seed=args.seed)
    with ChipPool(
        workload.snn,
        jobs=args.jobs,
        config=ArchitectureConfig().with_crossbar_size(args.crossbar),
        timesteps=args.timesteps,
        encoder="poisson",
        seed=args.seed,
        executor=args.executor,
    ) as pool:
        with ChipServer(
            pool, port=0, workload=args.model, max_batch=args.max_batch
        ) as server:
            print(f"PORT {server.address[1]}", flush=True)
            server.serve_forever()
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
