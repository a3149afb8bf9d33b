"""Server processes and the client stack the load generator drives.

:class:`Cluster` launches a workload's server process(es), connects one
``PipelinedSession`` per server (behind an ``InferenceGateway`` when there
are two), and times set-up: from the launch to the first reply.  It also
reads each server's peak resident memory and metrics before stopping it.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

from shapes import MODEL_SEED, PoolEntry, Workload

#: One BLAS thread per server process: the serving layers supply the
#: parallelism (server processes, pool threads), and a BLAS thread pool in
#: each of them oversubscribes the cores and makes kernel times erratic.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Longest a server may take to bind its port, and a stop to complete.
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def placement(workload: Workload) -> tuple[set[int] | None, list[set[int] | None]]:
    """CPU sets for the load generator and for each server process.

    Each server gets one core per pool worker, so the scheduler cannot
    stack two servers' kernels on one core.  When a core is left over, the
    generator gets it to itself, so client work never competes with the
    system being measured — as when clients run on other machines.  With
    fewer cores than workers nothing is pinned; ``None`` means unpinned.
    """
    cores = sorted(os.sched_getaffinity(0))
    needed = workload.servers * workload.jobs
    if len(cores) < needed:
        return None, [None] * workload.servers
    rest = cores[1:] if len(cores) > needed else cores
    return ({cores[0]} if len(cores) > needed else None), [
        set(rest[index * workload.jobs : (index + 1) * workload.jobs])
        for index in range(workload.servers)
    ]


class ServerProcess:
    """One ``server_main.py`` child process."""

    def __init__(self, root: Path, workload: Workload, out_dir: Path, tag: str,
                 trace: bool, cpus: set[int] | None):
        self.log_path = out_dir / f"{tag}.log"
        self.trace_path = out_dir / f"{tag}.spans.json" if trace else None
        if self.trace_path is not None and self.trace_path.exists():
            self.trace_path.unlink()
        command = [
            sys.executable,
            str(root / "perfbench" / "server_main.py"),
            "--model", workload.model,
            "--scale", repr(workload.scale),
            "--crossbar", str(workload.crossbar),
            "--timesteps", str(workload.default_timesteps),
            "--jobs", str(workload.jobs),
            "--executor", workload.executor,
            "--max-batch", str(workload.max_batch),
            "--seed", str(MODEL_SEED),
        ]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), **SERVER_ENV)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        if cpus is not None:
            # Before the interpreter is up: threads it starts inherit the set.
            os.sched_setaffinity(self.proc.pid, cpus)
        self.port: int | None = None

    def wait_port(self, deadline: float) -> int:
        """Block until the server prints its port (or fail with its log)."""
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(self._failure("did not report its port"))
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline().decode().strip()
                if not line.startswith("PORT "):
                    raise RuntimeError(self._failure(f"printed {line!r}"))
                self.port = int(line.split()[1])
        return self.port

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the live process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def join(self) -> None:
        """Wait for the process to exit (killing it after the timeout)."""
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def _failure(self, what: str) -> str:
        self._log.flush()
        tail = self.log_path.read_text(errors="replace")[-2000:]
        return f"server {self.log_path.name} {what}; log tail:\n{tail}"


class Cluster:
    """A workload's servers plus the client target requests are sent to."""

    def __init__(self, root: Path, workload: Workload, out_dir: Path, tag: str,
                 trace: bool = False):
        self.workload = workload
        self.started = time.perf_counter()
        _, server_cpus = placement(workload)
        self.servers = [
            ServerProcess(root, workload, out_dir, f"{tag}-server{index}", trace, cpus)
            for index, cpus in enumerate(server_cpus)
        ]
        self.sessions = []
        self.gateway = None

    def connect(self) -> None:
        from repro.serve.distributed import (
            GatewayEndpoint,
            InferenceGateway,
            PipelinedSession,
        )

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        for server in self.servers:
            port = server.wait_port(deadline)
            self.sessions.append(
                PipelinedSession.connect(
                    ("127.0.0.1", port),
                    connections=self.workload.connections,
                    timeout=BOOT_TIMEOUT_S,
                )
            )
        if len(self.sessions) > 1:
            self.gateway = InferenceGateway(
                [
                    GatewayEndpoint(target=session, name=f"server{index}")
                    for index, session in enumerate(self.sessions)
                ]
            )

    def submit(self, request):
        """Send one request; the future resolves to its response."""
        target = self.gateway if self.gateway is not None else self.sessions[0]
        return target.submit(request)

    def boot(self, first: PoolEntry):
        """Connect and answer ``first``: returns ``(setup_s, response)``."""
        self.connect()
        response = self.submit(first.request).result(timeout=BOOT_TIMEOUT_S)
        return time.perf_counter() - self.started, response

    def metrics(self) -> list[dict]:
        """Each server's registry snapshot (the ``metrics`` wire op)."""
        return [session.metrics(timeout=30.0)["snapshot"] for session in self.sessions]

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        """Shut every server down and wait for the processes to exit."""
        if self.gateway is not None:
            self.gateway.close()
        for index, server in enumerate(self.servers):
            stopped = False
            if index < len(self.sessions):
                session = self.sessions[index]
                try:
                    session.shutdown_server()
                    stopped = True
                except Exception:  # noqa: BLE001 - terminated below instead
                    pass
                session.close()
            if not stopped and server.proc.poll() is None:
                server.proc.terminate()
            server.join()
