"""Replica lifecycle: provision, health-check and drain ChipServer processes.

A *replica* is one :class:`~repro.serve.distributed.ChipServer` running in
its own OS process, built from a picklable
:class:`~repro.serve.distributed.SessionSpec` — the same provisioning
recipe the executor registry uses for pool workers, so every replica's chip
is programmed identically and shard placement stays result-exact.

The lifecycle protocol:

* **boot** — :meth:`ReplicaManager.start_replica` spawns the process, which
  builds its session, binds port 0, sends the bound address back through a
  pipe, and serves.  The manager then connects a
  :class:`~repro.serve.distributed.PipelinedSession` control/data channel
  and health-checks it with a ping + ``info`` identity read.
* **serve** — the replica is an ordinary endpoint; callers submit work
  through ``replica.client``, directly or as an
  :class:`~repro.serve.distributed.InferenceGateway` endpoint.
* **drain** — :meth:`ReplicaManager.drain_replica` sends the graceful
  ``drain`` wire op: the server stops admitting (structured ``draining``
  errors), completes and answers everything already admitted, exits its
  serving loop, and the process terminates with exit code 0.  The manager
  joins the process, so when the call returns the OS resources are gone.

Replicas are started with :mod:`multiprocessing`'s platform default start
method.
"""

from __future__ import annotations

import itertools
import multiprocessing
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.serve.distributed.client import PipelinedSession
from repro.serve.distributed.executors import SessionSpec
from repro.serve.distributed.server import ChipServer

__all__ = ["Replica", "ReplicaManager", "ReplicaSpec"]


class _DelayedTarget:
    """Inject synthetic per-dispatch latency (a scripted slow replica).

    Wraps the replica's session so every dispatch sleeps first — a
    machine-independent way to make one replica straggle in tests and
    benchmarks.  Results are untouched: the sleep happens before the exact
    same ``infer``/``infer_many`` call.
    """

    def __init__(self, session, delay_s: float):
        self._session = session
        self._delay_s = float(delay_s)

    def __getattr__(self, name):
        return getattr(self._session, name)

    def infer(self, request):
        time.sleep(self._delay_s)
        return self._session.infer(request)

    def infer_many(self, requests):
        time.sleep(self._delay_s)
        return self._session.infer_many(requests)


@dataclass(frozen=True)
class ReplicaSpec:
    """Picklable recipe for one replica's server process.

    ``session_spec`` is the chip-provisioning half (network, config,
    encoder state — see :class:`SessionSpec`); ``workload`` and ``host``
    configure the :class:`ChipServer` wrapped around it, which otherwise
    keeps its defaults.  ``dispatch_delay_s`` > 0 wraps the session in a
    synthetic-latency target (a scripted straggler; results are
    unchanged).  ``log_dir`` redirects the child's stdout/stderr to
    ``{log_dir}/{replica_id}.log``.
    """

    session_spec: SessionSpec
    workload: str = "custom"
    host: str = "127.0.0.1"
    dispatch_delay_s: float = 0.0
    log_dir: str | None = None


def _replica_main(spec: ReplicaSpec, replica_id: str, conn) -> None:
    """Child-process entry point: build the session, serve, exit on drain."""
    if spec.log_dir:
        log_path = Path(spec.log_dir) / f"{replica_id}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(log_path, "w", buffering=1)
        sys.stdout = sys.stderr = handle
    session = spec.session_spec.build_session()
    target = (
        _DelayedTarget(session, spec.dispatch_delay_s)
        if spec.dispatch_delay_s > 0
        else session
    )
    server = ChipServer(
        target,
        host=spec.host,
        port=0,
        workload=spec.workload,
        replica_id=replica_id,
    )
    # The socket is bound (constructor binds eagerly): hand the address to
    # the parent before serving; clients retry-connect until the loop is up.
    conn.send(server.address)
    conn.close()
    print(f"replica {replica_id}: serving on {server.endpoint}", flush=True)
    server.serve_forever()
    print(f"replica {replica_id}: drained, exiting", flush=True)


@dataclass
class Replica:
    """A live replica: process handle + pipelined control channel."""

    replica_id: str
    endpoint: tuple[str, int]
    process: multiprocessing.process.BaseProcess
    client: PipelinedSession | None = None
    #: The server's final counter view, captured from the drain
    #: acknowledgement — the last reply the manager is guaranteed to read
    #: before the process exits.  None until the replica drains.
    final_stats: dict[str, int] | None = None
    #: The full registry snapshot riding the same drain ack.
    final_metrics: dict[str, object] | None = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode


class ReplicaManager:
    """Provision, health-check and drain ChipServer replica processes.

    Thread-safe: replicas may be started, drained and listed from
    different threads.

    Parameters
    ----------
    spec:
        What every replica runs (:class:`ReplicaSpec`).
    boot_timeout_s:
        Seconds one replica may take to build its chip, bind, and answer
        the health-check ping before the boot is declared failed.
    """

    def __init__(self, spec: ReplicaSpec, *, boot_timeout_s: float = 120.0):
        if boot_timeout_s <= 0:
            raise ValueError(f"boot_timeout_s must be > 0, got {boot_timeout_s}")
        self.spec = spec
        self.boot_timeout_s = float(boot_timeout_s)
        self._lock = threading.RLock()
        self._replicas: list[Replica] = []
        self._ids = itertools.count(1)
        #: Summed final counters of every drained replica, so retiring a
        #: replica does not silently discard its shed/deadline/cancel
        #: history (the manager's lifetime totals stay additive).
        self.retired_stats: dict[str, int] = {}

    @property
    def replicas(self) -> list[Replica]:
        """Snapshot of the live replica handles."""
        with self._lock:
            return list(self._replicas)

    def __len__(self) -> int:
        with self._lock:
            return len(self._replicas)

    # -- provisioning -------------------------------------------------------------

    def start_replica(self) -> Replica:
        """Boot one replica process and health-check it (blocking)."""
        replica_id = f"{self.spec.workload}-r{next(self._ids)}"
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_replica_main,
            args=(self.spec, replica_id, child_conn),
            name=f"chip-replica-{replica_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + self.boot_timeout_s

        def died() -> RuntimeError:
            process.join(timeout=5.0)
            return RuntimeError(
                f"replica {replica_id} died during boot "
                f"(exit code {process.exitcode})"
            )

        try:
            while not parent_conn.poll(0.05):
                if not process.is_alive():
                    raise died()
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"replica {replica_id} did not report its address "
                        f"within {self.boot_timeout_s:.0f}s"
                    )
            try:
                endpoint = tuple(parent_conn.recv())
            except EOFError:
                # The child's exit closed the pipe before it sent an
                # address, which also wakes the poll above.
                raise died() from None
        except BaseException:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            raise
        finally:
            parent_conn.close()
        replica = Replica(
            replica_id=replica_id,
            endpoint=(str(endpoint[0]), int(endpoint[1])),
            process=process,
        )
        try:
            remaining = max(0.5, deadline - time.monotonic())
            replica.client = PipelinedSession.connect(
                replica.endpoint,
                connections=1,
                timeout=remaining,
                wait=remaining,
            )
            info = replica.client.info(refresh=True, timeout=remaining)
            if info.get("replica_id") != replica_id:
                raise RuntimeError(
                    f"replica {replica_id} answered as "
                    f"{info.get('replica_id')!r}; refusing the mismatched "
                    f"process"
                )
        except BaseException:
            if replica.client is not None:
                replica.client.close()
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            raise
        with self._lock:
            self._replicas.append(replica)
        return replica

    # -- health -------------------------------------------------------------------

    def check_health(self, *, timeout_s: float = 5.0) -> dict[str, bool]:
        """Ping every replica; ``{replica_id: healthy}``."""
        health: dict[str, bool] = {}
        for replica in self.replicas:
            try:
                assert replica.client is not None
                health[replica.replica_id] = bool(
                    replica.alive and replica.client.ping(timeout=timeout_s)
                )
            except Exception:  # noqa: BLE001 - health is a yes/no question
                health[replica.replica_id] = False
        return health

    # -- retirement ---------------------------------------------------------------

    def drain_replica(self, replica: Replica, *, timeout_s: float = 60.0) -> None:
        """Gracefully retire one replica (blocking until its process exits).

        Sends the ``drain`` op — the server refuses new work, answers all
        admitted work, then exits — and joins the process.  The drain
        acknowledgement carries the server's final ``stats``/``metrics``
        snapshot, which is recorded on the replica and folded into
        :attr:`retired_stats` so retiring a replica never discards its
        shed/deadline/cancel counters.  Raises ``TimeoutError`` (after
        force-killing the process) if the drain does not complete in time;
        an already-dead replica drains cleanly.
        """
        try:
            if replica.client is not None:
                ack = replica.client.drain_server(timeout=timeout_s)
                final_stats = ack.get("stats")
                if isinstance(final_stats, dict):
                    replica.final_stats = {
                        str(key): int(value) for key, value in final_stats.items()
                    }
                    with self._lock:
                        for key, value in replica.final_stats.items():
                            if key == "max_coalesced":
                                # A high-water mark, not a count: folds as max.
                                self.retired_stats[key] = max(
                                    self.retired_stats.get(key, 0), value
                                )
                            else:
                                self.retired_stats[key] = (
                                    self.retired_stats.get(key, 0) + value
                                )
                final_metrics = ack.get("metrics")
                if isinstance(final_metrics, dict):
                    replica.final_metrics = final_metrics
        except Exception:  # noqa: BLE001 - a dead/exiting server is already drained
            pass
        replica.process.join(timeout=timeout_s)
        timed_out = replica.process.is_alive()
        if timed_out:
            replica.process.terminate()
            replica.process.join(timeout=5.0)
        if replica.client is not None:
            replica.client.close()
        with self._lock:
            if replica in self._replicas:
                self._replicas.remove(replica)
        if timed_out:
            raise TimeoutError(
                f"replica {replica.replica_id} did not drain within "
                f"{timeout_s:.0f}s; process was terminated"
            )

    def stop_all(self, *, timeout_s: float = 60.0) -> None:
        """Drain every replica (newest first); errors don't stop the sweep."""
        failures: list[str] = []
        for replica in reversed(self.replicas):
            try:
                self.drain_replica(replica, timeout_s=timeout_s)
            except Exception as exc:  # noqa: BLE001 - collect, keep sweeping
                failures.append(f"{replica.replica_id}: {exc}")
        if failures:
            raise RuntimeError(
                "replica teardown left unhealthy replicas: " + "; ".join(failures)
            )

    def __enter__(self) -> "ReplicaManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop_all()
