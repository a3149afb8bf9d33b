"""Server processes, the graceful drain and the gateway's endpoint plumbing.

Retiring a server or re-placing work may change *where* samples run, never
the numbers:

* a **``serve`` process**: ``python -m repro.serve.distributed serve``
  reports its identity over ``info``, answers exactly like a local
  :class:`~repro.serve.ChipSession`, serves its metrics over HTTP, and exits
  0 after a ``drain`` or a ``shutdown`` op;
* the **graceful ``drain`` op**: a draining server refuses new work with a
  structured ``draining`` error but answers everything already admitted,
  then its serving loop exits;
* the **gateway's endpoint plumbing**: a shard shed by a draining server is
  retried on a sibling with a bit-identical merge, and the gateway never
  polls an endpoint.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest
from repro.serve.distributed import (
    ChipServer,
    GatewayEndpoint,
    InferenceGateway,
    PipelinedSession,
    RemoteServerError,
    load_benchmark_workload,
)
from repro.serve.schema import ERROR_DRAINING, PROTOCOL_VERSION
from repro.snn import Dense, Network, convert_to_snn

ENERGY_RTOL = 1e-9


def _mlp(seed: int, dims: tuple[int, ...]):
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = i == len(dims) - 2
        layers.append(
            Dense(
                n_in,
                n_out,
                activation=None if last else "relu",
                use_bias=False,
                rng=rng,
                name=f"fc{i}",
            )
        )
    network = Network((dims[0],), layers, name=f"fleet-{'x'.join(map(str, dims))}")
    return convert_to_snn(network, rng.random((12, dims[0])))


@pytest.fixture(scope="module")
def workload():
    snn = _mlp(9, (48, 24, 10))
    config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
    rng = np.random.default_rng(33)
    inputs = rng.random((13, 48))
    labels = rng.integers(0, 10, size=13)
    return snn, config, inputs, labels


@pytest.fixture(scope="module")
def single_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


def _fresh_session(workload):
    snn, config, _, _ = workload
    return ChipSession(snn, config=config, timesteps=5, encoder="poisson", seed=21)


def _assert_identical(expected, actual):
    np.testing.assert_array_equal(expected.predictions, actual.predictions)
    np.testing.assert_array_equal(expected.spike_counts, actual.spike_counts)
    e, a = expected.counters.as_dict(), actual.counters.as_dict()
    for name, value in e.items():
        if name == "crossbar_device_energy_j":
            assert a[name] == pytest.approx(value, rel=ENERGY_RTOL)
        else:
            assert a[name] == value, f"counter {name}: {a[name]} != {value}"
    assert actual.energy.total_j == pytest.approx(
        expected.energy.total_j, rel=ENERGY_RTOL
    )


class _GatedTarget:
    """Holds every dispatch at a gate so drain races are deterministic."""

    def __init__(self, session):
        self._session = session
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._session, name)

    def infer(self, request):
        self.entered.set()
        assert self.release.wait(timeout=60), "gate never released"
        return self._session.infer(request)


# -- a serve process ----------------------------------------------------------------

#: The served workload: both the child and the local reference build it
#: (the child from ``serve``'s default ``--seed``).
SERVE_WORKLOAD = "mnist-mlp"
SERVE_SCALE = 0.15
SERVE_SEED = 7
SERVE_TIMESTEPS = 4
BOOT_TIMEOUT_S = 120.0


def _read_listening_address(
    proc: subprocess.Popen, output: bytearray
) -> tuple[str, int]:
    """Read the child's output until its ``listening on HOST:PORT`` banner."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    fd = proc.stdout.fileno()
    while True:
        match = re.search(rb"listening on (\S+):(\d+)", output)
        if match:
            return match.group(1).decode(), int(match.group(2))
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"no listening banner within {BOOT_TIMEOUT_S:.0f}s"
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            assert chunk, f"serve exited with {proc.wait()} before listening"
            output += chunk


class TestServeProcess:
    @pytest.mark.parametrize("op", ["drain", "shutdown"])
    def test_serve_answers_like_a_local_session_and_exits_0(self, op):
        command = [
            sys.executable, "-m", "repro.serve.distributed", "serve",
            "--workload", SERVE_WORKLOAD,
            "--scale", str(SERVE_SCALE),
            "--timesteps", str(SERVE_TIMESTEPS),
            "--jobs", "2",
            "--port", "0",
            "--metrics-port", "0",
        ]
        src = Path(repro.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            command,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        output = bytearray()
        try:
            address = _read_listening_address(proc, output)
            workload = load_benchmark_workload(
                SERVE_WORKLOAD, scale=SERVE_SCALE, seed=SERVE_SEED
            )
            request = InferenceRequest(
                inputs=workload.test_inputs[:4], labels=workload.test_labels[:4]
            )
            local = ChipSession(
                workload.snn,
                timesteps=SERVE_TIMESTEPS,
                encoder="poisson",
                seed=SERVE_SEED,
            )
            with PipelinedSession.connect(
                address, connections=1, timeout=30
            ) as client:
                info = client.info(timeout=30)
                assert info["pid"] == proc.pid
                assert info["state"] == "serving"
                assert info["protocol_version"] == PROTOCOL_VERSION
                assert info["workload"] == SERVE_WORKLOAD
                assert info["jobs"] == 2
                served = client.submit(request).result(timeout=BOOT_TIMEOUT_S)
                _assert_identical(local.infer(request), served)
                with urllib.request.urlopen(
                    f"http://{info['metrics_endpoint']}/metrics", timeout=30
                ) as scrape:
                    text = scrape.read().decode("utf-8")
                assert "repro_server_requests_total" in text
                assert "repro_session_plan_cache_misses_total" in text
                if op == "drain":
                    assert client.drain_server(timeout=30)["draining"] is True
                else:
                    client.shutdown_server()
            assert proc.wait(timeout=30) == 0
        except BaseException:
            if proc.poll() is None:
                proc.kill()
            output += proc.stdout.read()
            print(f"serve output:\n{output.decode(errors='replace')}")
            raise
        finally:
            proc.stdout.close()
            proc.wait()


# -- the graceful drain op ----------------------------------------------------------


class TestDrainOp:
    def test_drain_answers_admitted_work_and_refuses_new(self, workload):
        """The drain contract: admitted work exact, new work refused, loop exits."""
        _, _, inputs, _ = workload
        serial = _fresh_session(workload)
        gate = _GatedTarget(_fresh_session(workload))
        head = InferenceRequest(inputs=inputs[:5])
        queued = InferenceRequest(inputs=inputs[5:9], sample_offset=5)
        with ChipServer(gate, port=0, workload="drain-test").start() as server:
            with PipelinedSession.connect(
                server.address, connections=1, timeout=60
            ) as client:
                future_head = client.submit(head)
                assert gate.entered.wait(timeout=30)
                future_queued = client.submit(queued)
                # No wait: the infer's task is admitted in its first step, before the drain's.
                ack = client.drain_server(timeout=30)
                assert ack["draining"] is True
                assert ack["was_draining"] is False
                # Everything after the drain gets the structured refusal.
                with pytest.raises(RemoteServerError) as excinfo:
                    client.submit(head).result(timeout=30)
                assert excinfo.value.code == ERROR_DRAINING
                # A second drain is idempotent, not an error.
                assert client.drain_server(timeout=30)["was_draining"] is True
                info = client.info(refresh=True)
                assert info["state"] == "draining"
                assert info["stats"]["drain_rejected"] == 1
                gate.release.set()
                # Both admitted requests still get their exact answers.
                _assert_identical(serial.infer(head), future_head.result(timeout=60))
                _assert_identical(
                    serial.infer(queued), future_queued.result(timeout=60)
                )
            # The serving loop exits on its own once the queue is answered.
            server._thread.join(timeout=30)
            assert not server._thread.is_alive(), "drained server never exited"


# -- the gateway's endpoint plumbing -----------------------------------------------


class TestGatewayShedRetryAndNoPolls:
    def test_draining_server_sheds_onto_sibling(self, workload, single_session):
        """A racing scale-down's ``draining`` error retries on a sibling."""
        _, _, inputs, _ = workload

        class _DrainingTarget:
            capacity = 1

            def __init__(self):
                self.calls = 0

            def infer(self, request):
                self.calls += 1
                raise RemoteServerError(
                    "server is draining; request refused", code=ERROR_DRAINING
                )

        draining = _DrainingTarget()
        request = InferenceRequest(inputs=inputs[:12])
        expected = single_session.infer(request)
        with InferenceGateway(
            [
                GatewayEndpoint(target=draining, name="retiring"),
                GatewayEndpoint(target=_fresh_session(workload), name="sibling"),
            ],
            name="drain-shed",
        ) as gateway:
            response = gateway.infer(request)
        assert draining.calls == 1
        _assert_identical(expected, response)
        retried = [
            shard
            for shard in response.metadata["shards"]
            if shard.get("retried_from") == "retiring"
        ]
        assert retried, f"expected a retried shard: {response.metadata}"

    def test_submit_never_polls_endpoints_synchronously(self, workload):
        """The gateway plans from static capacities and never polls ``info``."""
        _, _, inputs, _ = workload

        class _PollRecorder:
            capacity = 1

            def __init__(self, session):
                self._session = session
                self.polls = 0

            def info(self, refresh: bool = False, *, timeout: float | None = None):
                self.polls += 1
                return {"queue_depth": 0, "inflight": 0}

            def infer(self, request):
                return self._session.infer(request)

        recorders = [
            _PollRecorder(_fresh_session(workload)),
            _PollRecorder(_fresh_session(workload)),
        ]
        with InferenceGateway(
            [
                GatewayEndpoint(target=recorder, name=f"r{i}")
                for i, recorder in enumerate(recorders)
            ],
            name="no-sync-polls",
        ) as gateway:
            for _ in range(3):
                gateway.infer(InferenceRequest(inputs=inputs[:8]))
        assert [r.polls for r in recorders] == [0, 0], (
            "the gateway must never poll an endpoint"
        )
