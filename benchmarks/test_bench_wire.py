"""Wire-serialization overhead: v3 binary frames vs JSON text.

Protocol v3 exists to take text serialization off the hot path: a feature
batch crosses the wire as raw little-endian float64 instead of decimal
text, so encode+decode cost is a memcpy, not a float-printing loop.  This
benchmark pins that down at two levels:

* **codec-only** — `InferenceRequest`/`InferenceResponse` round-tripped
  through `to_frame`/`from_frame` vs `to_json`/`from_json` on a batch of
  256.  Pure CPU, machine-independent ordering: the binary codec must be
  >= 5x cheaper than the JSON codec.
* **end-to-end** — a real `ChipServer` on localhost answering the same
  request over a one-connection `PipelinedSession`.  Overhead is the round-trip wall time
  minus local chip compute; the acceptance bar is binary overhead under
  ~10% of chip compute *or* >= 5x cheaper than the JSON text codec's
  in-process `to_json`/`from_json` round trip of the same request and
  response (either shows serialization is no longer the ceiling).  That
  codec cost is a lower bound on what a JSON-text wire would add, since
  such a wire pays the same codec plus the larger transfer.
  Load-dependent thresholds skip on single-core runners like the other
  concurrency benchmarks.

Both tests print their timings and the codec test the request's frame and
JSON sizes (run pytest with ``-s`` to see them).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.serve import ChipSession, InferenceRequest, InferenceResponse
from repro.serve.distributed import ChipServer, PipelinedSession
from repro.snn import Dense, Network, convert_to_snn

BATCH = 256
FEATURES = 256
TIMESTEPS = 8
ROUNDS = 5

#: The binary codec must beat the JSON codec by at least this factor on a
#: batch of 256 — raw array payloads vs per-float decimal text.
CODEC_SPEEDUP_FLOOR = 5.0
#: End-to-end bar: binary wire overhead stays under this fraction of chip
#: compute, or (on noisy runners) at least CODEC_SPEEDUP_FLOOR cheaper
#: than the JSON text codec round trip of the same request and response.
OVERHEAD_COMPUTE_FRACTION = 0.10


@pytest.fixture(scope="module")
def wire_workload():
    """The executor-benchmark MLP and a batch large enough to stress framing."""
    rng = np.random.default_rng(31)
    network = Network(
        (FEATURES,),
        [
            Dense(FEATURES, 128, use_bias=False, rng=rng, name="fc1"),
            Dense(128, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="wire-mlp",
    )
    snn = convert_to_snn(network, rng.random((24, FEATURES)))
    config = ArchitectureConfig(crossbar_rows=32, crossbar_columns=32)
    inputs = rng.random((BATCH, FEATURES))
    labels = rng.integers(0, 10, size=BATCH)
    return snn, config, inputs, labels


def _session(snn, config) -> ChipSession:
    return ChipSession(snn, config=config, timesteps=TIMESTEPS, seed=3)


def _best(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_wire_codec_binary_vs_json(wire_workload):
    """Frame codec must be >= 5x cheaper than the JSON codec at batch 256."""
    snn, config, inputs, labels = wire_workload
    request = InferenceRequest(inputs=inputs, labels=labels, timesteps=TIMESTEPS)
    response = _session(snn, config).infer(request)

    request_binary = _best(
        lambda: InferenceRequest.from_frame(bytes(request.to_frame()))
    )
    request_json = _best(lambda: InferenceRequest.from_json(request.to_json()))
    response_binary = _best(
        lambda: InferenceResponse.from_frame(bytes(response.to_frame()))
    )
    response_json = _best(lambda: InferenceResponse.from_json(response.to_json()))

    binary_s = request_binary + response_binary
    json_s = request_json + response_json
    speedup = json_s / binary_s
    frame_bytes = len(bytes(request.to_frame()))
    json_bytes = len(request.to_json().encode())
    print(
        f"\nwire codec (batch {BATCH}x{FEATURES}): binary {binary_s * 1e3:.2f}ms, "
        f"JSON {json_s * 1e3:.2f}ms, speedup {speedup:.1f}x "
        f"({frame_bytes} vs {json_bytes} request bytes)"
    )
    # Round trips must stay lossless before the timing means anything.
    restored = InferenceRequest.from_frame(bytes(request.to_frame()))
    np.testing.assert_array_equal(restored.batch, request.batch)
    assert speedup >= CODEC_SPEEDUP_FLOOR, (
        f"binary codec only {speedup:.1f}x faster than JSON "
        f"({binary_s * 1e3:.2f}ms vs {json_s * 1e3:.2f}ms) — below the "
        f"{CODEC_SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_wire_end_to_end_overhead(wire_workload):
    """Binary wire overhead vs chip compute over a real localhost server."""
    snn, config, inputs, labels = wire_workload
    request = InferenceRequest(inputs=inputs, labels=labels)
    local = _session(snn, config)
    compute_s = _best(lambda: local.infer(request))
    expected = local.infer(request)

    with ChipServer(_session(snn, config), port=0, workload="wire-bench").start() as server:
        with PipelinedSession.connect(server.address, connections=1) as remote:
            binary_s = _best(lambda: remote.infer(request))
            got = remote.infer(request)

    np.testing.assert_array_equal(got.predictions, expected.predictions)
    np.testing.assert_array_equal(got.spike_counts, expected.spike_counts)

    # What a JSON-text wire pays at least: the client encodes the request,
    # the server decodes it and encodes the response, the client decodes it.
    json_codec_s = _best(lambda: InferenceRequest.from_json(request.to_json())) + _best(
        lambda: InferenceResponse.from_json(got.to_json())
    )
    binary_overhead = max(binary_s - compute_s, 0.0)
    print(
        f"\nwire end-to-end (batch {BATCH}, timesteps {TIMESTEPS}): "
        f"compute {compute_s * 1e3:.1f}ms, v3 round trip {binary_s * 1e3:.1f}ms "
        f"(overhead {binary_overhead * 1e3:.1f}ms, "
        f"{binary_overhead / compute_s:.1%} of compute), "
        f"JSON codec round trip {json_codec_s * 1e3:.1f}ms"
    )

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("wire overhead thresholds need >= 2 cores (client vs server)")
    under_fraction = binary_overhead < OVERHEAD_COMPUTE_FRACTION * compute_s
    beats_json = binary_overhead * CODEC_SPEEDUP_FLOOR <= json_codec_s
    assert under_fraction or beats_json, (
        f"binary wire overhead {binary_overhead * 1e3:.1f}ms is neither under "
        f"{OVERHEAD_COMPUTE_FRACTION:.0%} of compute ({compute_s * 1e3:.1f}ms) "
        f"nor {CODEC_SPEEDUP_FLOOR:.0f}x cheaper than the JSON codec round "
        f"trip ({json_codec_s * 1e3:.1f}ms)"
    )
