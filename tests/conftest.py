"""Shared fixtures for the RESPARC reproduction test suite."""

from __future__ import annotations

import contextlib
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.serve.schema import (
    FRAME_HEADER_SIZE,
    decode_frame_payload,
    encode_frame,
    parse_frame_header,
)
from repro.snn import AvgPool2D, Conv2D, Dense, Flatten, Network, SpikingSimulator, convert_to_snn
from repro.utils.rng import seeded_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by tests."""
    return seeded_rng(1234)


@pytest.fixture
def small_mlp(rng: np.random.Generator) -> Network:
    """A small dense network (MLP) used across architecture tests."""
    return Network(
        (36,),
        [
            Dense(36, 20, activation="relu", use_bias=False, rng=rng, name="fc1"),
            Dense(20, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="small-mlp",
    )


@pytest.fixture
def small_cnn(rng: np.random.Generator) -> Network:
    """A small convolutional network used across architecture tests."""
    return Network(
        (12, 12, 1),
        [
            Conv2D(1, 6, kernel_size=3, padding="same", use_bias=False, rng=rng, name="conv1"),
            AvgPool2D(2, name="pool1"),
            Flatten(),
            Dense(6 * 6 * 6, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="small-cnn",
    )


@pytest.fixture
def mnist_like_batch(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A tiny MNIST-like (images, labels) batch."""
    dataset = make_dataset("mnist", train_samples=24, test_samples=12, seed=3)
    return dataset.test_images, dataset.test_labels


@pytest.fixture
def traced_small_mlp(small_mlp, rng):
    """A converted small MLP together with an activity trace."""
    inputs = rng.random((6, 36))
    snn = convert_to_snn(small_mlp, inputs)
    simulator = SpikingSimulator(timesteps=12, encoder="deterministic")
    result = simulator.run(snn, inputs[:4])
    return snn, result.trace


def _send_frame(stream, envelope: dict) -> None:
    stream.write(encode_frame(envelope))
    stream.flush()


def _read_frame(stream) -> dict:
    header = stream.read(FRAME_HEADER_SIZE)
    assert len(header) == FRAME_HEADER_SIZE, "truncated frame header"
    meta_len, payload_len = parse_frame_header(header)
    return decode_frame_payload(stream.read(meta_len), stream.read(payload_len))


@pytest.fixture
def frame_io():
    """Raw protocol-3 frame I/O on a blocking socket stream (``makefile("rwb")``).

    ``frame_io.send(stream, envelope)`` writes one envelope as a binary frame
    and flushes; ``frame_io.read(stream)`` reads one frame back and returns
    its envelope.  Tests that speak the wire protocol by hand use this pair
    instead of a client, so the server is checked byte for byte.
    """
    return SimpleNamespace(send=_send_frame, read=_read_frame)


@pytest.fixture
def wedged_server():
    """Address of a server that accepts and reads requests but never replies."""
    listener = socket.create_server(("127.0.0.1", 0))

    def drain_forever(conn: socket.socket) -> None:
        with contextlib.suppress(OSError), conn:
            while conn.recv(65536):
                pass

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=drain_forever, args=(conn,), daemon=True).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    try:
        yield listener.getsockname()[:2]
    finally:
        listener.close()
