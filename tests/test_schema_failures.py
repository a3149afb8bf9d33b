"""Failure paths and property tests for the serving wire schema.

The schema is the trust boundary of the distributed subsystem: every byte a
chip server or process worker reads arrives through
``InferenceRequest.from_json`` / ``InferenceResponse.from_json``.  These
tests pin down the failure behaviour — malformed JSON, missing required
fields and unknown fields must all surface as :class:`ValueError` with a
message naming the problem — and property-test the lossless float round
trip of :class:`EventCounters` and :class:`EnergyReport` over randomized
values (JSON's shortest-round-trip float printing makes the cycle exact).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EventCounters
from repro.energy.model import EnergyReport
from repro.serve import InferenceRequest, InferenceResponse
from repro.serve.schema import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    decode_frame,
    encode_frame,
    parse_frame_header,
)


def _request_dict() -> dict:
    return InferenceRequest(
        inputs=np.random.default_rng(0).random((3, 4)),
        labels=np.array([1, 2, 3]),
        timesteps=5,
        sample_offset=2,
    ).to_dict()


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload, match",
        [
            ("{not json", "malformed request JSON"),
            ("", "malformed request JSON"),
            ("[1, 2]", "must be a JSON object"),
            ('"a string"', "must be a JSON object"),
        ],
    )
    def test_request_from_json_rejects_junk(self, payload, match):
        with pytest.raises(ValueError, match=match):
            InferenceRequest.from_json(payload)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("{truncated", "malformed response JSON"),
            ("null", "must be a JSON object"),
        ],
    )
    def test_response_from_json_rejects_junk(self, payload, match):
        with pytest.raises(ValueError, match=match):
            InferenceResponse.from_json(payload)

    def test_request_missing_inputs(self):
        data = _request_dict()
        del data["inputs"]
        with pytest.raises(ValueError, match=r"missing required fields: \['inputs'\]"):
            InferenceRequest.from_dict(data)

    def test_request_unknown_field(self):
        data = _request_dict()
        data["priority"] = "high"
        with pytest.raises(ValueError, match=r"unknown fields: \['priority'\]"):
            InferenceRequest.from_dict(data)

    def test_request_optional_fields_may_be_absent(self):
        restored = InferenceRequest.from_dict({"inputs": [[0.5, 0.25]]})
        assert restored.batch_size == 1
        assert restored.labels is None
        assert restored.timesteps is None
        assert restored.sample_offset == 0

    def test_response_missing_fields_are_named(self):
        with pytest.raises(ValueError, match="missing required fields") as excinfo:
            InferenceResponse.from_dict({"predictions": [1]})
        for name in ("counters", "energy", "backend"):
            assert name in str(excinfo.value)

    def test_response_unknown_field(self):
        data = {
            "predictions": [1],
            "spike_counts": [[0.0]],
            "counters": EventCounters().as_dict(),
            "energy": EnergyReport(label="t").to_dict(),
            "timesteps": 4,
            "backend": "vectorized",
            "batch_size": 1,
            "warp_factor": 9,
        }
        with pytest.raises(ValueError, match=r"unknown fields: \['warp_factor'\]"):
            InferenceResponse.from_dict(data)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="batch is empty"):
            InferenceRequest(inputs=np.zeros((0, 4)))
        with pytest.raises(ValueError, match="batch is empty"):
            InferenceRequest(inputs=[])

    def test_featureless_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            InferenceRequest(inputs=np.zeros((3, 0)))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels length 2"):
            InferenceRequest(inputs=np.zeros((3, 4)), labels=np.array([0, 1]))

    def test_request_json_round_trip(self):
        data = _request_dict()
        restored = InferenceRequest.from_json(json.dumps(data))
        assert restored.to_dict() == data


# -- property tests -----------------------------------------------------------------

finite_counts = st.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)

counters_strategy = st.builds(
    EventCounters,
    **{name: finite_counts for name in EventCounters().as_dict()},
)

component_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)
energy_values = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(counters=counters_strategy)
    def test_event_counters_survive_json_exactly(self, counters):
        payload = json.dumps(counters.as_dict())
        restored = EventCounters.from_dict(json.loads(payload))
        assert restored.as_dict() == counters.as_dict()

    @settings(max_examples=50, deadline=None)
    @given(
        components=st.dictionaries(component_names, energy_values, max_size=8),
        label=st.text(min_size=1, max_size=20),
    )
    def test_energy_report_survives_json_exactly(self, components, label):
        report = EnergyReport(label=label)
        for name, value in components.items():
            report.add(name, value)
        restored = EnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.components == report.components
        assert restored.label == report.label

    @settings(max_examples=25, deadline=None)
    @given(counters=counters_strategy)
    def test_merge_commutes_with_round_trip(self, counters):
        # Merging then serialising equals serialising then merging — the
        # property the pool/gateway merge relies on when responses cross a
        # process or socket boundary.
        other = EventCounters(crossbar_evaluations=7.0, neuron_spikes=3.5)
        direct = counters.merge(other).as_dict()
        via_wire = (
            EventCounters.from_dict(json.loads(json.dumps(counters.as_dict())))
            .merge(other)
            .as_dict()
        )
        assert direct == via_wire


# -- binary frame codec (protocol v3) -----------------------------------------------

wire_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
float_arrays = st.lists(wire_floats, max_size=16).map(
    lambda values: np.asarray(values, dtype="<f8")
)
int_arrays = st.lists(
    st.integers(min_value=-(2**53), max_value=2**53), max_size=16
).map(lambda values: np.asarray(values, dtype="<i8"))
wire_arrays = float_arrays | int_arrays

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | wire_floats
    | st.text(max_size=8)
)
meta_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
envelope_values = st.recursive(
    json_scalars | wire_arrays,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(meta_keys, children, max_size=3),
    max_leaves=12,
)
envelopes = st.dictionaries(meta_keys, envelope_values, max_size=4)


def _trees_equal(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.shape == right.shape
            and np.array_equal(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _trees_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _trees_equal(a, b) for a, b in zip(left, right)
        )
    return type(left) is type(right) and left == right


class TestFrameCodecProperties:
    @settings(max_examples=50, deadline=None)
    @given(envelope=envelopes)
    def test_arbitrary_envelopes_round_trip(self, envelope):
        frame = encode_frame(envelope)
        assert isinstance(frame, bytes)
        assert frame[: len(FRAME_MAGIC)] == FRAME_MAGIC
        assert _trees_equal(decode_frame(frame), envelope)

    @settings(max_examples=50, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=5),
        features=st.integers(min_value=1, max_value=6),
        with_labels=st.booleans(),
        timesteps=st.none() | st.integers(min_value=1, max_value=9),
        sample_offset=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_request_frame_round_trip_is_lossless(
        self, batch, features, with_labels, timesteps, sample_offset, seed
    ):
        rng = np.random.default_rng(seed)
        request = InferenceRequest(
            inputs=rng.random((batch, features)),
            labels=rng.integers(0, 10, size=batch) if with_labels else None,
            timesteps=timesteps,
            sample_offset=sample_offset,
        )
        restored = InferenceRequest.from_frame(request.to_frame())
        assert restored.to_dict() == request.to_dict()
        np.testing.assert_array_equal(restored.batch, request.batch)

    @settings(max_examples=50, deadline=None)
    @given(envelope=envelopes, cut=st.integers(min_value=0, max_value=10**6))
    def test_truncated_frames_raise_value_error(self, envelope, cut):
        frame = encode_frame(envelope)
        if cut >= len(frame):
            cut = len(frame) - 1
        with pytest.raises(ValueError):
            decode_frame(frame[:cut])

    @settings(max_examples=50, deadline=None)
    @given(header=st.binary(min_size=FRAME_HEADER_SIZE, max_size=FRAME_HEADER_SIZE))
    def test_non_magic_headers_are_rejected(self, header):
        if header[: len(FRAME_MAGIC)] == FRAME_MAGIC:
            header = b"\x00" + header[1:]
        with pytest.raises(ValueError, match="magic"):
            parse_frame_header(header)

    def test_descriptor_past_payload_end_is_rejected(self):
        meta = json.dumps(
            {
                "envelope": {"x": {"__nd__": 0}},
                "arrays": [{"dtype": "<f8", "shape": [4], "offset": 0}],
            },
            separators=(",", ":"),
        ).encode()
        frame = (
            FRAME_MAGIC
            + len(meta).to_bytes(4, "little")
            + (8).to_bytes(8, "little")
            + meta
            + bytes(8)
        )
        with pytest.raises(ValueError, match="payload holds"):
            decode_frame(frame)

    def test_reserved_placeholder_key_is_rejected_on_encode(self):
        with pytest.raises(ValueError, match="reserved"):
            encode_frame({"request": {"__nd__": 3}})
