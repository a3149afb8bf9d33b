"""Checking the answers, outside the timed window.

Three checks, each turning a mismatch into a failed request:

* **well-formed**: the response covers the request (one prediction and one
  spike-count row per sample, positive finite energy);
* **repeatable**: every answer to the same pool request equals the first
  one — predictions, spike counts and integer event counters exactly, the
  floating-point energies to 1e-9 (shard placement changes their summation
  order);
* **independent**: a seeded sample of rows is re-run on the structural
  backend, which executes the chip through its component tree rather than
  the fused kernel being measured, and must match it bit for bit.  For a
  one-sample request the whole response is compared, counters and energy
  included.

The structural backend costs seconds per sample at full size, so the row
sample is bounded by a budget in sample-timesteps.
"""

from __future__ import annotations

import math

import numpy as np

from shapes import MODEL_SEED, Workload

#: Relative tolerance on floating-point energies (the parity suite's).
ENERGY_RTOL = 1e-9

#: Counters that are floating-point sums rather than event counts; the
#: two row-read totals are charged by the structural model only.
_INEXACT_COUNTERS = {"crossbar_device_energy_j"}
_STRUCTURAL_ONLY = {"crossbar_active_row_reads", "crossbar_column_senses"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ENERGY_RTOL, abs_tol=1e-30)


def compare_counts(expected, actual, *, oracle: bool = False) -> str | None:
    """First difference in counters and energy between two responses."""
    skip = _STRUCTURAL_ONLY if oracle else set()
    want = expected.counters.as_dict()
    got = actual.counters.as_dict()
    for name, value in want.items():
        if name in skip:
            continue
        same = _close(value, got[name]) if name in _INEXACT_COUNTERS else value == got[name]
        if not same:
            return f"counter {name}: {got[name]!r} != {value!r}"
    for name, value in expected.energy.components.items():
        if not _close(value, actual.energy.components.get(name, math.nan)):
            return f"energy {name}: {actual.energy.components.get(name)!r} != {value!r}"
    return None


def compare_answers(expected, actual) -> str | None:
    """First difference between two answers to the same request."""
    if not np.array_equal(expected.predictions, actual.predictions):
        return "predictions differ"
    if not np.array_equal(expected.spike_counts, actual.spike_counts):
        return "spike counts differ"
    return compare_counts(expected, actual)


def well_formed(entry, response, classes: int) -> str | None:
    batch = entry.batch
    if response.batch_size != batch or response.predictions.shape != (batch,):
        return f"predictions shape {response.predictions.shape} for batch {batch}"
    if response.spike_counts.shape != (batch, classes):
        return f"spike counts shape {response.spike_counts.shape}"
    if response.timesteps != entry.timesteps:
        return f"ran {response.timesteps} timesteps, asked {entry.timesteps}"
    total = response.energy.total_j
    if not (math.isfinite(total) and total > 0):
        return f"energy {total!r}"
    return None


def first_answers(records) -> dict[int, object]:
    """The first successful record of every pool entry (by send order)."""
    first: dict[int, object] = {}
    for record in records:
        if record.response is not None and record.error is None:
            first.setdefault(record.entry.index, record)
    return first


def check_records(records, classes: int) -> None:
    """Well-formedness and repeatability; marks ``record.wrong``."""
    first = first_answers(records)
    for record in records:
        if record.response is None or record.error is not None:
            continue
        problem = well_formed(record.entry, record.response, classes)
        reference = first[record.entry.index]
        if problem is None and reference is not record:
            problem = compare_answers(reference.response, record.response)
        if problem is not None:
            record.wrong = problem


class StructuralOracle:
    """The served network on the structural backend, built like a server's."""

    def __init__(self, workload: Workload):
        from repro.serve.distributed.server import load_benchmark_workload
        from repro.serve.session import ChipSession

        served = load_benchmark_workload(
            workload.model, scale=workload.scale, seed=MODEL_SEED
        )
        self.session = ChipSession(
            served.snn,
            config=workload.config,
            timesteps=workload.default_timesteps,
            encoder="poisson",
            seed=MODEL_SEED,
            backend="structural",
        )
        self.classes = self.session.chip.output_dim

    def check_row(self, entry, response, row: int) -> str | None:
        from repro.serve.schema import InferenceRequest

        request = entry.request
        truth = self.session.infer(
            InferenceRequest(
                inputs=request.batch[row : row + 1],
                timesteps=request.timesteps,
                sample_offset=request.sample_offset + row,
            )
        )
        if truth.predictions[0] != response.predictions[row]:
            return f"row {row}: prediction {response.predictions[row]} != {truth.predictions[0]}"
        if not np.array_equal(truth.spike_counts[0], response.spike_counts[row]):
            return f"row {row}: spike counts differ from the structural backend"
        if entry.batch == 1:
            return compare_counts(truth, response, oracle=True)
        return None


def sample_rng(seed: int) -> np.random.Generator:
    """The row sample's generator: its first draw orders the pool entries."""
    return np.random.default_rng([seed, 3])


def oracle_check(oracle: StructuralOracle, records, workload: Workload,
                 seed: int) -> int:
    """Re-run a seeded sample of rows; returns how many rows were checked.

    A mismatch marks every record of that pool entry whose answer equals
    the checked one (all of them, once repeatability held).
    """
    first = first_answers(records)
    rng = sample_rng(seed)
    budget = workload.oracle_steps
    checked = 0
    for index in rng.permutation(sorted(first)):
        record = first[int(index)]
        entry = record.entry
        if checked and entry.timesteps > budget:
            continue
        budget -= entry.timesteps
        problem = oracle.check_row(entry, record.response, int(rng.integers(entry.batch)))
        checked += 1
        if problem is not None:
            for other in records:
                if other.entry.index == entry.index and other.wrong is None:
                    other.wrong = f"structural check: {problem}"
        if budget <= 0:
            break
    return checked
