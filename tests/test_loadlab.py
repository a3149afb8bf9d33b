"""The load lab: rank statistics against hand values, seeded determinism,
and a tiny end-to-end sweep with schema-checked persistence.

The statistics module backs cross-topology claims in the persisted perf
trajectory, so it is pinned against closed forms (``chi2_sf`` with 2 and 4
degrees of freedom has exact exponential forms) and hand-worked examples
rather than against itself.  The generator's whole point is reproducible
load, so two runs from one seed must issue byte-identical request streams.
The sweep test drives a real (tiny) topology matrix end to end and checks
the persisted document against the versioned schema.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.loadlab import (
    SCHEMA_VERSION,
    LoadSpec,
    default_workload,
    load_results,
    persist_result,
    persist_sweep,
    run_load,
    run_sweep,
)
from repro.loadlab.stats import (
    chi2_sf,
    holm_bonferroni,
    kruskal_wallis,
    mann_whitney_u,
    normal_sf,
    rankdata,
    spearman,
)


class TestRankStats:
    def test_rankdata_handles_ties(self):
        assert rankdata([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
        assert rankdata([5.0, 1.0, 3.0]).tolist() == [3.0, 1.0, 2.0]
        assert rankdata([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]

    def test_normal_sf_known_points(self):
        assert normal_sf(0.0) == pytest.approx(0.5)
        assert normal_sf(1.959963985) == pytest.approx(0.025, abs=1e-6)

    def test_chi2_sf_matches_closed_forms(self):
        # df=2: sf(x) = exp(-x/2); df=4: sf(x) = exp(-x/2) * (1 + x/2).
        for x in (0.5, 1.0, 3.7, 10.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
            assert chi2_sf(x, 4) == pytest.approx(
                math.exp(-x / 2) * (1 + x / 2), rel=1e-9
            )

    def test_mann_whitney_separated_samples(self):
        low = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        high = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        result = mann_whitney_u(high, low)
        assert result["u"] == 36.0  # every high beats every low
        assert result["effect"] == 1.0
        assert result["p"] < 0.01
        # Symmetric call flips the effect, keeps the p-value.
        flipped = mann_whitney_u(low, high)
        assert flipped["effect"] == 0.0
        assert flipped["p"] == pytest.approx(result["p"])

    def test_mann_whitney_identical_samples(self):
        result = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert result["p"] == 1.0
        assert result["effect"] == 0.5

    def test_kruskal_wallis_hand_example(self):
        groups = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        result = kruskal_wallis(groups)
        # No ties, fully separated ranks: H = 12/(9*10) * (6^2+15^2+24^2)/3 - 3*10.
        expected_h = 12.0 / 90.0 * (36 + 225 + 576) / 3.0 - 30.0
        assert result["h"] == pytest.approx(expected_h, rel=1e-12)
        assert result["df"] == 2.0
        assert result["p"] == pytest.approx(chi2_sf(expected_h, 2), rel=1e-12)

    def test_holm_correction_hand_example(self):
        # Sorted p: 0.01, 0.03, 0.04 -> multipliers 3, 2, 1 with running max.
        assert holm_bonferroni([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06]
        )
        assert holm_bonferroni([]) == []

    def test_spearman_monotone_and_antitone(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        up = spearman(x, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        assert up["rho"] == pytest.approx(1.0)
        down = spearman(x, [60.0, 50.0, 40.0, 30.0, 20.0, 10.0])
        assert down["rho"] == pytest.approx(-1.0)
        assert 0.0 <= up["p"] <= 1.0

    def test_spearman_constant_input(self):
        result = spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert result["rho"] == 0.0
        assert result["p"] == 1.0


class _RecordingTarget:
    """Stub submit() that records every request's inputs."""

    def __init__(self):
        self.lock = threading.Lock()
        self.seen: list[tuple[int, bytes]] = []

    def submit(self, request):
        with self.lock:
            self.seen.append((len(self.seen), request.inputs.tobytes()))

        class _Response:
            metadata = {}
            energy = None
            batch_size = request.inputs.shape[0]

        return _Response()


class TestGeneratorDeterminism:
    def _drive(self, spec: LoadSpec) -> list[bytes]:
        workload = default_workload(samples=16, timesteps=2)
        target = _RecordingTarget()

        def make_request(index, rng):
            return workload.make_request(index, rng, spec.batch_size)

        outcomes, wall = run_load(target.submit, make_request, spec)
        assert len(outcomes) == spec.requests
        assert wall > 0.0
        assert all(o.ok for o in outcomes)
        return sorted(payload for _, payload in target.seen)

    def test_closed_loop_streams_identical_across_runs(self):
        spec = LoadSpec(mode="closed", concurrency=2, requests=6, warmup=1, seed=11)
        assert self._drive(spec) == self._drive(spec)

    def test_open_loop_streams_identical_across_runs(self):
        spec = LoadSpec(
            mode="open", rate=200.0, requests=6, warmup=1, seed=11
        )
        assert self._drive(spec) == self._drive(spec)

    def test_different_seeds_differ(self):
        base = LoadSpec(mode="closed", concurrency=1, requests=6, seed=1)
        other = LoadSpec(mode="closed", concurrency=1, requests=6, seed=2)
        assert self._drive(base) != self._drive(other)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(mode="open", rate=None)
        with pytest.raises(ValueError):
            LoadSpec(mode="sideways")
        with pytest.raises(ValueError):
            LoadSpec(requests=0)


class TestSweepEndToEnd:
    def test_tiny_sweep_persists_versioned_schema(self, tmp_path):
        workload = default_workload(samples=16, timesteps=2)
        loads = [
            LoadSpec(mode="closed", concurrency=1, requests=4, warmup=1, batch_size=2),
            LoadSpec(mode="closed", concurrency=2, requests=4, warmup=1, batch_size=2),
        ]
        result = run_sweep(["session", "pool"], loads, workload=workload)
        assert len(result["cells"]) == 4
        for cell in result["cells"]:
            assert cell["served"] == 4
            assert cell["shed"] == 0
            assert cell["throughput_rps"] > 0
            assert cell["latency_s"]["p50"] <= cell["latency_s"]["p95"]
            assert cell["energy_j_per_request"] > 0
        # Two topologies per load row -> one omnibus + one pairwise contrast.
        assert len(result["contrasts"]) == 2
        for block in result["contrasts"]:
            assert 0.0 <= block["kruskal_wallis"]["p"] <= 1.0
            assert len(block["pairwise"]) == 1
            assert 0.0 <= block["pairwise"][0]["p_holm"] <= 1.0

        path = tmp_path / "loadlab.json"
        persist_sweep(result, path)
        persist_sweep(result, path)  # trajectory appends, never clobbers
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert len(document["runs"]) == 2
        assert document["runs"][0]["kind"] == "sweep"
        assert document["runs"][0]["cells"] == result["cells"]

    def test_persist_result_sections_merge(self, tmp_path):
        path = tmp_path / "doc.json"
        persist_result(path, "alpha", {"x": 1})
        persist_result(path, "beta", {"y": 2})
        document = load_results(path)
        assert document["alpha"] == {"x": 1}
        assert document["beta"] == {"y": 2}
        assert document["schema_version"] == SCHEMA_VERSION
        # Corrupt files are replaced, not fatal.
        path.write_text("{not json")
        persist_result(path, "gamma", [3])
        assert load_results(path)["gamma"] == [3]
