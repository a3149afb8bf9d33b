"""Fig. 11 — energy savings and performance speedup of RESPARC vs CMOS.

The paper's headline result: per-classification energy benefits and speedups
of RESPARC (64x64 MCAs, 4-bit weights) over the optimised CMOS baseline for
the six benchmarks, reported separately for CNNs (Fig. 11 a, c) and MLPs
(Fig. 11 b, d).  The paper's numbers: CNNs see 10x-15x energy benefits at
33x-95x speedup; MLPs see 331x-659x energy benefits at 360x-415x speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentSettings, WorkloadContext
from repro.workloads import list_benchmarks

__all__ = ["Fig11Row", "Fig11Result", "run_fig11", "PAPER_FIG11"]

#: Published energy-benefit / speedup values (Fig. 11), for comparison tables.
PAPER_FIG11: dict[str, dict[str, float]] = {
    "mnist-cnn": {"energy_benefit": 15.0, "speedup": 33.0},
    "svhn-cnn": {"energy_benefit": 10.0, "speedup": 52.0},
    "cifar10-cnn": {"energy_benefit": 11.0, "speedup": 95.0},
    "mnist-mlp": {"energy_benefit": 331.0, "speedup": 360.0},
    "svhn-mlp": {"energy_benefit": 659.0, "speedup": 371.0},
    "cifar10-mlp": {"energy_benefit": 549.0, "speedup": 415.0},
}


@dataclass(frozen=True)
class Fig11Row:
    """One benchmark's comparison row."""

    benchmark: str
    connectivity: str
    cmos_energy_j: float
    resparc_energy_j: float
    cmos_latency_s: float
    resparc_latency_s: float
    paper_energy_benefit: float
    paper_speedup: float
    #: Per-classification energy measured on the executed chip model (MLPs
    #: only, when chip validation is requested) and the backend that ran it.
    chip_energy_j: float | None = None
    chip_backend: str | None = None

    @property
    def energy_benefit(self) -> float:
        """Measured CMOS / RESPARC energy ratio."""
        return self.cmos_energy_j / self.resparc_energy_j

    @property
    def speedup(self) -> float:
        """Measured CMOS / RESPARC latency ratio."""
        return self.cmos_latency_s / self.resparc_latency_s


@dataclass
class Fig11Result:
    """All rows of the Fig. 11 reproduction."""

    crossbar_size: int
    rows: list[Fig11Row] = field(default_factory=list)

    def rows_for(self, connectivity: str) -> list[Fig11Row]:
        """Rows of one topology family ("MLP" or "CNN")."""
        return [r for r in self.rows if r.connectivity == connectivity.upper()]

    def mean_energy_benefit(self, connectivity: str) -> float:
        """Average energy benefit over a topology family (NaN when empty)."""
        rows = self.rows_for(connectivity)
        if not rows:
            return float("nan")
        return sum(r.energy_benefit for r in rows) / len(rows)

    def mean_speedup(self, connectivity: str) -> float:
        """Average speedup over a topology family (NaN when empty)."""
        rows = self.rows_for(connectivity)
        if not rows:
            return float("nan")
        return sum(r.speedup for r in rows) / len(rows)

    def as_table(self) -> str:
        """Render the comparison as a fixed-width table."""
        lines = [
            f"Fig. 11 reproduction (MCA size {self.crossbar_size}, 4-bit weights)",
            f"  {'benchmark':<14} {'type':<5} {'energy benefit':>15} {'paper':>8} "
            f"{'speedup':>10} {'paper':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.benchmark:<14} {row.connectivity:<5} {row.energy_benefit:>14.1f}x "
                f"{row.paper_energy_benefit:>7.0f}x {row.speedup:>9.1f}x "
                f"{row.paper_speedup:>7.0f}x"
            )
        if self.rows_for("MLP"):
            lines.append(
                f"  mean MLP: {self.mean_energy_benefit('MLP'):.0f}x energy, "
                f"{self.mean_speedup('MLP'):.0f}x speedup (paper ~513x / ~382x)"
            )
        if self.rows_for("CNN"):
            lines.append(
                f"  mean CNN: {self.mean_energy_benefit('CNN'):.0f}x energy, "
                f"{self.mean_speedup('CNN'):.0f}x speedup (paper ~12x / ~60x)"
            )
        validated = [r for r in self.rows if r.chip_energy_j is not None]
        if validated:
            lines.append("  chip cross-validation (executed chip / analytical model):")
            for row in validated:
                ratio = row.chip_energy_j / row.resparc_energy_j
                lines.append(
                    f"    {row.benchmark:<14} {row.chip_backend:<10} "
                    f"{row.chip_energy_j:>10.3e} J  ({ratio:>6.2f}x model)"
                )
        return "\n".join(lines)


def run_fig11(
    settings: ExperimentSettings | None = None,
    context: WorkloadContext | None = None,
    crossbar_size: int = 64,
    benchmarks: list[str] | None = None,
    validate_chip: bool = False,
) -> Fig11Result:
    """Reproduce Fig. 11 for the requested benchmarks (default: all six).

    With ``validate_chip`` the MLP rows are additionally executed on the
    chip simulator (backend chosen by ``settings.chip_backend``) and the
    measured per-classification energy is reported next to the analytical
    number — the cross-model check the structural hierarchy exists for.
    """
    context = context or WorkloadContext(settings or ExperimentSettings())
    names = benchmarks or [spec.name for spec in list_benchmarks()]
    result = Fig11Result(crossbar_size=crossbar_size)
    for name in names:
        workload = context.prepare(name)
        resparc = context.evaluate_resparc(workload, crossbar_size=crossbar_size)
        cmos = context.evaluate_cmos(workload)
        paper = PAPER_FIG11.get(name, {"energy_benefit": float("nan"), "speedup": float("nan")})
        chip_energy_j = None
        chip_backend = None
        if validate_chip and workload.spec.is_mlp:
            # A remote chip server answers for one workload only; restrict
            # the validation pass to the benchmark it advertises
            # (``"custom"`` servers accept anything).  Checked only when a
            # chip run is actually requested, so analytical-only runs never
            # touch the network.
            served = context.served_workload_name()
            if served in (None, "custom", name):
                chip = context.evaluate_chip(workload, crossbar_size=crossbar_size)
                samples = max(len(chip.predictions), 1)
                chip_energy_j = chip.energy.total_j / samples
                chip_backend = chip.backend
        result.rows.append(
            Fig11Row(
                benchmark=name,
                connectivity=workload.spec.connectivity,
                cmos_energy_j=cmos.energy_per_classification_j,
                resparc_energy_j=resparc.energy_per_classification_j,
                cmos_latency_s=cmos.latency_per_classification_s,
                resparc_latency_s=resparc.latency_per_classification_s,
                paper_energy_benefit=paper["energy_benefit"],
                paper_speedup=paper["speedup"],
                chip_energy_j=chip_energy_j,
                chip_backend=chip_backend,
            )
        )
    return result
