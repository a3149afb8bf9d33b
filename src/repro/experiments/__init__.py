"""Experiment drivers regenerating every table and figure of the paper.

* Fig. 8/9/10 are parameter/benchmark tables realised directly by
  :mod:`repro.core.config`, :mod:`repro.baseline.config` and
  :mod:`repro.workloads`.
* Fig. 11 — :mod:`repro.experiments.fig11_comparison`.
* Fig. 12 — :mod:`repro.experiments.fig12_breakdown`.
* Fig. 13 — :mod:`repro.experiments.fig13_eventdriven`.
* Fig. 14 — :mod:`repro.experiments.fig14_precision`.
* :mod:`repro.experiments.runner` runs them all.
"""

from repro.experiments.common import ExperimentSettings, PreparedWorkload, WorkloadContext
from repro.experiments.fig11_comparison import PAPER_FIG11, Fig11Result, Fig11Row, run_fig11
from repro.experiments.fig12_breakdown import Fig12Entry, Fig12Result, run_fig12
from repro.experiments.fig13_eventdriven import Fig13Entry, Fig13Result, run_fig13
from repro.experiments.fig14_precision import (
    AccuracyPoint,
    EnergyPoint,
    Fig14Result,
    run_fig14,
    run_fig14_accuracy,
    run_fig14_energy,
)

__all__ = [
    "ExperimentSettings",
    "PreparedWorkload",
    "WorkloadContext",
    "PAPER_FIG11",
    "Fig11Result",
    "Fig11Row",
    "run_fig11",
    "Fig12Entry",
    "Fig12Result",
    "run_fig12",
    "Fig13Entry",
    "Fig13Result",
    "run_fig13",
    "AccuracyPoint",
    "EnergyPoint",
    "Fig14Result",
    "run_fig14",
    "run_fig14_accuracy",
    "run_fig14_energy",
    "ExperimentSuiteResult",
    "run_all",
]


def __getattr__(name: str):
    # The runner is imported on first use rather than with the package, so
    # that ``python -m repro.experiments.runner`` executes a module the
    # package has not already imported.
    if name in ("ExperimentSuiteResult", "run_all"):
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
