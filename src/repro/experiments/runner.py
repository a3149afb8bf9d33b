"""Experiment runner: regenerate every figure of the paper's evaluation.

``python -m repro.experiments.runner`` runs the Fig. 11-14 reproductions with
the default settings and prints the same rows/series the paper reports,
together with the published values for side-by-side comparison.  The
structured results are also returned programmatically for tests and for
EXPERIMENTS.md generation.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace

from repro.experiments.common import ExperimentSettings, WorkloadContext
from repro.experiments.fig11_comparison import Fig11Result, run_fig11
from repro.serve.distributed import split_endpoints
from repro.experiments.fig12_breakdown import Fig12Result, run_fig12
from repro.experiments.fig13_eventdriven import Fig13Result, run_fig13
from repro.experiments.fig14_precision import Fig14Result, run_fig14
from repro.utils.logging import RunLogger

__all__ = ["ExperimentSuiteResult", "run_all", "main"]


@dataclass
class ExperimentSuiteResult:
    """Structured results of the whole figure suite."""

    fig11: Fig11Result
    fig12: Fig12Result
    fig13: Fig13Result
    fig14: Fig14Result

    def render(self) -> str:
        """Render every figure's table."""
        return "\n\n".join(
            [
                self.fig11.as_table(),
                self.fig12.as_table(),
                self.fig13.as_table(),
                self.fig14.as_table(),
            ]
        )


def run_all(
    settings: ExperimentSettings | None = None,
    include_accuracy: bool = True,
    logger: RunLogger | None = None,
    validate_chip: bool = False,
) -> ExperimentSuiteResult:
    """Run the full figure suite with a shared workload cache.

    ``validate_chip`` additionally executes the MLP benchmarks on the chip
    simulator (``settings.chip_backend`` selects the structural reference or
    the vectorized fast path) and reports the measured energy in Fig. 11.
    """
    logger = logger or RunLogger(name="experiments", echo=False)
    settings = settings or ExperimentSettings()
    context = WorkloadContext(settings)

    logger.info("running Fig. 11 (energy/speedup comparison)")
    fig11 = run_fig11(context=context, validate_chip=validate_chip)
    logger.info("running Fig. 12 (energy breakdowns vs MCA size)")
    fig12 = run_fig12(context=context)
    logger.info("running Fig. 13 (event-driven savings)")
    fig13 = run_fig13(context=context)
    logger.info("running Fig. 14 (bit-discretisation)")
    fig14 = run_fig14(context=context, include_accuracy=include_accuracy)

    result = ExperimentSuiteResult(fig11=fig11, fig12=fig12, fig13=fig13, fig14=fig14)
    for line in result.render().splitlines():
        logger.result(line)
    return result


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Run the RESPARC figure reproductions")
    parser.add_argument("--quick", action="store_true", help="use the fast settings")
    parser.add_argument(
        "--no-accuracy", action="store_true", help="skip the Fig. 14(a) accuracy sweep"
    )
    parser.add_argument("--timesteps", type=int, default=None, help="override rate-coding window")
    parser.add_argument(
        "--backend",
        choices=["structural", "vectorized"],
        default=None,
        help="chip execution backend for structural cross-validation runs "
        "(implies --validate-chip)",
    )
    parser.add_argument(
        "--validate-chip",
        action="store_true",
        help="execute the MLP benchmarks on the chip simulator and report the "
        "measured energy next to the analytical model in Fig. 11",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker sessions for chip runs: > 1 shards each batch across a "
        "repro.serve.ChipPool (implies --validate-chip)",
    )
    parser.add_argument(
        "--endpoint",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="send chip runs to running chip server(s) "
        "(python -m repro.serve.distributed serve) instead of executing "
        "locally; a comma-separated list fans each batch across the servers "
        "through the async inference gateway (implies --validate-chip)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline for remote chip runs: the servers shed "
        "requests queued past it (structured 'deadline_exceeded') and the "
        "gateway stops waiting; needs --endpoint",
    )
    args = parser.parse_args(argv)
    _validate_chip_arguments(parser, args)

    settings = ExperimentSettings.quick() if args.quick else ExperimentSettings()
    if args.timesteps is not None:
        settings = replace(settings, timesteps=args.timesteps)
    if args.backend is not None:
        settings = replace(settings, chip_backend=args.backend)
    if args.jobs is not None:
        settings = replace(settings, chip_jobs=args.jobs)
    if args.endpoint is not None:
        settings = replace(settings, chip_endpoint=args.endpoint)
    if args.deadline is not None:
        settings = replace(settings, chip_deadline_s=args.deadline)
    result = run_all(
        settings=settings,
        include_accuracy=not args.no_accuracy,
        # Chip backend/jobs/endpoint choices only mean something for chip
        # runs, so each of them implies the chip cross-validation pass.
        validate_chip=args.validate_chip
        or args.backend is not None
        or args.jobs is not None
        or args.endpoint is not None,
    )
    print(result.render())
    return 0


def _validate_chip_arguments(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject inconsistent chip-run options up front, before any work runs."""
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.endpoint is not None:
        if args.jobs is not None or args.backend is not None:
            parser.error(
                "--endpoint sends chip runs to a remote server, which owns its "
                "own backend/jobs; drop --jobs/--backend"
            )
        try:
            split_endpoints(args.endpoint)
        except ValueError as exc:
            parser.error(str(exc))
    if args.deadline is not None:
        if args.deadline <= 0:
            parser.error(f"--deadline must be > 0 seconds, got {args.deadline}")
        if args.endpoint is None:
            parser.error(
                "--deadline bounds remote chip runs and needs --endpoint "
                "(local runs have no admission queue to shed from)"
            )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
