"""CLI for the load lab: ``python -m repro.loadlab sweep``.

Examples
--------
A quick 2×2 micro-sweep (the CI smoke configuration)::

    python -m repro.loadlab sweep --topologies session server \\
        --closed 1 2 --requests 8 --warmup 1 --batch 4

A fuller matrix with open-loop profiles::

    python -m repro.loadlab sweep --topologies session pool server gateway \\
        --closed 1 4 --open 5 20 --requests 32 --output /tmp/loadlab.json

Every sweep appends one run record to the versioned trajectory document
(default ``benchmarks/results/loadlab.json``; override with ``--output``
or ``BENCH_RESULTS_DIR``) and prints a per-cell summary table plus the
rank-based topology contrasts.

``python -m repro.loadlab compare`` then diffs the two newest runs in
that trajectory on matching topology × load cells (throughput, p95 queue
wait, energy per request, and a Mann-Whitney test over the stored latency
samples) — a soft regression gate that prints warnings but always exits
0, for wiring after the sweep in CI.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.loadlab import compare as compare_module
from repro.loadlab.generator import LoadSpec
from repro.loadlab.sweep import persist_sweep, run_sweep
from repro.loadlab.topologies import TOPOLOGIES, default_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadlab",
        description="Statistical load lab for the serving stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a topology × load matrix")
    sweep.add_argument(
        "--topologies",
        nargs="+",
        default=["session", "server"],
        choices=sorted(TOPOLOGIES),
        help="serving topologies to compare",
    )
    sweep.add_argument(
        "--closed",
        nargs="*",
        type=int,
        default=[1, 2],
        metavar="WORKERS",
        help="closed-loop profiles, one per worker count",
    )
    sweep.add_argument(
        "--open",
        nargs="*",
        type=float,
        default=[],
        metavar="RPS",
        help="open-loop profiles, one per target request rate",
    )
    sweep.add_argument("--requests", type=int, default=16, help="measured requests per cell")
    sweep.add_argument("--warmup", type=int, default=2, help="unmeasured warmup requests")
    sweep.add_argument("--batch", type=int, default=4, help="samples per request")
    sweep.add_argument("--seed", type=int, default=0, help="load generator seed")
    sweep.add_argument(
        "--timesteps", type=int, default=4, help="simulation timesteps per request"
    )
    sweep.add_argument(
        "--output",
        default=None,
        help="trajectory JSON path (default benchmarks/results/loadlab.json)",
    )
    sweep.add_argument(
        "--json", action="store_true", help="print the full result record as JSON"
    )

    compare = sub.add_parser(
        "compare",
        help="diff the two newest sweep runs; warn on regressions, exit 0",
    )
    compare.add_argument(
        "--input",
        default=None,
        help="trajectory JSON path (default benchmarks/results/loadlab.json)",
    )
    compare.add_argument(
        "--baseline-runs",
        type=int,
        default=1,
        metavar="N",
        help="compare against the median of the previous N runs (1 = just "
        "the previous run); robust to one noisy historical run",
    )
    compare.add_argument(
        "--throughput-drop",
        type=float,
        default=compare_module.THROUGHPUT_DROP,
        metavar="FRACTION",
        help="served-throughput drop that triggers a warning",
    )
    compare.add_argument(
        "--p95-rise",
        type=float,
        default=compare_module.P95_RISE,
        metavar="FRACTION",
        help="p95 queue-wait rise that triggers a warning",
    )
    compare.add_argument(
        "--p95-floor",
        type=float,
        default=compare_module.P95_FLOOR_S,
        metavar="SECONDS",
        help="absolute p95 rise below which a rise is jitter, not regression",
    )
    compare.add_argument(
        "--energy-rise",
        type=float,
        default=compare_module.ENERGY_RISE,
        metavar="FRACTION",
        help="energy-per-request rise that triggers a warning",
    )
    compare.add_argument(
        "--alpha",
        type=float,
        default=compare_module.ALPHA,
        metavar="P",
        help="significance level for the latency-distribution test",
    )
    compare.add_argument(
        "--json", action="store_true", help="print the full comparison as JSON"
    )
    return parser


def _loads(args: argparse.Namespace) -> list[LoadSpec]:
    loads = [
        LoadSpec(
            mode="closed",
            concurrency=workers,
            requests=args.requests,
            warmup=args.warmup,
            batch_size=args.batch,
            seed=args.seed,
        )
        for workers in args.closed
    ]
    loads.extend(
        LoadSpec(
            mode="open",
            rate=rate,
            requests=args.requests,
            warmup=args.warmup,
            batch_size=args.batch,
            seed=args.seed,
        )
        for rate in args.open
    )
    if not loads:
        raise SystemExit("no load profiles: pass --closed and/or --open values")
    return loads


def _print_cells(cells: list[dict]) -> None:
    header = (
        f"{'topology':<10} {'load':<14} {'served':>6} {'shed%':>6} "
        f"{'rps':>8} {'p50 ms':>8} {'p95 ms':>8} {'qwait p95 ms':>12} {'uJ/req':>8}"
    )
    print(header)
    print("-" * len(header))
    for cell in cells:
        latency = cell["latency_s"] or {}
        qwait = cell["queue_wait_s"] or {}
        energy = cell["energy_j_per_request"]
        print(
            f"{cell['topology']:<10} {cell['load']:<14} {cell['served']:>6} "
            f"{100 * cell['shed_rate']:>5.1f}% {cell['throughput_rps']:>8.2f} "
            f"{1e3 * latency.get('p50', float('nan')):>8.2f} "
            f"{1e3 * latency.get('p95', float('nan')):>8.2f} "
            f"{1e3 * qwait.get('p95', float('nan')):>12.2f} "
            f"{1e6 * energy if energy is not None else float('nan'):>8.3f}"
        )


def _print_contrasts(result: dict) -> None:
    for block in result["contrasts"]:
        omnibus = block["kruskal_wallis"]
        print(
            f"\n{block['load']}: Kruskal-Wallis H={omnibus['h']:.3f} "
            f"p={omnibus['p']:.4f} (df={omnibus['df']:.0f})"
        )
        for pair in block["pairwise"]:
            print(
                f"  {pair['a']} vs {pair['b']}: U={pair['u']:.1f} "
                f"effect={pair['effect']:.3f} p={pair['p']:.4f} "
                f"holm={pair['p_holm']:.4f}"
            )
    corr = result["throughput_energy_spearman"]
    if corr is not None:
        print(
            f"\nthroughput vs energy/request: Spearman rho={corr['rho']:.3f} "
            f"p={corr['p']:.4f} over {corr['cells']} cells"
        )


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_module.compare_latest_runs(
        args.input,
        baseline_runs=args.baseline_runs,
        throughput_drop=args.throughput_drop,
        p95_rise=args.p95_rise,
        p95_floor_s=args.p95_floor,
        energy_rise=args.energy_rise,
        alpha=args.alpha,
    )
    if report is None:
        return 0
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(compare_module.render_comparison(report))
    # Soft gate by design: warnings inform, the trajectory is the record.
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    loads = _loads(args)
    workload = default_workload(timesteps=args.timesteps)
    result = run_sweep(
        args.topologies,
        loads,
        workload=workload,
        progress=lambda message: print(f"[loadlab] {message}", flush=True),
    )
    path = persist_sweep(result, args.output)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print_cells(result["cells"])
        _print_contrasts(result)
    print(f"\n[loadlab] appended run to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
