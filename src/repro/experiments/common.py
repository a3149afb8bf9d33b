"""Shared infrastructure for the figure-reproduction experiments.

Every experiment needs the same pipeline: build a benchmark network,
generate its synthetic dataset, (optionally) train it, convert it to a
spiking network, run the functional simulator to obtain the activity trace,
and then evaluate RESPARC and the CMOS baseline on that trace.
:class:`WorkloadContext` performs and caches that pipeline so the per-figure
drivers stay small, and :class:`ExperimentSettings` centralises the knobs
that trade fidelity for runtime (timesteps, samples, training epochs,
network scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baseline import BaselineConfig, BaselineEvaluation, CmosBaselineModel
from repro.core import (
    CHIP_BACKENDS,
    ArchitectureConfig,
    ChipRunResult,
    ResparcEvaluation,
    ResparcModel,
)
from repro.datasets import SyntheticDataset, make_dataset
from repro.mapping import MappedNetwork, map_network
from repro.serve import ChipPool, ChipSession, InferenceRequest
from repro.snn import (
    ActivityTrace,
    ConversionSpec,
    Network,
    SpikingNetwork,
    SpikingSimulator,
    Trainer,
    convert_to_snn,
)
from repro.utils.rng import derive_rng, stable_seed
from repro.workloads import BenchmarkSpec, get_benchmark

__all__ = ["ExperimentSettings", "WorkloadContext", "PreparedWorkload"]

#: Per-request deadline for remote chip runs: a wedged server (accepts the
#: connection but never answers) must fail the run, not hang it forever.
#: Matches the ``PipelinedSession`` establishment-timeout default.
REMOTE_DEADLINE_S = 120.0


@dataclass(frozen=True)
class ExperimentSettings:
    """Runtime/fidelity knobs shared by all experiments.

    The defaults are sized so the full figure suite runs in minutes on a
    laptop; ``quick()`` returns a reduced configuration used by the pytest
    benchmarks and smoke tests.
    """

    timesteps: int = 16
    eval_samples: int = 4
    train_samples: int = 128
    test_samples: int = 32
    train_epochs: int = 0
    network_scale: float = 1.0
    seed: int = 7
    #: Chip execution backend used by structural cross-validation runs
    #: ("structural" or "vectorized"; see :mod:`repro.fastpath`).
    chip_backend: str = "vectorized"
    #: Worker sessions for chip runs: 1 runs a single legacy-seeded session,
    #: > 1 shards each batch across a :class:`repro.serve.ChipPool`.
    chip_jobs: int = 1
    #: Optional running chip server(s): one ``host:port`` or a
    #: comma-separated list of them.  When set, chip runs are sent to those
    #: servers instead of executing locally — several endpoints fan each
    #: batch out through the async :class:`repro.serve.InferenceGateway`
    #: (every server must serve the same workload/settings for the results
    #: to be comparable).
    chip_endpoint: str | None = None
    #: Per-request deadline (seconds) for remote chip runs.  Propagated to
    #: the servers' admission control (a request queued longer is shed with
    #: a structured ``deadline_exceeded`` error) and used as the gateway
    #: result timeout.  ``None`` falls back to :data:`REMOTE_DEADLINE_S`.
    #: Only meaningful with ``chip_endpoint``.
    chip_deadline_s: float | None = None

    def __post_init__(self) -> None:
        from repro.serve.distributed import split_endpoints

        if self.chip_backend not in CHIP_BACKENDS:
            raise ValueError(
                f"chip_backend must be one of {CHIP_BACKENDS}, got {self.chip_backend!r}"
            )
        if self.chip_jobs < 1:
            raise ValueError(f"chip_jobs must be >= 1, got {self.chip_jobs}")
        if self.chip_deadline_s is not None and self.chip_deadline_s <= 0:
            raise ValueError(
                f"chip_deadline_s must be > 0 seconds, got {self.chip_deadline_s}"
            )
        if self.chip_endpoint is not None:
            split_endpoints(self.chip_endpoint)  # raises with an actionable message

    @staticmethod
    def quick() -> "ExperimentSettings":
        """A fast configuration for benchmarks and smoke tests."""
        return ExperimentSettings(
            timesteps=8,
            eval_samples=2,
            train_samples=32,
            test_samples=16,
            train_epochs=0,
            network_scale=1.0,
            seed=7,
        )


@dataclass
class PreparedWorkload:
    """A benchmark network prepared for architecture evaluation."""

    spec: BenchmarkSpec
    network: Network
    snn: SpikingNetwork
    dataset: SyntheticDataset
    trace: ActivityTrace
    accuracy: float | None

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.spec.name


@dataclass
class WorkloadContext:
    """Builds and caches prepared workloads and architecture evaluations."""

    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    _workloads: dict[tuple[str, int], PreparedWorkload] = field(default_factory=dict, repr=False)
    _served_workload: str | None = field(default=None, repr=False)

    # -- workload preparation -----------------------------------------------------

    def _inputs_for(self, spec: BenchmarkSpec, dataset: SyntheticDataset, split: str) -> np.ndarray:
        images = dataset.train_images if split == "train" else dataset.test_images
        if spec.is_mlp:
            return images.reshape(images.shape[0], -1)
        return images

    def prepare(
        self,
        benchmark: str,
        train_epochs: int | None = None,
        weight_bits: int | None = None,
    ) -> PreparedWorkload:
        """Prepare one benchmark: build, (train), convert and trace it.

        Results are cached per (benchmark, epochs); quantisation is applied
        downstream by the precision study rather than here.
        """
        s = self.settings
        epochs = s.train_epochs if train_epochs is None else train_epochs
        cache_key = (benchmark, epochs)
        if cache_key in self._workloads:
            return self._workloads[cache_key]

        spec = get_benchmark(benchmark)
        network = spec.build(scale=s.network_scale, seed=s.seed)
        dataset = make_dataset(
            spec.dataset,
            train_samples=s.train_samples,
            test_samples=s.test_samples,
            seed=s.seed,
        )
        train_inputs = self._inputs_for(spec, dataset, "train")
        test_inputs = self._inputs_for(spec, dataset, "test")

        if epochs > 0:
            trainer = Trainer(
                learning_rate=0.003,
                optimizer="adam",
                batch_size=32,
                rng=derive_rng(s.seed, "trainer", benchmark),
            )
            trainer.fit(network, train_inputs, dataset.train_labels, epochs=epochs)

        snn = convert_to_snn(network, train_inputs[: min(32, len(train_inputs))], ConversionSpec())
        simulator = SpikingSimulator(
            timesteps=s.timesteps,
            encoder="poisson",
            rng=derive_rng(s.seed, "sim", benchmark),
        )
        result = simulator.run(
            snn,
            test_inputs[: s.eval_samples],
            dataset.test_labels[: s.eval_samples],
        )
        prepared = PreparedWorkload(
            spec=spec,
            network=network,
            snn=snn,
            dataset=dataset,
            trace=result.trace,
            accuracy=result.accuracy,
        )
        self._workloads[cache_key] = prepared
        return prepared

    # -- remote serving -----------------------------------------------------------

    def served_workload_name(self) -> str | None:
        """Workload advertised by the ``chip_endpoint`` server (None when unset).

        Cached after the first lookup.  Experiments use this to send only
        the matching benchmark's chip runs to the server — a single-workload
        server cannot answer for the other benchmarks.  Servers advertising
        the generic ``"custom"`` name accept any workload (the operator
        vouches for the match).
        """
        if self.settings.chip_endpoint is None:
            return None
        if self._served_workload is None:
            from repro.serve.distributed import PipelinedSession, split_endpoints

            first = split_endpoints(self.settings.chip_endpoint)[0]
            deadline_s = self._remote_deadline_s()
            with PipelinedSession.connect(first, timeout=deadline_s) as remote:
                info = remote.info(timeout=deadline_s)
                self._served_workload = str(info.get("workload", "custom"))
        return self._served_workload

    def _remote_deadline_s(self) -> float:
        """Bound on every remote wait: ``chip_deadline_s`` or the default."""
        if self.settings.chip_deadline_s is not None:
            return self.settings.chip_deadline_s
        return REMOTE_DEADLINE_S

    # -- architecture evaluations -----------------------------------------------------

    def map(self, workload: PreparedWorkload, crossbar_size: int) -> MappedNetwork:
        """Map a prepared workload at the given MCA size."""
        return map_network(workload.network, crossbar_size=crossbar_size)

    def evaluate_resparc(
        self,
        workload: PreparedWorkload,
        crossbar_size: int = 64,
        event_driven: bool = True,
        weight_bits: int = 4,
    ) -> ResparcEvaluation:
        """Evaluate one classification of a workload on RESPARC."""
        config = (
            ArchitectureConfig()
            .with_crossbar_size(crossbar_size)
            .with_event_driven(event_driven)
            .with_weight_bits(weight_bits)
        )
        model = ResparcModel(config=config)
        return model.evaluate(model.map(workload.network), workload.trace)

    def evaluate_chip(
        self,
        workload: PreparedWorkload,
        crossbar_size: int = 64,
        event_driven: bool = True,
        backend: str | None = None,
        samples: int | None = None,
        jobs: int | None = None,
        endpoint: str | None = None,
    ) -> ChipRunResult:
        """Run a workload through the serve-layer chip sessions.

        This is the experiment-level entry to the cycle-exact chip model: it
        executes the converted SNN through a :class:`repro.serve.ChipSession`
        (or, with ``jobs > 1``, shards the batch across the worker threads
        of a :class:`repro.serve.ChipPool`) and returns measured
        counters/energy, which cross-validates the analytical activity-based
        evaluation.  Only MLP workloads are executable on the structural
        chip.

        ``backend`` defaults to ``settings.chip_backend``, ``jobs`` to
        ``settings.chip_jobs`` and ``endpoint`` to ``settings.chip_endpoint``.
        The single-session path encodes from the legacy derived-RNG stream
        (bit-identical to earlier releases); the pool path uses the
        shard-stable :class:`repro.snn.EncoderState` seeding, whose Poisson
        draws differ from the legacy stream but are identical for every
        ``jobs`` count.

        With an ``endpoint`` (one ``"host:port"`` or a comma-separated list),
        the request is routed through pipelined remote sessions and the
        async :class:`~repro.serve.InferenceGateway` to running chip servers
        instead of executing locally — multiple endpoints split each batch
        capacity-weighted so network and compute overlap.  The servers
        decide backend/jobs/seeding, so ``crossbar_size``/``backend``/
        ``jobs`` do not apply, and results match local runs only if every
        server serves the same workload with the same settings.
        """
        if not workload.spec.is_mlp:
            raise ValueError(
                f"{workload.name} is not an MLP; the chip simulator executes "
                "fully connected networks only"
            )
        s = self.settings
        n = s.eval_samples if samples is None else samples
        inputs = self._inputs_for(workload.spec, workload.dataset, "test")[:n]
        labels = workload.dataset.test_labels[:n]
        request = InferenceRequest(inputs=inputs, labels=labels)
        endpoint = s.chip_endpoint if endpoint is None else endpoint
        if endpoint is not None:
            return self._evaluate_remote(workload, request, endpoint)
        config = ArchitectureConfig().with_crossbar_size(crossbar_size).with_event_driven(
            event_driven
        )
        jobs = s.chip_jobs if jobs is None else jobs
        if jobs > 1:
            with ChipPool(
                workload.snn,
                jobs=jobs,
                config=config,
                timesteps=s.timesteps,
                encoder="poisson",
                backend=backend or s.chip_backend,
                seed=stable_seed(s.seed, "chip", workload.name),
            ) as pool:
                return pool.infer(request).as_run_result()
        session = ChipSession(
            workload.snn,
            config=config,
            timesteps=s.timesteps,
            encoder="poisson",
            backend=backend or s.chip_backend,
            rng=derive_rng(s.seed, "chip", workload.name),
        )
        return session.infer(request).as_run_result()

    def _evaluate_remote(
        self, workload: PreparedWorkload, request: InferenceRequest, endpoint: str
    ) -> ChipRunResult:
        """Send one chip run to remote server(s) through the async gateway.

        Workload mismatches fail before any batch is sent, naming both
        sides; servers advertising the generic ``"custom"`` workload accept
        anything (the operator vouches for the match).
        """
        from repro.serve.distributed import (
            GatewayEndpoint,
            InferenceGateway,
            PipelinedSession,
            split_endpoints,
        )

        endpoints = split_endpoints(endpoint)
        deadline_s = self._remote_deadline_s()
        remotes: list[PipelinedSession] = []
        gateway: InferenceGateway | None = None
        try:
            for part in endpoints:
                # The deadline bounds establishment and the info round trip
                # too: a wedged server (accepts, never answers) must fail
                # the run within the deadline.
                remote = PipelinedSession.connect(part, timeout=deadline_s)
                remotes.append(remote)
                served = str(
                    remote.info(timeout=deadline_s).get("workload", "custom")
                )
                if served not in ("custom", workload.name):
                    raise ValueError(
                        f"chip server at {part} serves {served!r}, not "
                        f"{workload.name!r}; start a matching server "
                        f"(python -m repro.serve.distributed serve --workload "
                        f"{workload.name}) or drop the endpoint"
                    )
            gateway = InferenceGateway(
                [
                    GatewayEndpoint(target=remote, name=part)
                    for remote, part in zip(remotes, endpoints)
                ]
            )
            # The deadline guards both ends: the servers' admission control
            # sheds the request if it queues past the deadline, and the
            # result timeout bounds the wait on a wedged server.
            return (
                gateway.submit(request, deadline_s=deadline_s)
                .result(deadline_s)
                .as_run_result()
            )
        finally:
            # Close the sessions FIRST: that fails any still-pending shard
            # futures and unblocks the gateway's worker threads, so the
            # gateway close (which joins them) cannot hang on a wedged
            # server that already blew the deadline above.
            for remote in remotes:
                remote.close()
            if gateway is not None:
                gateway.close()

    def evaluate_cmos(
        self,
        workload: PreparedWorkload,
        weight_bits: int = 4,
        event_driven: bool = True,
    ) -> BaselineEvaluation:
        """Evaluate one classification of a workload on the CMOS baseline."""
        config = BaselineConfig(event_driven=event_driven).with_weight_bits(weight_bits)
        return CmosBaselineModel(config=config).evaluate(workload.network, workload.trace)
