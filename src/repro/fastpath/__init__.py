"""The vectorized fast path of the structural chip model.

The structural model (:mod:`repro.core.resparc`) executes one sample at a
time through Python objects — maximal fidelity, minimal throughput.  This
package compiles a programmed chip into dense arrays
(:func:`~repro.fastpath.compiler.compile_chip`), storing each layer as the
chip's crossbar grid of row blocks × column blocks
(:class:`~repro.fastpath.compiler.FusedLayer`) — a hidden layer as float32
signed conductance levels, the output layer as float64 conductances — and
replays whole batches of 0/1 spike trains, one ``bool`` byte per spike,
through NumPy (:class:`~repro.fastpath.engine.VectorizedChipEngine`):
layer-major over chunks of timesteps, one float32 GEMM per hidden layer on
its unpadded operands, an exact integer sum, and one float64 GEMM per
crossbar row block of the output layer.  Work buffers live in the engine's
one :class:`~repro.fastpath.plan.KernelArena`,
shared by every execution shape; a :class:`~repro.fastpath.plan.KernelPlan`
keeps one shape's membranes and spike counts, cached per execution shape by
:class:`~repro.fastpath.plan.PlanCache`.

Predictions, spike counts and every :class:`~repro.core.stats.EventCounters`
integer equal the structural execution's; energy totals agree within 1e-9
relative.  Hidden-layer drives may differ in the last bits; the output
layer, whose membrane breaks prediction ties, keeps the structural float64
summation order, and the IF replay and the event counts are exact.  Chips
with analog non-idealities or conductances off the device's level grid,
and analog spike trains, run through the structural backend only.  Select
the backend with ``ChipSession(backend="vectorized")`` (:mod:`repro.serve`);
``tests/test_backend_parity.py`` is the contract that keeps the two
backends equivalent, and ``tests/test_kernel_fused.py`` holds the kernel to
the per-tile reference loop.
"""

from repro.fastpath.compiler import (
    CompiledChip,
    CompiledLayer,
    CompiledTile,
    FusedLayer,
    StaticStepEvents,
    compile_chip,
)
from repro.fastpath.engine import BatchRunOutcome, VectorizedChipEngine
from repro.fastpath.plan import ChunkCountScratch, KernelPlan, PlanCache

__all__ = [
    "CompiledChip",
    "CompiledLayer",
    "CompiledTile",
    "FusedLayer",
    "StaticStepEvents",
    "compile_chip",
    "BatchRunOutcome",
    "VectorizedChipEngine",
    "ChunkCountScratch",
    "KernelPlan",
    "PlanCache",
]
