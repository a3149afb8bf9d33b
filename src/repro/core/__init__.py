"""The RESPARC architecture — the paper's primary contribution.

Two complementary models are provided:

* an **analytical activity-based model** (:class:`~repro.core.model.ResparcModel`)
  that evaluates any mapped network (MLP or CNN) from its spike-activity
  trace — this is what regenerates the paper's figures; and
* a **structural model** (:class:`~repro.core.resparc.ResparcChip`, run by a
  :class:`repro.serve.ChipSession`) that instantiates the actual hierarchy —
  MCAs inside mPEs inside NeuroCells around a shared bus — and executes MLP
  spiking networks through it, cross-validating the analytical event
  accounting.
"""

from repro.core.buffers import SpikeBuffer, SpikePacket, TargetBuffer
from repro.core.config import ArchitectureConfig
from repro.core.control import CurrentControlUnit, GlobalControlUnit, LocalControlUnit
from repro.core.interconnect import GlobalIOBus, InputMemory
from repro.core.model import ResparcEvaluation, ResparcModel
from repro.core.mpe import MacroProcessingEngine, TileAssignment
from repro.core.neurocell import NeuroCell
from repro.core.resparc import ProgrammedTile, ResparcChip
from repro.core.stats import EventCounters, counters_to_energy
from repro.core.switch import ProgrammableSwitch, SwitchPort

__all__ = [
    "SpikeBuffer",
    "SpikePacket",
    "TargetBuffer",
    "ArchitectureConfig",
    "CurrentControlUnit",
    "GlobalControlUnit",
    "LocalControlUnit",
    "GlobalIOBus",
    "InputMemory",
    "ResparcEvaluation",
    "ResparcModel",
    "MacroProcessingEngine",
    "TileAssignment",
    "NeuroCell",
    "ProgrammedTile",
    "ResparcChip",
    "EventCounters",
    "counters_to_energy",
    "ProgrammableSwitch",
    "SwitchPort",
]
