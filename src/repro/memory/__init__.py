"""Memory-system models shared by the four machine models.

* :mod:`repro.memory.streams` — address-pattern descriptors (sequential,
  strided, tiled, gather) that kernels hand to the memory models, and
  template streams (segments as shifted copies of a few templates).
* :mod:`repro.memory.dram` — banked DRAM with open-row state, activate/
  precharge exposure, and per-machine organization configs.
* :mod:`repro.memory.cache` — set-associative write-back caches with
  trace-driven simulation (PPC G4 hierarchy, Raw local-memory caching).
* :mod:`repro.memory.tlb` — fully-associative LRU TLB.
* :mod:`repro.memory.sram` — capacity-checked scratchpads (Imagine SRF,
  Raw tile memories, VIRAM vector register file backing).
"""

from repro.memory.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.memory.dram import DRAM, DRAMConfig, DRAMCost, DRAMReference
from repro.memory.sram import Scratchpad
from repro.memory.streams import (
    AccessPattern,
    Concat,
    Custom,
    Gather,
    Sequential,
    Strided,
    TemplateStream,
    Tiled2D,
)
from repro.memory.tlb import TLB

__all__ = [
    "AccessPattern",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLevel",
    "Concat",
    "Custom",
    "DRAM",
    "DRAMConfig",
    "DRAMCost",
    "DRAMReference",
    "Gather",
    "Scratchpad",
    "Sequential",
    "Strided",
    "TLB",
    "TemplateStream",
    "Tiled2D",
]
