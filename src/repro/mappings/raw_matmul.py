"""Matrix multiplication on Raw (extension; §2.3's cited results).

Reproduces the shape of the Raw results the paper cites: "speedup of up
to 12 relative to single-tile performance on ILP benchmarks.  Speedups
greater than 16 can be achieved on streaming benchmarks when compared to
a single-issue load/store RISC architecture because of a tile's ability
to operate on data directly from the networks."

Three execution modes share one blocked SUMMA-style algorithm (C tiled
4x4 over the mesh; A row-panels and B column-panels broadcast per step):

* ``single`` — the whole product on one tile with the load/store inner
  loop: the baseline of the citation.
* ``mimd`` — 16 tiles, load/store inner loop, per-step panel transfers
  exposed at the tile's network link plus a per-step synchronisation
  latency: the "ILP/MIMD" regime whose speedup saturates *below* 16.
* ``stream`` — 16 tiles with B streamed from the static network: the
  per-MAC load disappears, so the speedup against the load/store
  single-tile baseline *exceeds* 16 — the superlinear effect §2.3
  explains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.base import KernelRun
from repro.arch.raw.machine import RawMachine
from repro.arch.raw.network import transfer_latency
from repro.calibration import Calibration
from repro.errors import MappingError
from repro.kernels.matmul import (
    MatmulWorkload,
    blocked_matmul,
    matmul_reference,
)
from repro.mappings import batch
from repro.mappings.base import functional_match, resolve_calibration
from repro.perf.cache import content_digest
from repro.sim.accounting import CycleBreakdown
from repro.units import WORD_BYTES

MODES = ("single", "mimd", "stream")


def run(
    workload: Optional[MatmulWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
    mode: str = "mimd",
) -> KernelRun:
    """Run the Raw matmul in one of :data:`MODES`."""
    cal = resolve_calibration(calibration)
    return _evaluate(_structure(workload, cal, seed, mode), [cal])[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[MatmulWorkload] = None,
    seed: int = 0,
    mode: str = "mimd",
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (instruction census, panel schedule, functional product)."""
    cals = list(calibrations)
    batch.require_uniform_structure("raw", cals)
    return _evaluate(_structure(workload, cals[0], seed, mode), cals)


def _structure(
    workload: Optional[MatmulWorkload],
    cal: Calibration,
    seed: int,
    mode: str,
) -> Dict:
    """The calibration-independent pass: censuses, busy time, the
    communication schedule, and the blocked product."""
    workload = workload or MatmulWorkload()
    machine = RawMachine(calibration=cal.raw)
    if mode not in MODES:
        raise MappingError(f"mode must be one of {MODES}, got {mode!r}")

    grid = machine.config.mesh_rows  # 4x4 C-tile grid
    if workload.n % grid or workload.m % grid:
        raise MappingError(
            f"matmul {workload.n}x{workload.m} outputs not divisible by "
            f"the {grid}x{grid} tile grid"
        )

    census = (
        workload.streamed_census()
        if mode == "stream"
        else workload.loadstore_census()
    )
    total_instr = census.total

    if mode == "single":
        busy = machine.tile_cycles(total_instr)
        # The whole working set cannot stay in one tile's 32 KB.
        working_bytes = WORD_BYTES * (
            workload.n * workload.k
            + workload.k * workload.m
            + workload.n * workload.m
        )
        stall_scale = (
            1.0 if working_bytes > machine.config.tile_data_bytes else 0.0
        )
        comm_exposed = 0.0
    else:
        tiles = machine.config.tiles
        busy = machine.tile_cycles(total_instr / tiles)
        # Panel broadcast per K-step: each tile imports its A row-panel
        # and B column-panel slices through its mesh link; without
        # double buffering (mimd) the transfer is exposed, with
        # streaming (stream) it overlaps the inner loop.
        kb = min(16, workload.k)
        steps = workload.k // kb if workload.k % kb == 0 else workload.k
        panel_words = (
            workload.n // grid * kb + kb * workload.m // grid
        )
        sync = transfer_latency(
            machine.config, (0, 0),
            (machine.config.mesh_rows - 1, machine.config.mesh_cols - 1),
        )
        per_step = panel_words / machine.config.static_link_words_per_cycle
        if mode == "mimd":
            comm_exposed = steps * (per_step + sync)
            stall_scale = 0.5
        else:
            comm_exposed = steps * sync  # transfers overlap the MACs
            stall_scale = 0.0
    if stall_scale:
        machine.cache_stall_cycles(busy)  # emits the stall span when traced

    a, b = workload.make_inputs(seed)
    block = max(1, workload.n // grid)
    output = blocked_matmul(a, b, block)
    ok = functional_match(output, matmul_reference(a, b), rtol=1e-3)

    return {
        "workload": workload,
        "machine": machine,
        "mode": mode,
        "census": census,
        "total_instr": total_instr,
        "busy": busy,
        "comm_exposed": comm_exposed,
        "stall_scale": stall_scale,
        "output": output,
        "output_digest": content_digest(output),
        "ok": ok,
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: only the cache-stall
    fraction varies across cells."""
    workload = s["workload"]
    machine = s["machine"]
    mode = s["mode"]
    busy = s["busy"]

    stall_fraction = batch.cal_vector(cals, "raw", "cache_stall_fraction")

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        f = float(stall_fraction[i])
        stall = busy * f / (1.0 - f)
        if mode == "single":
            breakdown = CycleBreakdown(
                {"compute": busy, "cache stalls": stall * s["stall_scale"]}
            )
        else:
            breakdown = CycleBreakdown(
                {"compute": busy, "network": s["comm_exposed"]}
            )
            if mode == "mimd":
                breakdown.charge("cache stalls", stall * 0.5)
        runs.append(
            KernelRun(
                kernel="matmul",
                machine="raw",
                spec=machine.spec,
                breakdown=breakdown,
                ops=s["census"],
                output_digest=s["output_digest"],
                functional_ok=s["ok"],
                metrics={
                    "mode": mode,
                    "macs": workload.macs,
                    "instructions": s["total_instr"],
                    "comm_exposed_cycles": s["comm_exposed"],
                },
            )
        )
    return runs


def speedup_vs_single_tile(
    workload: Optional[MatmulWorkload] = None,
    calibration: Optional[Calibration] = None,
) -> dict:
    """§2.3's comparison: parallel modes against the single-tile
    load/store baseline."""
    workload = workload or MatmulWorkload()
    single = run(workload, calibration, mode="single")
    mimd = run(workload, calibration, mode="mimd")
    stream = run(workload, calibration, mode="stream")
    return {
        "single_cycles": single.cycles,
        "mimd_cycles": mimd.cycles,
        "stream_cycles": stream.cycles,
        "mimd_speedup": single.cycles / mimd.cycles,
        "stream_speedup": single.cycles / stream.cycles,
    }
