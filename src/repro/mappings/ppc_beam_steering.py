"""Beam steering on the PowerPC G4, scalar and AltiVec (§4.1, §4.5).

§4.5: AltiVec gains "about two for beam steering".

Scalar model — one output per loop iteration forms a single dependency
chain (two table loads feeding five additions, a shift, and a store), so
the in-order G4 retires roughly one chain element per cycle plus the
exposed load-use latency; no instruction-level parallelism across
iterations.  Cache behaviour is *trace-driven*: the real coarse/fine
table read sequence runs through the two-level hierarchy, and the output
write stream charges the calibrated store-queue-exposed fraction of its
line-miss latency.

AltiVec model — four outputs per iteration: eight scalar table loads
(pipelined), two pack permutes, the six arithmetic ops as vector
instructions, one vector store, and two address updates; the dependency
chain is shared by four outputs, which is where the ~2x comes from.  The
memory-system stalls are identical — the kernel is table-bound either
way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.base import KernelRun
from repro.arch.ppc.machine import PpcMachine
from repro.calibration import Calibration
from repro.kernels.beam_steering import (
    BeamSteeringWorkload,
    beam_steering_reference,
    make_tables,
)
from repro.kernels.workloads import canonical_beam_steering
from repro.mappings import batch
from repro.mappings.base import resolve_calibration
from repro.perf.cache import content_digest
from repro.sim.accounting import CycleBreakdown

#: Scalar chain per output: 2 loads + 5 adds + 1 shift + 1 store + 2
#: address updates + 2 loop control = 13 instructions.
SCALAR_CHAIN_INSTR = 13.0
LOAD_USE_LATENCY = 3.0
LOADS_PER_OUTPUT = 2.0

#: AltiVec group of four outputs: 8 scalar loads + 2 vperm packs + 6
#: vector arithmetic + 1 vector store + 2 address updates = 19.
ALTIVEC_GROUP_INSTR = 19.0


def table_read_trace(workload: BeamSteeringWorkload) -> np.ndarray:
    """Word addresses of every calibration-table read, in program order.

    Layout: coarse table at word 0, fine table immediately after.  Loop
    order is (dwell, direction, element), interleaving the two reads of
    each output — exactly what the reference implementation computes.
    """
    coarse_base = 0
    fine_base = workload.coarse_table_words
    e = np.arange(workload.elements, dtype=np.int64)
    per_direction = []
    for d in range(workload.directions):
        pair = np.empty(2 * workload.elements, dtype=np.int64)
        pair[0::2] = coarse_base + e
        pair[1::2] = fine_base + e * workload.directions + d
        per_direction.append(pair)
    one_dwell = np.concatenate(per_direction)
    return np.tile(one_dwell, workload.dwells)


def _structure(
    workload: BeamSteeringWorkload,
    machine: PpcMachine,
    name: str,
    spec,
    issue: float,
    chain_stalls: float,
    seed: int,
) -> Dict:
    """The calibration-independent pass: the trace-driven hit/miss tally
    (pure cache geometry) and the reference output.  Latency constants
    re-enter in :func:`_evaluate`."""
    hierarchy = machine.make_hierarchy()
    reads = hierarchy.run_trace(table_read_trace(workload))
    write_lines = workload.outputs / machine.config.l1_line_words

    tables = make_tables(workload, seed)
    output = beam_steering_reference(workload, tables)

    return {
        "workload": workload,
        "machine": machine,
        "name": name,
        "spec": spec,
        "issue": issue,
        "chain_stalls": chain_stalls,
        "l2_hits": reads.l2.hits if reads.l2 is not None else 0,
        "memory_accesses": reads.memory_accesses,
        "l1_miss_rate": reads.l1.miss_rate,
        "write_lines": write_lines,
        "output": output,
        "output_digest": content_digest(output),
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: the hierarchy tallies
    are fixed, the per-level latencies and store-queue exposure vary."""
    workload = s["workload"]

    l2_hit = batch.cal_vector(cals, "ppc", "l2_hit_cycles")
    dram = batch.cal_vector(cals, "ppc", "dram_latency_cycles")
    exposure = batch.cal_vector(cals, "ppc", "store_queue_exposure")

    read_stall = s["l2_hits"] * l2_hit + s["memory_accesses"] * (
        l2_hit + dram
    )
    write_stall = s["write_lines"] * (l2_hit + dram) * exposure

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "issue": s["issue"],
                "dependency stalls": s["chain_stalls"],
                "table read misses": float(read_stall[i]),
                "write misses": float(write_stall[i]),
            }
        )
        total = breakdown.total
        runs.append(
            KernelRun(
                kernel="beam_steering",
                machine=s["name"],
                spec=s["spec"],
                breakdown=breakdown,
                ops=workload.op_counts(),
                output_digest=s["output_digest"],
                functional_ok=True,  # reference is the definition
                metrics={
                    "outputs": workload.outputs,
                    "table_l1_miss_rate": s["l1_miss_rate"],
                    "memory_stall_fraction": (
                        (float(read_stall[i]) + float(write_stall[i]))
                        / total
                        if total
                        else 0.0
                    ),
                },
            )
        )
    return runs


def _scalar_structure(
    workload: Optional[BeamSteeringWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    workload = workload or canonical_beam_steering()
    machine = PpcMachine(calibration=cal.ppc)
    # Fully serialised chain: one instruction per cycle.
    issue = workload.outputs * SCALAR_CHAIN_INSTR
    chain_stalls = workload.outputs * LOADS_PER_OUTPUT * (LOAD_USE_LATENCY - 1)
    return _structure(
        workload, machine, "ppc", machine.spec, issue, chain_stalls, seed
    )


def _altivec_structure(
    workload: Optional[BeamSteeringWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    workload = workload or canonical_beam_steering()
    machine = PpcMachine(calibration=cal.ppc)
    width = machine.config.altivec_width
    groups = workload.outputs / width
    issue = groups * ALTIVEC_GROUP_INSTR
    # The loads pipeline within a group; one load-use gap per group.
    chain_stalls = groups * (LOAD_USE_LATENCY - 1)
    return _structure(
        workload,
        machine,
        "altivec",
        machine.altivec_spec,
        issue,
        chain_stalls,
        seed,
    )


def run_scalar(
    workload: Optional[BeamSteeringWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """Scalar PPC beam steering; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(_scalar_structure(workload, cal, seed), [cal])[0]


def run_scalar_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[BeamSteeringWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One scalar :class:`KernelRun` per calibration, sharing one cache
    trace and reference output."""
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    return _evaluate(_scalar_structure(workload, cals[0], seed), cals)


def run_altivec(
    workload: Optional[BeamSteeringWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """AltiVec PPC beam steering; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(_altivec_structure(workload, cal, seed), [cal])[0]


def run_altivec_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[BeamSteeringWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One AltiVec :class:`KernelRun` per calibration, sharing one cache
    trace and reference output."""
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    return _evaluate(_altivec_structure(workload, cals[0], seed), cals)
