"""Beam steering on Raw (§3.3, §4.4).

"The beam steering processing on each data is independent.  Thus, on Raw,
we partition the data among 16 tiles and each tile processes its own
data.  Input data is streamed through the static network and is operated
on directly from the network."  §4.4: "we used the static network to
stream data from memory while hiding memory latency.  In this
implementation, loads and stores are not necessary and ALU utilization is
very high."

Model: each tile processes outputs for its share of the elements; per
output it executes the six arithmetic operations (operands read directly
from the network registers — no loads) plus the calibrated network-
sequencing/loop instructions, at one instruction per cycle.  Per-stream
pipeline fill (the 3-cycles-plus-hops static-network latency from the
tile's port) is charged once per dwell x direction stream.  The port and
link bandwidth claims are verified against the achieved time, as in the
corner-turn mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.base import KernelRun
from repro.arch.raw.machine import RawMachine
from repro.arch.raw.network import port_coords, transfer_latency
from repro.calibration import Calibration
from repro.kernels.beam_steering import (
    BeamSteeringWorkload,
    beam_steering_reference,
    make_tables,
)
from repro.kernels.workloads import canonical_beam_steering
from repro.mappings import batch
from repro.mappings.base import require, resolve_calibration
from repro.perf.cache import content_digest
from repro.sim.accounting import CycleBreakdown


def run(
    workload: Optional[BeamSteeringWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """Run the Raw beam steering; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(_structure(workload, cal, seed), [cal])[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[BeamSteeringWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (distribution, network latency scan, reference output)."""
    cals = list(calibrations)
    batch.require_uniform_structure("raw", cals)
    return _evaluate(_structure(workload, cals[0], seed), cals)


def _structure(
    workload: Optional[BeamSteeringWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass: tile distribution, compute
    issue time, network fill latency, flow accounting, output."""
    workload = workload or canonical_beam_steering()
    machine = RawMachine(calibration=cal.raw)

    per_tile_elements = machine.distribute(workload.elements)
    busiest_elements = max(per_tile_elements)
    streams = workload.dwells * workload.directions
    per_tile_outputs = busiest_elements * streams

    arith_per_output = 6.0  # 5 adds + 1 shift (§4.4's census)
    compute = machine.tile_cycles(per_tile_outputs * arith_per_output)
    machine.tile_cycles(
        per_tile_outputs * machine.cal.stream_ops_per_output
    )  # emits the sequencing span when traced

    # Pipeline fill per stream: network latency from the farthest port.
    ports = port_coords(machine.config)
    max_latency = max(
        transfer_latency(machine.config, ports[0], (r, c))
        for r in range(machine.config.mesh_rows)
        for c in range(machine.config.mesh_cols)
    )
    startup = streams * max_latency

    total_words = 3.0 * workload.outputs  # 2 table words in + 1 out
    port_bound = machine.offchip_time(total_words)
    words_per_tile = 3.0 * busiest_elements * streams
    for tile_idx, coord in enumerate(ports[: machine.config.tiles]):
        machine.static_network.add_flow(coord, coord, words_per_tile)

    tables = make_tables(workload, seed)
    output = beam_steering_reference(workload, tables)

    return {
        "workload": workload,
        "machine": machine,
        "per_tile_outputs": per_tile_outputs,
        "compute": compute,
        "startup": startup,
        "port_bound": port_bound,
        "output": output,
        "output_digest": content_digest(output),
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: only the per-output
    network-sequencing instruction count varies; the §4.4 bandwidth
    claims are re-verified against each cell's achieved time."""
    workload = s["workload"]
    machine = s["machine"]
    compute = s["compute"]

    stream_ops = batch.cal_vector(cals, "raw", "stream_ops_per_output")
    sequencing = s["per_tile_outputs"] * stream_ops

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "compute": compute,
                "network sequencing": float(sequencing[i]),
                "startup": s["startup"],
            }
        )
        total = breakdown.total

        # §4.4's implicit claims, verified: ports and links keep up.
        require(
            s["port_bound"] <= total,
            "DRAM ports would bottleneck the Raw beam steering, "
            "contradicting §4.4",
        )
        require(
            machine.static_network.check_feasible(total),
            "static network would bottleneck the Raw beam steering, "
            "contradicting §4.4",
        )

        runs.append(
            KernelRun(
                kernel="beam_steering",
                machine="raw",
                spec=machine.spec,
                breakdown=breakdown,
                ops=workload.op_counts(),
                output_digest=s["output_digest"],
                functional_ok=True,  # reference is the definition
                metrics={
                    "outputs": workload.outputs,
                    # §4.4: "loads and stores are not necessary".
                    "loads_stores_issued": 0,
                    # §4.4: "ALU utilization is very high" — issue slots
                    # are never idle on stalls; arithmetic share of
                    # issued work:
                    "issue_slot_occupancy": (
                        (compute + float(sequencing[i])) / total
                        if total
                        else 0.0
                    ),
                    "arithmetic_fraction": (
                        compute / total if total else 0.0
                    ),
                    "port_utilization": (
                        s["port_bound"] / total if total else 0.0
                    ),
                },
            )
        )
    return runs
