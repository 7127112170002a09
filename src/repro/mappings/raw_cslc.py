"""CSLC on Raw (§3.2, §4.3).

"The Raw implementation does independent data-parallel FFTs. ... a C
implementation of the radix-2 FFT is used for Raw because it provided
better performance than the radix-4 FFT because of register spilling."
§4.3: the local memories cache the working set ("less than 10% of the
execution time is spent on memory stalls"); "about 26% of the cycles on
Raw are consumed by load and store instructions.  The remaining cycles
are consumed by address and index calculations and loop overhead
instructions."; with 73 sub-band sets on 16 tiles "about 8% of CPU cycles
are idle due to load balancing", and the paper reports the
perfect-balance extrapolation.

Model: each tile runs a scalar radix-2 CSLC set (four FFTs, weight
application, two IFFTs) as an instruction-category stream derived from
the exact FFT structure — flops, the memory-to-memory load/store census,
calibrated per-butterfly address and loop instructions — at one
instruction per cycle, plus the calibrated local-memory stall fraction.

Options reproduce §4.3's what-ifs:

* ``balanced`` (default True) — the perfect-load-balance extrapolation;
  False gives the real 5-versus-4-sets makespan.
* ``streamed_fft`` — route FFT operands over the static network: load/
  store instructions and cache stalls disappear ("about 70% of FFT
  performance improvement").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.base import KernelRun
from repro.arch.raw.dynamic import cslc_set_delivery
from repro.arch.raw.machine import RawMachine
from repro.calibration import Calibration
from repro.kernels.cslc import CSLCWorkload, cslc_oracle, cslc_reference
from repro.kernels.fft import FFTPlan, radix2_radices
from repro.kernels.signal import make_jammed_channels
from repro.kernels.workloads import canonical_cslc
from repro.mappings import batch
from repro.mappings.base import functional_match, resolve_calibration
from repro.perf.cache import content_digest
from repro.sim.accounting import CycleBreakdown
from repro.units import WORD_BYTES


def _set_instruction_census(workload: CSLCWorkload, plan: FFTPlan) -> dict:
    """Instruction categories for one sub-band set on one tile."""
    transforms = workload.n_channels + workload.n_mains
    mem = plan.memory_census()
    butterflies = sum(s.butterflies for s in plan.stages)

    flops = mem.flops * transforms
    loadstore = mem.memory_ops * transforms
    addressing = butterflies * transforms * 5.0  # filled from calibration
    loop = butterflies * transforms * 3.0

    # Weight application: per main per bin, n_aux complex MACs operating
    # memory-to-memory.
    bins = workload.subband_len
    w_flops = workload.n_mains * bins * workload.n_aux * 8.0
    w_mem = workload.n_mains * bins * (workload.n_aux * 4.0 + 4.0)
    w_addr = workload.n_mains * bins * 2.0
    return {
        "flops": flops + w_flops,
        "loadstore": loadstore + w_mem,
        "addressing": addressing + w_addr,
        "loop": loop,
        "butterflies": butterflies * transforms,
    }


def run(
    workload: Optional[CSLCWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
    balanced: bool = True,
    streamed_fft: bool = False,
) -> KernelRun:
    """Run the Raw CSLC; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(
        _structure(workload, cal, seed, balanced, streamed_fft), [cal]
    )[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CSLCWorkload] = None,
    seed: int = 0,
    balanced: bool = True,
    streamed_fft: bool = False,
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (instruction census, delivery simulation, functional transforms)."""
    cals = list(calibrations)
    batch.require_uniform_structure("raw", cals)
    return _evaluate(
        _structure(workload, cals[0], seed, balanced, streamed_fft), cals
    )


def _structure(
    workload: Optional[CSLCWorkload],
    cal: Calibration,
    seed: int,
    balanced: bool,
    streamed_fft: bool,
) -> Dict:
    """The calibration-independent pass: the instruction-category
    censuses, capacity allocation, dynamic-network delivery simulation,
    and the functional result."""
    workload = workload or canonical_cslc()
    machine = RawMachine(calibration=cal.raw)
    plan = FFTPlan(workload.subband_len, radix2_radices(workload.subband_len))

    # One set's working data must fit a tile's local memory.
    set_words = (
        (workload.n_channels + workload.n_mains) * 2 * workload.subband_len
        + workload.n_mains * workload.n_aux * 2 * workload.subband_len
        + 2 * workload.subband_len  # twiddle table
    )
    machine.tile_memories[0].allocate("cslc-set", set_words * WORD_BYTES)

    census = _set_instruction_census(workload, plan)
    butterflies = census["butterflies"]
    addr_extra = census["addressing"] - butterflies * 5.0
    loadstore = census["loadstore"]
    flops = census["flops"]

    if streamed_fft:
        # §4.3: streaming over the static network eliminates the FFT's
        # load/store instructions and its cache stalls.
        loadstore = census["loadstore"] - plan.memory_census().memory_ops * (
            workload.n_channels + workload.n_mains
        )

    # Emit the structure-cal issue/stall spans (batch-of-one tracing).
    addressing = butterflies * machine.cal.fft_addr_ops_per_butterfly + (
        addr_extra
    )
    loop = butterflies * machine.cal.fft_loop_ops_per_butterfly
    busy = machine.tile_cycles(flops + loadstore + addressing + loop)
    if not streamed_fft:
        machine.cache_stall_cycles(busy)

    # §2.4: MIMD-mode data reaches local memories "through cache misses"
    # over the dynamic network; event-simulate one working-set round to
    # confirm delivery bandwidth sits well inside the stall budget.
    delivery = cslc_set_delivery(
        config=machine.config, words_per_set=set_words
    )

    channels = make_jammed_channels(
        workload.samples, workload.n_mains, workload.n_aux, seed=seed
    )
    result = cslc_reference(channels, workload, plan=plan)
    oracle = cslc_oracle(channels, workload, result.weights)
    ok = functional_match(result.outputs, oracle)

    # §4.3 compares against the radix-4 operation basis ("care should be
    # given when the performance of the Raw on CSLC is compared").
    radix4_plan = FFTPlan(workload.subband_len)
    return {
        "workload": workload,
        "machine": machine,
        "balanced": balanced,
        "streamed_fft": streamed_fft,
        "butterflies": butterflies,
        "addr_extra": addr_extra,
        "flops": flops,
        "loadstore": loadstore,
        "delivery_makespan": delivery.makespan,
        "radix4_flops": workload.op_counts(radix4_plan).flops,
        "radix2_over_radix4_ops": (
            plan.memory_census().total / radix4_plan.memory_census().total
        ),
        "ops": workload.op_counts(plan),
        "output": result.outputs,
        "output_digest": content_digest(result.outputs),
        "ok": ok,
        "cancellation_db": result.cancellation_db,
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: per-butterfly overhead
    constants and the cache-stall fraction vary cell to cell."""
    workload = s["workload"]
    machine = s["machine"]
    balanced = s["balanced"]
    streamed_fft = s["streamed_fft"]
    butterflies = s["butterflies"]
    flops = s["flops"]
    loadstore = s["loadstore"]
    n_sets = workload.n_subbands
    tiles = machine.config.tiles

    addr_ops = batch.cal_vector(cals, "raw", "fft_addr_ops_per_butterfly")
    loop_ops = batch.cal_vector(cals, "raw", "fft_loop_ops_per_butterfly")
    stall_fraction = batch.cal_vector(cals, "raw", "cache_stall_fraction")

    distribution = machine.distribute(n_sets)
    imbalance_frac = (
        1.0 - (n_sets / tiles) / max(distribution)
        if max(distribution)
        else 0.0
    )

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        addressing = butterflies * float(addr_ops[i]) + s["addr_extra"]
        loop = butterflies * float(loop_ops[i])
        busy_per_set = flops + loadstore + addressing + loop
        if streamed_fft:
            stall_per_set = 0.0
        else:
            f = float(stall_fraction[i])
            stall_per_set = busy_per_set * f / (1.0 - f)
        per_set = busy_per_set + stall_per_set

        if balanced:
            idle = 0.0
        else:
            makespan = machine.imbalance_makespan(per_set, n_sets)
            idle = makespan - machine.balanced_makespan(per_set, n_sets)

        stall_total = stall_per_set * n_sets / tiles

        breakdown = CycleBreakdown(
            {
                "flops": flops * n_sets / tiles,
                "load/store": loadstore * n_sets / tiles,
                "addressing": addressing * n_sets / tiles,
                "loop overhead": loop * n_sets / tiles,
                "cache stalls": stall_total,
            }
        )
        if not balanced:
            breakdown.charge("load-imbalance idle", idle)

        delivery_fraction = (
            s["delivery_makespan"] / per_set if per_set else 0.0
        )

        total = breakdown.total
        runs.append(
            KernelRun(
                kernel="cslc",
                machine="raw",
                spec=machine.spec,
                breakdown=breakdown,
                ops=s["ops"],
                output_digest=s["output_digest"],
                functional_ok=s["ok"],
                metrics={
                    "cancellation_db": s["cancellation_db"],
                    "balanced": balanced,
                    "streamed_fft": streamed_fft,
                    # §4.3: "Raw achieves about 31.4% of the peak"
                    # (radix-4 basis).
                    "percent_of_peak_radix4_basis": (
                        s["radix4_flops"]
                        / (machine.spec.flops_per_cycle * total)
                        if total
                        else 0.0
                    ),
                    # §4.3: "about 26% of the cycles ... are consumed by
                    # load and store instructions".
                    "loadstore_fraction": (
                        breakdown.get("load/store") / total if total else 0.0
                    ),
                    "cache_stall_fraction": (
                        breakdown.get("cache stalls") / total
                        if total
                        else 0.0
                    ),
                    # Dynamic-network delivery of one working-set round
                    # relative to one set's compute time: must sit inside
                    # the calibrated stall fraction for the §4.3 "<10%
                    # stalls" claim to hold.
                    "dynamic_delivery_fraction": delivery_fraction,
                    # §4.3: "about 8% of CPU cycles are idle due to load
                    # balancing" in the unbalanced schedule.
                    "imbalance_idle_fraction": imbalance_frac,
                    # §4.3: "The number of operations (including loads
                    # and stores) in the radix-2 FFT is about 1.5 the
                    # number in the radix-4 FFT."
                    "radix2_over_radix4_ops": s["radix2_over_radix4_ops"],
                },
            )
        )
    return runs
