"""CSLC on the PowerPC G4, scalar and AltiVec (§4.1, §4.5).

§4.5: "Using the AltiVec architecture gains a performance factor of about
six for the CSLC."

Scalar model — a compiled-C radix-2 CSLC:

* libm twiddle recomputation: a sin+cos pair per non-trivial-twiddle
  butterfly (the dominant term of a textbook C FFT on this machine);
* the instruction stream from the exact memory-to-memory census
  (:meth:`FFTPlan.memory_census`) plus per-butterfly address/loop
  instructions, issued 3-wide;
* exposed FP-pipeline latency on the dependent halves of the flops;
* streaming compulsory cache misses over the channel data.

AltiVec model — hand-inserted intrinsics over the radix-4 plan:

* vector arithmetic at 4 lanes per op, the shuffle census as vector
  permutes, one alignment permute per vector load;
* scalar address/loop code issued alongside;
* the per-butterfly dependency-chain stall that keeps the gain near the
  measured ~6x (see :class:`repro.calibration.PpcCalibration`);
* the same compulsory streaming misses and precomputed twiddle tables
  (no libm calls).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.base import KernelRun
from repro.arch.ppc.machine import PpcMachine
from repro.calibration import Calibration
from repro.kernels.cslc import CSLCWorkload, cslc_oracle, cslc_reference
from repro.kernels.fft import FFTPlan, radix2_radices
from repro.kernels.signal import make_jammed_channels
from repro.kernels.workloads import canonical_cslc
from repro.mappings import batch
from repro.mappings.base import functional_match, resolve_calibration
from repro.perf.cache import content_digest
from repro.sim.accounting import CycleBreakdown

#: Scalar per-butterfly bookkeeping (index arithmetic + loop control).
SCALAR_ADDR_PER_BUTTERFLY = 6.0
SCALAR_LOOP_PER_BUTTERFLY = 2.0

#: Fraction of flops on the dependent critical path of a butterfly.
DEPENDENT_FLOP_FRACTION = 0.5


def _weight_terms(workload: CSLCWorkload) -> Tuple[float, float, float]:
    """(flops, memory ops, bookkeeping ops) of one sub-band's weights."""
    bins = workload.subband_len
    flops = workload.n_mains * bins * workload.n_aux * 8.0
    mem = workload.n_mains * bins * (workload.n_aux * 4.0 + 4.0)
    addr = workload.n_mains * bins * 2.0
    return flops, mem, addr


def run_scalar(
    workload: Optional[CSLCWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """Scalar PPC CSLC; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate_scalar(_structure_scalar(workload, cal, seed), [cal])[0]


def run_scalar_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CSLCWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One scalar-PPC :class:`KernelRun` per calibration, sharing one
    structure pass (FFT censuses, functional transforms)."""
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    return _evaluate_scalar(_structure_scalar(workload, cals[0], seed), cals)


def _structure_scalar(
    workload: Optional[CSLCWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass: the radix-2 censuses, issue
    time, stall op counts, and the functional result."""
    workload = workload or canonical_cslc()
    machine = PpcMachine(calibration=cal.ppc)
    plan = FFTPlan(workload.subband_len, radix2_radices(workload.subband_len))

    transforms = workload.transforms
    mem_census = plan.memory_census()
    butterflies = sum(s.butterflies for s in plan.stages)
    nontrivial = sum(s.nontrivial_twiddles for s in plan.stages)

    per_transform_instr = (
        mem_census.flops
        + mem_census.memory_ops
        + butterflies * (SCALAR_ADDR_PER_BUTTERFLY + SCALAR_LOOP_PER_BUTTERFLY)
    )
    issue = machine.issue_cycles(per_transform_instr * transforms)
    trig_calls = nontrivial * transforms
    machine.trig_cycles(trig_calls)  # emits the libm span when traced
    dep_ops = mem_census.flops * DEPENDENT_FLOP_FRACTION * transforms

    w_flops, w_mem, w_addr = _weight_terms(workload)
    weight_issue = machine.issue_cycles(
        (w_flops + w_mem + w_addr) * workload.n_subbands
    )
    weight_dep_ops = w_flops * DEPENDENT_FLOP_FRACTION * workload.n_subbands
    # Emit the same two stall spans as the historical per-cell path.
    machine.scalar_fp_stall_cycles(dep_ops)
    machine.scalar_fp_stall_cycles(weight_dep_ops)

    channel_words = (
        (workload.n_channels + workload.n_mains) * workload.samples * 2
    )
    stream_lines = channel_words / machine.config.l1_line_words

    channels = make_jammed_channels(
        workload.samples, workload.n_mains, workload.n_aux, seed=seed
    )
    result = cslc_reference(channels, workload, plan=plan)
    oracle = cslc_oracle(channels, workload, result.weights)
    ok = functional_match(result.outputs, oracle)

    return {
        "workload": workload,
        "machine": machine,
        "issue": issue + weight_issue,
        "trig_calls": trig_calls,
        "dep_ops": dep_ops,
        "weight_dep_ops": weight_dep_ops,
        "stream_lines": stream_lines,
        "ops": workload.op_counts(plan),
        "output": result.outputs,
        "output_digest": content_digest(result.outputs),
        "ok": ok,
        "cancellation_db": result.cancellation_db,
    }


def _evaluate_scalar(
    s: Dict, cals: Sequence[Calibration]
) -> List[KernelRun]:
    """Assemble one scalar cycle ledger per calibration from the shared
    censuses; latency/stall constants vary cell to cell."""
    machine = s["machine"]

    trig_cost = batch.cal_vector(cals, "ppc", "trig_call_cycles")
    fp_stall = batch.cal_vector(cals, "ppc", "fp_dependency_stall")
    l2_hit = batch.cal_vector(cals, "ppc", "l2_hit_cycles")
    dram = batch.cal_vector(cals, "ppc", "dram_latency_cycles")

    trig = s["trig_calls"] * trig_cost
    stalls = s["dep_ops"] * fp_stall + s["weight_dep_ops"] * fp_stall
    cache = s["stream_lines"] * (l2_hit + dram)

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "twiddle recomputation": float(trig[i]),
                "issue": s["issue"],
                "fp dependency stalls": float(stalls[i]),
                "streaming misses": float(cache[i]),
            }
        )
        runs.append(
            KernelRun(
                kernel="cslc",
                machine="ppc",
                spec=machine.spec,
                breakdown=breakdown,
                ops=s["ops"],
                output_digest=s["output_digest"],
                functional_ok=s["ok"],
                metrics={
                    "cancellation_db": s["cancellation_db"],
                    "trig_fraction": (
                        float(trig[i]) / breakdown.total
                        if breakdown.total
                        else 0.0
                    ),
                },
            )
        )
    return runs


def run_altivec(
    workload: Optional[CSLCWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """AltiVec PPC CSLC; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate_altivec(
        _structure_altivec(workload, cal, seed), [cal]
    )[0]


def run_altivec_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CSLCWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One AltiVec :class:`KernelRun` per calibration, sharing one
    structure pass (vector-op censuses, functional transforms)."""
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    return _evaluate_altivec(
        _structure_altivec(workload, cals[0], seed), cals
    )


def _structure_altivec(
    workload: Optional[CSLCWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass: the radix-4 vector censuses,
    issue time, stall group counts, and the functional result."""
    workload = workload or canonical_cslc()
    machine = PpcMachine(calibration=cal.ppc)
    plan = FFTPlan(workload.subband_len)  # hand code uses the radix-4 plan

    transforms = workload.transforms
    width = machine.config.altivec_width
    mem_census = plan.memory_census()
    shuffle_census = plan.shuffle_census()
    butterflies = sum(s.butterflies for s in plan.stages)

    vec_flops = mem_census.flops / width
    vec_perms = shuffle_census.permutes / width
    vec_loads = mem_census.loads / width
    vec_stores = mem_census.stores / width
    align_perms = vec_loads  # one vperm per unaligned vector load
    vec_ops = vec_flops + vec_perms + vec_loads + vec_stores + align_perms

    scalar_bookkeeping = butterflies * SCALAR_ADDR_PER_BUTTERFLY
    issue = transforms * (
        machine.vector_issue_cycles(vec_ops)
        + machine.issue_cycles(scalar_bookkeeping)
    )

    w_flops, w_mem, w_addr = _weight_terms(workload)
    weight_vec_ops = (w_flops + w_mem) / width
    weight_issue = workload.n_subbands * (
        machine.vector_issue_cycles(weight_vec_ops)
        + machine.issue_cycles(w_addr)
    )
    # Emit the same two stall spans as the historical per-cell path.
    machine.vector_stall_cycles(butterflies)
    machine.vector_stall_cycles(workload.subband_len / width)

    channel_words = (
        (workload.n_channels + workload.n_mains) * workload.samples * 2
    )
    stream_lines = channel_words / machine.config.l1_line_words

    channels = make_jammed_channels(
        workload.samples, workload.n_mains, workload.n_aux, seed=seed
    )
    result = cslc_reference(channels, workload, plan=plan)
    oracle = cslc_oracle(channels, workload, result.weights)
    ok = functional_match(result.outputs, oracle)

    return {
        "workload": workload,
        "machine": machine,
        "issue": issue + weight_issue,
        "transforms": transforms,
        "butterflies": butterflies,
        "weight_groups": workload.subband_len / width,
        "stream_lines": stream_lines,
        "ops": workload.op_counts(plan),
        "output": result.outputs,
        "output_digest": content_digest(result.outputs),
        "ok": ok,
        "cancellation_db": result.cancellation_db,
    }


def _evaluate_altivec(
    s: Dict, cals: Sequence[Calibration]
) -> List[KernelRun]:
    """Assemble one AltiVec cycle ledger per calibration."""
    workload = s["workload"]
    machine = s["machine"]

    vec_stall = batch.cal_vector(
        cals, "ppc", "vector_dependency_stall_per_butterfly"
    )
    l2_hit = batch.cal_vector(cals, "ppc", "l2_hit_cycles")
    dram = batch.cal_vector(cals, "ppc", "dram_latency_cycles")

    stalls = s["transforms"] * (s["butterflies"] * vec_stall)
    weight_stalls = workload.n_subbands * (s["weight_groups"] * vec_stall)
    cache = s["stream_lines"] * (l2_hit + dram)

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        total_stalls = float(stalls[i]) + float(weight_stalls[i])
        breakdown = CycleBreakdown(
            {
                "issue": s["issue"],
                "vector dependency stalls": total_stalls,
                "streaming misses": float(cache[i]),
            }
        )
        runs.append(
            KernelRun(
                kernel="cslc",
                machine="altivec",
                spec=machine.altivec_spec,
                breakdown=breakdown,
                ops=s["ops"],
                output_digest=s["output_digest"],
                functional_ok=s["ok"],
                metrics={
                    "cancellation_db": s["cancellation_db"],
                    "stall_fraction": (
                        total_stalls / breakdown.total
                        if breakdown.total
                        else 0.0
                    ),
                },
            )
        )
    return runs
