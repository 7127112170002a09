"""Invariant checking and differential validation (``repro check``).

The paper's credibility rests on cross-checks: simulated cycles must
never beat the §2.5 analytic bounds, measured traffic must cover the
kernel footprints, and the three redundant evaluation paths added by
the performance work (memoization cache, process-pool executor,
vectorised DRAM costing) must agree bit-for-bit with their simple
counterparts.  This package makes every one of those checks executable:

* :mod:`repro.check.invariants` — per-run machine-checkable invariants;
* :mod:`repro.check.oracles` — differential re-execution oracles;
* :mod:`repro.check.faults` — fault injection proving the oracles see
  the corruption they claim to see;
* :mod:`repro.check.golden` — golden-fixture generation for the
  snapshot tests (``make refresh-golden``).

Tiers (the CLI's ``--fast`` / ``--full`` / ``--inject``):

* **fast** — invariants on every registered (kernel, machine) pair, the
  trace-vs-ledger cross-check (a traced run's event stream must sum
  back to its cycle ledger and must not perturb the model), the
  synthetic DRAM and engine oracles, the folded DRAM/TLB oracles
  (``oracle.dram.folded``, ``oracle.tlb.folded``: per-class costing of
  template streams vs the materialised stream and the per-access
  reference), the model-stamp coverage check
  (``invariant.cache.stamp-covers-model``), the tensor-engine batch-vs-per-cell
  differential (``invariant.tensor.*``, :mod:`repro.check.tensor`), the
  pipeline composition invariants (``invariant.pipeline.*``,
  :mod:`repro.check.pipeline`: stage-cost additivity, footprint
  conservation across handoffs, batched-vs-serial bit-identity), the
  observability reconciliation (``invariant.obs.*``,
  :mod:`repro.check.obs`: flight-recorder events vs planner counters vs
  supervisor incident payloads), the service-runtime invariants
  (``invariant.service.*``, :mod:`repro.check.service`: journal
  schema/seq with torn-tail healing, job-state-machine legality, dedup
  conservation, crash-replay convergence), plus
  the disk-tier differential oracle (disk-hit vs memory-hit vs cold),
  an integrity sweep of the persisted entries, and the packed-index
  layout invariants (``invariant.index.*``, :mod:`repro.check.
  indexcheck`: round-trip, manifest replay, tombstones, torn-tail
  recovery, live digest sweep).  Cheap enough that ``full_report`` runs
  it automatically, so every published table ships pre-validated.
* **full** — fast, plus the cache oracle on every pair and the
  serial-vs-parallel executor oracle.
* **inject** — the fault-injection matrix (see :mod:`.faults`).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.check.invariants import (
    check_engine_conservation,
    check_stamp_coverage,
    check_trace_accounting,
    validate_results,
    validate_run,
)
from repro.check.oracles import (
    cache_oracle,
    disk_cache_oracle,
    disk_integrity_check,
    dram_oracle,
    executor_oracle,
    folded_dram_oracle,
    folded_tlb_oracle,
)
from repro.check.indexcheck import index_checks
from repro.check.obs import obs_checks
from repro.check.pipeline import pipeline_checks, validate_pipeline_run
from repro.check.report import CheckReport, CheckResult
from repro.check.service import service_checks
from repro.check.tensor import tensor_oracle
from repro.errors import CheckError

TIERS = ("fast", "full", "inject")


def run_checks(
    tier: str = "fast",
    jobs: int = 2,
    workloads: Optional[Mapping[str, Any]] = None,
) -> CheckReport:
    """Run the ``fast`` or ``full`` validation tier and return its report.

    ``workloads`` overrides the canonical per-kernel workloads (the same
    mapping ``full_report`` takes); ``jobs`` sizes the executor oracle's
    parallel leg.  The ``inject`` tier has a different result shape —
    use :func:`repro.check.faults.run_injection` (the CLI does).
    """
    from repro.mappings import registry

    if tier not in ("fast", "full"):
        raise CheckError(
            f"unknown check tier {tier!r}; expected 'fast' or 'full'"
        )
    report = CheckReport(tier=tier)

    def kwargs_for(kernel: str) -> Dict[str, Any]:
        if workloads and kernel in workloads:
            return {"workload": workloads[kernel]}
        return {}

    results = {
        (kernel, machine): registry.run(kernel, machine, **kwargs_for(kernel))
        for kernel, machine in registry.available()
    }
    report.extend(validate_results(results, workloads))
    report.extend(check_engine_conservation())
    report.extend(check_trace_accounting(workloads=workloads))
    report.extend(dram_oracle())
    report.extend(folded_dram_oracle())
    report.extend(folded_tlb_oracle())
    report.extend(check_stamp_coverage())
    report.extend(tensor_oracle(workloads=workloads))
    report.extend(disk_cache_oracle(workloads=workloads))
    report.extend(disk_integrity_check())
    report.extend(index_checks())
    report.extend(pipeline_checks(workloads=workloads))
    report.extend(obs_checks(workloads=workloads))
    report.extend(service_checks(workloads=workloads))
    if tier == "full":
        report.extend(cache_oracle(workloads=workloads))
        report.extend(executor_oracle(jobs=jobs))
    return report


@contextlib.contextmanager
def continuous_validation(
    workloads: Optional[Mapping[str, Any]] = None,
) -> Iterator[None]:
    """Validate every freshly simulated run as it is produced.

    Installs a :func:`repro.mappings.registry.set_post_run_validator`
    hook that applies the per-run invariants and raises
    :class:`~repro.errors.CheckError` on violation — *before* the run
    can enter the memoization cache, so corrupt results are never
    served to later callers.  Restores the previous hook on exit.
    """
    from repro.check.report import FAIL
    from repro.mappings import registry

    def validator(run, kwargs) -> None:
        workload = kwargs.get("workload")
        if workload is None and workloads:
            workload = workloads.get(run.kernel)
        failures = [
            r for r in validate_run(run, workload) if r.status == FAIL
        ]
        if failures:
            raise CheckError(
                f"{run.kernel}/{run.machine}: "
                + "; ".join(f.format() for f in failures)
            )

    previous = registry.set_post_run_validator(validator)
    try:
        yield
    finally:
        registry.set_post_run_validator(previous)


def validation_section(
    workloads: Optional[Mapping[str, Any]] = None,
) -> str:
    """The fast-tier validation block ``full_report`` appends.

    By the time the report calls this, every run it rendered is in the
    memoization cache, so the fast tier re-reads them for free — the
    published tables and the validated runs are the same objects.
    """
    report = run_checks("fast", workloads=workloads)
    return report.render()


__all__ = [
    "CheckReport",
    "CheckResult",
    "TIERS",
    "cache_oracle",
    "check_engine_conservation",
    "check_stamp_coverage",
    "check_trace_accounting",
    "continuous_validation",
    "disk_cache_oracle",
    "disk_integrity_check",
    "dram_oracle",
    "executor_oracle",
    "folded_dram_oracle",
    "folded_tlb_oracle",
    "index_checks",
    "obs_checks",
    "pipeline_checks",
    "run_checks",
    "service_checks",
    "tensor_oracle",
    "validate_pipeline_run",
    "validate_results",
    "validate_run",
    "validation_section",
]
