"""The per-layer metric catalogue and its computation from span files.

Every traced run emits every metric below (a layer a workload does not
reach reads 0).  Times are layer *self* times in seconds, averaged over
the run's traced operations (an operation of ``warm`` or ``batch`` is
two processes, whose layers add up); counts are per operation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import tracing

KERNELS = ("corner_turn", "cslc", "beam_steering")
MACHINES = ("ppc", "altivec", "viram", "imagine", "raw")

#: span name -> metric name (self seconds per operation).
SPAN_METRICS: Dict[str, str] = {
    tracing.IMPORT_SPAN: "cli.import_s",
    "obs.session": "obs.session_s",
    "perf.index.load": "perf.index.load_s",
    "perf.disk.get": "perf.disk.get_s",
    "perf.disk.put": "perf.disk.put_s",
    "check.validation": "check.validation_s",
    "memory.dram.access_run": "memory.dram.access_run_s",
    "memory.tlb.access_pages": "memory.tlb.access_pages_s",
    "kernels.make_matrix": "kernels.make_matrix_s",
    **{
        f"mappings.run.{k}.{m}": f"mappings.run_s.{k}.{m}"
        for k in KERNELS
        for m in MACHINES
    },
    "mappings.batch": "mappings.batch_s",
    "eval.table3": "eval.table3_s",
    "eval.experiments": "eval.experiments_s",
    "eval.sensitivity": "eval.sensitivity_s",
    "perf.planner": "perf.planner.self_s",
    "perf.cache_key": "perf.cache_key_s",
    "perf.tensor.plan": "perf.tensor.plan_s",
    "perf.pool.run": "perf.pool.run_s",
    "perf.pool.lease": "perf.pool.lease_s",
    "arch.imagine.reschedule": "arch.imagine.reschedule_s",
    "scenarios.generate": "scenarios.generate_s",
    "scenarios.run": "scenarios.run_s",
    "scenarios.validate": "scenarios.validate_s",
    "service.execute": "service.execute_s",
}

#: span name -> metric name (calls per operation).
CALL_METRICS: Dict[str, str] = {
    "memory.dram.access_run": "memory.dram.access_run_calls",
    "memory.tlb.access_pages": "memory.tlb.access_pages_calls",
    "arch.imagine.reschedule": "arch.imagine.reschedule_calls",
}

#: Counts recorded at the wrapped boundaries (per operation).
COUNT_METRICS = (
    "perf.disk.hits",
    "perf.disk.misses",
    "perf.planner.requests",
    "perf.planner.executed",
    "perf.tensor.batched_cells",
    "perf.tensor.fallback_cells",
)

#: The program's own resilience counters, read at process exit.  A
#: healthy warm report shows degradations = 1 and quarantined = 1: the
#: check probes pollute the process-global counters (a known defect,
#: recorded here as a baseline rather than fixed).
RESILIENCE_METRICS = ("retries", "degradations", "quarantined", "pool_restarts")

#: Client-side service metrics (``serve`` only), from the job records.
SERVICE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.exec_ms", "ms", "lower"),
    ("service.client_overhead_ms", "ms", "lower"),
    ("service.round_trip_p95_ms", "ms", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.shed", "count", "lower"),
    ("service.jobs_per_s", "1/s", "higher"),
)


def catalogue() -> List[Dict[str, str]]:
    """Every per-layer metric with its unit and direction, in order."""
    out: List[Dict[str, str]] = []

    def add(name: str, unit: str, better: str) -> None:
        out.append({"name": name, "unit": unit, "better": better})

    for metric in SPAN_METRICS.values():
        add(metric, "s", "lower")
    for metric in CALL_METRICS.values():
        add(metric, "count", "lower")
    for metric in COUNT_METRICS:
        add(metric, "count", "higher" if metric == "perf.disk.hits" else "lower")
    add("perf.disk.hit_ratio", "ratio", "higher")
    add("perf.disk.bytes", "bytes", "lower")
    add("perf.planner.dedup_ratio", "ratio", "higher")
    add("perf.pool.restarts", "count", "lower")
    for name in ("retries", "degradations", "quarantined"):
        add(f"resilience.{name}", "count", "lower")
    for name, unit, better in SERVICE_METRICS:
        add(name, unit, better)
    add("trace.wall_s", "s", "lower")
    add("trace.layers_s", "s", "lower")
    add("trace.other_threads_s", "s", "lower")
    add("trace.unattributed_s", "s", "lower")
    add("trace.overhead_s", "s", "lower")
    return out


def load(path: Path) -> Dict[str, Any]:
    """Summarise one span file (see :func:`tracing.layer_summary`)."""
    doc = json.loads(Path(path).read_text())
    summary = tracing.layer_summary(doc)
    summary["program"] = doc.get("program", {})
    return summary


def per_layer_metrics(
    ops: Sequence[Sequence[Dict[str, Any]]],
    traced_walls: Sequence[float],
    plain_walls: Sequence[float],
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Average the traced operations' layers into the catalogue.

    ``ops`` holds, per traced operation, the layer summaries of its
    processes; they are summed within an operation and averaged across
    operations.
    """
    n = max(len(ops), 1)
    values: Dict[str, float] = {m["name"]: 0.0 for m in catalogue()}
    counts: Dict[str, float] = {}
    other_threads = 0.0
    for summary in (s for op in ops for s in op):
        for span, layer in summary["layers"].items():
            metric = SPAN_METRICS.get(span)
            if metric is not None:
                values[metric] += layer["self_s"]
            calls = CALL_METRICS.get(span)
            if calls is not None:
                values[calls] += layer["calls"]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        resilience = summary["program"].get("resilience", {})
        for name in RESILIENCE_METRICS:
            metric = (
                "perf.pool.restarts"
                if name == "pool_restarts"
                else f"resilience.{name}"
            )
            values[metric] += resilience.get(name, 0)
        disk = summary["program"].get("disk", {})
        values["perf.disk.bytes"] += disk.get("bytes", 0)
        values["trace.wall_s"] += summary["wall_s"]
        values["trace.layers_s"] += summary["main_layers_s"]
        values["trace.unattributed_s"] += summary["unattributed_s"]
        other_threads += (
            sum(layer["self_s"] for layer in summary["layers"].values())
            - summary["main_layers_s"]
        )
    # Totals over the traced operations, then per operation.
    for name in values:
        values[name] /= n
    values["trace.other_threads_s"] = other_threads / n
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0.0) / n
    probes = counts.get("perf.disk.hits", 0.0) + counts.get("perf.disk.misses", 0.0)
    if probes:
        values["perf.disk.hit_ratio"] = counts.get("perf.disk.hits", 0.0) / probes
    requests = counts.get("perf.planner.requests", 0.0)
    if requests:
        values["perf.planner.dedup_ratio"] = 1.0 - (
            counts.get("perf.planner.executed", 0.0) / requests
        )
    if traced_walls and plain_walls:
        values["trace.overhead_s"] = harness.median(traced_walls) - harness.median(
            plain_walls
        )
    for name, value in (service or {}).items():
        values[name] = value
    return values
