"""Machine-checkable invariants over :class:`~repro.arch.base.KernelRun`.

Each invariant encodes a cross-check the paper's authors did by hand:

* **bound** — simulated cycles can never beat the §2.5 analytic lower
  bound (Table 4 applies it to the corner turn; §4.3/§4.4 quote the
  CSLC and beam-steering peak-rate predictions).
* **traffic** — the load/store census must cover the kernel's minimum
  memory footprint (Tables 3-5 all report kernels that move the whole
  working set at least once).
* **accounting** — the per-category cycle ledger is non-negative, sums
  to the reported total, and its fractions (the §4.2-§4.4 "87% of the
  cycles" statements) sum to one.
* **throughput** — achieved arithmetic throughput cannot exceed the
  machine's Table 2 per-cycle peak (§4.3's "percent of peak" is a
  percentage of something real).
* **functional** — the mapping's output matched the reference
  implementation (§3's setup: every kernel is verified functionally).
* **conservation** — the discrete-event engine neither loses nor
  invents events (scheduled = processed + cancelled + pending).
* **cache** — the model version stamp hashes every module the model
  source imports, bar a stated exempt list.
* **trace** — tracing only observes: a traced run's numbers equal an
  untraced run's, and the event stream it produces agrees with the
  cycle ledger two independent ways (the chrome-exported accounting
  tracks sum back to the ledger; the fine-grained DRAM/TLB tracks,
  built event-by-event inside the memory models, sum to the ledger's
  memory categories computed by vectorised aggregation).

``validate_run`` applies the per-run invariants; the engine invariant
is exercised on a deterministic scenario because a finished
:class:`KernelRun` no longer holds its engine.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.arch.base import KernelRun
from repro.check.report import FAIL, PASS, SKIP, CheckResult
from repro.models.bounds import kernel_bound, kernel_footprint_words

#: Relative slack on float comparisons.  The models are deterministic;
#: this only absorbs summation-order effects.
RTOL = 1e-9


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, status=PASS if ok else FAIL, detail="" if ok else detail)


def check_bound(run: KernelRun, workload: Optional[Any] = None) -> CheckResult:
    """Simulated cycles >= the §2.5 analytic lower bound."""
    name = f"invariant.bound.{run.kernel}.{run.machine}"
    bound = kernel_bound(run.kernel, run.machine, workload)
    ok = run.cycles >= bound.bound_cycles * (1.0 - RTOL)
    return _result(
        name,
        ok,
        f"simulated {run.cycles:,.0f} cycles beat the {bound.binding}-side "
        f"§2.5 bound of {bound.bound_cycles:,.1f} — the model claims "
        "faster-than-physics execution",
    )


def check_traffic(run: KernelRun, workload: Optional[Any] = None) -> CheckResult:
    """Reported memory traffic >= the kernel's footprint floor.

    Mappings whose operation census does not include a load/store count
    (the CSLC mappings count arithmetic only) are skipped, not failed:
    absence of a census is not evidence of dropped traffic.
    """
    name = f"invariant.traffic.{run.kernel}.{run.machine}"
    ops = run.ops.as_dict()
    moved = float(ops.get("loads", 0.0)) + float(ops.get("stores", 0.0))
    if moved == 0.0:
        return CheckResult(
            name=name,
            status=SKIP,
            detail="mapping reports no load/store census",
        )
    footprint = kernel_footprint_words(run.kernel, workload)
    ok = moved >= footprint * (1.0 - RTOL)
    return _result(
        name,
        ok,
        f"moved {moved:,.0f} words but the workload footprint is "
        f"{footprint:,.0f} — part of the working set never touched memory",
    )


def check_accounting(run: KernelRun) -> List[CheckResult]:
    """The cycle ledger is non-negative, additive, and complete."""
    prefix = f"invariant.accounting.{run.kernel}.{run.machine}"
    results: List[CheckResult] = []
    negative = [c for c, v in run.breakdown.items() if v < 0]
    results.append(
        _result(
            f"{prefix}.nonnegative",
            not negative,
            f"negative cycle categories: {negative}",
        )
    )
    total = sum(v for _, v in run.breakdown.items())
    results.append(
        _result(
            f"{prefix}.sums-to-total",
            abs(total - run.cycles) <= RTOL * max(1.0, abs(run.cycles)),
            f"categories sum to {total:,.2f} but the run reports "
            f"{run.cycles:,.2f} total cycles",
        )
    )
    if run.cycles > 0:
        fractions = sum(
            run.breakdown.fraction(c) for c in run.breakdown.categories()
        )
        results.append(
            _result(
                f"{prefix}.fractions",
                abs(fractions - 1.0) <= 1e-6,
                f"category fractions sum to {fractions:.9f}, not 1",
            )
        )
    results.append(
        _result(
            f"{prefix}.positive-total",
            run.cycles > 0,
            f"non-positive total cycles {run.cycles}",
        )
    )
    return results


def check_throughput(run: KernelRun) -> CheckResult:
    """Achieved flops/cycle <= the machine's Table 2 peak."""
    name = f"invariant.throughput.{run.kernel}.{run.machine}"
    ok = run.flops_per_cycle <= run.spec.flops_per_cycle * (1.0 + RTOL)
    return _result(
        name,
        ok,
        f"achieved {run.flops_per_cycle:.3f} flops/cycle exceeds the "
        f"{run.spec.display_name} peak of {run.spec.flops_per_cycle:.3f}",
    )


def check_functional(run: KernelRun) -> CheckResult:
    """The mapping's output matched the reference implementation."""
    name = f"invariant.functional.{run.kernel}.{run.machine}"
    return _result(
        name,
        bool(run.functional_ok),
        "functional check failed — the performance numbers describe a "
        "kernel that computed the wrong answer",
    )


def check_ops_census(run: KernelRun) -> CheckResult:
    """Operation counts are non-negative."""
    name = f"invariant.ops.{run.kernel}.{run.machine}"
    negative = {c: v for c, v in run.ops.as_dict().items() if v < 0}
    return _result(name, not negative, f"negative op counts: {negative}")


def validate_run(
    run: KernelRun, workload: Optional[Any] = None
) -> List[CheckResult]:
    """All per-run invariants for one kernel run.

    ``workload`` is the workload the run was produced with (``None``
    means the canonical paper workload) — the bound and footprint are
    functions of it.
    """
    results = [check_bound(run, workload), check_traffic(run, workload)]
    results.extend(check_accounting(run))
    results.append(check_throughput(run))
    results.append(check_functional(run))
    results.append(check_ops_census(run))
    return results


def validate_results(
    results: Mapping[Any, KernelRun],
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Validate a sweep's result dict (``(kernel, machine) -> run``)."""
    out: List[CheckResult] = []
    for (kernel, _machine), run in sorted(results.items()):
        workload = workloads.get(kernel) if workloads else None
        out.extend(validate_run(run, workload))
    return out


def check_trace_accounting(
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Trace a VIRAM corner turn and cross-check events against ledgers.

    Four layers of agreement, each a genuine differential (the two sides
    are computed by different code paths):

    1. *noninterference* — the traced run's cycles and breakdown equal a
       fresh untraced run's (the tracer only observes);
    2. *export round-trip* — summing span durations out of the exported
       chrome document reproduces every ledger category and the total;
    3. *dram track vs ledger* — the per-segment spans emitted inside
       :meth:`~repro.memory.dram.DRAM.access_run` (one Python-level
       event per segment) sum to the mapping's memory categories, which
       it computed by numpy aggregation over the same batch;
    4. *tlb track vs ledger* — the refill spans emitted per TLB batch
       sum to the ledger's "tlb misses" charge.

    Layers 3-4 are skipped for workloads the mapping runs in its
    off-chip DMA regime (the ledger then has different categories).
    """
    from repro.check.probes import probe_workloads
    from repro.mappings import registry
    from repro.trace.export import chrome_busy_by_track, to_chrome
    from repro.trace.run import trace_run

    kwargs: Dict[str, Any] = {}
    if workloads and "corner_turn" in workloads:
        kwargs["workload"] = workloads["corner_turn"]
    else:
        # No pinned size: trace the probe workload — the four layers of
        # agreement are structural, and the probe keeps the traced
        # re-simulation in milliseconds while staying in the on-chip
        # regime so layers 3-4 still run (see repro.check.probes).
        kwargs["workload"] = probe_workloads()["corner_turn"]

    results: List[CheckResult] = []
    baseline = registry.run("corner_turn", "viram", **kwargs)
    run, tracer = trace_run("corner_turn", "viram", **kwargs)

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))

    results.append(
        _result(
            "invariant.trace.noninterference",
            run.cycles == baseline.cycles and run.breakdown == baseline.breakdown,
            f"traced run reports {run.cycles:,.2f} cycles vs untraced "
            f"{baseline.cycles:,.2f} — the observer changed the model",
        )
    )

    busy = chrome_busy_by_track(to_chrome(tracer))
    ledger = run.breakdown.as_dict()
    mismatched = [
        category
        for category, cycles in ledger.items()
        if not close(busy.get(f"accounting/{category}", 0.0), cycles)
    ]
    results.append(
        _result(
            "invariant.trace.accounting.categories",
            not mismatched,
            "chrome-exported accounting tracks disagree with the cycle "
            f"ledger for {mismatched} — the export path dropped or "
            "distorted spans",
        )
    )
    exported_total = sum(
        v for k, v in busy.items() if k.startswith("accounting/")
    )
    results.append(
        _result(
            "invariant.trace.accounting.total",
            close(exported_total, run.cycles),
            f"accounting tracks sum to {exported_total:,.2f} but the run "
            f"reports {run.cycles:,.2f} cycles",
        )
    )

    memory_categories = (
        "strided loads",
        "sequential stores",
        "dram row activations",
    )
    if "off-chip dma" in ledger:
        results.append(
            CheckResult(
                name="invariant.trace.dram-vs-ledger",
                status=SKIP,
                detail="workload runs in the off-chip DMA regime",
            )
        )
    else:
        dram_busy = busy.get("dram/viram-onchip", 0.0)
        ledger_memory = sum(ledger.get(c, 0.0) for c in memory_categories)
        results.append(
            _result(
                "invariant.trace.dram-vs-ledger",
                close(dram_busy, ledger_memory),
                f"dram track spans sum to {dram_busy:,.2f} but the ledger "
                f"charges {ledger_memory:,.2f} memory cycles — the "
                "per-segment events and the vectorised costing disagree",
            )
        )
        results.append(
            _result(
                "invariant.trace.tlb-vs-ledger",
                close(busy.get("tlb", 0.0), ledger.get("tlb misses", 0.0)),
                f"tlb refill spans sum to {busy.get('tlb', 0.0):,.2f} but "
                f"the ledger charges {ledger.get('tlb misses', 0.0):,.2f}",
            )
        )
    return results


def check_engine_conservation() -> List[CheckResult]:
    """Event conservation on a deterministic schedule/cancel storm.

    Schedules enough events to trip the engine's lazy heap compaction,
    cancels a deterministic subset (some before, some after running),
    and asserts scheduled = processed + cancelled + pending throughout.
    """
    from repro.sim.engine import Engine

    results: List[CheckResult] = []
    engine = Engine()
    events = [engine.schedule(float(i), lambda: None) for i in range(300)]
    # Cancel every third event — enough tombstones to trigger compaction.
    for event in events[::3]:
        event.cancel()
    mid_ok = engine.conservation_ok
    results.append(
        _result(
            "invariant.engine.conservation.pre-run",
            mid_ok,
            f"scheduled {engine.events_scheduled} != processed "
            f"{engine.events_processed} + cancelled "
            f"{engine.events_cancelled} + pending {engine.pending}",
        )
    )
    engine.run()
    results.append(
        _result(
            "invariant.engine.conservation.post-run",
            engine.conservation_ok and engine.pending == 0,
            f"after drain: scheduled {engine.events_scheduled}, processed "
            f"{engine.events_processed}, cancelled "
            f"{engine.events_cancelled}, pending {engine.pending}",
        )
    )
    expected = 300 - len(events[::3])
    results.append(
        _result(
            "invariant.engine.processed-count",
            engine.events_processed == expected,
            f"processed {engine.events_processed} events, expected {expected}",
        )
    )
    # The dynamic-network simulation rides on the engine: its wire-word
    # census must cover every message payload (headers only add).
    from repro.arch.raw.dynamic import Message, deliver

    traffic = deliver(
        [
            Message(src=(0, 0), dst=(3, 3), words=100),
            Message(src=(1, 2), dst=(2, 0), words=37, inject_time=5.0),
            Message(src=(2, 2), dst=(2, 2), words=8),
        ]
    )
    payload = 100 + 37 + 8
    results.append(
        _result(
            "invariant.engine.wire-words-cover-payload",
            traffic.total_wire_words >= payload,
            f"wire words {traffic.total_wire_words} below payload {payload} "
            "— the network dropped data",
        )
    )
    return results


@functools.lru_cache(maxsize=1024)
def _module_of(package: Path, dotted: str) -> Optional[str]:
    """``dotted`` if it names a module or package under ``package``'s
    parent, else ``None``."""
    path = package.parent.joinpath(*dotted.split("."))
    if path.with_suffix(".py").is_file() or (path / "__init__.py").is_file():
        return dotted
    return None


#: A ``repro`` import statement at the start of a line: ``from repro.x
#: import a, b`` (parenthesised lists may span lines) or ``import
#: repro.x``.  Cheaper than parsing every model file (the check runs in
#: every report's validation section); a test holds it equal to an
#: ``ast`` walk over the stamped source.
_REPRO_IMPORT = re.compile(
    r"^[ \t]*(?:from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n]*)|import[ \t]+(repro(?:\.\w+)*))",
    re.MULTILINE,
)


def _repro_imports(path: Path, package: Path) -> List[str]:
    """The ``repro`` modules ``path`` imports anywhere in its body
    (function-local imports included), resolved to module names: a
    ``from repro.x import y`` names ``repro.x.y`` when that is a module,
    else ``repro.x``."""
    names: List[str] = []
    for match in _REPRO_IMPORT.finditer(path.read_text()):
        module, imported, plain = match.groups()
        if plain:
            names.append(plain)
            continue
        for item in re.sub(r"#[^\n]*", "", imported).strip("()").split(","):
            alias = item.split()[0] if item.split() else ""
            if alias:
                names.append(_module_of(package, f"{module}.{alias}") or module)
    return names


def check_stamp_coverage() -> List[CheckResult]:
    """``invariant.cache.stamp-covers-model``: every ``repro`` module the
    stamped model source imports is itself hashed into
    :func:`~repro.perf.cache.model_version_stamp`, or exempt with a
    stated reason (:data:`~repro.perf.cache.STAMP_EXEMPT`).

    Every hashed file is walked, so this covers the transitive import
    closure; exempt modules are not followed.  A module outside both
    sets is one whose edit would leave stale cycle counts on disk.
    """
    import repro
    from repro.perf.cache import STAMP_EXEMPT, model_source_files

    package = Path(repro.__file__).parent
    files = model_source_files(package)
    stamped = set()
    for path in files:
        parts = path.relative_to(package.parent).with_suffix("").parts
        stamped.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    unhashed: Dict[str, str] = {}
    for path in files:
        for module in _repro_imports(path, package):
            if module not in stamped and module not in STAMP_EXEMPT:
                unhashed.setdefault(
                    module, path.relative_to(package).as_posix()
                )
    return [
        _result(
            "invariant.cache.stamp-covers-model",
            not unhashed,
            "model source imports modules the stamp does not hash: "
            + ", ".join(f"{m} (from {f})" for m, f in sorted(unhashed.items())),
        )
    ]
