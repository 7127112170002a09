"""Outside-in span recorder for one traced program process.

The benchmark never edits the program.  Instead, ``traced.py`` installs
this module's recorder before ``repro`` is imported: a meta-path import
hook times every module import and, right after a module listed in
:data:`ENTRY_POINTS` finishes executing, replaces the listed entry
points with span-recording wrappers.  Because the replacement happens
before any other module can ``from X import name``, every caller looks
the wrapped object up by the name it already uses.

Spans live in memory and are written out once, when the process ends.
Each span is ``[name, start, end, parent, op, thread]``; a layer's self
time is its duration minus the part of it that its child spans cover
(:func:`self_times`).  This file imports only the standard library, so
loading it does not disturb the import timings it records.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Span name for time spent executing module bodies (imports).
IMPORT_SPAN = "cli.import"
ROOT_SPAN = "process"


def _count_disk_get(rec: "Recorder", args, kwargs, result) -> None:
    keys = args[1] if len(args) > 1 else kwargs.get("keys", ())
    rec.add("perf.disk.hits", len(result))
    rec.add("perf.disk.misses", len(keys) - len(result))


def _count_disk_lookup(rec: "Recorder", args, kwargs, result) -> None:
    rec.add("perf.disk.hits" if result is not None else "perf.disk.misses")


def _count_planner(rec: "Recorder", args, kwargs, result) -> None:
    requests = args[0] if args else kwargs.get("requests", ())
    rec.add("perf.planner.requests", len(requests))


def _count_plan_units(rec: "Recorder", args, kwargs, result) -> None:
    pending = args[0] if args else kwargs.get("pairs", ())
    rec.add("perf.planner.executed", len(pending))
    for unit in result:
        cells = len(unit.positions)
        if type(unit).__name__ == "BatchGroup":
            rec.add("perf.tensor.batched_cells", cells)
        else:
            rec.add("perf.tensor.fallback_cells", cells)


#: module -> [(attribute path, span name, result counter)].  An
#: attribute path ``Class.method`` wraps the method on the class; a
#: path ending in ``[]`` wraps every value of a dict, and ``{name}`` in
#: the span name is replaced by the dict key joined with dots.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "repro.obs.ledger": [
        ("start_session", "obs.session", None),
        ("end_session", "obs.session", None),
    ],
    "repro.obs.history": [("append_history", "obs.session", None)],
    "repro.perf.index": [
        ("PackedDiskCache._sync", "perf.index.load", None),
        ("PackedDiskCache.get_many", "perf.disk.get", _count_disk_get),
        ("PackedDiskCache.lookup", "perf.disk.get", _count_disk_lookup),
        ("PackedDiskCache.put_many", "perf.disk.put", None),
    ],
    "repro.perf.cache": [("cache_key", "perf.cache_key", None)],
    "repro.perf.poold": [("acquire", "perf.pool.lease", None)],
    "repro.perf.executor": [("_run_unit_pool", "perf.pool.run", None)],
    "repro.perf.tensorsweep": [
        ("plan_units", "perf.tensor.plan", _count_plan_units),
    ],
    "repro.perf.planner": [
        ("execute_requests", "perf.planner", _count_planner),
    ],
    "repro.memory.dram": [
        ("DRAM.access_run", "memory.dram.access_run", None),
    ],
    "repro.memory.tlb": [("TLB.access_pages", "memory.tlb.access_pages", None)],
    "repro.kernels.corner_turn": [
        ("CornerTurnWorkload.make_matrix", "kernels.make_matrix", None),
    ],
    "repro.arch.imagine.stream_program": [
        ("reschedule", "arch.imagine.reschedule", None),
    ],
    "repro.mappings.registry": [
        ("_REGISTRY[]", "mappings.run.{name}", None),
        ("_BATCH_REGISTRY[]", "mappings.batch", None),
    ],
    "repro.eval.tables": [("run_table3", "eval.table3", None)],
    "repro.eval.experiments": [("EXPERIMENTS[]", "eval.experiments", None)],
    "repro.eval.sensitivity": [("sweep", "eval.sensitivity", None)],
    "repro.check": [("validation_section", "check.validation", None)],
    "repro.scenarios.fuzz": [
        ("generate_scenarios", "scenarios.generate", None),
        ("validate_pipelines", "scenarios.validate", None),
    ],
    "repro.scenarios.pipeline": [("run_scenarios", "scenarios.run", None)],
    "repro.service.execute": [("execute_job", "service.execute", None)],
}

#: Where a span's operation id comes from inside a service job: the
#: program's own job context (``""`` outside a job).
JOB_CONTEXT = ("repro.resilience.stats", "current_job")


class Recorder:
    """In-memory spans and counts for the current process.

    Spans opened on a thread nest under that thread's innermost open
    span.  Forked children (process-pool workers) stop recording: their
    spans could not be written out, and their time already shows as the
    parent's wait inside ``perf.pool.run``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.op = ""
        self.current_job: Optional[Callable[[], str]] = None
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[list]:
        if not self.enabled:
            return None
        stack = self._stack()
        job = self.current_job() if self.current_job is not None else ""
        span = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            job or self.op,
            threading.get_ident(),
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, counter=None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if counter is not None and span is not None:
                counter(rec, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write every span and count to ``path`` as JSON."""
        ids = {id(span): n for n, span in enumerate(self.spans)}
        end = time.perf_counter()
        rows = [
            [
                name,
                t0,
                end if t1 is None else t1,
                None if parent is None else ids[id(parent)],
                op,
                tid,
            ]
            for name, t0, t1, parent, op, tid in self.spans
        ]
        doc = {
            "main_thread": threading.main_thread().ident,
            "spans": rows,
            "counts": self.counts,
            **extra,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _patch_module(rec: Recorder, module, entries) -> None:
    """Replace ``module``'s listed entry points with recording wrappers."""
    for path, span_name, counter in entries:
        if path.endswith("[]"):
            table = getattr(module, path[:-2])
            for key, fn in list(table.items()):
                label = ".".join(key) if isinstance(key, tuple) else str(key)
                table[key] = rec.wrap(
                    fn, span_name.format(name=label), counter
                )
            continue
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        setattr(owner, attr, rec.wrap(fn, span_name, counter))


class _ImportHook(importlib.abc.MetaPathFinder):
    """Times module execution and patches entry points after it."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._local = threading.local()

    def find_spec(self, fullname, path, target=None):
        if getattr(self._local, "busy", False):
            return None
        self._local.busy = True
        try:
            spec = None
            for finder in sys.meta_path:
                if finder is self or not hasattr(finder, "find_spec"):
                    continue
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        finally:
            self._local.busy = False
        loader = getattr(spec, "loader", None)
        if isinstance(
            loader,
            (
                importlib.machinery.SourceFileLoader,
                importlib.machinery.SourcelessFileLoader,
                importlib.machinery.ExtensionFileLoader,
            ),
        ):
            loader.exec_module = self._timed(loader.exec_module, fullname)
        return spec

    def _timed(self, exec_module, fullname):
        rec = self.rec

        def exec_and_patch(module):
            span = rec.open(IMPORT_SPAN)
            try:
                exec_module(module)
            finally:
                rec.close(span)
            entries = ENTRY_POINTS.get(fullname)
            if entries and rec.enabled:
                _patch_module(rec, module, entries)
            if fullname == JOB_CONTEXT[0]:
                rec.current_job = getattr(module, JOB_CONTEXT[1])

        return exec_and_patch


def install() -> Recorder:
    """Start recording: open the root span and hook imports."""
    rec = Recorder()
    rec.open(ROOT_SPAN)
    sys.meta_path.insert(0, _ImportHook(rec))
    return rec


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark process, on a dumped span file)
# ---------------------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, t0, t1, parent, _op, _tid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return [
        (t1 - t0) - _covered(children.get(n, ()), t0, t1)
        for n, (name, t0, t1, parent, _op, _tid) in enumerate(spans)
    ]


def layer_summary(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer self time, call count and the root accounting.

    ``wall_s`` is the root span (the traced process from the moment
    tracing started); ``unattributed_s`` is its own self time, so the
    main thread's layer self times plus ``unattributed_s`` equal
    ``wall_s``.  Layers on other threads (the service's executor) are
    reported but sit outside that identity.
    """
    spans = doc["spans"]
    selfs = self_times(spans)
    main = doc["main_thread"]
    layers: Dict[str, Dict[str, float]] = {}
    main_self = 0.0
    wall = unattributed = 0.0
    for (name, t0, t1, parent, _op, tid), own in zip(spans, selfs):
        if name == ROOT_SPAN and parent is None and tid == main:
            wall, unattributed = t1 - t0, own
            continue
        entry = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        if tid == main:
            main_self += own
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "main_layers_s": main_self,
        "layers": layers,
        "counts": dict(doc.get("counts", {})),
    }
