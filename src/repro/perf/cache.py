"""Content-addressed memoization cache for kernel runs.

Every mapping in this library is a *pure function* of its arguments: the
machine models are constructed fresh inside each ``run``, the functional
matrices come from seeded generators, and no global state leaks in.
That determinism is what makes memoization safe — two calls with equal
``(kernel, machine, kwargs)`` return value-identical :class:`KernelRun`
records, so the second can be served from a cache.

The key is a content hash (:func:`cache_key`) over a canonical encoding
of the arguments *as the mapping resolves them*: defaults applied, and
``workload=None`` / ``calibration=None`` replaced by the canonical
workload and the default calibration, so one computation has one key
however the request spells it.  Frozen dataclasses (workloads,
calibrations) hash by type and field values, numpy arrays by
dtype/shape/bytes, containers element-wise.  Arguments the encoder does
not recognise make the call *uncacheable* — it runs normally and is
counted as a bypass, never an error.

A cached :class:`~repro.arch.base.KernelRun` is small: the mapping
reduces its functional output to ``output_digest``
(:func:`content_digest`) before building the record, so entries hold
ledgers and metrics, never workload-sized arrays.  Returned runs are
still defensively independent: the cache stores and serves deep copies,
so mutating a result (its ``metrics`` dict, its ``breakdown``) can
never corrupt later hits.

``repro.mappings.registry.run`` consults the process-wide
:data:`RUN_CACHE`; disable it globally with ``RUN_CACHE.disable()`` or
the ``REPRO_RUN_CACHE=0`` environment variable, or per call with
``run(..., cache=False)`` (the opt-out for deliberately stateful or
experimental mappings).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.trace.tracer import active_tracer


class _Uncacheable(Exception):
    """Internal: an argument has no canonical encoding."""


#: Encodings of immutable dataclass values (workloads, calibrations),
#: looked up by ``id``.  Every request key encodes a calibration, and
#: sweeps reuse a handful of calibration objects, so this saves most of
#: the encoding work.  Each entry holds its object, so the id cannot be
#: reused while the entry lives; the table is cleared when full.
_FROZEN_ENCODINGS: Dict[int, Tuple[Any, bytes]] = {}
_FROZEN_ENCODINGS_MAX = 256


def _immutable(obj: Any) -> bool:
    """Whether ``obj`` can never change: a scalar, or a tuple or frozen
    dataclass made only of immutable values."""
    if obj is None or isinstance(
        obj, (bool, int, float, str, bytes, np.generic)
    ):
        return True
    if isinstance(obj, tuple):
        return all(_immutable(item) for item in obj)
    return (
        dataclasses.is_dataclass(obj)
        and not isinstance(obj, type)
        and type(obj).__dataclass_params__.frozen
        and all(
            _immutable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        )
    )


def _encode(obj: Any, parts: List[bytes]) -> None:
    """Append a canonical byte encoding of ``obj`` to ``parts``.

    The encoding is injective across the supported types (every value is
    tagged with its type) and stable across processes and sessions — no
    ``id()``, no ``hash()``, no dict iteration order in the bytes.
    """
    memo = _FROZEN_ENCODINGS.get(id(obj))
    if memo is not None and memo[0] is obj:
        parts.append(memo[1])
        return
    if obj is None or isinstance(obj, (bool, int)):
        parts.append(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        # repr round-trips doubles exactly.
        parts.append(f"float:{obj!r};".encode())
    elif isinstance(obj, str):
        parts.append(f"str:{len(obj)}:".encode() + obj.encode() + b";")
    elif isinstance(obj, bytes):
        parts.append(f"bytes:{len(obj)}:".encode() + obj + b";")
    elif isinstance(obj, np.generic):
        _encode(obj.item(), parts)
    elif isinstance(obj, np.ndarray):
        parts.append(
            f"ndarray:{obj.dtype.str}:{obj.shape}:".encode()
            + hashlib.sha256(np.ascontiguousarray(obj).tobytes()).digest()
        )
    elif isinstance(obj, (tuple, list)):
        parts.append(f"{type(obj).__name__}[{len(obj)}](".encode())
        for item in obj:
            _encode(item, parts)
        parts.append(b")")
    elif isinstance(obj, Mapping):
        try:
            items = sorted(obj.items())
        except TypeError as exc:
            raise _Uncacheable(f"unsortable mapping keys in {obj!r}") from exc
        parts.append(f"map[{len(items)}](".encode())
        for key, value in items:
            _encode(key, parts)
            _encode(value, parts)
        parts.append(b")")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        own = [f"dc:{cls.__module__}.{cls.__qualname__}(".encode()]
        for field in dataclasses.fields(obj):
            own.append(field.name.encode() + b"=")
            _encode(getattr(obj, field.name), own)
        own.append(b")")
        encoded = b"".join(own)
        if _immutable(obj):
            if len(_FROZEN_ENCODINGS) >= _FROZEN_ENCODINGS_MAX:
                _FROZEN_ENCODINGS.clear()
            _FROZEN_ENCODINGS[id(obj)] = (obj, encoded)
        parts.append(encoded)
    else:
        raise _Uncacheable(f"no canonical encoding for {type(obj)!r}")


#: Lazily computed digest of everything that can change a modelled
#: number without appearing in the run arguments (see
#: :func:`model_version_stamp`).
_VERSION_STAMP: Optional[str] = None


#: Package subtrees and modules whose source determines the modelled
#: numbers; hashed into :func:`model_version_stamp`.  ``units.py`` sizes
#: buffers and strips (``WORD_BYTES``).  ``perf/cache.py`` is hashed for
#: :func:`content_digest`, which names every record's functional output:
#: an edit to the cache module re-keys the disk tier, the cheap side of
#: the trade against serving digests the current source would not
#: compute.
_MODEL_SOURCE = (
    "arch", "mappings", "kernels", "memory", "sim", "models",
    "calibration.py", "units.py", "perf/cache.py",
)

#: Modules the model source imports but the stamp leaves out, each with
#: the reason it cannot change a modelled number or a record.
#: ``invariant.cache.stamp-covers-model`` fails on any other unhashed
#: module in the model's ``repro.*`` import closure.
STAMP_EXEMPT: Dict[str, str] = {
    "repro": "package root: __version__, which the stamp folds in itself",
    "repro.errors": "exception types only",
    "repro.trace.tracer": (
        "observes the costing calls; invariant.trace.* proves a traced "
        "run equals an untraced one"
    ),
    "repro.perf.timers": "wall-clock timers around the registry dispatch",
    "repro.perf.diskcache": (
        "the record store, whose round trip oracle.diskcache.* checks"
    ),
}


def model_source_files(package: Path) -> List[Path]:
    """Every source file the stamp hashes, in sorted order."""
    files: List[Path] = []
    for name in _MODEL_SOURCE:
        entry = package / name
        files.extend([entry] if entry.is_file() else entry.rglob("*.py"))
    return sorted(files)


def _model_source_digest(package: Path) -> bytes:
    """sha256 over every model source file under ``package``, each
    framed by its package-relative path."""
    digest = hashlib.sha256()
    for path in model_source_files(package):
        relative = path.relative_to(package).as_posix().encode()
        content = path.read_bytes()
        digest.update(f"{len(relative)}:{len(content)}:".encode())
        digest.update(relative + content)
    return digest.digest()


def model_version_stamp() -> str:
    """Digest of the library version, the default calibration, and the
    model source.

    Folded into every :func:`cache_key` (and used by the disk tier as
    its entry namespace) so that a modeling change — a version bump, a
    retuned default constant, an edited mapping or machine model —
    invalidates every previously persisted entry instead of silently
    serving stale results.
    """
    global _VERSION_STAMP
    if _VERSION_STAMP is None:
        import repro
        from repro.calibration import DEFAULT_CALIBRATION

        parts: List[bytes] = [f"version={repro.__version__};".encode()]
        _encode(DEFAULT_CALIBRATION, parts)
        parts.append(
            b"source=" + _model_source_digest(Path(repro.__file__).parent)
        )
        _VERSION_STAMP = hashlib.sha256(b"".join(parts)).hexdigest()[:16]
    return _VERSION_STAMP


def reset_model_version_stamp() -> None:
    """Drop the memoized stamp so the next call recomputes it (tests
    monkeypatching ``repro.__version__`` or the default calibration)."""
    global _VERSION_STAMP
    _VERSION_STAMP = None


def cache_key(
    kernel: str, machine: str, kwargs: Mapping[str, Any]
) -> Optional[str]:
    """Stable content hash of one run request, or ``None`` if any
    argument is uncacheable (caller should bypass the cache).

    A request to a registered mapping is keyed by its resolved arguments
    (:func:`repro.mappings.registry.resolved_arguments`): defaults
    applied, ``workload=None`` and ``calibration=None`` replaced by what
    the mapping runs.  So ``{}``, ``{"seed": 0}`` and an explicit
    canonical workload share one key and one simulation.  Any other
    request is keyed by its raw ``kwargs``.  The hash covers the model
    version stamp, so keys minted before a modeling change can never
    collide with keys minted after it."""
    from repro.mappings.registry import resolved_arguments

    arguments = resolved_arguments(kernel, machine, kwargs)
    parts: List[bytes] = [
        f"{model_version_stamp()}|{kernel}|{machine}|".encode()
    ]
    try:
        _encode(dict(kwargs) if arguments is None else arguments, parts)
    except _Uncacheable:
        return None
    return hashlib.sha256(b"".join(parts)).hexdigest()


def content_digest(obj: Any) -> Optional[str]:
    """Stable content hash of any cache-encodable value, or ``None``.

    Uses the same canonical encoding as :func:`cache_key` but *without*
    the model version stamp: the digest names the value itself (a
    scenario, a workload bundle), not a memoized model output, so it
    must survive calibration retunes and version bumps.  Scenario IDs
    (:mod:`repro.scenarios`) are built on this.
    """
    parts: List[bytes] = [b"content|"]
    try:
        _encode(obj, parts)
    except _Uncacheable:
        return None
    return hashlib.sha256(b"".join(parts)).hexdigest()


class RunCache:
    """Keyed store of completed runs with hit/miss/bypass counters.

    Entries are kept in LRU order and bounded by ``max_entries`` so a
    long sweep session cannot grow memory without bound.  All operations
    are lock-protected (the sweep executor's serial fallback may be
    driven from threads).
    """

    def __init__(self, enabled: bool = True, max_entries: int = 256) -> None:
        self._store: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._enabled = bool(enabled)
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def __len__(self) -> int:
        return len(self._store)

    def note_bypass(self) -> None:
        """Record one deliberately uncached run."""
        with self._lock:
            self.bypasses += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.cache.bypass")

    def lookup(self, key: str) -> Optional[Any]:
        """An independent copy of the cached run, or ``None`` (counted
        as a hit or miss respectively)."""
        with self._lock:
            try:
                value = self._store[key]
            except KeyError:
                self.misses += 1
                hit = False
            else:
                self._store.move_to_end(key)
                self.hits += 1
                hit = True
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.cache.hit" if hit else "perf.cache.miss")
        if not hit:
            return None
        return copy.deepcopy(value)

    def insert(self, key: str, value: Any) -> None:
        """Store an independent copy of ``value`` under ``key``."""
        value = copy.deepcopy(value)
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def keys(self) -> List[str]:
        """The stored keys, oldest first (LRU order)."""
        with self._lock:
            return list(self._store)

    def evict(self, key: str) -> bool:
        """Drop one entry (counters untouched); returns whether it was
        present.  The disk-tier oracle uses this to force its next
        lookup through tier 2."""
        with self._lock:
            return self._store.pop(key, None) is not None

    def tamper(self, key: str, mutate) -> bool:
        """Apply ``mutate`` to the stored value under ``key``, in place.

        Returns whether the key was present.  This deliberately bypasses
        the defensive-copy discipline of :meth:`insert`/:meth:`lookup`:
        it exists so ``repro.check.faults`` can corrupt an entry and
        prove the cache-vs-cold differential oracle notices.  Production
        code has no business calling it.
        """
        with self._lock:
            if key not in self._store:
                return False
            mutate(self._store[key])
            return True

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.bypasses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
        }

    def format_stats(self) -> str:
        s = self.stats()
        return (
            f"run cache: {s['hits']} hits, {s['misses']} misses, "
            f"{s['bypasses']} bypasses, {s['entries']} entries"
        )


#: Process-wide cache consulted by :func:`repro.mappings.registry.run`.
RUN_CACHE = RunCache(
    enabled=os.environ.get("REPRO_RUN_CACHE", "1") != "0"
)
