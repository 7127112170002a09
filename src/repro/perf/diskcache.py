"""The process-wide tier 2 of the run cache.

:data:`DISK_CACHE` is the one persistent store every layer reads and
writes — the registry, the sweep planner, the tensor engine, the
service, the checks and the ``repro cache`` verbs.  It is a
:class:`repro.perf.index.PackedDiskCache`; see :mod:`repro.perf.index`
for the layout, locking, and self-healing policy.

Constructing the store does no I/O (the root and model-version stamp
resolve on first use), so importing this module stays cheap on the
CLI's fast-start path.
"""

from __future__ import annotations

from repro.perf.index import PackedDiskCache

__all__ = ["DISK_CACHE"]

#: The process-wide persistent store (root from ``$REPRO_DISK_CACHE_DIR``
#: etc., re-read on every operation).
DISK_CACHE = PackedDiskCache()
