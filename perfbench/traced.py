"""Run one program command under the outside-in tracer.

Usage::

    python perfbench/traced.py SPANS.json -- -m repro report
    python perfbench/traced.py SPANS.json -- perfbench/child.py sweep 25 2

Tracing starts before ``repro`` is imported (see ``tracing.py``);
``-m repro ARGS`` calls ``repro.cli.main(ARGS)``, anything else runs as
a script.  When the command ends — including a ``repro serve`` drained
by SIGTERM — the spans, counts and a few program counters are written
to ``SPANS.json`` and the command's exit code is returned.
"""

from __future__ import annotations

import runpy
import sys

import tracing


def _program_counters() -> dict:
    """Counters the program keeps itself, read only if already loaded."""
    out = {}
    stats = sys.modules.get("repro.resilience.stats")
    if stats is not None:
        out["resilience"] = {
            name: stats.RESILIENCE.get(name) for name in stats.COUNTERS
        }
    index = sys.modules.get("repro.perf.index")
    diskcache = sys.modules.get("repro.perf.diskcache")
    if index is not None and diskcache is not None:
        try:
            out["disk"] = diskcache.DISK_CACHE.stats()
        except Exception as exc:  # noqa: BLE001 - report, don't mask exit
            out["disk_error"] = repr(exc)
    return out


def main() -> int:
    spans_path = sys.argv[1]
    target = sys.argv[sys.argv.index("--") + 1:]
    rec = tracing.install()
    root = rec.spans[0]
    code = 0
    try:
        if target[:2] == ["-m", "repro"]:
            rec.op = "cli:" + (target[2] if len(target) > 2 else "")
            import repro.cli

            code = repro.cli.main(target[2:])
        else:
            rec.op = "script:" + " ".join(target[:2])
            sys.argv = list(target)
            try:
                runpy.run_path(target[0], run_name="__main__")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        rec.close(root)
        rec.dump(spans_path, {"program": _program_counters()})
    return code


if __name__ == "__main__":
    sys.exit(main())
