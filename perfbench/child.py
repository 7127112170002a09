"""Program-side helper, run in a fresh interpreter against ``src``.

Subcommands (each prints one JSON object on stdout):

``sweep POINTS JOBS``
    The dense calibration grid: ``sensitivity.sweep(points, jobs)`` with
    the disk tier off, timed around the call (imports excluded; they are
    ``setup_s``).  Prints the seconds, the rows' digest and the cell
    count the tensor engine saw.
``table3``
    Mean |ln(model kilocycles / paper)| over the 15 Table 3 cells.
``oracle CELLS OUT``
    For every ``{"kernel", "machine", "seed"}`` cell in the JSON file
    ``CELLS``, the stdout of ``repro run KERNEL MACHINE --seed S --json
    --no-disk-cache`` through ``repro.cli.main`` in this process; writes
    ``{"kernel/machine/seed": text}`` to ``OUT``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time


def _sweep(points: int, jobs: int) -> dict:
    from repro.eval import sensitivity
    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.tensorsweep import TENSOR_STATS

    DISK_CACHE.disable()
    started = time.perf_counter()
    rows = sensitivity.sweep(points=points, jobs=jobs)
    seconds = time.perf_counter() - started
    stats = TENSOR_STATS.stats()
    return {
        "seconds": seconds,
        "rows": len(rows),
        "digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
        "cells": stats["batched_cells"] + stats["fallback_cells"],
    }


def _table3() -> dict:
    from repro.eval.tables import PAPER_TABLE3, run_table3

    results = run_table3()
    errors = [
        abs(math.log(run.kilocycles / PAPER_TABLE3[cell]))
        for cell, run in results.items()
    ]
    return {"table3_log_error": sum(errors) / len(errors), "cells": len(errors)}


def _oracle(cells_path: str, out_path: str) -> dict:
    from repro.cli import main

    with open(cells_path) as fh:
        cells = json.load(fh)
    expected = {}
    for cell in cells:
        key = f"{cell['kernel']}/{cell['machine']}/{cell['seed']}"
        if key in expected:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([
                "run", cell["kernel"], cell["machine"],
                "--seed", str(cell["seed"]), "--json", "--no-disk-cache",
            ])
        expected[key] = buffer.getvalue() if code == 0 else None
    with open(out_path, "w") as fh:
        json.dump(expected, fh)
    return {"cells": len(expected)}


def main(argv) -> int:
    command, args = argv[0], argv[1:]
    if command == "sweep":
        doc = _sweep(int(args[0]), int(args[1]))
    elif command == "table3":
        doc = _table3()
    elif command == "oracle":
        doc = _oracle(args[0], args[1])
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
