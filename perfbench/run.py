#!/usr/bin/env python3
"""One layered benchmark for the reproduction's user-visible paths.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Runs one workload against the code in ``src/`` for ``--seconds`` of
measurement, checks every operation's output, and prints, as the last
line of stdout, one JSON object::

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, measured
by a traced run of the same workload (see ``README.md``).  Lines before
the last one repeat the figures under their workload-specific names
with the host fingerprint, and the full record is kept under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Any, Dict

import harness
import layers
import serve
import workloads

WORKLOADS = (*workloads.CLI_WORKLOADS, "serve")

#: End-to-end metrics (every workload emits all of them).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("rss_peak_mb", "MB"),
    ("table3_log_error", "ratio"),
)

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, trace: bool,
            ledger: harness.Ledger) -> Dict[str, Any]:
    """Run the workload; a crash of the program (or of the harness
    around it) is a failed operation, not a missing result."""
    scratch = harness.Scratch()
    try:
        if name == "serve":
            return serve.run_serve(seed, seconds, trace, scratch, ledger)
        return workloads.run_cli_workload(
            name, seed, seconds, trace, scratch, ledger
        )
    except Exception:  # noqa: BLE001 - reported as a failure below
        ledger.check(False, "workload", detail=traceback.format_exc())
        return {"ok": False}
    finally:
        harness.stop_all()
        scratch.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.require_program()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ledger = harness.Ledger()
    outcome = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ledger
    )
    if not outcome.get("ok") and not ledger.failed:
        ledger.check(False, "workload", detail="no operation completed")
    if args.trace:
        metrics = {
            m["name"]: {"value": float(outcome.get("per_layer", {}).get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in layers.catalogue()
        }
    else:
        metrics = {
            name: {"value": float(outcome.get(name) or 0.0), "unit": unit}
            for name, unit in END_TO_END
        }
    fingerprint = harness.host_fingerprint()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "metrics": metrics,
        "named": outcome.get("named", {}),
        "op_fail_ratio": ledger.fail_ratio,
        "detail": outcome.get("detail", {}),
        "failures": ledger.failures,
    }
    path = harness.write_results(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    for alias, value in record["named"].items():
        print(f"{args.workload}: {alias} = {value:.6g}")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload}: op_fail_ratio = {ledger.fail_ratio:.6g} "
        f"({ledger.failed}/{ledger.attempted}); full record: "
        f"{path.relative_to(harness.ROOT)}"
    )
    correct = ledger.failed == 0 and bool(outcome.get("ok"))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
