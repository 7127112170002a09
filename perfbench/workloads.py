"""The command-line workloads: report and batch.

Each workload is one kind of operation, repeated for the run's
measuring time.  An operation is a few *parts*, each a fresh program
process (``report``: a cold report, a warm report and a warm run;
``batch``: a sweep, then a fuzz).  The per-workload choices and the
metric each one feeds are documented in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness
import layers
from harness import Ledger, Proc, Scratch

#: ``sensitivity.sweep(points=25, jobs=2)``: the BENCH_PR6 dense grid.
SWEEP_POINTS = 25
SWEEP_JOBS = 2
#: The dense grid's size in cells — the work unit of ``sweep``.
SWEEP_CELLS = 1465
FUZZ_COUNT = 200
FUZZ_JOBS = 2
RUN_ARGS = ("run", "corner_turn", "viram", "--json")

#: Fresh interpreters sampled per run for ``setup_s``.
SETUP_SAMPLES = 5


class Op:
    """One measured operation, made of one or more timed parts.

    ``parts`` maps each part to what the latency metric counts for it;
    ``wall_s`` is the processes' wall (spawn to exit, summed over the
    parts), which traced and untraced twins are compared on for
    ``trace.overhead_s``.  ``summaries`` holds one layer summary per
    traced part process.
    """

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {}
        self.wall_s = 0.0
        self.maxrss_mb = 0.0
        self.summaries: List[Dict[str, Any]] = []

    def add(self, part: str, proc: Proc,
            summary: Optional[Dict[str, Any]] = None,
            value_s: Optional[float] = None) -> "Op":
        self.parts[part] = proc.wall_s if value_s is None else value_s
        self.wall_s += proc.wall_s
        self.maxrss_mb = max(self.maxrss_mb, proc.maxrss_mb)
        if summary is not None:
            self.summaries.append(summary)
        return self


class CliWorkload:
    """Set-up, then the same operation until the measuring time is up.

    Subclasses define :meth:`prepare` (untimed set-up, e.g. computing a
    reference output) and :meth:`op` (one checked operation; ``traced``
    routes it through ``traced.py``).
    """

    name = ""

    def __init__(self, seed: int, scratch: Scratch, ledger: Ledger) -> None:
        self.seed = seed
        self.scratch = scratch
        self.ledger = ledger
        self.setups: List[Proc] = []

    # -- hooks ---------------------------------------------------------
    def prepare(self) -> None:
        pass

    def op(self, traced: bool) -> Optional[Op]:
        raise NotImplementedError

    def table3(self) -> Optional[float]:
        """Untimed: ``table3_log_error`` against this run's tier."""
        return harness.Table3Probe(self.scratch, self.table3_tier()).result(
            self.ledger
        )

    def table3_tier(self) -> Optional[Path]:
        return None

    # -- helpers -------------------------------------------------------
    def _run(self, argv: List[str], traced: bool, disk: Optional[Path] = None,
             label: str = "op") -> Tuple[Proc, Optional[Dict[str, Any]], Path]:
        """Run ``argv`` in a fresh directory; a traced run also returns
        its layer summary."""
        base = self.scratch.fresh(label)
        spans = base / "spans.json"
        if traced:
            argv = harness.traced_argv(spans, *argv[1:])
        proc = harness.run_proc(argv, harness.program_env(base, disk), base)
        summary = None
        if traced and self.ledger.check(
            spans.is_file(), "traced spans", proc, "no span file written"
        ):
            summary = layers.load(spans)
        return proc, summary, base

    # -- measuring loop ------------------------------------------------
    def measure(self, seconds: float, traced_share: float = 0.0
                ) -> Tuple[List[Op], List[Op]]:
        """Untraced ops for ``seconds * (1 - traced_share)``, then, when
        ``traced_share`` > 0, traced ops for the rest; at least one
        attempt of each.

        The ``setup_s`` samples are spread evenly over the untraced
        stretch, between operations, so that they see the same host as
        the operations do rather than one burst at the start.
        """
        started = time.perf_counter()
        until = started + seconds * (1.0 - traced_share)
        due = [
            started + k * (until - started) / SETUP_SAMPLES
            for k in range(SETUP_SAMPLES)
        ]
        plain = self._repeat(False, until, due)
        for _ in due:
            self._setup_sample()
        traced = (
            self._repeat(True, started + seconds, [])
            if traced_share > 0 else []
        )
        return plain, traced

    def _setup_sample(self) -> None:
        proc = harness.setup_sample(self.scratch)
        self.ledger.check(proc.code == 0, "setup import", proc)
        self.setups.append(proc)

    def _repeat(self, traced: bool, until: float,
                due: List[float]) -> List[Op]:
        """Ops until ``until``; before each, the setup samples now due
        (taken off ``due``)."""
        ops: List[Op] = []
        attempts = 0
        while attempts == 0 or time.perf_counter() < until:
            while due and time.perf_counter() >= due[0]:
                due.pop(0)
                self._setup_sample()
            attempts += 1
            op = self.op(traced)
            if op is not None:
                ops.append(op)
        return ops


class Report(CliWorkload):
    """A user's first report, its repeat, and an interactive run.

    Each operation is three fresh processes: ``repro report`` on an
    empty disk tier (part ``cold``), ``repro report`` again on the tier
    it filled (``warm``), and ``repro run corner_turn viram --json`` on
    that tier (``run``).  Both reports must be byte-equal to the golden
    report; the run's expected bytes are the same command's
    ``--no-disk-cache`` output, computed once per run.
    """

    name = "report"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._last_tier: Optional[Path] = None

    def prepare(self) -> None:
        proc, _, base = self._run(
            harness.repro_argv(*RUN_ARGS, "--no-disk-cache"), False, None,
            "reference",
        )
        self.ledger.check(proc.code == 0, "reference run", proc)
        self.expected = proc.stdout
        self.scratch.drop(base)

    def table3_tier(self) -> Optional[Path]:
        return self._last_tier

    def _report(self, op: Op, traced: bool, disk: Optional[Path],
                part: str) -> Tuple[bool, Path]:
        proc, summary, base = self._run(
            harness.repro_argv("report"), traced, disk, part
        )
        ok = self.ledger.check(
            proc.code == 0 and proc.stdout == harness.GOLDEN_REPORT.read_bytes(),
            f"{part} report",
            proc,
            "exit code or stdout differs from tests/data/golden/report.txt",
        )
        op.add(part, proc, summary)
        return ok, base

    def op(self, traced: bool) -> Optional[Op]:
        op = Op()
        cold_ok, base = self._report(op, traced, None, "cold")
        if self._last_tier is not None:
            self.scratch.drop(self._last_tier.parent)
        self._last_tier = base / "disk"
        warm_ok, base = self._report(op, traced, self._last_tier, "warm")
        self.scratch.drop(base)
        proc, summary, base = self._run(
            harness.repro_argv(*RUN_ARGS), traced, self._last_tier, "warm-run"
        )
        run_ok = self.ledger.check(
            proc.code == 0 and proc.stdout == self.expected,
            "warm run",
            proc,
            "stdout differs from the --no-disk-cache output",
        )
        self.scratch.drop(base)
        if not (cold_ok and warm_ok and run_ok):
            return None
        return op.add("run", proc, summary)


class Batch(CliWorkload):
    """The dense calibration grid, then the pipeline fuzz, each in a
    fresh process.

    * ``sweep``: ``sensitivity.sweep(points=25, jobs=2)``, no disk tier,
      1465 cells; its time is the ``sweep`` call alone.  The rows must
      equal a serial (``jobs=1``) reference computed once per run.
    * ``fuzz``: ``repro pipeline fuzz --count 200 --jobs 2`` at the
      workload seed, spawn to exit.  Needs exit 0, zero violations, and
      the same manifest bytes on every iteration of the run.
    """

    name = "batch"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.fuzz_expected: Optional[str] = None

    def _sweep(self, jobs: int, traced: bool, label: str):
        argv = [
            sys.executable, str(harness.CHILD), "sweep",
            str(SWEEP_POINTS), str(jobs),
        ]
        proc, summary, base = self._run(argv, traced, None, label)
        try:
            doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            doc = None
        self.scratch.drop(base)
        return proc, summary, doc

    def prepare(self) -> None:
        # The Table 3 probe has a cold tier here; overlap it with the
        # (equally untimed) serial reference.
        self._probe = harness.Table3Probe(self.scratch)
        proc, _, doc = self._sweep(1, False, "reference")
        self.ledger.check(
            proc.code == 0 and doc is not None, "serial reference sweep", proc
        )
        self.sweep_expected = doc["digest"] if doc else None

    def table3(self) -> Optional[float]:
        return self._probe.result(self.ledger)

    def op(self, traced: bool) -> Optional[Op]:
        proc, summary, doc = self._sweep(SWEEP_JOBS, traced, "sweep")
        sweep_ok = self.ledger.check(
            proc.code == 0 and doc is not None
            and doc["digest"] == self.sweep_expected,
            "dense sweep",
            proc,
            "rows differ from the serial reference",
        )
        op = Op().add("sweep", proc, summary,
                      value_s=doc["seconds"] if doc else None)
        argv = harness.repro_argv(
            "pipeline", "fuzz", "--seed", str(self.seed),
            "--count", str(FUZZ_COUNT), "--jobs", str(FUZZ_JOBS), "--json",
        )
        proc, summary, base = self._run(argv, traced, None, "fuzz")
        self.scratch.drop(base)
        try:
            manifest = json.loads(proc.stdout)
        except ValueError:
            manifest = None
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.fuzz_expected is None and manifest is not None:
            self.fuzz_expected = digest
        fuzz_ok = self.ledger.check(
            proc.code == 0
            and manifest is not None
            and manifest.get("violation_count") == 0
            and digest == self.fuzz_expected,
            "pipeline fuzz",
            proc,
            "non-zero exit, violations, or a manifest differing between "
            "iterations",
        )
        if not (sweep_ok and fuzz_ok):
            return None
        return op.add("fuzz", proc, summary)


CLI_WORKLOADS = {cls.name: cls for cls in (Report, Batch)}


def part_latencies(ops: List[Op]) -> Dict[str, float]:
    """Each part's median over the run's operations (seconds)."""
    return {
        part: harness.median([op.parts[part] for op in ops])
        for part in ops[0].parts
    }


#: Each workload's own names for its figures, computed from the parts'
#: medians (seconds).
NAMED = {
    "report": lambda q: {
        "report_cold_s": q["cold"],
        "report_warm_s": q["warm"],
        "run_warm_s": q["run"],
    },
    "batch": lambda q: {
        "sweep_cells_per_s": SWEEP_CELLS / q["sweep"],
        "fuzz_scenarios_per_s": FUZZ_COUNT / q["fuzz"],
    },
}


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool,
                     scratch: Scratch, ledger: Ledger) -> Dict[str, Any]:
    """Run one command-line workload; returns metrics plus detail."""
    workload = CLI_WORKLOADS[name](seed, scratch, ledger)
    workload.prepare()
    plain, traced = workload.measure(seconds, 0.5 if trace else 0.0)
    if not plain:
        return {"ok": False}
    parts = part_latencies(plain)
    result: Dict[str, Any] = {
        "ok": True,
        "setup_s": harness.median([p.wall_s for p in workload.setups]),
        "latency_ms": 1000.0 * sum(parts.values()),
        "rss_peak_mb": max(op.maxrss_mb for op in plain),
        "named": NAMED[name](parts),
        "detail": {
            "ops": len(plain),
            "part_seconds": {
                part: [op.parts[part] for op in plain] for part in parts
            },
            "setup_seconds": [p.wall_s for p in workload.setups],
        },
    }
    result["table3_log_error"] = workload.table3()
    if trace:
        result["per_layer"] = layers.per_layer_metrics(
            [op.summaries for op in traced],
            traced_walls=[op.wall_s for op in traced],
            plain_walls=[op.wall_s for op in plain],
        )
    return result
