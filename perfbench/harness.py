"""Process, isolation, statistics and result plumbing shared by workloads.

Every program process the benchmark starts runs with:

* ``PYTHONPATH`` pointing at this checkout's ``src`` only;
* every inherited ``REPRO_*`` variable removed (``REPRO_CHAOS``
  included), then throwaway ``REPRO_DISK_CACHE_DIR``, ``REPRO_OBS_DIR``
  and ``REPRO_SERVICE_DIR`` directories, plus ``TMPDIR``, all under
  ``perfbench/.work/`` — so nothing reads or writes ``~/.cache/repro``
  or the checkout's ``.repro/``;
* its peak RSS read from its own ``wait4`` rusage, not the cumulative
  children maximum.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden" / "report.txt"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
TRACED = BENCH_DIR / "traced.py"
CHILD = BENCH_DIR / "child.py"

#: Ceiling on any single program process; a run must end within 180 s.
PROC_TIMEOUT_S = 150.0

#: What ``setup_s`` imports in a fresh interpreter for CLI workloads.
SETUP_IMPORTS = "import repro.cli, repro.eval.report, repro.mappings.registry"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a program failure)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "repro" / "cli.py", GOLDEN_REPORT)
        if not p.is_file()
    ]
    if missing:
        raise BenchError(
            "program sources not found in this checkout: " + ", ".join(missing)
        )


@dataclass
class Proc:
    """One finished program process."""

    argv: List[str]
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float


class Scratch:
    """Throwaway directories for one benchmark run, removed at the end."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root = WORK_DIR / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.root.mkdir()
        self._n = 0

    def fresh(self, label: str) -> Path:
        self._n += 1
        path = self.root / f"{self._n:04d}-{label}"
        path.mkdir()
        return path

    def drop(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def program_env(base: Path, disk: Optional[Path] = None) -> Dict[str, str]:
    """Environment for one program process, isolated under ``base``.

    ``disk`` shares a disk tier across processes (the warm workloads);
    by default the process gets its own empty tier under ``base``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_DISK_CACHE_DIR"] = str(disk if disk is not None else base / "disk")
    env["REPRO_OBS_DIR"] = str(base / "obs")
    env["REPRO_SERVICE_DIR"] = str(base / "service")
    tmp = base / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


#: Processes started and not yet reaped (see :func:`stop_all`).
_LIVE: Dict[int, subprocess.Popen] = {}


def spawn(argv: Sequence[str], env: Dict[str, str], cwd: Path, out: Path):
    """Start a program process with stdout/stderr captured to files."""
    stdout = open(out.with_suffix(".out"), "wb")
    stderr = open(out.with_suffix(".err"), "wb")
    try:
        popen = subprocess.Popen(
            list(argv), env=env, cwd=str(cwd), stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
    finally:
        stdout.close()
        stderr.close()
    _LIVE[popen.pid] = popen
    return popen


def stop_all() -> None:
    """Kill and reap every process a failed run left behind."""
    for pid in list(_LIVE):
        _kill(pid)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        _LIVE.pop(pid, None).returncode = -signal.SIGKILL


def reap(popen, out: Path, started: float, timeout: float = PROC_TIMEOUT_S,
         argv: Sequence[str] = ()) -> Proc:
    """Wait for ``popen`` with ``wait4`` (for its own peak RSS); a
    watchdog kills it after ``timeout`` seconds."""
    watchdog = threading.Timer(timeout, _kill, args=(popen.pid,))
    watchdog.daemon = True
    watchdog.start()
    try:
        _, status, usage = os.wait4(popen.pid, 0)
    finally:
        watchdog.cancel()
    _LIVE.pop(popen.pid, None)
    wall = time.perf_counter() - started
    popen.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=list(argv),
        code=popen.returncode,
        stdout=out.with_suffix(".out").read_bytes(),
        stderr=out.with_suffix(".err").read_bytes(),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def _kill(pid: int) -> None:
    """SIGKILL the process and its own children (its session's group)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_proc(argv: Sequence[str], env: Dict[str, str], cwd: Path,
             timeout: float = PROC_TIMEOUT_S) -> Proc:
    """Run one program process to completion; wall is spawn to exit."""
    out = cwd / f"proc-{time.monotonic_ns()}"
    started = time.perf_counter()
    popen = spawn(argv, env, cwd, out)
    return reap(popen, out, started, timeout, argv)


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def traced_argv(spans: Path, *target: str) -> List[str]:
    """Run ``target`` (``-m repro ...`` or a script) under the tracer."""
    return [sys.executable, str(TRACED), str(spans), "--", *target]


def setup_sample(scratch: Scratch) -> Proc:
    """A fresh interpreter importing the CLI, report and registry."""
    base = scratch.fresh("setup")
    proc = run_proc(
        [sys.executable, "-c", SETUP_IMPORTS], program_env(base), base
    )
    scratch.drop(base)
    return proc


class Table3Probe:
    """``child.py table3`` in the background: mean |ln(model / paper)|
    over the 15 Table 3 cells (simulated).  Untimed; it may overlap
    other untimed work."""

    def __init__(self, scratch: Scratch, disk: Optional[Path] = None) -> None:
        self.base = scratch.fresh("table3")
        self.out = self.base / "table3"
        self.started = time.perf_counter()
        self.argv = [sys.executable, str(CHILD), "table3"]
        self.popen = spawn(
            self.argv, program_env(self.base, disk), self.base, self.out
        )

    def result(self, ledger: "Ledger") -> Optional[float]:
        proc = reap(self.popen, self.out, self.started, argv=self.argv)
        try:
            value = float(json.loads(proc.stdout)["table3_log_error"])
        except (ValueError, KeyError):
            value = None
        ledger.check(
            proc.code == 0 and value is not None, "table3 probe", proc
        )
        return value


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """The figure every timed part reports: the shared host's speed
    drifts by tens of percent over minutes, and the median of a run's
    operations averages over that drift while staying deaf to the odd
    stalled operation."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# Correctness accounting
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted/failed operations; a failure's output is kept."""

    attempted: int = 0
    failed: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, what: str, proc: Optional[Proc] = None,
              detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            entry: Dict[str, Any] = {"op": what, "detail": detail}
            if proc is not None:
                entry.update(
                    argv=proc.argv,
                    code=proc.code,
                    stdout=proc.stdout.decode("utf-8", "replace")[-20000:],
                    stderr=proc.stderr.decode("utf-8", "replace")[-20000:],
                )
            self.failures.append(entry)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> Dict[str, Any]:
    """Where the numbers were measured; they do not carry across hosts."""
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - informational only
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def write_results(name: str, record: Dict[str, Any]) -> Path:
    """Keep the full record (and any failure outputs) for inspection."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
