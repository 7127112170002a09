"""Self-tests of the benchmark (``python -m pytest perfbench/tests``).

They show that a smoke-sized run of each workload emits every metric by
name and unit, that a corrupted program output raises the failure ratio,
and that layer self times plus ``trace.unattributed_s`` add up to the
traced wall.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert SPEC["per_layer"] == layers.catalogue()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _result(_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert abs(result["metrics"]["table3_log_error"]["value"] - 0.04193) < 5e-6


@pytest.mark.parametrize("workload", ["report", "batch"])
def test_traced_layers_reconcile_with_the_wall(workload):
    result = _result(_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"
    ))
    assert result["correct"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    layer_sum = sum(values[m] for m in layers.SPAN_METRICS.values())
    wall = values["trace.wall_s"]
    assert wall > 0 and values["cli.import_s"] > 0
    assert layer_sum == pytest.approx(
        values["trace.layers_s"] + values["trace.other_threads_s"], rel=1e-9
    )
    assert values["trace.layers_s"] + values["trace.unattributed_s"] == (
        pytest.approx(wall, rel=1e-9)
    )
    assert 0 <= values["trace.unattributed_s"] < wall


def test_self_time_subtracts_the_union_of_children():
    overlapping = [
        ["c", 5.0, 9.0, None, "", 1],
        ["d", 6.0, 8.0, 0, "", 1],
        ["e", 7.0, 8.5, 0, "", 1],
    ]
    assert tracing.self_times(overlapping) == pytest.approx([1.5, 2.0, 1.5])


def test_nested_self_times_sum_to_the_root():
    spans = [
        [tracing.ROOT_SPAN, 0.0, 10.0, None, "", 1],
        ["a", 1.0, 4.0, 0, "", 1],
        ["b", 2.0, 3.0, 1, "", 1],
        ["c", 5.0, 9.0, 0, "", 1],
        ["d", 6.0, 8.0, 3, "", 1],
        ["e", 8.0, 8.5, 3, "", 1],
        ["worker", 2.0, 7.0, None, "", 2],
    ]
    summary = tracing.layer_summary({"spans": spans, "main_thread": 1})
    assert summary["wall_s"] == 10.0
    assert summary["unattributed_s"] == pytest.approx(3.0)
    assert summary["main_layers_s"] == pytest.approx(7.0)
    assert summary["layers"]["worker"]["self_s"] == pytest.approx(5.0)


def test_corrupted_output_raises_the_failure_ratio(monkeypatch):
    """Flip one byte of one warm ``repro run`` output: exactly that op
    fails and its output is kept for inspection."""
    real = harness.run_proc
    calls = {"n": 0}

    def corrupting(argv, env, cwd, timeout=harness.PROC_TIMEOUT_S):
        proc = real(argv, env, cwd, timeout)
        if argv[-1] == "--json" and "warm-run" in str(cwd):
            calls["n"] += 1
            if calls["n"] == 2:
                proc.stdout = proc.stdout.replace(b"565632", b"565633", 1)
        return proc

    monkeypatch.setattr(harness, "run_proc", corrupting)
    ledger = harness.Ledger()
    scratch = harness.Scratch()
    try:
        workload = workloads.Report(3, scratch, ledger)
        workload.prepare()
        calls["n"] = 0
        ops = [workload.op(False) for _ in range(3)]
    finally:
        scratch.close()
    assert [op is None for op in ops] == [False, True, False]
    assert ledger.failed == 1 and ledger.fail_ratio > 0
    assert ledger.failures[0]["op"] == "warm run"
    assert "565633" in ledger.failures[0]["stdout"]


def test_exits_nonzero_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/."""
    scratch = harness.Scratch()
    bare = scratch.fresh("bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            BENCH, bare / "perfbench",
            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"),
        )
        proc = _bench("--workload", "report", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        scratch.close()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
