"""Tests for :mod:`repro.check.invariants`.

Two directions: every real run must satisfy every invariant, and every
invariant must actually reject the corruption it exists to reject —
an invariant that cannot fail validates nothing.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.check.invariants import (
    check_accounting,
    check_bound,
    check_engine_conservation,
    check_functional,
    check_throughput,
    check_trace_accounting,
    check_traffic,
    validate_run,
    validate_results,
)
from repro.check.report import FAIL, PASS, SKIP
from repro.mappings import registry
from repro.models.bounds import kernel_bound, kernel_footprint_words


@pytest.fixture(scope="module")
def small_runs(small_workloads_module):
    return {
        (kernel, machine): registry.run(
            kernel, machine, workload=small_workloads_module[kernel]
        )
        for kernel, machine in registry.available()
    }


@pytest.fixture(scope="module")
def small_workloads_module():
    from repro.kernels.workloads import (
        small_beam_steering,
        small_corner_turn,
        small_cslc,
    )

    return {
        "corner_turn": small_corner_turn(),
        "cslc": small_cslc(),
        "beam_steering": small_beam_steering(),
    }


class TestRealRunsPass:
    def test_every_pair_passes(self, small_runs, small_workloads_module):
        results = validate_results(small_runs, small_workloads_module)
        failures = [r for r in results if r.status == FAIL]
        assert not failures, "\n".join(r.format() for r in failures)

    def test_cslc_traffic_skipped_not_failed(
        self, small_runs, small_workloads_module
    ):
        run = small_runs[("cslc", "viram")]
        result = check_traffic(run, small_workloads_module["cslc"])
        assert result.status == SKIP

    def test_names_are_stable_and_dotted(self, small_runs, small_workloads_module):
        run = small_runs[("corner_turn", "viram")]
        names = {
            r.name for r in validate_run(run, small_workloads_module["corner_turn"])
        }
        assert "invariant.bound.corner_turn.viram" in names
        assert "invariant.traffic.corner_turn.viram" in names
        assert "invariant.functional.corner_turn.viram" in names


class TestInvariantsReject:
    """Each invariant must flag a run corrupted in its dimension."""

    def _corrupt(self, run, **changes):
        corrupted = dataclasses.replace(run)
        for attr, value in changes.items():
            setattr(corrupted, attr, value)
        return corrupted

    def test_bound_rejects_faster_than_physics(
        self, small_runs, small_workloads_module
    ):
        run = small_runs[("corner_turn", "viram")]
        workload = small_workloads_module["corner_turn"]
        bound = kernel_bound("corner_turn", "viram", workload)
        # A ledger scaled to sit strictly below the analytic bound.
        factor = 0.5 * bound.bound_cycles / run.cycles
        corrupted = self._corrupt(run, breakdown=run.breakdown.scaled(factor))
        assert check_bound(corrupted, workload).status == FAIL

    def test_traffic_rejects_dropped_working_set(
        self, small_runs, small_workloads_module
    ):
        run = small_runs[("corner_turn", "raw")]
        halved = dataclasses.replace(run.ops, loads=1.0, stores=1.0)
        corrupted = self._corrupt(run, ops=halved)
        result = check_traffic(corrupted, small_workloads_module["corner_turn"])
        assert result.status == FAIL
        assert "footprint" in result.detail

    def test_throughput_rejects_above_peak(self, small_runs):
        run = small_runs[("cslc", "viram")]
        inflated = dataclasses.replace(
            run.ops, adds=run.spec.flops_per_cycle * run.cycles * 2
        )
        corrupted = self._corrupt(run, ops=inflated)
        assert check_throughput(corrupted).status == FAIL

    def test_functional_rejects_wrong_answer(self, small_runs):
        run = small_runs[("beam_steering", "raw")]
        corrupted = self._corrupt(run, functional_ok=False)
        assert check_functional(corrupted).status == FAIL

    def test_accounting_passes_real_ledger(self, small_runs):
        run = small_runs[("corner_turn", "imagine")]
        assert all(r.status == PASS for r in check_accounting(run))


class TestFootprint:
    def test_corner_turn_moves_every_word_twice(self):
        from repro.kernels.workloads import canonical_corner_turn

        workload = canonical_corner_turn()
        assert kernel_footprint_words("corner_turn", workload) == (
            2.0 * workload.words
        )

    def test_beam_steering_three_words_per_output(self):
        from repro.kernels.workloads import canonical_beam_steering

        workload = canonical_beam_steering()
        assert kernel_footprint_words("beam_steering", workload) == (
            3.0 * workload.outputs
        )

    def test_cslc_streams_every_channel_once(self):
        from repro.kernels.workloads import canonical_cslc

        workload = canonical_cslc()
        expected = (
            (workload.n_channels + workload.n_mains)
            * workload.n_subbands
            * 2
            * workload.subband_len
        )
        assert kernel_footprint_words("cslc", workload) == expected

    def test_unknown_kernel_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            kernel_footprint_words("no_such_kernel")


class TestTraceAccounting:
    def test_full_size_all_pass(self):
        results = check_trace_accounting()
        names = {r.name for r in results}
        assert names == {
            "invariant.trace.noninterference",
            "invariant.trace.accounting.categories",
            "invariant.trace.accounting.total",
            "invariant.trace.dram-vs-ledger",
            "invariant.trace.tlb-vs-ledger",
        }
        bad = [r for r in results if r.status == FAIL]
        assert not bad, "\n".join(r.format() for r in bad)
        # The full-size corner turn runs on-chip: the dram and tlb
        # differentials genuinely execute rather than skipping.
        by_name = {r.name: r for r in results}
        assert by_name["invariant.trace.dram-vs-ledger"].status == PASS
        assert by_name["invariant.trace.tlb-vs-ledger"].status == PASS

    def test_small_workload_no_failures(self, small_workloads_module):
        results = check_trace_accounting(small_workloads_module)
        bad = [r for r in results if r.status == FAIL]
        assert not bad, "\n".join(r.format() for r in bad)

    def test_tracing_off_after_check(self):
        from repro.trace.tracer import active_tracer

        check_trace_accounting()
        assert active_tracer() is None


class TestEngineConservation:
    def test_deterministic_scenario_passes(self):
        results = check_engine_conservation()
        assert results, "no engine checks ran"
        assert all(r.status == PASS for r in results), "\n".join(
            r.format() for r in results if r.status != PASS
        )

    def test_counters_on_live_engine(self):
        from repro.sim.engine import Engine

        engine = Engine()
        events = [engine.schedule(float(i), lambda: None) for i in range(10)]
        events[3].cancel()
        events[3].cancel()  # idempotent: counted once
        assert engine.events_scheduled == 10
        assert engine.events_cancelled == 1
        assert engine.pending == 9
        assert engine.conservation_ok
        engine.run()
        assert engine.events_processed == 9
        assert engine.pending == 0
        assert engine.conservation_ok

    def test_conservation_survives_compaction(self):
        from repro.sim.engine import Engine

        engine = Engine()
        events = [engine.schedule(float(i), lambda: None) for i in range(500)]
        for event in events[:400]:  # enough to trip lazy compaction
            event.cancel()
        assert engine.conservation_ok
        engine.run()
        assert engine.events_processed == 100
        assert engine.events_cancelled == 400
        assert engine.conservation_ok


class TestStampCoverage:
    def test_passes_on_the_tree(self):
        from repro.check.invariants import check_stamp_coverage

        (result,) = check_stamp_coverage()
        assert result.status == PASS, result.format()

    def test_names_a_shared_module_the_stamp_skips(self, monkeypatch):
        from repro.check.invariants import check_stamp_coverage
        from repro.perf import cache as cache_module

        monkeypatch.setattr(
            cache_module,
            "_MODEL_SOURCE",
            tuple(m for m in cache_module._MODEL_SOURCE if m != "units.py"),
        )
        (result,) = check_stamp_coverage()
        assert result.status == FAIL
        assert "repro.units" in result.detail

    def test_exempt_modules_are_not_hashed(self):
        """An exemption only makes sense for a module the stamp does
        not already cover."""
        import repro
        from repro.perf.cache import STAMP_EXEMPT, model_source_files

        package = Path(repro.__file__).parent
        hashed = {
            p.relative_to(package.parent).with_suffix("").as_posix()
            for p in model_source_files(package)
        }
        for module in STAMP_EXEMPT:
            assert module.replace(".", "/") not in hashed

    def test_import_scan_matches_an_ast_walk(self):
        """The line scan the check uses finds exactly the imports a full
        parse finds, on every stamped file."""
        import ast

        import repro
        from repro.check.invariants import _module_of, _repro_imports
        from repro.perf.cache import model_source_files

        package = Path(repro.__file__).parent
        for path in model_source_files(package):
            parsed = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    parsed.update(
                        a.name
                        for a in node.names
                        if a.name.split(".")[0] == "repro"
                    )
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    (node.module or "").split(".")[0] == "repro"
                ):
                    parsed.update(
                        _module_of(package, f"{node.module}.{a.name}")
                        or node.module
                        for a in node.names
                    )
            assert set(_repro_imports(path, package)) == parsed, path
