"""Tests for :mod:`repro.check.oracles`.

The oracles compare redundant evaluation paths; on a healthy tree every
comparison must agree, and ``diff_runs`` — the comparison engine they
share — must see every field of a :class:`KernelRun`.
"""

import dataclasses

import pytest

from repro.check.oracles import (
    cache_oracle,
    diff_runs,
    disk_cache_oracle,
    disk_integrity_check,
    dram_oracle,
    executor_oracle,
)
from repro.check.report import FAIL, PASS, SKIP
from repro.mappings import registry
from repro.perf.cache import RUN_CACHE
from repro.perf.diskcache import DISK_CACHE


@pytest.fixture(autouse=True)
def fresh_cache():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestDiffRuns:
    def test_identical_runs_have_no_diff(self, small_ct):
        a = registry.run("corner_turn", "viram", workload=small_ct)
        b = registry.run("corner_turn", "viram", workload=small_ct)
        assert diff_runs(a, b) == []

    def test_cycles_perturbation_detected(self, small_ct):
        a = registry.run("corner_turn", "viram", workload=small_ct)
        b = dataclasses.replace(a, breakdown=a.breakdown.scaled(1.001))
        diffs = diff_runs(a, b)
        assert any("cycles" in d for d in diffs)

    def test_metric_perturbation_detected(self, small_bs):
        a = registry.run("beam_steering", "viram", workload=small_bs)
        b = registry.run("beam_steering", "viram", workload=small_bs)
        b.metrics["extra"] = 1
        diffs = diff_runs(a, b)
        assert any("metrics" in d and "extra" in d for d in diffs)

    def test_ops_perturbation_detected(self, small_bs):
        a = registry.run("beam_steering", "raw", workload=small_bs)
        b = dataclasses.replace(
            a, ops=dataclasses.replace(a.ops, adds=a.ops.adds + 1)
        )
        diffs = diff_runs(a, b)
        assert any("ops" in d for d in diffs)

    def test_functional_flag_detected(self, small_bs):
        a = registry.run("beam_steering", "raw", workload=small_bs)
        b = dataclasses.replace(a, functional_ok=False)
        assert any("functional_ok" in d for d in diff_runs(a, b))

    def test_output_digest_difference_detected(self, small_ct):
        # Another seed moves other data through the same traversal: the
        # ledger is unchanged, only the functional output differs.
        a = registry.run("corner_turn", "viram", workload=small_ct)
        b = registry.run("corner_turn", "viram", workload=small_ct, seed=1)
        assert a.cycles == b.cycles
        assert a.output_digest != b.output_digest
        assert diff_runs(a, b) == [
            f"output_digest: {a.output_digest!r} != {b.output_digest!r}"
        ]

    def test_rtol_absorbs_float_noise(self, small_ct):
        a = registry.run("corner_turn", "viram", workload=small_ct)
        b = dataclasses.replace(
            a, breakdown=a.breakdown.scaled(1.0 + 1e-12)
        )
        assert diff_runs(a, b, rtol=1e-9) == []
        assert diff_runs(a, b, rtol=0.0) != []


class TestCacheOracle:
    def test_healthy_cache_agrees_with_cold(self, small_workloads):
        results = cache_oracle(
            pairs=[("corner_turn", "viram"), ("beam_steering", "raw")],
            workloads=small_workloads,
        )
        assert len(results) == 2
        assert all(r.status != FAIL for r in results), [
            r.format() for r in results
        ]

    def test_disabled_cache_reported_as_skip(self, small_workloads):
        RUN_CACHE.disable()
        try:
            results = cache_oracle(
                pairs=[("corner_turn", "viram")], workloads=small_workloads
            )
        finally:
            RUN_CACHE.enable()
        assert [r.status for r in results] == [SKIP]


class TestDiskOracleWithTierDisabled:
    """The validation section must not depend on cache configuration:
    with the disk tier opted out, the disk oracles exercise an
    ephemeral private store and still PASS (never SKIP), so ``repro
    report`` stays byte-identical under ``--no-disk-cache``."""

    def test_differential_oracle_passes_against_ephemeral_store(
        self, small_workloads
    ):
        with DISK_CACHE.disabled():
            results = disk_cache_oracle(
                pairs=[("corner_turn", "viram")], workloads=small_workloads
            )
        assert [r.status for r in results] == [PASS], [
            r.format() for r in results
        ]

    def test_integrity_check_passes_against_ephemeral_store(self):
        with DISK_CACHE.disabled():
            results = disk_integrity_check()
        assert [r.status for r in results] == [PASS]
        assert not DISK_CACHE.keys()  # user's store untouched

    def test_ephemeral_store_is_the_production_store(
        self, monkeypatch, small_workloads
    ):
        from repro.perf import index

        built = []

        class Spy(index.PackedDiskCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(index, "PackedDiskCache", Spy)
        with DISK_CACHE.disabled():
            results = disk_cache_oracle(
                pairs=[("corner_turn", "viram")], workloads=small_workloads
            ) + disk_integrity_check()
        assert [r.status for r in results] == [PASS, PASS]
        # One temp store per oracle, of the class production runs, and
        # each one really written through.
        assert len(built) == 2
        assert all(isinstance(store, type(DISK_CACHE)) for store in built)
        assert all(store.writes == 1 for store in built)

    def test_forced_off_state_survives_the_oracles(self, small_workloads):
        DISK_CACHE.disable()
        try:
            disk_cache_oracle(
                pairs=[("corner_turn", "viram")], workloads=small_workloads
            )
            disk_integrity_check()
            assert not DISK_CACHE.enabled
        finally:
            DISK_CACHE.enable()


class TestExecutorOracle:
    def test_serial_and_parallel_agree(self):
        results = executor_oracle(jobs=2)
        assert results
        # Either genuine agreement or an explicit environment skip —
        # never a silent pass, never a failure on a healthy tree.
        assert all(r.status != FAIL for r in results), [
            r.format() for r in results
        ]

    def test_cache_state_restored(self):
        assert RUN_CACHE.enabled
        executor_oracle(jobs=1)
        assert RUN_CACHE.enabled


class TestDramOracle:
    def test_all_cases_agree(self):
        results = dram_oracle()
        # Power-of-two and non-power-of-two geometries, both policies.
        assert len(results) >= 4
        labels = {r.name for r in results}
        assert any("nonpow2" in label for label in labels)
        assert any("serialized" in label for label in labels)
        assert all(r.status != FAIL for r in results), [
            r.format() for r in results if r.status == FAIL
        ]


class TestFoldedOracles:
    def test_green_on_the_tree(self):
        from repro.check.oracles import folded_dram_oracle, folded_tlb_oracle

        for result in folded_dram_oracle() + folded_tlb_oracle():
            assert result.status == PASS, result.format()

    def test_dropped_boundary_term_is_caught(self):
        """The fold's cross-segment term is what the template front end
        adds over per-class costing; without it the folded oracle must
        turn red against the per-access reference."""
        from repro.check.faults import dropped_fold_boundary
        from repro.check.oracles import folded_dram_oracle

        with dropped_fold_boundary():
            (result,) = folded_dram_oracle()
        assert result.status == FAIL
        assert "reference" in result.detail


@pytest.mark.parametrize(
    "a, b",
    [
        (1.0, 1.0),
        (1.0, 1.0 + 2**-52),
        (0.0, -0.0),
        (float("inf"), float("inf")),
        (float("inf"), -float("inf")),
        (float("nan"), float("nan")),
        (3, 3.0),
        (2.5, "2.5x"),
    ],
)
def test_exact_close_matches_numpy(a, b):
    """At rtol=0 the comparison is plain float equality, exactly what
    np.isclose(rtol=0, atol=0) answers."""
    import numpy as np

    from repro.check.oracles import _close

    try:
        expected = bool(np.isclose(float(a), float(b), rtol=0.0, atol=0.0))
    except (TypeError, ValueError):
        expected = False
    assert _close(a, b, 0.0) is expected
