"""Cache-correctness tests for :mod:`repro.perf.cache`.

The memoization contract: identical requests hit, any perturbation of
the arguments misses, and cached results are defensively independent of
whatever the caller does to the returned object.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.eval.sensitivity import perturbed_calibration
from repro.kernels.corner_turn import CornerTurnWorkload
from repro.kernels.workloads import (
    canonical_beam_steering,
    canonical_corner_turn,
    canonical_cslc,
    small_beam_steering,
    small_corner_turn,
)
from repro.mappings.registry import available, run
from repro.perf.cache import RUN_CACHE, RunCache, cache_key


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty, enabled global cache."""
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestCacheKey:
    def test_identical_requests_share_a_key(self, small_ct):
        a = cache_key("corner_turn", "viram", {"workload": small_ct})
        b = cache_key(
            "corner_turn", "viram", {"workload": small_corner_turn()}
        )
        assert a == b

    def test_kernel_and_machine_distinguish(self, small_ct):
        kwargs = {"workload": small_ct}
        keys = {
            cache_key("corner_turn", "viram", kwargs),
            cache_key("corner_turn", "raw", kwargs),
            cache_key("cslc", "viram", kwargs),
        }
        assert len(keys) == 3

    def test_calibration_perturbation_changes_key(self, small_ct):
        base = cache_key(
            "corner_turn", "viram",
            {"workload": small_ct, "calibration": DEFAULT_CALIBRATION},
        )
        perturbed = cache_key(
            "corner_turn", "viram",
            {
                "workload": small_ct,
                "calibration": perturbed_calibration(
                    "viram", "dram_row_cycle", 1.25
                ),
            },
        )
        assert base != perturbed

    def test_workload_perturbation_changes_key(self):
        a = cache_key(
            "beam_steering", "raw", {"workload": small_beam_steering()}
        )
        b_workload = small_beam_steering()
        perturbed = dataclasses.replace(
            b_workload, directions=b_workload.directions + 1
        )
        assert a != cache_key(
            "beam_steering", "raw", {"workload": perturbed}
        )

    def test_kwarg_perturbation_changes_key(self, small_cs):
        a = cache_key("cslc", "raw", {"workload": small_cs})
        b = cache_key(
            "cslc", "raw", {"workload": small_cs, "balanced": False}
        )
        assert a != b

    def test_ndarray_content_hashes(self):
        x = np.arange(8, dtype=np.int64)
        a = cache_key("k", "m", {"x": x})
        assert a == cache_key("k", "m", {"x": x.copy()})
        assert a != cache_key("k", "m", {"x": x[::-1].copy()})
        assert a != cache_key("k", "m", {"x": x.astype(np.float64)})

    def test_float_int_and_bool_do_not_collide(self):
        keys = {
            cache_key("k", "m", {"x": 1}),
            cache_key("k", "m", {"x": 1.0}),
            cache_key("k", "m", {"x": True}),
        }
        assert len(keys) == 3

    def test_uncacheable_argument_returns_none(self):
        assert cache_key("k", "m", {"fn": lambda: None}) is None

    def test_mutable_dataclass_rekeyed_after_mutation(self):
        # Only immutable values reuse a stored encoding: a mutable
        # dataclass, or a frozen one holding a list, is re-encoded.
        @dataclasses.dataclass
        class Box:
            x: int

        @dataclasses.dataclass(frozen=True)
        class Frozen:
            xs: list

        box, frozen = Box(1), Frozen([1])
        before = cache_key("k", "m", {"a": box, "b": frozen})
        box.x = 2
        after_box = cache_key("k", "m", {"a": box, "b": frozen})
        frozen.xs.append(2)
        after_list = cache_key("k", "m", {"a": box, "b": frozen})
        assert len({before, after_box, after_list}) == 3


#: Each kernel's canonical workload constructor.
CANONICAL = {
    "corner_turn": canonical_corner_turn,
    "cslc": canonical_cslc,
    "beam_steering": canonical_beam_steering,
}


class TestCanonicalKey:
    """A request is keyed by what the mapping runs, not how it is
    spelled: omitted arguments and their explicit defaults share a key."""

    @pytest.mark.parametrize("kernel,machine", available())
    def test_explicit_defaults_share_the_omitted_key(self, kernel, machine):
        explicit = {
            "seed": 0,
            "workload": CANONICAL[kernel](),
            "calibration": DEFAULT_CALIBRATION,
        }
        assert cache_key(kernel, machine, {}) == cache_key(
            kernel, machine, explicit
        )

    def test_none_resolves_like_an_omitted_argument(self):
        assert cache_key("cslc", "raw", {}) == cache_key(
            "cslc", "raw", {"workload": None, "calibration": None}
        )

    def test_non_default_arguments_get_distinct_keys(self):
        keys = [
            cache_key("corner_turn", "imagine", kwargs)
            for kwargs in (
                {},
                {"calibration": perturbed_calibration(
                    "imagine", "dram_row_cycle", 1.25
                )},
                {"seed": 1},
                {"workload": CornerTurnWorkload(512, 512)},
                {"via_network_port": True},
            )
        ]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    def test_unknown_argument_keeps_its_raw_key(self):
        # Arguments the mapping rejects are keyed as given (the call
        # itself raises); they never alias a valid request.
        assert cache_key("corner_turn", "viram", {"bogus": 1}) != cache_key(
            "corner_turn", "viram", {}
        )


class TestRunMemoization:
    def test_identical_args_hit(self, small_ct):
        first = run("corner_turn", "viram", workload=small_ct)
        hits_before = RUN_CACHE.hits
        second = run("corner_turn", "viram", workload=small_ct)
        assert RUN_CACHE.hits == hits_before + 1
        assert second is not first
        assert repr(second) == repr(first)

    def test_perturbed_calibration_misses(self, small_ct):
        run("corner_turn", "viram", workload=small_ct)
        perturbed = perturbed_calibration(
            "viram", "exposed_load_latency", 1.25
        )
        hits_before = RUN_CACHE.hits
        a = run(
            "corner_turn", "viram", workload=small_ct,
            calibration=DEFAULT_CALIBRATION,
        )
        # The explicit default names the computation the omitted one ran.
        assert RUN_CACHE.hits == hits_before + 1
        b = run(
            "corner_turn", "viram", workload=small_ct, calibration=perturbed
        )
        assert RUN_CACHE.hits == hits_before + 1
        assert b.cycles != a.cycles

    def test_cached_results_defensively_independent(self, small_ct):
        first = run("corner_turn", "viram", workload=small_ct)
        pristine = repr(first)
        first.metrics["corrupted"] = 1e9
        first.breakdown.charge("corrupted", 1e9)
        second = run("corner_turn", "viram", workload=small_ct)
        assert repr(second) == pristine
        # ... and mutating the second copy doesn't corrupt the third.
        second.metrics.clear()
        third = run("corner_turn", "viram", workload=small_ct)
        assert repr(third) == pristine

    def test_cache_false_bypasses(self, small_ct):
        run("corner_turn", "viram", workload=small_ct)
        stats = RUN_CACHE.stats()
        result = run(
            "corner_turn", "viram", workload=small_ct, cache=False
        )
        after = RUN_CACHE.stats()
        assert after["bypasses"] == stats["bypasses"] + 1
        assert after["hits"] == stats["hits"]
        assert result.cycles > 0

    def test_uncacheable_kwarg_bypasses(self, small_ct):
        with pytest.raises(TypeError):
            # The lambda makes the request uncacheable; the mapping then
            # rejects the unknown kwarg — but the bypass was counted
            # first, which is what this test pins.
            run(
                "corner_turn", "viram", workload=small_ct,
                not_an_option=lambda: None,
            )
        assert RUN_CACHE.stats()["bypasses"] == 1

    def test_disabled_cache_stores_nothing(self, small_ct):
        RUN_CACHE.disable()
        try:
            run("corner_turn", "viram", workload=small_ct)
            run("corner_turn", "viram", workload=small_ct)
            assert len(RUN_CACHE) == 0
            assert RUN_CACHE.stats()["bypasses"] == 2
        finally:
            RUN_CACHE.enable()


class TestRunCacheStore:
    def test_lru_eviction_bounds_entries(self):
        cache = RunCache(max_entries=3)
        for i in range(5):
            cache.insert(f"k{i}", i)
        assert len(cache) == 3
        assert cache.lookup("k0") is None
        assert cache.lookup("k4") == 4

    def test_clear_resets_counters(self):
        cache = RunCache()
        cache.insert("k", 1)
        cache.lookup("k")
        cache.lookup("absent")
        cache.note_bypass()
        cache.clear()
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "bypasses": 0,
        }


class TestReportFillsTheRunTier:
    """End to end: the canonical run a user asks for after ``repro
    report`` is the one the report already simulated and persisted."""

    def _repro(self, tmp_path, *argv):
        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(repo / "src"),
                "PATH": "/usr/bin:/bin",
                "REPRO_DISK_CACHE_DIR": str(tmp_path / "tier"),
                "REPRO_OBS": "0",
            },
            cwd=str(repo),
            check=True,
        )
        return proc.stdout

    def _entries(self, tmp_path):
        stats = json.loads(self._repro(tmp_path, "cache", "stats", "--json"))
        return stats["index.entries"]

    def test_run_after_report_is_a_tier_hit(self, tmp_path):
        self._repro(tmp_path, "report")
        entries = self._entries(tmp_path)
        assert entries > 0
        warm = self._repro(tmp_path, "run", "corner_turn", "viram", "--json")
        assert self._entries(tmp_path) == entries
        cold = self._repro(
            tmp_path, "run", "corner_turn", "viram", "--json",
            "--no-disk-cache",
        )
        assert warm == cold
