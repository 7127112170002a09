"""Differential oracles: re-execute runs along redundant paths and diff.

The library deliberately carries redundant evaluation paths — the run
cache vs a cold simulation, a serial sweep vs a process pool, the
vectorised :meth:`DRAM.access_run` vs the scalar :class:`DRAMReference`
— precisely so they can be diffed.  Agreement is the evidence that the
PR 1 performance work changed *nothing* about the published numbers;
each oracle here turns that claim into an executable check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.check.report import FAIL, PASS, SKIP, CheckResult

#: Differential comparisons are exact by default: both paths run the
#: same deterministic arithmetic, so even the float results must match
#: bit for bit.  Cross-implementation comparisons (vectorised DRAM vs
#: the pure-Python reference) allow summation-order slack.
CROSS_IMPL_RTOL = 1e-9


def _close(a: Any, b: Any, rtol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            return False
        if rtol == 0.0:
            return a == b  # what np.isclose(rtol=0, atol=0) computes
        return bool(np.isclose(a, b, rtol=rtol, atol=0.0))
    return a == b


def diff_runs(a, b, rtol: float = 0.0) -> List[str]:
    """Field-by-field differences between two :class:`KernelRun` records.

    Returns human-readable difference strings; empty means the runs are
    value-identical (to ``rtol`` on floats; ``rtol=0`` demands bitwise
    equality, which determinism guarantees for same-path re-execution).
    """
    diffs: List[str] = []
    for field in ("kernel", "machine"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            diffs.append(f"{field}: {va!r} != {vb!r}")
    if not _close(a.cycles, b.cycles, rtol):
        diffs.append(f"cycles: {a.cycles!r} != {b.cycles!r}")
    for label, da, db in (
        ("breakdown", a.breakdown.as_dict(), b.breakdown.as_dict()),
        ("ops", a.ops.as_dict(), b.ops.as_dict()),
        ("metrics", a.metrics, b.metrics),
    ):
        for key in sorted(set(da) | set(db)):
            if key not in da:
                diffs.append(f"{label}[{key!r}]: missing on first run")
            elif key not in db:
                diffs.append(f"{label}[{key!r}]: missing on second run")
            elif not _close(da[key], db[key], rtol):
                diffs.append(
                    f"{label}[{key!r}]: {da[key]!r} != {db[key]!r}"
                )
    if bool(a.functional_ok) != bool(b.functional_ok):
        diffs.append(
            f"functional_ok: {a.functional_ok} != {b.functional_ok}"
        )
    if a.output_digest != b.output_digest:
        diffs.append(
            f"output_digest: {a.output_digest!r} != {b.output_digest!r}"
        )
    return diffs


def cache_oracle(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Cache hit vs cold simulation, diffed field by field.

    For each pair: one call that populates/serves the cache, a second
    call that must be served *from* the cache, and a ``cache=False``
    cold re-simulation.  All three must be value-identical — a tampered
    or stale cache entry shows up as a hit/cold diff.
    """
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE

    if pairs is None:
        pairs = registry.available()
    results: List[CheckResult] = []
    for kernel, machine in pairs:
        name = f"oracle.cache.{kernel}.{machine}"
        kwargs: Dict[str, Any] = {}
        if workloads and kernel in workloads:
            kwargs["workload"] = workloads[kernel]
        if not RUN_CACHE.enabled:
            results.append(
                CheckResult(name, SKIP, "run cache disabled")
            )
            continue
        registry.run(kernel, machine, **kwargs)  # populate (or hit)
        warm = registry.run(kernel, machine, **kwargs)  # cache-served
        cold = registry.run(kernel, machine, cache=False, **kwargs)
        diffs = diff_runs(warm, cold, rtol=0.0)
        results.append(
            CheckResult(
                name,
                PASS if not diffs else FAIL,
                "" if not diffs else (
                    "cache-served run disagrees with cold simulation: "
                    + "; ".join(diffs[:5])
                ),
            )
        )
    return results


#: Default cells for the disk-tier oracle: one per kernel, spread over
#: the research machines, so all three mapping families cross the
#: persistence boundary every fast-tier run.
DISK_ORACLE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("corner_turn", "viram"),
    ("cslc", "imagine"),
    ("beam_steering", "raw"),
)


def disk_cache_oracle(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Disk-tier hit vs memory-tier hit vs cold simulation, field by
    field.

    For each pair: a first run populates (or is served by) the tiers;
    the entry is then read back through the full persistence boundary —
    pickle, digest, file, unpickle — the key is evicted from the memory
    tier so a re-served run must cross the tiers again, and a
    ``cache=False`` cold re-simulation anchors the comparison.  All of
    them must be value-identical: a stale, tampered, or mis-serialised
    disk entry shows up as a disk-hit/cold diff.

    When the disk tier is opted out (``REPRO_DISK_CACHE=0`` or
    ``--no-disk-cache``) the oracle exercises the same machinery against
    an *ephemeral private store* instead of skipping: the subject under
    test is the persistence code path, not the user's cache directory,
    and the published validation section must not depend on cache
    configuration.
    """
    import contextlib
    import tempfile

    from repro.check.probes import probe_workloads
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key
    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.index import PackedDiskCache

    if pairs is None:
        pairs = DISK_ORACLE_PAIRS
    probes = probe_workloads()
    results: List[CheckResult] = []
    with contextlib.ExitStack() as stack:
        if DISK_CACHE.enabled:
            store = DISK_CACHE
        else:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-oracle-disk-")
            )
            store = PackedDiskCache(tmp, respect_env=False)
        for kernel, machine in pairs:
            name = f"oracle.diskcache.{kernel}.{machine}"
            kwargs: Dict[str, Any] = {}
            if workloads and kernel in workloads:
                kwargs["workload"] = workloads[kernel]
            elif kernel in probes:
                # No pinned size: anchor the differential on the probe
                # workload so the cold re-simulation stays milliseconds
                # (see repro.check.probes).
                kwargs["workload"] = probes[kernel]
            key = cache_key(kernel, machine, kwargs)
            if key is None:
                results.append(CheckResult(name, SKIP, "request uncacheable"))
                continue
            first = registry.run(kernel, machine, **kwargs)  # populate tiers
            if not store.contains(key):
                store.insert(key, first)  # memory tier pre-dated the disk
            disk_hit = store.lookup(key)  # the full persistence round-trip
            if disk_hit is None:
                results.append(
                    CheckResult(
                        name, FAIL,
                        "persisted entry unreadable (corrupt or vanished)",
                    )
                )
                continue
            RUN_CACHE.evict(key)
            reserved = registry.run(kernel, machine, **kwargs)  # re-served
            cold = registry.run(kernel, machine, cache=False, **kwargs)
            diffs = [
                f"disk-hit vs cold: {d}" for d in diff_runs(disk_hit, cold)
            ] + [
                f"re-served vs cold: {d}" for d in diff_runs(reserved, cold)
            ]
            results.append(
                CheckResult(
                    name,
                    PASS if not diffs else FAIL,
                    "" if not diffs else (
                        "tiered runs disagree with cold simulation: "
                        + "; ".join(diffs[:5])
                    ),
                )
            )
    return results


def disk_integrity_check() -> List[CheckResult]:
    """Digest-verify every persisted entry of the current model version.

    The write path hashes each payload and the read path refuses a
    mismatch, so a flipped bit can never be *served* — this check makes
    the same sweep eagerly, failing loudly if any stored entry no
    longer matches its digest (media corruption, torn external writes).

    When the disk tier is opted out, the sweep machinery is exercised
    against an ephemeral store seeded with a canary entry instead — the
    user's directory is left untouched but the check still runs, so the
    published validation section does not depend on cache configuration.
    """
    import tempfile

    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.index import PackedDiskCache

    name = "oracle.diskcache.integrity"
    if DISK_CACHE.enabled:
        bad = DISK_CACHE.verify()
    else:
        with tempfile.TemporaryDirectory(
            prefix="repro-oracle-disk-"
        ) as tmp:
            store = PackedDiskCache(tmp, respect_env=False)
            store.insert("integritycanary", {"canary": 1.0})
            bad = store.verify()
    return [
        CheckResult(
            name,
            PASS if not bad else FAIL,
            "" if not bad else (
                f"{len(bad)} entries failed digest verification: "
                + ", ".join(k[:12] for k in bad[:5])
            ),
        )
    ]


def executor_oracle(
    requests: Optional[Sequence[Tuple[str, str, Dict[str, Any]]]] = None,
    jobs: int = 2,
) -> List[CheckResult]:
    """Serial sweep vs ``--jobs N`` process pool, diffed element-wise.

    Runs with *both* cache tiers disabled so both legs genuinely
    simulate — a persistent store warmed by an earlier process would
    otherwise answer the planner before it ever dispatched to the pool,
    blinding the oracle to pool-side misdelivery.  If the pool is
    unavailable in this environment (the supervisor degrades to serial
    and counts it under ``resilience.degradations``), the comparison is
    vacuous and reported as a skip.
    """
    from repro.perf.cache import RUN_CACHE
    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.executor import run_cells
    from repro.resilience.stats import RESILIENCE

    if requests is None:
        from repro.kernels.workloads import (
            small_beam_steering,
            small_corner_turn,
            small_cslc,
        )

        requests = [
            ("corner_turn", "viram", {"workload": small_corner_turn()}),
            ("cslc", "raw", {"workload": small_cslc()}),
            ("beam_steering", "imagine", {"workload": small_beam_steering()}),
            ("beam_steering", "raw", {"workload": small_beam_steering()}),
        ]
    was_enabled = RUN_CACHE.enabled
    RUN_CACHE.disable()
    try:
        with DISK_CACHE.disabled():
            serial = run_cells(requests, jobs=1)
            degradations_before = RESILIENCE.snapshot()["degradations"]
            parallel = run_cells(requests, jobs=jobs)
        fell_back = (
            RESILIENCE.snapshot()["degradations"] > degradations_before
        )
    finally:
        if was_enabled:
            RUN_CACHE.enable()
    results: List[CheckResult] = []
    for (kernel, machine, _kwargs), a, b in zip(requests, serial, parallel):
        name = f"oracle.executor.{kernel}.{machine}"
        if fell_back:
            results.append(
                CheckResult(
                    name, SKIP, "process pool unavailable; both legs serial"
                )
            )
            continue
        diffs = diff_runs(a, b, rtol=0.0)
        results.append(
            CheckResult(
                name,
                PASS if not diffs else FAIL,
                "" if not diffs else (
                    f"serial vs jobs={jobs} disagree: " + "; ".join(diffs[:5])
                ),
            )
        )
    return results


def _dram_cases() -> List[Tuple[str, Any, List[np.ndarray], List[float]]]:
    """Deterministic (config, segments, rates) replay cases.

    Mixes sequential, strided, tiled-ish, repeated and empty segments
    over power-of-two and non-power-of-two geometries, covering both
    activation policies.
    """
    from repro.memory.dram import DRAMConfig

    def segs(*arrays):
        return [np.asarray(a, dtype=np.int64) for a in arrays]

    cases = []
    for policy in ("bank-parallel", "serialized"):
        cases.append(
            (
                f"pow2-{policy}",
                DRAMConfig(
                    name=f"check-pow2-{policy}",
                    banks=8,
                    row_words=256,
                    row_cycle=10.0,
                    access_latency=4.0,
                    activation_policy=policy,
                ),
                segs(
                    np.arange(0, 4096),              # sequential sweep
                    np.arange(0, 65536, 1024),       # row-per-access stride
                    [],                              # empty segment
                    np.tile(np.arange(0, 512), 3),   # re-walk open rows
                    np.arange(65536, 65536 + 100)[::-1].copy(),  # reversed
                ),
                [8.0, 4.0, 1.0, 8.0, 2.0],
            )
        )
        cases.append(
            (
                f"nonpow2-{policy}",
                DRAMConfig(
                    name=f"check-nonpow2-{policy}",
                    banks=6,
                    row_words=96,
                    row_cycle=7.0,
                    access_latency=3.0,
                    activation_policy=policy,
                ),
                segs(
                    np.arange(0, 1000),
                    np.arange(0, 30000, 97),         # coprime stride
                    np.repeat(np.arange(0, 600, 96), 5),  # bank hammering
                    [],
                ),
                [4.0, 2.0, 1.0, 1.0],
            )
        )
    return cases


def dram_oracle() -> List[CheckResult]:
    """Vectorised batch costing vs scalar replay vs the pure-Python
    reference simulator, on deterministic address patterns.

    Three independent paths cost the same program-ordered access stream:

    * :meth:`DRAM.access_run` — one vectorised batch call;
    * :meth:`DRAM.access` — per-segment scalar calls threading state;
    * :class:`DRAMReference.access` — the loop-based oracle.

    Activation counts must agree exactly; cycle totals to float slack.
    """
    from repro.memory.dram import DRAM, DRAMReference
    from repro.memory.streams import Custom

    results: List[CheckResult] = []
    for label, config, segments, rates in _dram_cases():
        batch_dram = DRAM(config)
        scalar_dram = DRAM(config)
        reference = DRAMReference(config)

        addresses = np.concatenate(segments) if segments else np.empty(
            0, dtype=np.int64
        )
        lengths = np.asarray([len(s) for s in segments], dtype=np.int64)
        batch = batch_dram.access_run(addresses, lengths, rates)

        mismatches: List[str] = []
        for i, (segment, rate) in enumerate(zip(segments, rates)):
            pattern = Custom(segment)
            scalar = scalar_dram.access(pattern, rate_words_per_cycle=rate)
            ref = reference.access(pattern, rate_words_per_cycle=rate)
            got = batch.segment(i)
            for other_label, other in (("scalar", scalar), ("reference", ref)):
                if got.activations != other.activations:
                    mismatches.append(
                        f"seg {i} activations: batch {got.activations} != "
                        f"{other_label} {other.activations}"
                    )
                for field in ("issue_cycles", "activation_cycles"):
                    ga, oa = getattr(got, field), getattr(other, field)
                    if not np.isclose(ga, oa, rtol=CROSS_IMPL_RTOL, atol=0.0):
                        mismatches.append(
                            f"seg {i} {field}: batch {ga!r} != "
                            f"{other_label} {oa!r}"
                        )
                if got.words != other.words:
                    mismatches.append(
                        f"seg {i} words: batch {got.words} != "
                        f"{other_label} {other.words}"
                    )
        if batch_dram.open_rows != scalar_dram.open_rows:
            mismatches.append(
                "final open-row state: batch "
                f"{batch_dram.open_rows} != scalar {scalar_dram.open_rows}"
            )
        results.append(
            CheckResult(
                f"oracle.dram.{label}",
                PASS if not mismatches else FAIL,
                "" if not mismatches else "; ".join(mismatches[:6]),
            )
        )
    return results


#: Seed of the fuzzed template streams behind ``oracle.dram.folded`` and
#: ``oracle.tlb.folded`` (one stream per geometry).
FOLDED_FUZZ_SEED = 2003


def _fuzz_stream(rng: np.random.Generator, period: int):
    """A random :class:`~repro.memory.streams.TemplateStream`: up to
    three templates (strided, tiled, scattered or empty) shifted by bases
    that mostly share a few residues mod ``period`` (so classes repeat)
    and otherwise land anywhere."""
    from repro.memory.streams import Strided, TemplateStream, Tiled2D

    templates: List[Any] = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        if kind == 0:
            templates.append(
                Strided(
                    0, int(rng.integers(1, 40)), int(rng.integers(1, 3 * period))
                ).addresses()
            )
        elif kind == 1:
            rows, cols = (int(x) for x in rng.integers(1, 9, 2))
            templates.append(
                Tiled2D(
                    0, rows, cols, cols + int(rng.integers(0, period)),
                    order=("row", "col")[int(rng.integers(2))],
                ).addresses()
            )
        elif kind == 2:
            templates.append(
                rng.integers(0, 4 * period, int(rng.integers(1, 30)))
            )
        else:
            templates.append([])
    n_seg = int(rng.integers(10, 60))
    shared = rng.integers(0, 20, n_seg) * period + rng.choice(
        rng.integers(0, period, 3), n_seg
    )
    bases = np.where(
        rng.random(n_seg) < 0.7, shared, rng.integers(0, 20 * period, n_seg)
    )
    return TemplateStream(
        templates, rng.integers(0, len(templates), n_seg), bases
    )


def _viram_probe_stream():
    """The VIRAM corner turn's block stream at the probe size, with the
    machine it runs on."""
    from repro.arch.viram.machine import ViramMachine, padded_pitch
    from repro.check.probes import probe_workloads
    from repro.mappings.viram_corner_turn import block_stream

    workload = probe_workloads()["corner_turn"]
    machine = ViramMachine()
    stream, strided = block_stream(
        workload,
        padded_pitch(workload.cols, machine),
        padded_pitch(workload.rows, machine),
    )
    rates = np.where(
        strided,
        float(machine.config.strided_words_per_cycle),
        float(machine.config.seq_words_per_cycle),
    )
    return machine, stream, rates


def _head(stream, n_segments: int):
    """The first ``n_segments`` segments of a template stream."""
    from repro.memory.streams import TemplateStream

    return TemplateStream(
        [stream.template(t) for t in range(stream.lengths.size)],
        stream.template_ids[:n_segments],
        stream.bases[:n_segments],
    )


def _folded_dram_mismatches(
    config, stream, rates, with_reference: bool = True
) -> List[str]:
    """Template front end vs materialised ``access_run`` (and, with
    ``with_reference``, vs :class:`DRAMReference`), from the same preset
    open rows, at rtol=0."""
    from repro.memory.dram import DRAM, DRAMReference
    from repro.memory.streams import Custom, Strided

    folded, materialised = DRAM(config), DRAM(config)
    models = [folded, materialised]
    if with_reference:
        models.append(DRAMReference(config))
    # Preset open rows: a strided walk that leaves a row open in most
    # banks, so the fold's first boundary terms are live.
    prime = Strided(3, 2 * config.banks, config.row_words + 1)
    for model in models:
        model.access(prime, rate_words_per_cycle=1.0)

    a = folded.access_templates(stream, rates)
    addresses = stream.addresses()
    b = materialised.access_run(addresses, stream.seg_lengths, rates)
    mismatches = [
        f"{field}: folded != materialised"
        for field in (
            "words", "issue_cycles", "activation_cycles", "activations",
            "worst",
        )
        if not np.array_equal(getattr(a, field), getattr(b, field))
    ]
    if with_reference:
        reference = models[2]
        offsets = np.cumsum(stream.seg_lengths)[:-1]
        for i, segment in enumerate(np.split(addresses, offsets)):
            ref = reference.access(
                Custom(segment), rate_words_per_cycle=float(rates[i])
            )
            got = a.segment(i)
            for field in ("activations", "issue_cycles", "activation_cycles"):
                if getattr(got, field) != getattr(ref, field):
                    mismatches.append(
                        f"seg {i} {field}: folded {getattr(got, field)!r} "
                        f"!= reference {getattr(ref, field)!r}"
                    )
    rows = [model.open_rows for model in models]
    if any(r != rows[0] for r in rows):
        mismatches.append(
            "final open rows (folded / materialised / reference): "
            + " / ".join(map(str, rows))
        )
    if (folded.total_activations, folded.total_words) != (
        materialised.total_activations, materialised.total_words
    ):
        mismatches.append("total activations/words: folded != materialised")
    return mismatches


def folded_dram_oracle() -> List[CheckResult]:
    """``oracle.dram.folded``: the class folding of
    :meth:`DRAM.access_templates` against the materialised
    :meth:`DRAM.access_run` and the per-access :class:`DRAMReference`,
    at rtol=0, on the VIRAM corner turn's probe-size block stream and
    on seeded fuzzed template streams over power-of-two and
    non-power-of-two geometries, both activation policies, from preset
    open rows."""
    from repro.memory.dram import DRAMConfig

    machine, stream, rates = _viram_probe_stream()
    # The per-access reference replays the stream's first 32 segments
    # (one block column of the 256x256 probe; its Python loop costs
    # ~1 us a word); the class folding is diffed against the
    # materialised stream in full.
    n_head = 32
    head = _head(stream, n_head)
    config = machine.dram.config
    cases = [
        ("viram-probe", config, stream, rates, False),
        ("viram-probe-head", config, head, rates[:n_head], True),
    ]
    rng = np.random.default_rng(FOLDED_FUZZ_SEED)
    for banks, row_words, policy in (
        (8, 64, "bank-parallel"),
        (6, 96, "serialized"),
        (3, 7, "bank-parallel"),
        (4, 32, "serialized"),
    ):
        config = DRAMConfig(
            name=f"folded-{banks}x{row_words}-{policy}",
            banks=banks,
            row_words=row_words,
            row_cycle=float(rng.integers(1, 12)) + 0.25,
            access_latency=2.0,
            activation_policy=policy,
        )
        fuzz = _fuzz_stream(rng, banks * row_words)
        cases.append(
            (
                config.name,
                config,
                fuzz,
                rng.choice([1.0, 2.0, 4.0, 8.0], fuzz.n_segments),
                True,
            )
        )
    mismatches = [
        f"{label}: {m}"
        for label, config, case_stream, case_rates, with_reference in cases
        for m in _folded_dram_mismatches(
            config, case_stream, case_rates, with_reference
        )
    ]
    return [
        CheckResult(
            "oracle.dram.folded",
            PASS if not mismatches else FAIL,
            "; ".join(mismatches[:4]),
        )
    ]


def folded_tlb_oracle() -> List[CheckResult]:
    """``oracle.tlb.folded``: :meth:`TLB.access_templates` against
    :meth:`TLB.access_addresses` on the materialised stream — misses,
    final LRU order and lookup count — from a preset LRU state, on the
    VIRAM probe stream and on fuzzed streams small TLBs overflow (so
    segments take both the first/last-touch replay and the
    pass-through)."""
    from repro.memory.tlb import TLB

    machine, stream, _ = _viram_probe_stream()
    viram = machine.tlb
    cases = [
        ("viram-probe", viram.entries, viram.page_words, stream),
        # Its first block column against a TLB its blocks overflow.
        ("viram-probe-head-small", 2, 1024, _head(stream, 32)),
    ]
    rng = np.random.default_rng(FOLDED_FUZZ_SEED + 1)
    for entries, page_words in ((2, 16), (4, 50), (6, 64), (48, 16384)):
        cases.append(
            (
                f"{entries}x{page_words}",
                entries,
                page_words,
                _fuzz_stream(rng, 4 * page_words),
            )
        )
    mismatches: List[str] = []
    for label, entries, page_words, case_stream in cases:
        folded = TLB(entries, page_words, miss_cycles=1.0)
        materialised = TLB(entries, page_words, miss_cycles=1.0)
        prime = list(range(3 * entries, 0, -2))
        folded.access_pages(prime)
        materialised.access_pages(prime)
        got = folded.access_templates(case_stream)
        want = materialised.access_addresses(case_stream.addresses())
        for field, a, b in (
            ("misses", got, want),
            ("accesses", folded.accesses, materialised.accesses),
            (
                "LRU order",
                folded.resident_pages,
                materialised.resident_pages,
            ),
        ):
            if a != b:
                mismatches.append(f"{label} {field}: folded {a} != {b}")
    return [
        CheckResult(
            "oracle.tlb.folded",
            PASS if not mismatches else FAIL,
            "; ".join(mismatches[:4]),
        )
    ]
