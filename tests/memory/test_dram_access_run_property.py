"""Property tests for ``DRAM.access_run`` on awkward geometries.

The base equivalence suite (``test_dram.py``) samples geometries
uniformly, so power-of-two bank/row counts — where the address→(bank,
row) mapping degenerates to masks and shifts — dominate the draws.
This module pins the hard cases: *every* example here uses a
non-power-of-two bank count or row size (true modulo arithmetic), and
zero-length segments are injected deliberately, including runs that are
empty end to end.

Three paths must agree exactly: one batched :meth:`DRAM.access_run`
call, per-segment :meth:`DRAM.access` calls on a second instance, and
the pure-Python :class:`DRAMReference` on a third.  The template front
end (:meth:`DRAM.access_templates`, one kernel pass per (template,
residue) class) must agree with all of them at rtol=0, from preset open
rows, and emit the same trace as the materialised run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.dram import DRAM, DRAMConfig, DRAMReference
from repro.memory.streams import Custom, Sequential, Strided, TemplateStream
from repro.trace.tracer import tracing


def make_config(banks, row_words, policy):
    return DRAMConfig(
        name="nonpow2-test",
        banks=banks,
        row_words=row_words,
        row_cycle=3.0,
        access_latency=10.0,
        activation_policy=policy,
    )


def _is_pow2(n):
    return n & (n - 1) == 0


# At least one of (banks, row_words) is never a power of two.
_geometries = st.tuples(
    st.integers(1, 13), st.integers(5, 130)
).filter(lambda g: not (_is_pow2(g[0]) and _is_pow2(g[1])))


@st.composite
def patterns_with_empties(draw):
    """Pattern sequences where zero-length segments are first-class:
    every sequence embeds at least one, and some are empty throughout."""
    n = draw(st.integers(1, 6))
    patterns = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(["empty", "seq", "zero-seq", "strided", "custom"])
        )
        if kind == "empty":
            patterns.append(Custom([]))
        elif kind == "zero-seq":
            patterns.append(Sequential(draw(st.integers(0, 500)), 0))
        elif kind == "seq":
            patterns.append(
                Sequential(draw(st.integers(0, 500)), draw(st.integers(0, 80)))
            )
        elif kind == "strided":
            patterns.append(
                Strided(
                    draw(st.integers(0, 500)),
                    draw(st.integers(0, 40)),
                    draw(st.integers(1, 200)),
                )
            )
        else:
            patterns.append(
                Custom(draw(st.lists(st.integers(0, 2000), max_size=60)))
            )
    # Guarantee the batch contains a zero-length segment somewhere.
    patterns.insert(draw(st.integers(0, len(patterns))), Custom([]))
    return patterns


def _run_batch(dram, patterns, rate=4.0):
    arrays = [p.addresses() for p in patterns]
    return dram.access_run(
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64),
        np.asarray([a.size for a in arrays], dtype=np.int64),
        np.full(len(patterns), rate),
    )


@settings(max_examples=80, deadline=None)
@given(
    patterns_with_empties(),
    _geometries,
    st.sampled_from(["bank-parallel", "serialized"]),
)
def test_batch_equals_scalar_equals_reference(patterns, geometry, policy):
    banks, row_words = geometry
    config = make_config(banks, row_words, policy)
    batched = DRAM(config)
    scalar = DRAM(config)
    reference = DRAMReference(config)

    batch = _run_batch(batched, patterns)
    assert batch.n_segments == len(patterns)
    for i, pattern in enumerate(patterns):
        seg = batch.segment(i)
        scalar_cost = scalar.access(pattern, rate_words_per_cycle=4)
        ref_cost = reference.access(pattern, rate_words_per_cycle=4)
        assert seg.words == scalar_cost.words == ref_cost.words
        assert (
            seg.activations
            == scalar_cost.activations
            == ref_cost.activations
        )
        assert seg.issue_cycles == pytest.approx(ref_cost.issue_cycles)
        assert seg.activation_cycles == pytest.approx(
            ref_cost.activation_cycles
        )

    # Open-row state after the run is identical on every path, so a
    # subsequent access would also agree.
    assert batched.open_rows == scalar.open_rows
    assert batched.total_activations == scalar.total_activations
    assert batched.total_words == scalar.total_words


@settings(max_examples=40, deadline=None)
@given(_geometries, st.sampled_from(["bank-parallel", "serialized"]))
def test_all_empty_run_costs_nothing(geometry, policy):
    banks, row_words = geometry
    dram = DRAM(make_config(banks, row_words, policy))
    batch = _run_batch(dram, [Custom([]), Sequential(7, 0), Custom([])])
    for i in range(batch.n_segments):
        seg = batch.segment(i)
        assert seg.words == 0
        assert seg.activations == 0
        assert seg.issue_cycles == 0.0
        assert seg.activation_cycles == 0.0
    assert dram.total_activations == 0
    assert dram.total_words == 0
    assert dram.open_rows == {}


@settings(max_examples=40, deadline=None)
@given(
    _geometries,
    st.sampled_from(["bank-parallel", "serialized"]),
    st.lists(st.integers(0, 2000), min_size=1, max_size=60),
)
def test_empty_segments_leave_state_untouched(geometry, policy, addresses):
    """A zero-length segment between two real ones must not disturb the
    open-row threading: removing it changes nothing."""
    banks, row_words = geometry
    config = make_config(banks, row_words, policy)
    with_gap = DRAM(config)
    without_gap = DRAM(config)
    half = len(addresses) // 2
    first, second = Custom(addresses[:half]), Custom(addresses[half:])
    gap_batch = _run_batch(with_gap, [first, Custom([]), second])
    flat_batch = _run_batch(without_gap, [first, second])
    assert gap_batch.segment(0).activations == flat_batch.segment(0).activations
    assert gap_batch.segment(2).activations == flat_batch.segment(1).activations
    assert with_gap.open_rows == without_gap.open_rows
    assert with_gap.total_activations == without_gap.total_activations


@st.composite
def template_streams(draw, period):
    """Template streams whose bases mostly repeat a few residues mod
    ``period`` (so classes are shared and shifted) and otherwise land
    anywhere; empty templates are always on offer."""
    templates = draw(
        st.lists(
            st.lists(st.integers(0, 3 * period), max_size=24),
            min_size=1,
            max_size=4,
        )
    )
    templates.append([])  # an empty template, used or not
    residues = draw(st.lists(st.integers(0, period - 1), min_size=1, max_size=3))
    n_seg = draw(st.integers(0, 30))
    ids = draw(
        st.lists(
            st.integers(0, len(templates) - 1), min_size=n_seg, max_size=n_seg
        )
    )
    bases = [
        draw(
            st.one_of(
                st.builds(
                    lambda k, r: k * period + r,
                    st.integers(0, 12),
                    st.sampled_from(residues),
                ),
                st.integers(0, 12 * period),
            )
        )
        for _ in range(n_seg)
    ]
    return TemplateStream(templates, ids, bases)


_any_geometry = st.tuples(st.integers(1, 9), st.integers(1, 70))


@st.composite
def folded_cases(draw):
    banks, row_words = draw(_any_geometry)
    policy = draw(st.sampled_from(["bank-parallel", "serialized"]))
    stream = draw(template_streams(banks * row_words))
    rates = [
        draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
        for _ in range(stream.n_segments)
    ]
    prime = draw(st.lists(st.integers(0, 20 * banks * row_words), max_size=30))
    return make_config(banks, row_words, policy), stream, rates, prime


def _primed(config, prime):
    """A fresh DRAM, materialised DRAM and reference, all left with the
    open rows ``prime`` opens."""
    models = (DRAM(config), DRAM(config), DRAMReference(config))
    for model in models:
        model.access(Custom(prime), rate_words_per_cycle=1.0)
    return models


@settings(max_examples=120, deadline=None)
@given(folded_cases())
def test_templates_equal_materialised_equal_reference(case):
    config, stream, rates, prime = case
    folded, materialised, reference = _primed(config, prime)

    got = folded.access_templates(stream, rates)
    addresses = stream.addresses()
    want = materialised.access_run(addresses, stream.seg_lengths, rates)
    for field in ("words", "issue_cycles", "activation_cycles", "activations", "worst"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field

    offsets = np.cumsum(stream.seg_lengths)[:-1]
    segments = np.split(addresses, offsets) if stream.n_segments else []
    for i, segment in enumerate(segments):
        ref = reference.access(Custom(segment), rate_words_per_cycle=rates[i])
        seg = got.segment(i)
        assert seg.activations == ref.activations
        assert seg.issue_cycles == ref.issue_cycles  # rtol=0
        assert seg.activation_cycles == ref.activation_cycles

    assert folded.open_rows == materialised.open_rows == reference.open_rows
    assert folded.total_activations == materialised.total_activations
    assert folded.total_words == materialised.total_words


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_traced_templates_emit_the_materialised_trace(case):
    """Tracing only observes: a traced template run costs what an
    untraced one does, and emits exactly the ``dram.*`` counters and
    per-segment spans of the traced materialised run."""
    config, stream, rates, prime = case
    untraced = _primed(config, prime)[0].access_templates(stream, rates)
    folded, materialised, _ = _primed(config, prime)
    with tracing() as folded_trace:
        traced = folded.access_templates(stream, rates)
    with tracing() as materialised_trace:
        materialised.access_run(stream.addresses(), stream.seg_lengths, rates)

    for field in ("activation_cycles", "activations", "worst"):
        assert np.array_equal(getattr(traced, field), getattr(untraced, field))

    def dram_view(tracer):
        counters = {
            k: v for k, v in tracer.counters.items() if k.startswith("dram.")
        }
        spans = [
            (e.name, e.track, e.ts, e.dur, dict(e.args or {}))
            for e in tracer.events
            if e.track.startswith("dram")
        ]
        return counters, spans

    assert dram_view(folded_trace) == dram_view(materialised_trace)
    assert len(dram_view(folded_trace)[1]) == stream.n_segments


def test_shared_classes_fold_across_shifts():
    """Segments of one template at bases a whole ``row_words * banks``
    period apart share one class: a strided walk revisited one period
    on reopens every row, and the fold still charges it."""
    config = make_config(4, 16, "serialized")
    period = 4 * 16
    walk = np.arange(0, 4 * 16, 16)  # one access per bank
    stream = TemplateStream([walk], [0, 0, 0], [0, period, period])
    dram = DRAM(config)
    cost = dram.access_templates(stream, [1.0, 1.0, 1.0])
    # First visit opens four rows; the shifted walk opens four more;
    # the repeat at the same base finds them open.
    assert cost.activations.tolist() == [4, 4, 0]
    assert dram.open_rows == {0: 1, 1: 1, 2: 1, 3: 1}


def test_chunked_kernel_matches_one_pass(monkeypatch):
    """Streams larger than the kernel's chunk are split at class
    boundaries; the fold sees the same summaries either way."""
    from repro.memory import dram as dram_module

    config = make_config(6, 10, "bank-parallel")
    rng = np.random.default_rng(7)
    stream = TemplateStream(
        [rng.integers(0, 500, 40), np.arange(25)],
        rng.integers(0, 2, 50),
        rng.integers(0, 5000, 50),
    )
    whole = DRAM(config).access_templates(stream, np.full(50, 4.0))
    monkeypatch.setattr(dram_module, "_CHUNK_WORDS", 30)
    chunked_dram = DRAM(config)
    chunked = chunked_dram.access_templates(stream, np.full(50, 4.0))
    run = DRAM(config).access_run(stream.addresses(), stream.seg_lengths, np.full(50, 4.0))
    for field in ("activations", "worst", "activation_cycles"):
        assert np.array_equal(getattr(chunked, field), getattr(whole, field))
        assert np.array_equal(getattr(run, field), getattr(whole, field))
