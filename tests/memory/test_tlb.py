"""Tests for :mod:`repro.memory.tlb`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memory.streams import TemplateStream
from repro.memory.tlb import TLB
from repro.trace.tracer import tracing


class TestBasic:
    def test_compulsory_miss_then_hit(self):
        tlb = TLB(entries=4, page_words=1024, miss_cycles=6.0)
        assert tlb.access_pages([3]) == 1
        assert tlb.access_pages([3]) == 0
        assert tlb.misses == 1
        assert tlb.stall_cycles == 6.0

    def test_capacity_eviction_lru(self):
        tlb = TLB(entries=2, page_words=1024, miss_cycles=1.0)
        tlb.access_pages([0, 1, 2])  # 0 evicted
        assert tlb.access_pages([0]) == 1
        assert tlb.access_pages([2]) == 0  # still resident

    def test_lru_refresh_on_hit(self):
        tlb = TLB(entries=2, page_words=1024, miss_cycles=1.0)
        tlb.access_pages([0, 1, 0, 2])  # hit on 0 makes 1 the LRU victim
        assert tlb.access_pages([0]) == 0
        assert tlb.access_pages([1]) == 1

    def test_sweep_larger_than_capacity_always_misses(self):
        """The VIRAM corner-turn situation: 64 pages per sweep against a
        48-entry TLB means every sweep misses everything (§4.2)."""
        tlb = TLB(entries=48, page_words=1024, miss_cycles=6.0)
        sweep = list(range(64))
        first = tlb.access_pages(sweep)
        second = tlb.access_pages(sweep)
        assert first == 64
        assert second == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(entries=0, page_words=1, miss_cycles=1.0),
            dict(entries=1, page_words=0, miss_cycles=1.0),
            dict(entries=1, page_words=1, miss_cycles=-1.0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            TLB(**kwargs)


class TestAddressInterface:
    def test_addresses_map_to_pages(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        misses = tlb.access_addresses([0, 50, 99, 100, 250])
        assert misses == 3  # pages 0, 1, 2

    def test_empty(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        assert tlb.access_addresses(np.array([], dtype=np.int64)) == 0

    def test_reset(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        tlb.access_addresses([0])
        tlb.reset()
        assert tlb.misses == 0
        assert tlb.access_addresses([0]) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
    st.integers(1, 16),
)
def test_rle_compression_preserves_miss_count(addresses, entries):
    """access_addresses (run-length compressed) matches the per-access
    page walk exactly."""
    page_words = 64
    fast = TLB(entries=entries, page_words=page_words, miss_cycles=1.0)
    slow = TLB(entries=entries, page_words=page_words, miss_cycles=1.0)
    fast_misses = fast.access_addresses(addresses)
    slow_misses = slow.access_pages([a // page_words for a in addresses])
    assert fast_misses == slow_misses


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_misses_bounded(pages):
    tlb = TLB(entries=8, page_words=1, miss_cycles=1.0)
    misses = tlb.access_pages(pages)
    assert len(set(pages)) >= 1
    assert misses >= len(set(pages)) - 8  # at most 8 were resident-free
    assert misses <= len(pages)
    assert misses >= min(len(set(pages)), 1)


# -- template front end ----------------------------------------------------


@st.composite
def tlb_cases(draw):
    """A small TLB, a preset LRU state, and a template stream whose
    bases mostly share residues mod the page size; templates span up to
    a dozen pages, so segments both fit the TLB (first/last-touch
    replay) and overflow it (pass-through)."""
    entries = draw(st.integers(1, 6))
    page_words = draw(st.integers(1, 40))
    templates = draw(
        st.lists(
            st.lists(st.integers(0, 12 * page_words), max_size=30),
            min_size=1,
            max_size=3,
        )
    )
    templates.append([])
    n_seg = draw(st.integers(0, 25))
    ids = draw(
        st.lists(
            st.integers(0, len(templates) - 1), min_size=n_seg, max_size=n_seg
        )
    )
    residue = draw(st.integers(0, page_words - 1))
    bases = draw(
        st.lists(
            st.one_of(
                st.integers(0, 8).map(lambda k: k * page_words + residue),
                st.integers(0, 8 * page_words),
            ),
            min_size=n_seg,
            max_size=n_seg,
        )
    )
    prime = draw(st.lists(st.integers(0, 20), max_size=12))
    return entries, page_words, TemplateStream(templates, ids, bases), prime


def _primed_pair(entries, page_words, prime):
    pair = (
        TLB(entries=entries, page_words=page_words, miss_cycles=2.0),
        TLB(entries=entries, page_words=page_words, miss_cycles=2.0),
    )
    for tlb in pair:
        tlb.access_pages(prime)
    return pair


def _assert_same_tlb(folded, materialised):
    assert folded.misses == materialised.misses
    assert folded.accesses == materialised.accesses
    assert folded.resident_pages == materialised.resident_pages


@settings(max_examples=150, deadline=None)
@given(tlb_cases())
def test_templates_equal_materialised_addresses(case):
    entries, page_words, stream, prime = case
    folded, materialised = _primed_pair(entries, page_words, prime)
    got = folded.access_templates(stream)
    want = materialised.access_addresses(stream.addresses())
    assert got == want
    _assert_same_tlb(folded, materialised)


@settings(max_examples=60, deadline=None)
@given(tlb_cases())
def test_traced_templates_emit_the_materialised_trace(case):
    entries, page_words, stream, prime = case
    untraced = _primed_pair(entries, page_words, prime)[0]
    untraced.access_templates(stream)
    folded, materialised = _primed_pair(entries, page_words, prime)
    with tracing() as folded_trace:
        folded.access_templates(stream)
    with tracing() as materialised_trace:
        materialised.access_addresses(stream.addresses())
    _assert_same_tlb(folded, untraced)

    def tlb_view(tracer):
        counters = {
            k: v for k, v in tracer.counters.items() if k.startswith("tlb.")
        }
        spans = [
            (e.name, e.track, e.ts, e.dur, dict(e.args or {}))
            for e in tracer.events
            if e.track == "tlb"
        ]
        return counters, spans

    assert tlb_view(folded_trace) == tlb_view(materialised_trace)


class TestTemplateBranches:
    def test_segment_over_capacity_passes_through(self):
        """A segment sweeping more pages than the TLB holds evicts its
        own pages: no replay is equivalent, so its run-compressed pages
        go through as they are (the §4.2 sweep, every page missing)."""
        sweep = np.arange(0, 6 * 10, 10)  # six pages of ten words
        stream = TemplateStream([sweep, []], [0, 1, 0], [0, 0, 0])
        folded, materialised = _primed_pair(4, 10, [])
        assert folded.access_templates(stream) == 12
        assert materialised.access_addresses(stream.addresses()) == 12
        _assert_same_tlb(folded, materialised)

    def test_segment_within_capacity_replays_first_and_last_touch(self):
        """Three pages touched back and forth against a four-entry TLB:
        the replay keeps the misses and the final LRU order."""
        walk = np.array([0, 10, 20, 0, 10, 0, 20, 10])
        stream = TemplateStream([walk], [0, 0], [0, 30])
        folded, materialised = _primed_pair(4, 10, [7, 8])
        assert folded.access_templates(stream) == materialised.access_addresses(
            stream.addresses()
        )
        _assert_same_tlb(folded, materialised)
        assert folded.resident_pages == (1, 3, 5, 4)

    def test_empty_stream(self):
        tlb = TLB(entries=2, page_words=8, miss_cycles=1.0)
        assert tlb.access_templates(TemplateStream([[]], [0, 0], [0, 9])) == 0
        assert tlb.accesses == 0
        assert tlb.misses == 0
