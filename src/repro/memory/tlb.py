"""Fully-associative LRU TLB model.

VIRAM's corner-turn overhead includes TLB misses (§4.2: "about 21% of the
total cycles are overhead due to DRAM pre-charge cycles ... and TLB
misses").  The mappings feed the TLB the page sequence their address
streams touch; the model returns the miss count under LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.streams import TemplateStream, gather_shifted
from repro.trace.tracer import active_tracer


class TLB:
    """Fully-associative, LRU translation buffer.

    Parameters
    ----------
    entries:
        Number of TLB entries.
    page_words:
        Page size in 32-bit words.
    miss_cycles:
        Exposed refill cost per miss (hardware table walk).
    """

    def __init__(self, entries: int, page_words: int, miss_cycles: float) -> None:
        if entries <= 0:
            raise ConfigError(f"TLB entries must be positive, got {entries}")
        if page_words <= 0:
            raise ConfigError(f"page_words must be positive, got {page_words}")
        if miss_cycles < 0:
            raise ConfigError(f"negative miss_cycles {miss_cycles}")
        self.entries = entries
        self.page_words = page_words
        self.miss_cycles = miss_cycles
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._misses = 0
        self._accesses = 0

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def accesses(self) -> int:
        return self._accesses

    @property
    def resident_pages(self) -> Tuple[int, ...]:
        """Resident pages in LRU order, least recently used first."""
        return tuple(self._resident)

    @property
    def stall_cycles(self) -> float:
        """Total exposed refill cycles so far."""
        return self._misses * self.miss_cycles

    def reset(self) -> None:
        self._resident.clear()
        self._misses = 0
        self._accesses = 0

    def access_pages(self, pages: Sequence[int]) -> int:
        """Run a page-id sequence through the TLB; returns misses added.

        Consecutive repeats are cheap, so callers may pass raw per-access
        page streams; for long streams prefer :meth:`access_addresses`,
        which compresses runs first.
        """
        pages = np.asarray(pages, dtype=np.int64)
        return self._walk(pages, int(pages.size))

    def _walk(self, pages: np.ndarray, lookups: int) -> int:
        """The LRU loop over ``pages``, accounted as ``lookups`` lookups
        (the length of the run-compressed stream ``pages`` stands for).
        """
        # Hot loop: native-int list, bound methods, and batched counter
        # updates keep full-size workloads cheap without changing the
        # miss semantics.
        misses = 0
        resident = self._resident
        move_to_end = resident.move_to_end
        popitem = resident.popitem
        entries = self.entries
        for page in pages.tolist():
            if page in resident:
                move_to_end(page)
                continue
            misses += 1
            resident[page] = None
            if len(resident) > entries:
                popitem(last=False)
        self._accesses += lookups
        self._misses += misses
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("tlb.accesses", float(lookups))
            tracer.count("tlb.misses", float(misses))
            if misses:
                # The exposed refill time for this batch, at the track
                # cursor; the tlb track's busy sum therefore equals
                # misses * miss_cycles — the ledger's "tlb misses".
                tracer.span(
                    "refill",
                    "tlb",
                    misses * self.miss_cycles,
                    args={"misses": misses, "pages": lookups},
                )
        return misses

    def access_addresses(self, word_addresses: Sequence[int]) -> int:
        """Translate a word-address stream; returns misses added.

        The stream is compressed to its run-length-encoded page sequence
        first (consecutive accesses to the same page cost one lookup),
        which keeps full-size workloads fast without changing the miss
        count: repeated hits never alter LRU order relative to a single
        hit.
        """
        addresses = np.asarray(word_addresses, dtype=np.int64)
        if addresses.size == 0:
            return 0
        return self.access_pages(_page_runs(addresses // self.page_words))

    def access_templates(self, stream: TemplateStream) -> int:
        """Translate a :class:`TemplateStream`; returns misses added.

        Exactly :meth:`access_addresses` on the materialised stream
        (misses, final LRU order, lookup count), but segments whose pages
        differ only by a whole shift (:meth:`TemplateStream.classes`)
        are paged once.  A segment that
        touches at most ``entries`` distinct pages cannot evict any of
        them once touched: every page it has touched is more recent than
        every page it has not.  So its pages in first-touch order, then
        in last-touch order, miss and leave the LRU order exactly as the
        segment does.  Any other segment passes its run-compressed pages
        through unchanged.
        """
        if stream.n_words == 0:
            return 0
        templates, class_bases, seg_class, shift = stream.classes(
            self.page_words
        )
        replays, replay_lengths, counts, firsts, lasts = self._class_replays(
            stream, templates, class_bases
        )
        pages = gather_shifted(
            replays,
            np.cumsum(replay_lengths) - replay_lengths,
            replay_lengths,
            seg_class,
            shift,
        )
        # Lookups of the materialised stream: every class run, less one
        # where a segment opens on the page the segment before it closed.
        live = np.flatnonzero(counts[seg_class])
        seg_first = firsts[seg_class[live]] + shift[live]
        seg_last = lasts[seg_class[live]] + shift[live]
        lookups = int(counts[seg_class].sum()) - int(
            np.count_nonzero(seg_first[1:] == seg_last[:-1])
        )
        return self._walk(_page_runs(pages), lookups)

    def _class_replays(
        self, stream: TemplateStream, templates: np.ndarray, bases: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Per class, in one vectorised pass: its replay pages and their
        count, its run-compressed page count, and its first and last
        page (pages of the class base; a segment adds its shift).

        Returns ``(replays, replay_lengths, counts, firsts, lasts)``;
        ``replays`` holds the classes' replays back to back.
        """
        n_classes = int(templates.size)
        pages = (
            gather_shifted(
                stream.flat, stream.starts, stream.lengths, templates, bases
            )
            // self.page_words
        )
        cls = np.repeat(
            np.arange(n_classes, dtype=np.int64), stream.lengths[templates]
        )
        keep = np.ones(pages.size, dtype=bool)
        keep[1:] = (pages[1:] != pages[:-1]) | (cls[1:] != cls[:-1])
        pages, cls = pages[keep], cls[keep]
        counts = np.bincount(cls, minlength=n_classes)
        ends = np.cumsum(counts)
        live = counts > 0
        firsts = np.zeros(n_classes, dtype=np.int64)
        lasts = np.zeros(n_classes, dtype=np.int64)
        firsts[live] = pages[(ends - counts)[live]]
        lasts[live] = pages[ends[live] - 1]

        # Distinct (class, page) pairs.  lexsort is stable, so a pair's
        # first sorted slot is its first touch and its last its last.
        order = np.lexsort((pages, cls))
        pair_start = np.ones(order.size, dtype=bool)
        pair_start[1:] = (np.diff(pages[order]) != 0) | (
            np.diff(cls[order]) != 0
        )
        starts = np.flatnonzero(pair_start)
        first_touch = order[starts]
        last_touch = order[np.append(starts[1:], order.size) - 1]
        pair_cls = cls[first_touch]
        folds = np.bincount(pair_cls, minlength=n_classes) <= self.entries
        # Replay elements sorted by (class, part, position): a class that
        # folds plays its pages by first touch (part 0), then by last
        # touch (part 1); any other plays its run-compressed pages.
        folded = folds[pair_cls]
        passed = np.flatnonzero(~folds[cls])
        n_folded = int(np.count_nonzero(folded))
        elem_cls = np.concatenate(
            (pair_cls[folded], pair_cls[folded], cls[passed])
        )
        elem_part = np.repeat([0, 1, 0], [n_folded, n_folded, passed.size])
        elem_pos = np.concatenate(
            (first_touch[folded], last_touch[folded], passed)
        )
        replay = np.lexsort((elem_pos, elem_part, elem_cls))
        return (
            pages[elem_pos[replay]],
            np.bincount(elem_cls, minlength=n_classes),
            counts,
            firsts,
            lasts,
        )


def _page_runs(pages: np.ndarray) -> np.ndarray:
    """``pages`` with consecutive repeats dropped (a repeated hit never
    changes the LRU order)."""
    if pages.size == 0:
        return pages
    keep = np.ones(pages.size, dtype=bool)
    keep[1:] = pages[1:] != pages[:-1]
    return pages[keep]
