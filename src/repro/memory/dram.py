"""Banked DRAM with open-row state and activate/precharge exposure.

Organization
------------
The model uses a conventional row-interleaved organization: word address
``a`` maps to

* bank ``(a // row_words) % banks`` and
* row ``a // (row_words * banks)`` within that bank,

so consecutive ``row_words`` words live in one bank's open row and
consecutive DRAM rows rotate across banks.  Each bank holds one open row;
an access to a different row in the same bank costs a row cycle
(precharge + activate).  This captures the behaviours the paper leans on:

* VIRAM (§4.2): strided corner-turn loads touch a new DRAM row per matrix
  row, costing precharge overhead, while sequential stores reuse open rows
  ("[precharge cycles] would be mostly hidden with sequential accesses").
* Imagine (§4.2): the 8-word output blocks written at non-unit stride
  cause a row switch per block, making memory transfers 87% of the cycles.

Exposure policy
---------------
How much of the row-cycle time is *exposed* (i.e., lengthens the access
stream) depends on the memory controller:

* ``"bank-parallel"`` — activations overlap with data transfer in other
  banks; time is exposed only when the most-loaded bank's activation work
  exceeds the pattern's transfer time.  This models VIRAM's wide on-chip
  interface with independent pipelined banks.
* ``"serialized"`` — every activation stalls the stream for a full row
  cycle.  This models a simple streaming controller that processes one
  access stream in order (Imagine's memory controllers reorder across
  streams but each stream's row switches still cost time).

Two implementations are provided and cross-validated by tests:

* :class:`DRAM` — vectorised (numpy) stateful costing of whole patterns,
  folded per class of shifted segments for template streams.
* :class:`DRAMReference` — a per-access pure-Python simulator with
  identical semantics, used as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.streams import AccessPattern, TemplateStream, gather_shifted
from repro.trace.tracer import TRACK_SEP, active_tracer

_POLICIES = ("bank-parallel", "serialized")


@dataclass(frozen=True)
class DRAMConfig:
    """Static DRAM organization and timing.

    Parameters
    ----------
    name:
        Diagnostic label ("viram-onchip", "imagine-offchip", ...).
    banks:
        Number of independent banks (VIRAM: 2 wings x 4 banks = 8).
    row_words:
        Words per bank row (row buffer size).
    row_cycle:
        Cycles of precharge + activate exposed per row switch (before any
        bank-parallel amortisation).
    access_latency:
        Pipelined access latency in cycles; reported separately because the
        studied architectures generally hide it (§2.5), but mappings can
        charge it where the paper says it is exposed (VIRAM's "initial load
        latencies are not hidden").
    activation_policy:
        ``"bank-parallel"`` or ``"serialized"`` (see module docstring).
    """

    name: str
    banks: int
    row_words: int
    row_cycle: float
    access_latency: float
    activation_policy: str = "bank-parallel"

    def __post_init__(self) -> None:
        if self.banks <= 0:
            raise ConfigError(f"{self.name}: banks must be positive")
        if self.row_words <= 0:
            raise ConfigError(f"{self.name}: row_words must be positive")
        if self.row_cycle < 0:
            raise ConfigError(f"{self.name}: negative row_cycle")
        if self.access_latency < 0:
            raise ConfigError(f"{self.name}: negative access_latency")
        if self.activation_policy not in _POLICIES:
            raise ConfigError(
                f"{self.name}: activation_policy must be one of {_POLICIES}"
            )


@dataclass(frozen=True)
class DRAMCost:
    """Cost of streaming one pattern through the DRAM.

    ``issue_cycles`` is data-transfer time at the caller-supplied rate;
    ``activation_cycles`` is exposed row-switch time; ``access_latency`` is
    the (usually hidden) pipeline latency, reported for callers that need
    to expose it.
    """

    words: int
    issue_cycles: float
    activation_cycles: float
    activations: int
    access_latency: float

    @property
    def stream_cycles(self) -> float:
        """Exposed cycles for the stream: transfer plus row switches."""
        return self.issue_cycles + self.activation_cycles

    @property
    def cycles_per_word(self) -> float:
        if self.words == 0:
            return 0.0
        return self.stream_cycles / self.words


@dataclass(frozen=True)
class DRAMBatchCost:
    """Per-segment costs of one batched access run (see
    :meth:`DRAM.access_run`).

    Each field is an array with one entry per segment; entry ``i`` is
    exactly what a standalone :meth:`DRAM.access` call for segment ``i``
    would have returned, given the open-row state left by segments
    ``0..i-1``.

    ``worst`` is segment ``i``'s most-loaded-bank activation count — the
    quantity the ``bank-parallel`` exposure policy multiplies by the row
    cycle.  Exposing it lets callers re-derive ``activation_cycles`` for
    a *different* row-cycle value (the tensorized sweep engine evaluates
    one address run under a whole batch of calibrations) without
    re-walking the address stream: activation counts depend only on
    addresses and geometry, never on the timing constants.
    """

    words: np.ndarray
    issue_cycles: np.ndarray
    activation_cycles: np.ndarray
    activations: np.ndarray
    worst: np.ndarray
    access_latency: float

    @property
    def n_segments(self) -> int:
        return int(self.words.size)

    def segment(self, i: int) -> DRAMCost:
        """Segment ``i``'s cost as a standalone :class:`DRAMCost`."""
        return DRAMCost(
            words=int(self.words[i]),
            issue_cycles=float(self.issue_cycles[i]),
            activation_cycles=float(self.activation_cycles[i]),
            activations=int(self.activations[i]),
            access_latency=self.access_latency,
        )


#: Class addresses materialised per kernel call.  Bounds the transient
#: arrays of a large stream program to a few MB however many words it
#: moves.
_CHUNK_WORDS = 1 << 20


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _dram_rows(addresses: np.ndarray, config: DRAMConfig) -> np.ndarray:
    """Global DRAM-row index (``address // row_words``) of each address.

    Addresses are non-negative, so when the geometry is a power of two
    (every modelled machine's is) the division reduces to a shift —
    int64 division has no SIMD path and dominates large runs.
    """
    if _is_pow2(config.row_words):
        # Call the ufunc directly: the operator form (``addresses >> k``
        # with a Python-int scalar) takes numpy's slow scalar-promotion
        # path and costs ~10x more on megaword address runs.
        return np.right_shift(addresses, config.row_words.bit_length() - 1)
    return addresses // config.row_words


def _bank_and_row(
    dram_rows: np.ndarray, config: DRAMConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Split global DRAM rows into (bank, row-within-bank) arrays."""
    banks = config.banks
    if _is_pow2(banks):
        return (
            np.bitwise_and(dram_rows, banks - 1),
            np.right_shift(dram_rows, banks.bit_length() - 1),
        )
    return dram_rows % banks, dram_rows // banks


@dataclass(frozen=True)
class _RowRuns:
    """Per-(bank, segment) summary of an address stream: whether the
    segment touches the bank, the row of its first and last access
    there, and the row changes between its accesses there.  Each field
    is a ``(banks, segments)`` array."""

    touched: np.ndarray
    first: np.ndarray
    last: np.ndarray
    changes: np.ndarray


def _row_runs(
    addresses: np.ndarray, lengths: np.ndarray, config: DRAMConfig
) -> _RowRuns:
    """The kernel: reduce each segment of ``addresses`` (segment ``i``
    spans the next ``lengths[i]`` entries) to a :class:`_RowRuns`.

    The stream is first compressed to DRAM-row runs inside each segment:
    an access to the same row as the access before it can never
    activate, so a sequential segment shrinks ``row_words``-fold.  A
    stable sort by bank then lines every (bank, segment) group up in
    program order.
    """
    banks = config.banks
    n_seg = int(lengths.size)
    runs = _RowRuns(
        touched=np.zeros((banks, n_seg), dtype=bool),
        first=np.zeros((banks, n_seg), dtype=np.int64),
        last=np.zeros((banks, n_seg), dtype=np.int64),
        changes=np.zeros((banks, n_seg), dtype=np.int64),
    )
    if addresses.size == 0:
        return runs
    dram_rows = _dram_rows(addresses, config)
    nonempty = np.flatnonzero(lengths)
    starts = np.zeros(addresses.size, dtype=bool)
    starts[(np.cumsum(lengths) - lengths)[nonempty]] = True
    keep = starts.copy()
    keep[1:] |= dram_rows[1:] != dram_rows[:-1]
    seg = nonempty[np.cumsum(starts[keep]) - 1]
    bank, row = _bank_and_row(dram_rows[keep], config)
    # Sixteen-bit keys take numpy's linear-time radix sort.
    order = np.argsort(
        bank.astype(np.uint16) if banks <= 1 << 16 else bank, kind="stable"
    )
    key = bank[order] * n_seg + seg[order]  # flat (bank, segment) index
    rows = row[order]
    opens = np.empty(key.size, dtype=bool)  # a group's first access
    opens[0] = True
    opens[1:] = key[1:] != key[:-1]
    closes = np.empty(key.size, dtype=bool)  # a group's last access
    closes[-1] = True
    closes[:-1] = opens[1:]
    runs.touched.reshape(-1)[key[opens]] = True
    runs.first.reshape(-1)[key[opens]] = rows[opens]
    runs.last.reshape(-1)[key[closes]] = rows[closes]
    changed = (rows[1:] != rows[:-1]) & ~opens[1:]
    runs.changes.reshape(-1)[:] = np.bincount(
        key[1:][changed], minlength=banks * n_seg
    )
    return runs


def _fold(runs: _RowRuns, open_rows: Dict[int, int]) -> np.ndarray:
    """Activations per (bank, segment), in program order.

    A segment's activations in a bank are its row changes there plus
    one *boundary* activation when its first access finds a different
    row open — the row the bank's previous segment left, or
    ``open_rows`` for the run's first.  Updates ``open_rows`` in place.
    """
    banks, n_seg = runs.touched.shape
    if n_seg == 0:
        return runs.changes.copy()
    # Latest touching segment at or before each segment, per bank.
    seen = np.where(runs.touched, np.arange(n_seg), -1)
    np.maximum.accumulate(seen, axis=1, out=seen)
    previous = np.empty_like(seen)
    previous[:, 0] = -1
    previous[:, 1:] = seen[:, :-1]
    # Rows are non-negative, so -1 stands for "no row open".  (Index -1
    # reads a stray last column; np.where discards it.)
    start = np.asarray([open_rows.get(b, -1) for b in range(banks)])
    before = np.where(
        previous >= 0,
        runs.last[np.arange(banks)[:, None], previous],
        start[:, None],
    )
    for b, s in enumerate(seen[:, -1].tolist()):
        if s >= 0:
            open_rows[b] = int(runs.last[b, s])
    return runs.changes + (runs.touched & (runs.first != before))


def _chunked_row_runs(
    sizes: np.ndarray,
    materialise: Callable[[int, int, int, int], np.ndarray],
    config: DRAMConfig,
) -> _RowRuns:
    """Run the kernel over groups of ``sizes[c]`` addresses, at most
    ``_CHUNK_WORDS`` words (or one group) at a time.
    ``materialise(c0, c1, lo, hi)`` returns the addresses of groups
    ``c0..c1-1``, words ``lo..hi`` of the whole."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    if total <= _CHUNK_WORDS:
        return _row_runs(materialise(0, sizes.size, 0, total), sizes, config)
    parts: List[_RowRuns] = []
    c0 = 0
    while c0 < sizes.size:
        lo = int(ends[c0] - sizes[c0])
        c1 = max(
            c0 + 1,
            int(np.searchsorted(ends, lo + _CHUNK_WORDS, side="right")),
        )
        parts.append(
            _row_runs(
                materialise(c0, c1, lo, int(ends[c1 - 1])),
                sizes[c0:c1],
                config,
            )
        )
        c0 = c1
    return _RowRuns(
        *(
            np.concatenate([getattr(p, f.name) for p in parts], axis=1)
            for f in fields(_RowRuns)
        )
    )


def _checked_rates(
    rates_words_per_cycle: Sequence[float],
    n_seg: int,
    kinds: Optional[Sequence[str]],
) -> np.ndarray:
    """Validated per-segment issue rates (and kinds)."""
    rates = np.ascontiguousarray(rates_words_per_cycle, dtype=np.float64)
    if rates.size != n_seg:
        raise ConfigError(f"{rates.size} rates for {n_seg} segments")
    if n_seg and rates.min() <= 0:
        raise ConfigError("rate_words_per_cycle must be positive")
    if kinds is not None:
        for kind in kinds:
            if kind not in ("read", "write"):
                raise ConfigError(
                    f"kind must be 'read' or 'write', got {kind!r}"
                )
    return rates


class DRAM:
    """Vectorised stateful DRAM cost model (see module docstring).

    The object keeps the open-row register of every bank across calls, so
    a sequence of :meth:`access` calls models a program-ordered access
    stream: rows opened by one pattern stay open for the next.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._open_rows: Dict[int, int] = {}
        self._total_activations = 0
        self._total_words = 0

    @property
    def open_rows(self) -> Dict[int, int]:
        """Copy of the per-bank open-row registers (bank -> row)."""
        return dict(self._open_rows)

    @property
    def total_activations(self) -> int:
        return self._total_activations

    @property
    def total_words(self) -> int:
        return self._total_words

    def reset(self) -> None:
        """Close all rows and clear counters."""
        self._open_rows.clear()
        self._total_activations = 0
        self._total_words = 0

    def access(
        self,
        pattern: AccessPattern,
        *,
        rate_words_per_cycle: float,
        kind: str = "read",
    ) -> DRAMCost:
        """Cost of streaming ``pattern`` at the given issue rate.

        ``rate_words_per_cycle`` is the *architectural* issue limit of the
        requester (address generators, port width); the DRAM adds exposed
        row-switch time on top.  ``kind`` is informational ("read"/"write").
        """
        if rate_words_per_cycle <= 0:
            raise ConfigError(
                f"rate_words_per_cycle must be positive, got {rate_words_per_cycle}"
            )
        if kind not in ("read", "write"):
            raise ConfigError(f"kind must be 'read' or 'write', got {kind!r}")
        addresses = pattern.addresses()
        n = int(addresses.size)
        if n == 0:
            return DRAMCost(0, 0.0, 0.0, 0, self.config.access_latency)
        batch = self.access_run(
            addresses,
            np.asarray([n], dtype=np.int64),
            np.asarray([rate_words_per_cycle], dtype=np.float64),
        )
        return batch.segment(0)

    def access_run(
        self,
        addresses: Sequence[int],
        seg_lengths: Sequence[int],
        rates_words_per_cycle: Sequence[float],
        kinds: Optional[Sequence[str]] = None,
    ) -> DRAMBatchCost:
        """Cost of streaming many back-to-back patterns in one call.

        ``addresses`` is the program-ordered concatenation of the
        segments' word addresses; segment ``i`` spans the next
        ``seg_lengths[i]`` entries and issues at
        ``rates_words_per_cycle[i]``.  Semantically identical to calling
        :meth:`access` once per segment (open-row state threads through
        the whole run and persists afterwards).  The kernel runs on
        every segment; :meth:`access_templates` is the same pipeline
        with segments grouped into shifted classes.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        seg_lengths = np.ascontiguousarray(seg_lengths, dtype=np.int64)
        if seg_lengths.size and seg_lengths.min() < 0:
            raise ConfigError("negative segment length")
        if int(seg_lengths.sum()) != int(addresses.size):
            raise ConfigError(
                f"segment lengths sum to {int(seg_lengths.sum())} but "
                f"{int(addresses.size)} addresses were given"
            )
        rates = _checked_rates(rates_words_per_cycle, seg_lengths.size, kinds)
        runs = _chunked_row_runs(
            seg_lengths,
            lambda c0, c1, lo, hi: addresses[lo:hi],
            self.config,
        )
        return self._cost(seg_lengths, rates, kinds, runs)

    def access_templates(
        self,
        stream: TemplateStream,
        rates_words_per_cycle: Sequence[float],
        kinds: Optional[Sequence[str]] = None,
    ) -> DRAMBatchCost:
        """Cost a program-ordered :class:`TemplateStream`, segment ``i``
        issuing at ``rates_words_per_cycle[i]``.

        Two segments of one template whose accesses fall in the same
        global DRAM rows up to a multiple of ``banks`` rows (see
        :meth:`TemplateStream.classes`) touch the same banks with the
        same row changes, their rows moved by a whole number.  So the
        kernel (:func:`_row_runs`) runs once per such class, in bounded
        chunks; each segment takes its class's summary with its rows
        shifted, and one fold (:func:`_fold`) threads the open rows
        through the segments in program order.  The result is exactly
        that of :meth:`access_run` on the materialised stream.
        """
        rates = _checked_rates(rates_words_per_cycle, stream.n_segments, kinds)
        config = self.config
        templates, class_bases, seg_class, shift = stream.classes(
            config.row_words, config.banks
        )
        classes = _chunked_row_runs(
            stream.lengths[templates],
            lambda c0, c1, lo, hi: gather_shifted(
                stream.flat,
                stream.starts,
                stream.lengths,
                templates[c0:c1],
                class_bases[c0:c1],
            ),
            config,
        )
        runs = _RowRuns(
            touched=classes.touched[:, seg_class],
            first=classes.first[:, seg_class] + shift,
            last=classes.last[:, seg_class] + shift,
            changes=classes.changes[:, seg_class],
        )
        return self._cost(stream.seg_lengths, rates, kinds, runs)

    def _cost(
        self,
        seg_lengths: np.ndarray,
        rates: np.ndarray,
        kinds: Optional[Sequence[str]],
        runs: _RowRuns,
    ) -> DRAMBatchCost:
        """Fold the segments' row runs through the open rows, price the
        activations, update the counters, and emit the trace (one span
        per segment)."""
        per_bank = _fold(runs, self._open_rows)
        tracer = active_tracer()
        n_seg = int(seg_lengths.size)
        issue_cycles = np.zeros(n_seg, dtype=np.float64)
        nonempty = seg_lengths > 0
        issue_cycles[nonempty] = seg_lengths[nonempty] / rates[nonempty]
        worst = per_bank.max(axis=0)
        activations = per_bank.sum(axis=0)

        if self.config.activation_policy == "serialized":
            activation_cycles = activations * self.config.row_cycle
        else:
            # Bank-parallel: per segment, the most-loaded bank's activation
            # work is exposed only where it exceeds the transfer time.
            activation_cycles = np.maximum(
                0.0, worst * self.config.row_cycle - issue_cycles
            )

        words = int(seg_lengths.sum())
        self._total_activations += int(activations.sum())
        self._total_words += words
        if tracer is not None:
            for b in np.flatnonzero(runs.touched.any(axis=1)):
                tracer.count(
                    f"dram.{self.config.name}.bank{int(b):02d}.activations",
                    float(per_bank[b].sum()),
                )
            # One span per segment on the device's track, back-to-back at
            # the track cursor: cost models compute durations, not start
            # times, so the timeline shows relative occupancy, and the
            # track's busy sum equals the run's exposed DRAM cycles.
            track = f"dram{TRACK_SEP}{self.config.name}"
            stream = issue_cycles + activation_cycles
            kinds_seq = tuple(kinds) if kinds is not None else None
            for i in range(n_seg):
                tracer.span(
                    kinds_seq[i] if kinds_seq else "segment",
                    track,
                    float(stream[i]),
                    args={
                        "words": int(seg_lengths[i]),
                        "activations": int(activations[i]),
                    },
                )
            tracer.count(f"dram.{self.config.name}.words", float(words))
            tracer.count(
                f"dram.{self.config.name}.activations",
                float(activations.sum()),
            )
        return DRAMBatchCost(
            words=seg_lengths,
            issue_cycles=issue_cycles,
            activation_cycles=activation_cycles,
            activations=activations,
            worst=worst,
            access_latency=self.config.access_latency,
        )


class DRAMReference:
    """Per-access pure-Python DRAM simulator (test oracle for :class:`DRAM`).

    Semantics are identical to :class:`DRAM`; only the implementation
    differs (an explicit loop with per-bank open-row registers).  Tests
    cross-validate activation counts exactly and cycle totals to floating
    point tolerance.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._open_rows: Dict[int, int] = {}

    @property
    def open_rows(self) -> Dict[int, int]:
        """Copy of the per-bank open-row registers (bank -> row)."""
        return dict(self._open_rows)

    def reset(self) -> None:
        self._open_rows.clear()

    def access(
        self,
        pattern: AccessPattern,
        *,
        rate_words_per_cycle: float,
        kind: str = "read",
    ) -> DRAMCost:
        """Reference implementation of :meth:`DRAM.access`."""
        if rate_words_per_cycle <= 0:
            raise ConfigError(
                f"rate_words_per_cycle must be positive, got {rate_words_per_cycle}"
            )
        addresses = pattern.addresses()
        config = self.config
        activations = 0
        per_bank: Dict[int, int] = {}
        for a in addresses:
            dram_row = int(a) // config.row_words
            bank = dram_row % config.banks
            row = dram_row // config.banks
            if self._open_rows.get(bank) != row:
                activations += 1
                per_bank[bank] = per_bank.get(bank, 0) + 1
                self._open_rows[bank] = row
        n = int(addresses.size)
        issue_cycles = n / rate_words_per_cycle if n else 0.0
        if config.activation_policy == "serialized":
            activation_cycles = activations * config.row_cycle
        else:
            worst = max(per_bank.values()) if per_bank else 0
            activation_cycles = max(0.0, worst * config.row_cycle - issue_cycles)
        return DRAMCost(
            words=n,
            issue_cycles=issue_cycles,
            activation_cycles=activation_cycles,
            activations=activations,
            access_latency=config.access_latency,
        )


def pad_pitch_for_banks(cols: int, config: DRAMConfig) -> int:
    """Row pitch (>= ``cols``) that spreads strided column walks over banks.

    A matrix stored with row pitch ``p`` is walked column-wise with stride
    ``p``; successive accesses advance ``p // row_words`` DRAM rows, and if
    that advance shares a factor with the bank count the walk hits only a
    subset of banks (the "DRAM bank conflicts" §3.1 avoids with padding).
    This helper returns the smallest pitch whose row advance is coprime
    with the bank count (odd, for power-of-two bank counts).  When the
    advance is zero (several matrix rows share a DRAM row) no padding is
    needed.
    """
    import math

    if cols <= 0:
        raise ConfigError(f"cols must be positive, got {cols}")
    pitch = cols
    while True:
        advance = pitch // config.row_words
        if advance == 0 or math.gcd(advance, config.banks) == 1:
            return pitch
        # Step to the next row boundary: the advance increases by one,
        # which flips parity (and so reaches coprimality for power-of-two
        # bank counts within at most ``banks`` steps).
        remainder = pitch % config.row_words
        pitch += config.row_words - remainder if remainder else config.row_words
