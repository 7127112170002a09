"""Address-pattern descriptors.

Kernel mappings describe their memory traffic as *patterns* — compact
descriptions of ordered word-address sequences — rather than issuing
addresses one by one.  The DRAM, cache, and TLB models consume patterns and
compute costs from the full sequence at once (vectorised with numpy), which
is what makes full-size workloads (a 1 M-element corner turn) tractable in
pure Python while keeping the address streams *exact*.

All addresses are in units of 32-bit words.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.errors import PatternError


class AccessPattern:
    """Base class: an ordered sequence of word addresses."""

    @property
    def n_words(self) -> int:
        """Number of word accesses in the pattern."""
        raise NotImplementedError

    def addresses(self) -> np.ndarray:
        """The address sequence as an ``int64`` numpy array, in order."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{type(self).__name__}({self.n_words} words)"

    def template(self) -> Tuple[Hashable, int]:
        """``(shape, base)``: the addresses are ``base`` plus offsets
        fixed by ``shape``, so two patterns of equal shape are shifted
        copies of each other (see :class:`TemplateStream`).  By default a
        pattern shares its shape with no other."""
        return ("own", id(self)), 0

    def _check(self) -> None:
        if self.n_words < 0:
            raise PatternError(f"{self!r}: negative length")


class Sequential(AccessPattern):
    """``n`` consecutive words starting at ``start``."""

    def __init__(self, start: int, n: int) -> None:
        if start < 0:
            raise PatternError(f"negative start address {start}")
        if n < 0:
            raise PatternError(f"negative length {n}")
        self.start = int(start)
        self.n = int(n)

    @property
    def n_words(self) -> int:
        return self.n

    def addresses(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.n, dtype=np.int64)

    def template(self) -> Tuple[Hashable, int]:
        return ("sequential", self.n), self.start

    def describe(self) -> str:
        return f"Sequential(start={self.start}, n={self.n})"


class Strided(AccessPattern):
    """``n`` single-word accesses, ``stride`` words apart."""

    def __init__(self, start: int, n: int, stride: int) -> None:
        if start < 0:
            raise PatternError(f"negative start address {start}")
        if n < 0:
            raise PatternError(f"negative length {n}")
        if stride <= 0:
            raise PatternError(f"stride must be positive, got {stride}")
        self.start = int(start)
        self.n = int(n)
        self.stride = int(stride)

    @property
    def n_words(self) -> int:
        return self.n

    def addresses(self) -> np.ndarray:
        return self.start + self.stride * np.arange(self.n, dtype=np.int64)

    def template(self) -> Tuple[Hashable, int]:
        return ("strided", self.n, self.stride), self.start

    def describe(self) -> str:
        return f"Strided(start={self.start}, n={self.n}, stride={self.stride})"


class Tiled2D(AccessPattern):
    """All elements of a ``rows`` x ``cols`` tile of a 2-D array.

    The array has row pitch ``pitch`` words; the tile's top-left element is
    at word address ``base``.  ``order`` selects traversal: ``"row"`` walks
    the tile row-major (rows outer), ``"col"`` column-major — the latter is
    how a blocked transpose reads its source tile with strided vector
    loads.
    """

    def __init__(
        self, base: int, rows: int, cols: int, pitch: int, order: str = "row"
    ) -> None:
        if base < 0:
            raise PatternError(f"negative base address {base}")
        if rows < 0 or cols < 0:
            raise PatternError(f"negative tile shape {rows}x{cols}")
        if pitch < cols:
            raise PatternError(f"pitch {pitch} smaller than tile cols {cols}")
        if order not in ("row", "col"):
            raise PatternError(f"order must be 'row' or 'col', got {order!r}")
        self.base = int(base)
        self.rows = int(rows)
        self.cols = int(cols)
        self.pitch = int(pitch)
        self.order = order

    @property
    def n_words(self) -> int:
        return self.rows * self.cols

    def addresses(self) -> np.ndarray:
        r = np.arange(self.rows, dtype=np.int64)
        c = np.arange(self.cols, dtype=np.int64)
        grid = self.base + self.pitch * r[:, None] + c[None, :]
        if self.order == "col":
            grid = grid.T
        return grid.reshape(-1)

    def template(self) -> Tuple[Hashable, int]:
        return ("tiled", self.rows, self.cols, self.pitch, self.order), self.base

    def describe(self) -> str:
        return (
            f"Tiled2D(base={self.base}, {self.rows}x{self.cols}, "
            f"pitch={self.pitch}, order={self.order})"
        )


class Gather(AccessPattern):
    """Indexed accesses ``base + indices[i]`` (table lookups)."""

    def __init__(self, base: int, indices: Sequence[int]) -> None:
        if base < 0:
            raise PatternError(f"negative base address {base}")
        self.base = int(base)
        self._indices = np.asarray(indices, dtype=np.int64)
        if self._indices.ndim != 1:
            raise PatternError("gather indices must be one-dimensional")
        if self._indices.size and self._indices.min() < 0:
            raise PatternError("gather indices must be non-negative")

    @property
    def n_words(self) -> int:
        return int(self._indices.size)

    def addresses(self) -> np.ndarray:
        return self.base + self._indices

    def describe(self) -> str:
        return f"Gather(base={self.base}, n={self.n_words})"


class Custom(AccessPattern):
    """An explicit address sequence (already computed by the caller)."""

    def __init__(self, addresses: Sequence[int], label: str = "custom") -> None:
        self._addresses = np.asarray(addresses, dtype=np.int64)
        if self._addresses.ndim != 1:
            raise PatternError("custom addresses must be one-dimensional")
        if self._addresses.size and self._addresses.min() < 0:
            raise PatternError("custom addresses must be non-negative")
        self.label = label

    @property
    def n_words(self) -> int:
        return int(self._addresses.size)

    def addresses(self) -> np.ndarray:
        return self._addresses

    def describe(self) -> str:
        return f"Custom({self.label}, n={self.n_words})"


class Concat(AccessPattern):
    """Ordered concatenation of sub-patterns."""

    def __init__(self, patterns: Sequence[AccessPattern]) -> None:
        self.patterns: Tuple[AccessPattern, ...] = tuple(patterns)
        for p in self.patterns:
            if not isinstance(p, AccessPattern):
                raise PatternError(f"not an AccessPattern: {p!r}")

    @property
    def n_words(self) -> int:
        return sum(p.n_words for p in self.patterns)

    def addresses(self) -> np.ndarray:
        if not self.patterns:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([p.addresses() for p in self.patterns])

    def describe(self) -> str:
        return f"Concat({len(self.patterns)} patterns, {self.n_words} words)"


class TemplateStream:
    """Program-ordered segments, each a shifted copy of a template.

    Segment ``i`` accesses ``bases[i] + templates[template_ids[i]]``.
    Blocked mappings issue thousands of segments drawn from a handful of
    templates (a 16x16 tile's strided column walk and its sequential
    store); described this way, the DRAM and TLB models cost each class
    of segments that differ by a whole shift once (:meth:`classes`)
    instead of walking every word (see
    :meth:`repro.memory.dram.DRAM.access_templates`).

    Templates are stored back to back in one flat array; ``starts`` and
    ``lengths`` locate each one.
    """

    def __init__(
        self,
        templates: Sequence[Sequence[int]],
        template_ids: Sequence[int],
        bases: Sequence[int],
    ) -> None:
        arrays = [np.asarray(t, dtype=np.int64).reshape(-1) for t in templates]
        lengths = np.asarray([a.size for a in arrays], dtype=np.int64)
        flat = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        )
        self.flat = flat
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        self.template_ids = np.ascontiguousarray(template_ids, dtype=np.int64)
        self.bases = np.ascontiguousarray(bases, dtype=np.int64)
        if self.template_ids.ndim != 1 or (
            self.bases.shape != self.template_ids.shape
        ):
            raise PatternError("one template id and one base per segment")
        if flat.size and flat.min() < 0:
            raise PatternError("template offsets must be non-negative")
        if self.bases.size and self.bases.min() < 0:
            raise PatternError("segment bases must be non-negative")
        if self.template_ids.size and (
            self.template_ids.min() < 0
            or self.template_ids.max() >= lengths.size
        ):
            raise PatternError(
                f"template ids must lie in [0, {lengths.size})"
            )
        self.seg_lengths = lengths[self.template_ids]

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[AccessPattern]
    ) -> "TemplateStream":
        """One segment per pattern, sharing a template between patterns
        of equal :meth:`AccessPattern.template` shape (only the first of
        each shape is materialised)."""
        shape_ids: Dict[Hashable, int] = {}
        templates: List[np.ndarray] = []
        ids: List[int] = []
        bases: List[int] = []
        for pattern in patterns:
            shape, base = pattern.template()
            if shape not in shape_ids:
                shape_ids[shape] = len(templates)
                templates.append(pattern.addresses() - base)
            ids.append(shape_ids[shape])
            bases.append(base)
        return cls(templates, ids, bases)

    @property
    def n_segments(self) -> int:
        return int(self.template_ids.size)

    @property
    def n_words(self) -> int:
        return int(self.seg_lengths.sum())

    def template(self, t: int) -> np.ndarray:
        """Offsets of template ``t``."""
        start = int(self.starts[t])
        return self.flat[start : start + int(self.lengths[t])]

    def addresses(self) -> np.ndarray:
        """The materialised address stream, in program order (for
        oracles and tests; the cost models never need it)."""
        return gather_shifted(
            self.flat, self.starts, self.lengths, self.template_ids, self.bases
        )

    def classes(self, unit: int, cycle: int = 1) -> Tuple[np.ndarray, ...]:
        """Group segments into classes whose addresses, divided by
        ``unit`` (a DRAM row, a page), agree up to a whole number of
        ``cycle`` units.

        Write a segment's base as ``q * unit + s`` (``0 <= s < unit``).
        Its access at offset ``t`` lies in unit ``q + t // unit + c``,
        where the carry ``c`` is 1 exactly when ``t % unit >= unit -
        s``.  So ``s`` matters only through which of the template's
        offsets carry: every ``s`` is replaced by the smallest residue
        that carries the same offsets (0 when none do).  Segments of one
        template with equal such residue and equal ``q mod cycle`` are
        then one class, ``q // cycle`` cycles apart.

        Returns ``(class_template, class_base, segment_class,
        segment_shift)``: segment ``i``'s access at offset ``t`` lies in
        unit ``(class_base[c] + t) // unit + segment_shift[i] * cycle``,
        with ``c = segment_class[i]``.
        """
        q, s = np.divmod(self.bases, unit)
        ids = self.template_ids
        # Only templates shared by several segments can share a class;
        # a template used once keeps its own residue.
        uses = np.bincount(ids, minlength=self.lengths.size)
        shared = np.flatnonzero(uses[ids] > 1)
        residue = s.copy()
        if shared.size:
            # Each shared template's distinct offsets mod ``unit``, keyed
            # by template so one sorted array serves every segment.
            owner = np.repeat(np.arange(self.lengths.size), self.lengths)
            mine = uses[owner] > 1
            keys = np.sort(owner[mine] * unit + self.flat[mine] % unit)
            keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
            j = ids[shared]
            # The smallest offset that carries: the first key at or
            # above ``unit - s``, if it still belongs to the template.
            at = np.searchsorted(keys, j * unit + (unit - s[shared]))
            first = np.append(keys, -1)[at]
            carries = (first >= 0) & (first < (j + 1) * unit)
            residue[shared] = np.where(carries, (j + 1) * unit - first, 0)
        shift, phase = np.divmod(q, cycle)
        base = phase * unit + residue
        unique, segment_class = np.unique(
            ids * (cycle * unit) + base, return_inverse=True
        )
        class_template, class_base = np.divmod(unique, cycle * unit)
        return class_template, class_base, segment_class, shift


def gather_shifted(
    flat: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    picks: np.ndarray,
    shifts: np.ndarray,
) -> np.ndarray:
    """Concatenate ``flat[starts[p] : starts[p] + lengths[p]] + shift``
    for each ``(p, shift)`` of ``zip(picks, shifts)``, without a Python
    loop."""
    sizes = lengths[picks]
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(sizes)
    # Position j of pick k reads flat[starts[p_k] + (j - ends[k-1])].
    step = np.repeat(starts[picks] - (ends - sizes), sizes)
    return flat[np.arange(total, dtype=np.int64) + step] + np.repeat(
        shifts, sizes
    )
