"""Tests for :mod:`repro.memory.streams`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PatternError
from repro.memory.streams import (
    Concat,
    Custom,
    Gather,
    Sequential,
    Strided,
    TemplateStream,
    Tiled2D,
)


class TestSequential:
    def test_addresses(self):
        p = Sequential(10, 4)
        assert p.addresses().tolist() == [10, 11, 12, 13]
        assert p.n_words == 4

    def test_empty(self):
        assert Sequential(0, 0).addresses().size == 0

    def test_negative_rejected(self):
        with pytest.raises(PatternError):
            Sequential(-1, 4)
        with pytest.raises(PatternError):
            Sequential(0, -1)


class TestStrided:
    def test_addresses(self):
        p = Strided(5, 3, 100)
        assert p.addresses().tolist() == [5, 105, 205]

    def test_zero_stride_rejected(self):
        with pytest.raises(PatternError):
            Strided(0, 3, 0)


class TestTiled2D:
    def test_row_major(self):
        p = Tiled2D(base=0, rows=2, cols=3, pitch=10, order="row")
        assert p.addresses().tolist() == [0, 1, 2, 10, 11, 12]

    def test_col_major(self):
        p = Tiled2D(base=0, rows=2, cols=3, pitch=10, order="col")
        assert p.addresses().tolist() == [0, 10, 1, 11, 2, 12]

    def test_n_words(self):
        assert Tiled2D(0, 4, 5, 10).n_words == 20

    def test_pitch_smaller_than_cols_rejected(self):
        with pytest.raises(PatternError):
            Tiled2D(0, 2, 8, 4)

    def test_bad_order_rejected(self):
        with pytest.raises(PatternError):
            Tiled2D(0, 2, 2, 4, order="diagonal")


class TestGather:
    def test_addresses(self):
        p = Gather(100, [3, 1, 2])
        assert p.addresses().tolist() == [103, 101, 102]

    def test_negative_index_rejected(self):
        with pytest.raises(PatternError):
            Gather(0, [-1])

    def test_2d_indices_rejected(self):
        with pytest.raises(PatternError):
            Gather(0, np.zeros((2, 2), dtype=np.int64))


class TestCustom:
    def test_roundtrip(self):
        p = Custom([5, 3, 9], label="x")
        assert p.addresses().tolist() == [5, 3, 9]
        assert "x" in p.describe()

    def test_negative_rejected(self):
        with pytest.raises(PatternError):
            Custom([-3])


class TestConcat:
    def test_order_preserved(self):
        p = Concat([Sequential(0, 2), Strided(100, 2, 10)])
        assert p.addresses().tolist() == [0, 1, 100, 110]
        assert p.n_words == 4

    def test_empty(self):
        p = Concat([])
        assert p.n_words == 0
        assert p.addresses().size == 0

    def test_non_pattern_rejected(self):
        with pytest.raises(PatternError):
            Concat([Sequential(0, 1), "nope"])


class TestDescribe:
    def test_all_patterns_describe(self):
        patterns = [
            Sequential(0, 4),
            Strided(0, 4, 2),
            Tiled2D(0, 2, 2, 4),
            Gather(0, [1]),
            Custom([1]),
            Concat([Sequential(0, 1)]),
        ]
        for p in patterns:
            text = p.describe()
            assert isinstance(text, str) and text


@given(
    st.integers(0, 1000),
    st.integers(0, 200),
    st.integers(1, 50),
)
def test_strided_matches_arange_property(start, n, stride):
    p = Strided(start, n, stride)
    expected = start + stride * np.arange(n)
    assert np.array_equal(p.addresses(), expected)
    assert p.n_words == n


@given(
    st.integers(1, 16),
    st.integers(1, 16),
    st.integers(0, 100),
)
def test_tiled_row_and_col_are_permutations(rows, cols, base):
    pitch = cols + 3
    row = Tiled2D(base, rows, cols, pitch, order="row").addresses()
    col = Tiled2D(base, rows, cols, pitch, order="col").addresses()
    assert sorted(row.tolist()) == sorted(col.tolist())
    assert row.size == rows * cols


class TestTemplateStream:
    def test_equal_shapes_share_one_template(self):
        patterns = [
            Tiled2D(0, 2, 3, 10),
            Sequential(7, 4),
            Tiled2D(55, 2, 3, 10),
            Gather(5, [3, 1]),
            Sequential(100, 4),
        ]
        stream = TemplateStream.from_patterns(patterns)
        assert stream.lengths.size == 3  # tile, sequential, gather
        assert stream.template_ids.tolist() == [0, 1, 0, 2, 1]
        assert np.array_equal(
            stream.addresses(),
            np.concatenate([p.addresses() for p in patterns]),
        )
        assert stream.seg_lengths.tolist() == [6, 4, 6, 2, 4]

    def test_classes_share_units_up_to_whole_cycles(self):
        """A class's base puts every template offset in the same unit
        as each member segment does, up to whole cycles; bases whose
        offsets carry alike share a class."""
        stream = TemplateStream(
            [[0, 1, 9], [5]], [0, 0, 0, 1, 0, 0], [3, 35, 5, 3, 67, 7]
        )
        templates, bases, seg_class, shift = stream.classes(8, cycle=4)
        # Template 0's offsets are 0 and 1 mod 8: only a base 7 mod 8
        # carries one into the next unit.  Bases 3, 5 and 35 carry
        # nothing and differ by whole cycles (32 words): one class.
        assert seg_class[0] == seg_class[1] == seg_class[2]
        assert len({seg_class[0], seg_class[3], seg_class[5]}) == 3
        assert shift.tolist() == [0, 1, 0, 0, 2, 0]
        for i in range(stream.n_segments):
            c = seg_class[i]
            assert templates[c] == stream.template_ids[i]
            offsets = stream.template(int(templates[c]))
            assert np.array_equal(
                (stream.bases[i] + offsets) // 8,
                (bases[c] + offsets) // 8 + 4 * shift[i],
            )

    @pytest.mark.parametrize(
        "args",
        [
            ([[0, -1]], [0], [0]),  # negative offset
            ([[0]], [0], [-4]),  # negative base
            ([[0]], [1], [0]),  # unknown template
            ([[0]], [0, 0], [0]),  # ids and bases disagree
        ],
    )
    def test_invalid_rejected(self, args):
        with pytest.raises(PatternError):
            TemplateStream(*args)


@given(
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 20),
    st.sampled_from(["row", "col"]),
)
def test_equal_shapes_are_shifted_copies(base, other, rows, cols, extra, order):
    """Patterns whose ``template()`` shapes are equal differ only by the
    difference of their bases."""
    for make in (
        lambda b: Tiled2D(b, rows, cols, cols + extra, order=order),
        lambda b: Sequential(b, rows * cols),
        lambda b: Strided(b, rows, extra + 1),
    ):
        p, q = make(base), make(other)
        (shape_p, base_p), (shape_q, base_q) = p.template(), q.template()
        assert shape_p == shape_q
        assert np.array_equal(p.addresses() - base_p, q.addresses() - base_q)
