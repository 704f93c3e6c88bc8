import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import (
    ArgumentError,
    RankError,
    index_iter,
    index_matrix,
    is_valid_index,
    row_major_strides,
    shape_size,
    to_tuple,
)
from scatterkit.core import flat_offsets

from oracles import literal_traversal

small_shapes = st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple)


@pytest.mark.parametrize(
    "shape,expected",
    [((3, 3, 2), 18), ((), 1), ((4, 0, 2), 0)],
)
def test_shape_size(shape, expected):
    assert shape_size(shape) == expected


def test_index_iter_row_major():
    assert list(index_iter((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(index_iter((3,))) == [(0,), (1,), (2,)]
    seq = list(index_iter((4, 2)))
    assert len(seq) == 8
    assert seq[0] == (0, 0) and seq[-1] == (3, 1)


def test_index_iter_degenerate_shapes():
    assert list(index_iter(())) == [()]
    assert list(index_iter((2, 0, 3))) == []


@given(small_shapes)
@settings(max_examples=100)
def test_index_iter_matches_nested_loops(shape):
    assert list(index_iter(shape)) == literal_traversal(shape)


@given(small_shapes)
@settings(max_examples=100)
def test_index_iter_distinct_valid_increasing(shape):
    seq = list(index_iter(shape))
    assert len(seq) == shape_size(shape)
    assert len(set(seq)) == len(seq)
    offsets = flat_offsets(index_matrix(shape), shape).tolist()
    assert all(is_valid_index(shape, i) for i in seq)
    assert offsets == sorted(offsets)
    assert offsets == list(range(len(seq)))


@given(small_shapes)
@settings(max_examples=50)
def test_index_matrix_agrees_with_iter(shape):
    mat = index_matrix(shape)
    assert [tuple(int(c) for c in row) for row in mat] == list(index_iter(shape))


def test_tuple_tensor_round_trip():
    assert to_tuple(np.array([4, 6, 7])) == (4, 6, 7)
    assert to_tuple(np.zeros(0, dtype=np.int64)) == ()
    assert to_tuple(np.array([0, 1, 1, 0], dtype=np.int64)) == (0, 1, 1, 0)


def test_to_tuple_requires_rank1():
    with pytest.raises(RankError):
        to_tuple(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(RankError):
        to_tuple(np.int64(3))


def test_flat_offsets_refuse_int64_wrap():
    # the largest offset of a shape with 2**63 - 1 cells still fits int64
    last = np.array([[2**63 - 2]], dtype=np.int64)
    assert flat_offsets(last, (2**63 - 1,)).tolist() == [2**63 - 2]
    with pytest.raises(ArgumentError):
        flat_offsets(np.zeros((1, 2), dtype=np.int64), (2**62, 2))


def test_row_major_strides():
    assert row_major_strides((3, 3, 2)) == (6, 2, 1)
    assert row_major_strides(()) == ()
    assert row_major_strides((5,)) == (1,)
