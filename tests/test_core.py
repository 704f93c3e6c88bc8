import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import (
    ArgumentError,
    shape_size,
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


@given(small_shapes)
@settings(max_examples=50)
def test_flat_offsets_are_row_major(shape):
    traversal = literal_traversal(shape)
    rows = np.array(traversal, dtype=np.int64).reshape(len(traversal), len(shape))
    offsets = np.broadcast_to(flat_offsets(rows.T, shape), len(rows)).tolist()
    assert offsets == list(range(shape_size(shape)))
    # an open grid broadcasts to the same offsets, laid out in ``shape``
    grid = flat_offsets(np.indices(shape, sparse=True), shape)
    assert grid.shape == shape and grid.reshape(-1).tolist() == offsets


def test_flat_offsets_refuse_int64_wrap():
    # the largest offset of a shape with 2**63 - 1 cells still fits int64
    last = np.array([[2**63 - 2]], dtype=np.int64)
    assert flat_offsets(last.T, (2**63 - 1,)).tolist() == [2**63 - 2]
    with pytest.raises(ArgumentError):
        flat_offsets(np.zeros((2, 1), dtype=np.int64), (2**62, 2))


def test_flat_offsets_of_one_int64_axis_are_a_read_only_view():
    coord = np.array([[3, 0], [2, 1]], dtype=np.int64)
    offsets = flat_offsets([coord], (4,))
    assert offsets.tobytes() == coord.tobytes() and offsets.shape == coord.shape
    assert offsets.dtype == np.int64 and not offsets.flags.writeable
    assert coord.flags.writeable
    with pytest.raises(ArgumentError):
        flat_offsets([np.zeros(2, dtype=np.int64)], (2**63,))


def test_flat_offsets_of_more_axes_than_numpy_broadcasts_at_once():
    # a table may name more target axes than np.broadcast takes arrays (64)
    rows = np.zeros((3, 70), dtype=np.int64)
    rows[1, -1] = 1
    shape = (1,) * 69 + (2,)
    assert flat_offsets(rows.T, shape).tolist() == [0, 1, 0]

