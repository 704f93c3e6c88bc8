import datetime
import importlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterkit
from scatterkit import (
    ArgumentError,
    ProvisionTensor,
    XTransformerSpec,
    as_index_tensor,
    scatter_nd_update,
    shape_size,
    tf_transformer,
    torch_scatter,
)
from scatterkit.core import flat_offsets

from oracles import literal_traversal

# the table, the factored spec, the scatter entry points and the analyzer,
# with the errors, reports and coercions they take and return
SURFACE = [
    "ArgumentError", "CollisionError", "CollisionPolicy", "CollisionReport",
    "FormatError", "PickRangeError", "ProvisionTensor", "SLICEABLE",
    "ScatterReport", "SliceabilityReport", "TRIVIAL_ONLY", "ValidationError",
    "WEAKLY_SLICEABLE_ONLY", "XTransformerSpec", "as_data_tensor",
    "as_index_tensor", "compose_provision", "detect_collisions",
    "scatter_nd_update", "scatter_x", "shape_size", "slicing_impossibility",
    "tf_transformer", "torch_scatter", "validate_provision",
]
REMOVED = ["trivial_spec", "representation_overlap", "as_pick", "identity_pick",
           "scatter", "max_sliceable_suffix", "pass_through_map", "weak_decomposition"]


def test_the_public_surface_is_what_runs():
    assert len(SURFACE) == 25
    assert sorted(scatterkit.__all__) == SURFACE
    assert all(hasattr(scatterkit, name) for name in SURFACE)
    modules = [scatterkit] + [
        importlib.import_module(f"scatterkit.{info.name}")
        for info in pkgutil.iter_modules(scatterkit.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(ProvisionTensor, "source_size")
    # the extent check the table and the spec run stays, off the surface
    assert not hasattr(scatterkit, "as_shape")
    assert callable(importlib.import_module("scatterkit.core").as_shape)
    # a map scatters through scatter_x alone; the class the tracing wraps
    # stays in the engine, off the surface
    assert not hasattr(scatterkit, "Scattering")
    assert callable(importlib.import_module("scatterkit.engine").Scattering.__post_init__)


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



def test_index_coercion_refuses_entries_the_int64_cast_would_change():
    refused = [
        ([[0.5, 1.9]], "index entry 0.5 at (0, 0)"),
        ([0.0, float("nan")], "index entry nan at (1,)"),
        (np.array([[1.0], [-np.inf]]), "index entry -inf at (1, 0)"),
        (np.array([1.0, 2.0**63]), "index entry 9.223372036854776e+18 at (1,)"),
        (np.array([2**63], dtype=np.uint64), "index entry 9223372036854775808 at (0,)"),
        ([1, -(2**63) - 1], "index entry -9223372036854775809 at (1,)"),
    ]
    for values, text in refused:
        with pytest.raises(ArgumentError, match=re.escape(text)):
            as_index_tensor(values)
    # exact inputs keep working; a listed int beside a float is not rounded
    assert as_index_tensor([]).shape == (0,)
    assert as_index_tensor([True, False]).tolist() == [1, 0]
    assert as_index_tensor(np.array([[3.0, -2.0]])).tolist() == [[3, -2]]
    assert as_index_tensor([1.0, 2**62 + 1]).tolist() == [1, 2**62 + 1]
    assert as_index_tensor(np.array([-(2.0**63)])).tolist() == [-(2**63)]
    for values in ([], [True, False], [[3.0, -2.0]], np.arange(3, dtype=np.uint32)):
        assert as_index_tensor(values).dtype == np.int64
    # int64 input is returned as it is, unscanned
    index = np.arange(6).reshape(2, 3)
    assert as_index_tensor(index) is index


def test_entry_points_refuse_fractional_indices():
    def refuses(call):
        with pytest.raises(ArgumentError, match="is not an int64 integer"):
            call()

    refuses(lambda: ProvisionTensor([[0.5, 1.9]], (2, 2)))
    refuses(lambda: torch_scatter(np.zeros(3), 0, [0.9, 2.2], [5.0, 6.0]))
    refuses(lambda: scatter_nd_update(np.zeros((4, 3)), [[1.7]], np.ones((1, 3))))
    # a spec's inner table, built directly or by tf_transformer
    refuses(lambda: XTransformerSpec(ProvisionTensor([[0], [1.5]], (2,)), (0,), (),
                                     (0,), (2,), (2,)))
    refuses(lambda: tf_transformer([[1.5]], (2,)))
    # integral floats index as their ints
    assert ProvisionTensor([[1.0, 0.0]], (2, 2)).table.tolist() == [[1, 0]]
    result, _ = torch_scatter(np.zeros(3), 0, [2.0, 0.0], [5.0, 6.0])
    assert result.tolist() == [6.0, 0.0, 5.0]


def test_entry_points_refuse_indices_that_are_no_real_numbers():
    # strings, complex numbers, dates and None would fail a comparison with
    # a TypeError or be cast to a number; each is refused, naming its dtype or its entry, which lies
    # at (1,) in the list and at (1, 0) in its column
    dates = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
    refused = [
        (["0", "2"], "index dtype <U1 is not bool, integer or float"),
        (np.array([0j, 2j]), "index dtype complex128 is not bool, integer or float"),
        (dates, "index dtype datetime64[D] is not bool, integer or float"),
        (np.array([0, "2"], dtype=object), "index entry '2' at (1,"),
        ([2**70, 1j], "index entry 1j at (1,"),
        ([0, None], "index entry None at (1,"),
        # numpy 2 and numpy 1 show a numpy scalar differently
        (np.array([0, np.datetime64("2020-01-01")], dtype=object), "at (1,"),
        (np.array([0, np.timedelta64(5, "D")], dtype=object), "at (1,"),
        ([0, datetime.date(2020, 1, 1)], "index entry datetime.date(2020, 1, 1) at (1,"),
    ]
    for values, text in refused:
        column = np.asarray(values)[:, None]
        for call in (
            lambda: as_index_tensor(values),
            lambda: torch_scatter(np.zeros(3), 0, values, [5.0, 6.0]),
            lambda: scatter_nd_update(np.zeros(3), column, [5.0, 6.0]),
            lambda: ProvisionTensor(column, (3,)),
        ):
            with pytest.raises(ArgumentError, match=re.escape(text)):
                call()
    # bools index as 0 and 1
    result, _ = torch_scatter(np.zeros(3), 0, [True, False], [5.0, 6.0])
    assert result.tolist() == [6.0, 5.0, 0.0]
