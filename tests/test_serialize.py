import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import (
    ArgumentError,
    FormatError,
    detect_collisions,
    slicing_impossibility,
)
from scatterkit import fixtures as fx
from scatterkit.serialize import (
    analysis_to_json,
    dump_document,
    inferred_target_shape,
    provision_from_json,
    scatter_report_to_json,
    spec_from_json,
    spec_to_json,
    tensor_from_json,
    tensor_to_json,
)
from scatterkit.engine import ScatterReport

from generators import random_spec


def round_trip(arr):
    return tensor_from_json(json.loads(json.dumps(tensor_to_json(arr))))


def test_tensor_round_trip_f64():
    arr = np.array([[1.5, -2.25], [3.125, 0.0]])
    back = round_trip(arr)
    assert back.dtype == np.float64
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_tensor_round_trip_i64():
    arr = np.array([[0, 1], [2, -3]], dtype=np.int64)
    back = round_trip(arr)
    assert back.dtype == np.int64
    assert np.array_equal(back, arr)


def test_tensor_round_trip_degenerate():
    for arr in (
        np.zeros((), dtype=np.float64),
        np.zeros((0,), dtype=np.int64),
        np.zeros((2, 0, 3), dtype=np.float64),
    ):
        back = round_trip(arr)
        assert back.shape == arr.shape
        assert back.dtype == arr.dtype


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=0,
        max_size=20,
    )
)
@settings(max_examples=100)
def test_tensor_round_trip_is_bit_exact(values):
    arr = np.array(values, dtype=np.float64)
    assert round_trip(arr).tobytes() == arr.tobytes()


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"dtype": "f32", "shape": [1], "data": [0.0]},
        {"dtype": "f64", "shape": [2], "data": [0.0]},
        {"dtype": "f64", "shape": [-1], "data": []},
        {"dtype": "f64", "shape": [1], "data": ["x"]},
        {"dtype": "i64", "shape": [1], "data": [1.5]},
        {"dtype": "i64", "shape": [1], "data": [True]},
        {"dtype": "i64", "shape": "nope", "data": []},
        {"dtype": "f64", "shape": [2], "data": [1.0, False]},
        {"dtype": "f64", "shape": [1], "data": [None]},
        {"dtype": "f64", "shape": [1], "data": [[1.0]]},
        {"dtype": "i64", "shape": [2], "data": [1, 2.0]},
        {"dtype": "i64", "shape": [1], "data": [[1]]},
        # json reads 1e400 as inf, and NaN and Infinity as nan and inf
        {"dtype": "f64", "shape": [2], "data": [0.0, float("inf")]},
        {"dtype": "f64", "shape": [1], "data": [float("-inf")]},
        {"dtype": "f64", "shape": [1], "data": [float("nan")]},
    ],
)
def test_tensor_from_json_rejects_malformed(doc):
    with pytest.raises(FormatError):
        tensor_from_json(doc)


def test_tensor_from_json_refuses_integers_float64_would_round():
    # an f64 document's integer past 2**53 is refused, the first in row-major
    # order named; integers up to 2**53 and floats load as float() gives them
    for value in (2**53 + 1, -(2**53 + 1), -(2**60) - 3, 2**70, 10**300):
        doc = {"dtype": "f64", "shape": [2, 2], "data": [7, 1e300, 2**53, value]}
        text = f"data entry {value} at (1, 1) is an integer outside [-2**53, 2**53]"
        with pytest.raises(ArgumentError, match=re.escape(text)):
            tensor_from_json(doc)
    doc = {"dtype": "f64", "shape": [3], "data": [2.0**70, 2**70, 2**53 + 1]}
    with pytest.raises(ArgumentError, match=re.escape(f"data entry {2**70} at (1,)")):
        tensor_from_json(doc)
    values = [2**53, -(2**53), 7, 1e300, -1e300, 2.0**70]
    got = tensor_from_json({"dtype": "f64", "shape": [6], "data": values})
    assert got.tobytes() == np.array([float(v) for v in values]).tobytes()
    got = tensor_from_json({"dtype": "f64", "shape": [2], "data": [1.5, 2**53]})
    assert got.tobytes() == np.array([1.5, 2.0**53]).tobytes()


def test_a_loaded_table_is_held_once():
    # the loaded array owns its memory and a table adopts it: an 8 MiB table
    # peaks at about 8 MiB after parsing, not twice that
    n = 2**19
    doc = {"dtype": "i64", "shape": [n, 2], "data": list(range(2 * n))}
    tracemalloc.start()
    try:
        provision = provision_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak
    assert provision.table.base is None and not provision.table.flags.writeable
    assert provision.table[-1].tolist() == [2 * n - 2, 2 * n - 1]
    # updates and backgrounds stay the caller's to write
    loaded = tensor_from_json(doc)
    assert loaded.flags.writeable and loaded.flags.owndata


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_tensor_to_json_refuses_non_finite(value):
    # JSON has no NaN or infinity
    with pytest.raises(FormatError):
        tensor_to_json(np.array([0.0, value]))


def test_inferred_target_shape():
    table = fx.diag_provision().table
    assert inferred_target_shape(np.asarray(table)) == (2, 2, 2, 2)
    assert inferred_target_shape(fx.parity_provision().table) == (4, 2, 2, 2)
    assert inferred_target_shape(np.zeros((2, 0), dtype=np.int64)) == ()


def test_provision_from_json_infers_target():
    doc = tensor_to_json(fx.parity_provision().table)
    prov = provision_from_json(doc)
    assert prov.target_shape == (4, 2, 2, 2)
    prov2 = provision_from_json(doc, target_shape=(5, 2, 2, 2))
    assert prov2.target_shape == (5, 2, 2, 2)
    with pytest.raises(ArgumentError):
        provision_from_json(tensor_to_json(np.zeros((2, 2))))


def test_spec_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(30):
        spec = random_spec(rng)
        back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
        assert np.array_equal(back.inner.table, spec.inner.table)
        assert back.inner_pick == spec.inner_pick
        assert back.pass_pick == spec.pass_pick
        assert back.out_pick == spec.out_pick
        assert back.source_shape == spec.source_shape
        assert back.target_shape == spec.target_shape


def test_scatter_report_doc():
    doc = scatter_report_to_json(ScatterReport(8, 0, 8, True))
    assert doc == {
        "writes": 8,
        "colliding_groups": 0,
        "uncovered_targets": 8,
        "fast_path_used": True,
    }


def test_analysis_doc_golden():
    diag = fx.diag_provision()
    doc = analysis_to_json(slicing_impossibility(diag), detect_collisions(diag))
    assert doc["max_suffix"] == 2
    assert doc["verdict"] == "SLICEABLE"
    assert doc["uncovered"] == 8
    assert doc["collisions"]["count"] == 0
    assert doc["overlap"] == []
    assert doc["suffix_inner"]["data"] == [0, 0, 1, 1]
    assert doc["pass_through"] == [[0, 0], [0, 1], [1, 2], [2, 3]]
    json.dumps(doc)  # document must be serializable as-is


def test_dump_document_stable():
    doc = tensor_to_json(fx.embed_updates())
    assert dump_document(doc) == dump_document(doc)
    assert dump_document(doc).endswith("\n")
    small = tensor_to_json(np.array([[1.5, -0.0]]))
    assert dump_document(small) == (
        '{"dtype":"f64","shape":[1,2],"data":[1.5,-0.0]}\n'
    )
