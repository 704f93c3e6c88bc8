import json
import os
import re
import tempfile
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
from scatterkit import ProvisionTensor
from scatterkit import fixtures as fx
from scatterkit import serialize
from scatterkit.core import (
    _refuse_rounded_ints,
    as_data_tensor,
    as_index_tensor,
    shape_size,
)
from scatterkit.serialize import (
    _BLOCK,
    _SLICE,
    _Entries,
    _read_document,
    _Reader,
    analysis_to_json,
    dump_document,
    inferred_target_shape,
    iter_document,
    provision_from_json,
    scatter_report_to_json,
    spec_from_json,
    spec_to_json,
    tensor_from_json,
    tensor_to_json,
    write_document,
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
    # order named, also where it is too large for a double at all; integers
    # up to 2**53 and floats load as float() gives them
    for value in (2**53 + 1, -(2**53 + 1), -(2**60) - 3, 2**70, 10**300,
                  10**400, -(10**400)):
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


def test_an_integer_past_the_digit_limit_is_refused_by_its_bit_length():
    # past Python's int-to-str limit (4300 digits) no message can hold the
    # digits: the entry is named by its sign, bit length and type, and the
    # refusal stays an ArgumentError with the entry's position
    big = 10**5000
    calls = [
        (lambda: tensor_from_json({"dtype": "f64", "shape": [1], "data": [big]}),
         "data entry <16610-bit int> at (0,) is an integer outside"),
        (lambda: as_data_tensor([big]), "data entry <16610-bit int> at (0,)"),
        (lambda: as_data_tensor([[1.5, -big]]), "data entry -<16610-bit int> at (0, 1)"),
        (lambda: as_index_tensor([0, big]), "index entry <16610-bit int> at (1,)"),
    ]
    for call, text in calls:
        with pytest.raises(ArgumentError, match=re.escape(text)):
            call()


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


def whole_document(doc) -> str:
    """The text of a document as one json.dumps call writes it."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def streamed_cases(rng):
    """Tensors for the streamed encoder: edge shapes, sizes around the slice
    length, edge values, then 500 random ones of either dtype."""
    yield np.array(-0.0)
    yield np.array(7, dtype=np.int64).reshape(())
    for shape in [(0,), (3, 0), (0, 2, 5)]:
        yield np.zeros(shape)
        yield np.zeros(shape, dtype=np.int64)
    for k in (1, 2, 3):
        for n in (k * _SLICE - 1, k * _SLICE, k * _SLICE + 1):
            yield rng.standard_normal(n)
            yield rng.integers(-(2**53), 2**53 + 1, size=n)
    yield np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e16, -1e16, 1e-5, 1e-7, 0.1, 1.7976931348623157e308,
                    float(2**53), float(-(2**53))])
    yield np.array([2**53, -(2**53), 2**63 - 1, -(2**63), 0, -1], dtype=np.int64)
    for _ in range(500):
        shape = tuple(rng.integers(0, 7, size=rng.integers(0, 4)).tolist())
        size = int(np.prod(shape, dtype=np.int64))
        if rng.random() < 0.5:
            # every finite bit pattern: subnormals, -0.0, both exponent ends
            arr = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
            arr[~np.isfinite(arr)] = -0.0
        else:
            arr = rng.integers(-(2**63), 2**63, size=size, dtype=np.int64)
        arr = arr.reshape(shape)
        yield arr.T if arr.ndim >= 2 and rng.random() < 0.3 else arr  # any layout


def test_streamed_tensors_are_the_whole_documents_bytes():
    cases = 0
    for arr in streamed_cases(np.random.default_rng(26)):
        doc = tensor_to_json(arr)
        want = whole_document(doc)
        pieces = list(iter_document(arr))
        assert "".join(pieces) == want == dump_document(doc), arr.shape
        assert dump_document(arr) == want
        # one slice of entries per piece, not the whole tensor
        assert max(map(len, pieces)) <= 32 * _SLICE
        result = {"report": {"writes": 2}, "result": arr, "out": None}
        assert dump_document(result) == whole_document({**result, "result": doc})
        cases += 1
    assert cases >= 520


def test_each_written_tensor_is_checked_once(monkeypatch):
    # the tensor header takes its dtype tag from the check iter_document
    # made, so each tensor's values are scanned once
    floats, ints = np.arange(6.0).reshape(2, 3), np.arange(4, dtype=np.int64)
    doc = {"report": {"writes": 2}, "result": floats, "table": ints}
    want = whole_document({**doc, "result": tensor_to_json(floats),
                           "table": tensor_to_json(ints)})
    checked, check = [], serialize._wire_dtype

    def counting(arr):
        checked.append(arr)
        return check(arr)

    monkeypatch.setattr(serialize, "_wire_dtype", counting)
    assert dump_document(doc) == want
    assert [id(arr) for arr in checked] == [id(floats), id(ints)]


@pytest.mark.parametrize("arr", [
    np.array([1.0, np.nan]), np.array([[-np.inf]]), np.array(np.inf),
    np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.int32),
], ids=["nan", "-inf", "inf_rank0", "f32", "i32"])
def test_a_refused_tensor_raises_before_the_first_piece(tmp_path, arr):
    for doc in (arr, {"report": {}, "result": arr}):
        with pytest.raises(FormatError):
            iter_document(doc)  # not iterated: the check runs when it is made
    with pytest.raises(FormatError):
        write_document(tmp_path / "out.json", arr)
    assert list(tmp_path.iterdir()) == []


def test_writing_a_large_tensor_holds_one_slice(tmp_path):
    # 2**20 float64 entries: about 20 MB of text, written a slice at a time;
    # 0.08 MB peak with slices of 512 entries (0.6 MB with 4096, 71 MB when
    # the document was built as one string)
    arr = np.random.default_rng(3).standard_normal(2**20)
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_document(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak
    assert tensor_from_json(json.loads(path.read_text())).tobytes() == arr.tobytes()


def test_a_long_analysis_is_dumped_a_slice_at_a_time():
    # 2**14 collision groups: one json.dumps of the document takes 4 MB
    # under tracemalloc; laid out in slices of about _SLICE values, its
    # transient stays below 256 KB (63 KB measured), with the same bytes
    n = 2**15
    table = np.stack([np.arange(n) // 2, np.zeros(n, np.int64)], axis=1)
    provision = ProvisionTensor(table, (n // 2, 1))
    collisions = detect_collisions(provision)
    assert collisions.collision_count == 2**14
    doc = analysis_to_json(slicing_impossibility(provision), collisions)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        pieces = [len(piece) for piece in iter_document(doc)]
        transient = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert transient < 2**18, transient
    assert dump_document(doc) == whole_document(doc)
    assert sum(pieces) == len(whole_document(doc)) and max(pieces) <= 32 * _SLICE


@pytest.mark.parametrize("doc", [
    # one group of 4000 sources is laid out by itself, its sources in slices
    {"groups": [{"target": [1], "sources": [[i, 0] for i in range(4000)]},
                {"target": [2], "sources": [[0, 1], [1, 1]]}]},
    {"nested": {"long": list(range(3000)), "short": [1.5, None, "x", True]}},
    [[], {}, [[]], "a" * 10, list(range(2 * _SLICE + 1))],
    {"mixed": [1, [2, 3], {"a": [4] * 700}], "empty": [], "none": None},
], ids=["one_large_group", "nested_long_list", "list_of_lists", "mixed"])
def test_long_json_is_written_with_its_whole_bytes(doc):
    pieces = list(iter_document(doc))
    assert "".join(pieces) == whole_document(doc)
    assert max(map(len, pieces)) <= 32 * _SLICE


def test_reading_a_large_tensor_holds_one_slice(tmp_path):
    # 2**20 float64 entries (20.6 MB of text): the reader parses the data
    # list a slice at a time into the array, so the peak is the 8 MB array
    # and about 0.15 MB more (json.load peaked at 51.7 MB)
    arr = np.random.default_rng(3).standard_normal(2**20)
    path = tmp_path / "big.json"
    write_document(path, arr)
    tracemalloc.start()
    try:
        loaded = tensor_from_json(_read_document(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
    assert loaded.tobytes() == arr.tobytes()
    assert loaded.flags.owndata and loaded.flags.writeable


def test_a_table_read_from_a_file_is_held_once(tmp_path):
    # as for a dict: the table read from a file owns its memory and is
    # adopted read-only, so an 8 MiB table peaks at about 8 MiB
    n = 2**19
    path = tmp_path / "table.json"
    write_document(path, np.arange(2 * n, dtype=np.int64).reshape(n, 2))
    tracemalloc.start()
    try:
        provision = provision_from_json(_read_document(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak
    assert provision.table.base is None and not provision.table.flags.writeable
    assert provision.table[-1].tolist() == [2 * n - 2, 2 * n - 1]


def whole_list_reference(doc):
    """``tensor_from_json`` as it checked a whole list at once, before
    :class:`_Entries` checked one slice at a time: the reference both the
    file reader and the dict path agree with."""
    for key in ("dtype", "shape", "data"):
        if not isinstance(doc, dict):
            raise FormatError("tensor document must be a JSON object")
        if key not in doc:
            raise FormatError(f"tensor document missing key {key!r}")
    dtype, shape, data = doc["dtype"], doc["shape"], doc["data"]
    if dtype not in ("f64", "i64"):
        raise FormatError(f"unknown dtype {dtype!r}")
    if not isinstance(shape, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in shape
    ):
        raise FormatError("tensor shape must be a list of integers")
    if any(d < 0 for d in shape):
        raise FormatError("tensor shape extents must be nonnegative")
    if not isinstance(data, list):
        raise FormatError("tensor data must be a list")
    if len(data) != shape_size(shape):
        raise FormatError(f"tensor data length {len(data)} does not match shape {shape}")
    integral = dtype == "i64"
    types = set(map(type, data))
    if not types <= ({int} if integral else {int, float}):
        raise FormatError(f"{dtype} tensor data must be numbers, integers for i64")
    try:
        arr = np.array(data, dtype=np.int64 if integral else np.float64)
        arr.shape = shape
    except (OverflowError, ValueError) as exc:
        if not integral:
            _refuse_rounded_ints(data, range(len(data)), shape)
        raise FormatError(f"tensor document out of range: {exc}") from exc
    if not integral and not np.isfinite(arr).all():
        raise FormatError("f64 tensor data must be finite")
    if not integral and int in types:
        _refuse_rounded_ints(data, np.flatnonzero(np.abs(arr) >= 2**53), shape)
    return arr


def load_whole(path):
    """json.load of the file, refused as the CLI refuses a file it cannot parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def outcome(load, path):
    try:
        arr = load(path)
    except (FormatError, ArgumentError) as exc:
        return type(exc).__name__, str(exc)
    return (arr.dtype.str, arr.shape, arr.tobytes(), arr.flags.owndata,
            arr.flags.writeable)


def the_three_loads_agree(path):
    """The reader, the dict path and the whole-list reference give one outcome."""
    read = outcome(lambda p: tensor_from_json(_read_document(p)), path)
    assert read == outcome(lambda p: tensor_from_json(load_whole(p)), path)
    assert read == outcome(lambda p: whole_list_reference(load_whole(p)), path)
    return read


WHITESPACE = ["", "", "", " ", "\n", "\t", "\r\n", " \t\n\r "]
SIZES = [0, 1, 2, 7, _SLICE - 1, _SLICE, _SLICE + 1, 1500,
         _BLOCK - 1, _BLOCK, _BLOCK + 1]


def f64_token(rng):
    kind = rng.integers(0, 8)
    if kind == 0:
        return str(int(rng.integers(-(2**53), 2**53 + 1)))  # an int in an f64 document
    if kind == 1:
        return str(rng.choice(["-0.0", "0", "-0", "5e-324", "1.7976931348623157e308",
                               "1E5", "2.5e-3", "-1.0E+2", "9007199254740992"]))
    if kind == 2 and rng.random() < 0.05:  # a token wider than a block
        return "0.5" + "0" * (_BLOCK + 100)
    return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20)))


def i64_token(rng):
    if rng.random() < 0.5:
        return str(int(rng.integers(-(2**63), 2**63)))
    return str(int(rng.integers(-300, 300)))


def ws(rng):
    if rng.random() < 0.002:  # a run of whitespace wider than a block
        return " " * (_BLOCK + 7)
    return WHITESPACE[rng.integers(0, len(WHITESPACE))]


def document_text(rng, dtype, shape, entries, order, extra):
    """A tensor document with the given entry tokens, keys in ``order``,
    whitespace from ``rng`` between every two tokens."""
    data = "[" + ws(rng) + ("," + ws(rng)).join(e + ws(rng) for e in entries) + "]"
    values = {
        "dtype": json.dumps(dtype),
        "shape": json.dumps(shape, separators=(ws(rng) + "," + ws(rng), ":")),
        "data": data,
        "note": '{"nested": {"data": [1, "x"]}, "shape": [1]}',
        "bad_dtype": '"f32"',
        "bad_data": '[1, "x", [2]]',
    }
    members = [f'"{key.removeprefix("bad_")}"{ws(rng)}:{ws(rng)}{values[key]}'
               for key in order + extra]
    return ws(rng) + "{" + ws(rng) + ("," + ws(rng)).join(members) + ws(rng) + "}" + ws(rng)


@st.composite
def tensor_documents(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from(["f64", "i64"]))
    rank = draw(st.integers(0, 3))
    size = 1 if rank == 0 else draw(st.sampled_from(SIZES))
    shape = [size] + [1] * (rank - 1) if size else [0] + list(rng.integers(0, 4, rank - 1))
    shape = [int(d) for d in rng.permutation(shape)]
    token = f64_token if dtype == "f64" else i64_token
    entries = [token(rng) for _ in range(shape_size(shape))]
    order = draw(st.permutations(["dtype", "shape", "data"]))
    # a duplicate key: the last one wins, as in json.load
    extra = draw(st.sampled_from([[], [], ["note"], ["bad_dtype", "dtype"],
                                  ["bad_data", "data"]]))
    return rng, dtype, shape, entries, list(order), extra


def write_text(directory, text):
    path = os.path.join(directory, "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@given(tensor_documents())
@settings(max_examples=120, deadline=None)
def test_the_reader_agrees_with_json_load_on_valid_documents(case):
    rng, dtype, shape, entries, order, extra = case
    text = document_text(rng, dtype, shape, entries, order, extra)
    with tempfile.TemporaryDirectory() as directory:
        path = write_text(directory, text)
        got = the_three_loads_agree(path)
        assert got[:2] == (("<f8" if dtype == "f64" else "<i8"), tuple(shape)), got
        if order.index("data") == 2 and extra in ([], ["note"]):
            # a header before the data: the list is read a slice at a time
            with open(path, encoding="utf-8") as fh:
                doc = _Reader(fh, os.path.getsize(path)).document()
            assert isinstance(doc["data"], _Entries)


BAD_ENTRIES = ['"x"', "true", "false", "null", "NaN", "Infinity", "-Infinity",
               "1e400", "[1]", "[]", '{"a": 1}', "9007199254740993",
               "-9007199254740993", "9223372036854775808", "1" * 5000]


@given(tensor_documents(), st.sampled_from(
    ["truncate", "trailing_comma", "bad_entry", "two_bad_entries",
     "short_and_bad", "long_and_bad", "not_utf8"]))
@settings(max_examples=150, deadline=None)
def test_the_reader_agrees_with_json_load_on_broken_documents(case, fault):
    rng, dtype, shape, entries, order, extra = case
    if fault in ("bad_entry", "two_bad_entries") and entries:
        for _ in range(1 if fault == "bad_entry" else 2):
            entries[rng.integers(0, len(entries))] = str(rng.choice(BAD_ENTRIES))
    elif fault == "short_and_bad" and entries:  # the length is reported first
        entries = entries[1:]
        if entries:
            entries[rng.integers(0, len(entries))] = str(rng.choice(BAD_ENTRIES))
    elif fault == "long_and_bad":
        entries = entries + [str(rng.choice(BAD_ENTRIES))]
    elif fault == "trailing_comma":  # "[1, 2,]", or "[,]"
        entries = entries + [""] * (1 + (not entries))
    raw = document_text(rng, dtype, shape, entries, order, extra).encode()
    if fault == "truncate":
        raw = raw[: rng.integers(0, len(raw))]
    elif fault == "not_utf8":
        at = rng.integers(0, len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        the_three_loads_agree(path)


@pytest.mark.parametrize("text", [
    '{"dtype": "f64", "shape": [2], "data": [1.5, 2]}',
    '{"dtype": "f64", "shape": [2], "data": [1.5, 2], "dtype": "i64"}',
    '{"dtype": "i64", "shape": [2], "data": [1, 2,]}',
    '{"dtype": "i64", "shape": [2], "data": [1 2]}',
    '{"dtype": "i64", "shape": [2], "data": [1, , 2]}',
    '{"dtype": "i64", "shape": [0], "data": [,]}',
    '{"dtype": "i64", "shape": [0], "data": [ ]}',
    '{"dtype": "i64", "shape": [1], "data": [[1]]}',
    '{"dtype": "i64", "shape": [1], "data": ["a]"]}',
    '{"dtype": "i64", "shape": [2], "data": ["a,b", 1]}',
    '{"dtype": "f64", "shape": [1], "data": [1e]}',
    '{"dtype": "f64", "shape": [1], "data": [1]} x',
    '{"dtype": "f64", "shape": [1], "data": [1]',
    '{"dtype": "f64", "shape": [1] "data": [1]}',
    '{"dtype": "f64", "shape": [1], "data": [1],}',
    '{"dtype": "f64", "shape": [1], data: [1]}',
    '\ufeff{"dtype": "f64", "shape": [1], "data": [1]}',
    '[{"dtype": "f64", "shape": [1], "data": [1]}]',
    '{"dtype": "f64", "shape": [100000000], "data": [1]}',
    '{"dtype": "f64", "shape": [1], "data": [1], "shape": [1]}',
    '{"dtype": "i64", "shape": [9223372036854775808, 0], "data": []}',
    '{"dtype": "f64", "shape": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,'
    ' 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,'
    ' 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "data": [1]}',
    "",
    "   ",
])
def test_the_reader_agrees_with_json_load_on_edge_documents(tmp_path, text):
    the_three_loads_agree(write_text(tmp_path, text))
