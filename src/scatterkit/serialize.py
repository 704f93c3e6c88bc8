"""JSON wire formats for tensors, factored transformers, and reports.

Tensor documents are the bit-exact interchange contract shared by every
entry point::

    {"dtype": "f64" | "i64", "shape": [ints >= 0], "data": [row-major]}

Factored transformers carry their inner table inline as a tensor document.

Documents are written by :func:`iter_document`, which yields the text of
:func:`dump_document` in pieces by one layout rule.  A value of at most
about ``_SLICE`` JSON values is one call of the C encoder of
``json.dumps``; a heavier dict is laid out key by key, and a heavier list
in runs of about ``_SLICE`` values, such as an analysis's collision
groups.  An ndarray, which a document may hold as the whole document or as
the value of a key, weighs more than a run, so it is written as a tensor
document ``_SLICE`` entries at a time.  No single ``json.dumps`` call then
holds more than about 75 KB under tracemalloc, and writing a file of
2**20 float64 entries peaks at about 0.08 MB, where building the document
as one string took 71 MB.

The CLI reads every document with :func:`_read_document`, ``_BLOCK``
characters of its file at a time.  Where an object gives "dtype" and
"shape" before "data", as every document scatterkit writes does, the data
list is parsed one slice of at most ``_BLOCK`` characters at a time by the
C decoder of ``json.loads``, and each slice goes straight into an array of
its own; so reading holds the array, the block and one slice of Python
numbers, and a file of 2**20 float64 entries peaks at about 8.1 MB, where
``json.load`` peaked at 51.7 MB.  A list before its "dtype" or "shape" is
read whole, and a document the reader cannot follow, such as a malformed
one, is read again by ``json.load``, whose error the CLI reports.
:func:`tensor_from_json` checks a list from a dict with the same
:class:`_Entries` as the reader, so both give the same array or refusal.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import tempfile

import numpy as np

from .analysis import CollisionReport, SliceabilityReport
from .core import _refuse_rounded_ints, shape_size
from .engine import ScatterReport
from .errors import ArgumentError, FormatError
from .transform import ProvisionTensor, XTransformerSpec


_SEPARATORS = (",", ":")
_SLICE = 512  # JSON values per json.dumps call when a document is written
_BLOCK = 2**14  # characters per read, and the most one parsed slice spans
_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE


def _wire_dtype(arr: np.ndarray) -> str:
    """The document dtype of ``arr``; refuses what a tensor document cannot hold."""
    if arr.dtype == np.float64:
        # min and max carry any NaN or infinity, without an n-entry mask
        if arr.size and not np.isfinite([arr.min(), arr.max()]).all():
            raise FormatError("tensor data is not finite; JSON has no NaN or infinity")
        return "f64"
    if arr.dtype == np.int64:
        return "i64"
    raise FormatError(f"unsupported dtype {arr.dtype}; use float64 or int64")


def tensor_to_json(arr) -> dict:
    """``arr`` as a tensor document of plain JSON data, one Python number
    per entry; :func:`iter_document` writes an ndarray without one."""
    arr = np.asarray(arr)
    dtype = _wire_dtype(arr)
    return {"dtype": dtype, "shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def _require(doc, key, what):
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    if key not in doc:
        raise FormatError(f"{what} missing key {key!r}")
    return doc[key]


def _int_list(value, what) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise FormatError(f"{what} must be a list of integers")
    return value


def _check_header(dtype, shape) -> list[int]:
    """The shape of a tensor document with this dtype and shape."""
    if dtype not in ("f64", "i64"):
        raise FormatError(f"unknown dtype {dtype!r}")
    shape = _int_list(shape, "tensor shape")
    if any(d < 0 for d in shape):
        raise FormatError("tensor shape extents must be nonnegative")
    return shape


class _Entries:
    """The data list of a tensor document, checked and gathered a slice at
    a time.

    Handing :meth:`add` the list's slices in order and then calling
    :meth:`array` gives the array of the whole list or the refusal it earns.
    Faults are kept until :meth:`array`, which raises the one that comes
    first in this order: the length, a non-number, a cast that overflows, a
    reshape numpy refuses, a non-finite value, and the first listed integer
    that float64 would round.  The entries go straight into an array of
    their own, allocated only when ``room``, a bound on the list's length,
    admits the shape's size.
    """

    def __init__(self, dtype, shape, room):
        self.dtype, self.shape = dtype, shape
        self.size = shape_size(shape)
        self.count = 0
        self.arr = None  # no room: the length cannot match
        if self.size <= room:
            self.arr = np.empty(self.size, np.int64 if dtype == "i64" else np.float64)
        self.non_number = False
        self.overflow = None  # the exception of the cast
        self.rounded = None  # the ArgumentError of the first rounded integer

    def add(self, values: list) -> None:
        start = self.count
        self.count += len(values)
        if self.arr is None or self.count > self.size or self.non_number:
            return  # array() reports the length or a non-number
        integral = self.dtype == "i64"
        types = set(map(type, values))
        # json reads true and false as bool, which is not int here
        if not types <= ({int} if integral else {int, float}):
            self.non_number = True
            return
        if self.overflow is not None:
            return
        cast = self.arr[start : self.count]
        try:
            cast[...] = values
        except (OverflowError, ValueError) as exc:
            self.overflow = exc
            if not integral:  # only a listed int too large for a double overflows
                self._find_rounded(values, range(len(values)), start)
            return
        if not integral and int in types:  # a listed int past 2**53 casts to 2**53 or more
            self._find_rounded(values, np.flatnonzero(np.abs(cast) >= 2**53), start)

    def _find_rounded(self, values, at, start) -> None:
        if self.rounded is None:
            try:
                _refuse_rounded_ints(values, at, self.shape, start)
            except ArgumentError as exc:
                self.rounded = exc

    def array(self) -> np.ndarray:
        if self.count != self.size:
            raise FormatError(
                f"tensor data length {self.count} does not match shape {self.shape}"
            )
        if self.non_number:
            raise FormatError(f"{self.dtype} tensor data must be numbers, integers for i64")
        arr, fault = self.arr, self.overflow
        if fault is None:
            try:
                arr.shape = self.shape  # in place: the array owns its memory
            except (OverflowError, ValueError) as exc:
                fault = exc
        if fault is not None:
            if self.rounded is not None:
                raise self.rounded
            raise FormatError(f"tensor document out of range: {fault}") from fault
        # min and max carry any NaN or infinity, without an n-entry mask
        if self.dtype == "f64" and arr.size and not np.isfinite([arr.min(), arr.max()]).all():
            raise FormatError("f64 tensor data must be finite")
        if self.rounded is not None:
            raise self.rounded
        return arr


def tensor_from_json(doc) -> np.ndarray:
    """The array of a tensor document, owning its memory, so that a table
    adopts it.  Its "data" is a list, or the :class:`_Entries` that
    :func:`_read_document` gathered from a file."""
    dtype = _require(doc, "dtype", "tensor document")
    shape = _require(doc, "shape", "tensor document")
    data = _require(doc, "data", "tensor document")
    shape = _check_header(dtype, shape)
    if not isinstance(data, _Entries):
        if not isinstance(data, list):
            raise FormatError("tensor data must be a list")
        entries = _Entries(dtype, shape, room=len(data))
        entries.add(data)  # the whole list as one slice
        data = entries
    return data.array()


def _read_document(path):
    """The JSON document in the file ``path``, as ``json.load`` reads it,
    except that a data list the reader streamed is an :class:`_Entries`.

    Raises FormatError, naming the path, where ``json.load`` refuses the
    file: it is no JSON, no UTF-8, or holds an integer literal longer than
    Python's digit limit.  A file that is not a regular one, such as a
    pipe, is read whole.
    """
    with open(path, encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            try:
                return _Reader(fh, st.st_size).document()
            except (_Unread, UnicodeDecodeError):
                fh.seek(0)
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


class _Unread(Exception):
    """The reader cannot follow the document, which is then read whole."""


class _Reader:
    """A JSON document read ``_BLOCK`` characters at a time: the top-level
    object and the objects it holds key by key, a "data" list after a
    tensor header a slice at a time, and every other value whole."""

    def __init__(self, fh, size):
        self.fh = fh
        self.room = (size + 1) // 2  # n entries and their commas take 2n - 1 characters
        self.buf, self.pos, self.eof = "", 0, False

    def document(self):
        doc = self._object(nested=True) if self._next() == "{" else self._value()
        if self._next():  # json.load's "Extra data"
            raise _Unread
        return doc

    def _fill(self, width) -> None:
        # width characters after pos, or all that is left of the file
        while not self.eof and len(self.buf) - self.pos < width:
            block = self.fh.read(max(width - (len(self.buf) - self.pos), _BLOCK))
            self.eof = not block
            self.buf = self.buf[self.pos :] + block
            self.pos = 0

    def _next(self) -> str:
        """The next character that is not whitespace; "" at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos : self.pos + 1]
            self._fill(_BLOCK)

    def _value(self):
        width = _BLOCK
        while True:
            self._fill(width)
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except ValueError:  # cut short by the buffer, or no JSON
                if self.eof:
                    raise _Unread from None
            else:
                # a number the buffer cuts short reads as less: "1e" of "1e5" as 1
                if self.eof or len(self.buf) - end > 2:
                    self.pos = end
                    return value
            width = 2 * (len(self.buf) - self.pos)

    def _object(self, nested):
        # at "{"; while nested, an object value is read key by key too
        self.pos += 1
        doc = {}
        c = self._next()
        if c == "}":
            self.pos += 1
            return doc
        while True:
            if c != '"':
                raise _Unread
            key = self._value()
            if self._next() != ":":
                raise _Unread
            self.pos += 1
            c = self._next()
            if key in ("dtype", "shape") and isinstance(doc.get("data"), _Entries):
                raise _Unread  # the entries were checked under the earlier value
            if key == "data" and c == "[" and (entries := self._entries(doc)) is not None:
                doc[key] = self._data(entries)
            elif c == "{" and nested:
                doc[key] = self._object(nested=False)
            else:
                doc[key] = self._value()
            c = self._next()
            if c == "}":
                self.pos += 1
                return doc
            if c != ",":
                raise _Unread
            self.pos += 1
            c = self._next()

    def _entries(self, doc):
        # the entries for a list after a valid header, else None: read whole
        if "dtype" not in doc or "shape" not in doc:
            return None
        try:
            shape = _check_header(doc["dtype"], doc["shape"])
        except FormatError:
            return None
        return _Entries(doc["dtype"], shape, self.room)

    def _data(self, entries):
        # at "[": each slice runs up to the last "," or the first "]" within
        # the next width characters, and json.loads reads it as a list; the
        # slice holds no "]", so no nested list, and a cut inside a string
        # leaves that string open: it parses only where the cut is the
        # list's own comma or close
        self.pos += 1
        width, first = _BLOCK, True
        while True:
            self._fill(width)
            end = min(len(self.buf), self.pos + width)
            close = self.buf.find("]", self.pos, end)
            cut = close if close >= 0 else self.buf.rfind(",", self.pos, end)
            if cut < 0:  # one entry, or whitespace, wider than the window
                if self.eof and end == len(self.buf):
                    raise _Unread
                width *= 2
                continue
            try:
                values = json.loads("[" + self.buf[self.pos : cut] + "]")
            except ValueError:
                raise _Unread from None
            if not values and not (first and close >= 0):  # "[,", ",," or ",]"
                raise _Unread
            entries.add(values)
            self.pos = cut + 1
            if close >= 0:
                return entries
            width, first = _BLOCK, False


def inferred_target_shape(table: np.ndarray) -> tuple[int, ...]:
    """Smallest target shape containing every table entry (max + 1 per axis)."""
    rank = table.shape[-1]
    if table.size == 0:  # no entries, or a rank-0 target
        return (0,) * rank
    return tuple(max(int(m) + 1, 0) for m in table.reshape(-1, rank).max(axis=0))


def provision_from_json(doc, target_shape=None) -> ProvisionTensor:
    """Load a provision table; infer the target shape unless given.
    An f64 or rank-0 tensor raises ArgumentError, as a bad index tensor does."""
    table = tensor_from_json(doc)
    if table.dtype != np.int64:
        raise ArgumentError("provision tables must be i64 tensors")
    if table.ndim < 1:
        raise ArgumentError("provision tables must have at least one axis")
    if target_shape is None:
        target_shape = inferred_target_shape(table)
    table.setflags(write=False)  # no other reference: adopted, not copied
    return ProvisionTensor(table, target_shape)


def spec_to_json(spec: XTransformerSpec) -> dict:
    return {
        "inner": tensor_to_json(spec.inner.table),
        "inner_pick": list(spec.inner_pick),
        "pass_pick": list(spec.pass_pick),
        "out_pick": list(spec.out_pick),
        "source_shape": list(spec.source_shape),
        "target_shape": list(spec.target_shape),
    }


def spec_from_json(doc) -> XTransformerSpec:
    inner = provision_from_json(_require(doc, "inner", "transformer spec"))
    return XTransformerSpec(
        inner=inner,
        inner_pick=tuple(_int_list(_require(doc, "inner_pick", "transformer spec"), "inner_pick")),
        pass_pick=tuple(_int_list(_require(doc, "pass_pick", "transformer spec"), "pass_pick")),
        out_pick=tuple(_int_list(_require(doc, "out_pick", "transformer spec"), "out_pick")),
        source_shape=tuple(_int_list(_require(doc, "source_shape", "transformer spec"), "source_shape")),
        target_shape=tuple(_int_list(_require(doc, "target_shape", "transformer spec"), "target_shape")),
    )


def scatter_report_to_json(report: ScatterReport) -> dict:
    return {
        "writes": report.writes,
        "colliding_groups": report.colliding_groups,
        "uncovered_targets": report.uncovered_targets,
        "fast_path_used": report.fast_path_used,
    }


def analysis_to_json(
    sliceability: SliceabilityReport, collisions: CollisionReport
) -> dict:
    return {
        "max_suffix": sliceability.max_suffix,
        "verdict": sliceability.verdict,
        "pass_through": [list(p) for p in sorted(sliceability.pass_through)],
        "collisions": {
            "count": collisions.collision_count,
            "groups": [
                {"target": target, "sources": sources}
                for target, sources in collisions._group_lists()  # lists, not tuples
            ],
        },
        "uncovered": collisions.uncovered_count,
        "canonical": spec_to_json(sliceability.canonical),
        "overlap": sorted(sliceability.overlap),
        "suffix_inner": (
            tensor_to_json(sliceability.suffix_inner.table)
            if sliceability.suffix_inner is not None
            else None
        ),
    }


def iter_document(doc):
    """The text of ``dump_document(doc)``, as an iterator of pieces.

    ``doc`` is JSON data with string keys in which an ndarray may stand for
    a tensor document, as the whole document or as the value of a key.
    Every such tensor is checked here, once, before the first piece is
    made, so a refused tensor raises FormatError before anything is
    written.  Tensor entries and every other long list are encoded a run
    of about ``_SLICE`` values at a time.
    """
    for arr in _tensors(doc):
        _wire_dtype(arr)
    return itertools.chain(_pieces(doc), ("\n",))


def _tensors(doc):
    # the ndarrays that doc is or holds as the value of a key
    if isinstance(doc, np.ndarray):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from _tensors(value)


def _pieces(doc):
    """The text of ``doc``, no json.dumps call holding much more than
    ``_SLICE`` of its values: the one layout rule of the module docstring."""
    if isinstance(doc, np.ndarray):  # checked by iter_document: f64 or i64
        shape = json.dumps(list(doc.shape), separators=_SEPARATORS)
        tag = "f64" if doc.dtype == np.float64 else "i64"
        yield f'{{"dtype":"{tag}","shape":{shape},"data":['
        # C-order entries whatever the layout
        yield from _runs(doc.size, lambda start, stop: doc.flat[start:stop].tolist())
        yield "]}"
    elif _weight(doc) <= _SLICE:
        yield json.dumps(doc, separators=_SEPARATORS)
    elif isinstance(doc, dict):
        yield "{"
        for n, (key, value) in enumerate(doc.items()):
            yield ("," if n else "") + json.dumps(key) + ":"
            yield from _pieces(value)
        yield "}"
    elif not isinstance(doc[0], (dict, list)):  # a list of numbers or strings
        yield "["
        yield from _runs(len(doc), lambda start, stop: doc[start:stop])
        yield "]"
    else:  # a list of containers, in runs of about _SLICE values
        yield "["
        start = 0
        while start < len(doc):
            stop, weight = start, 0
            while stop < len(doc) and weight + (w := _weight(doc[stop])) <= _SLICE:
                stop, weight = stop + 1, weight + w
            if start:
                yield ","
            if stop == start:  # one entry heavier than a run: laid out alone
                yield from _pieces(doc[start])
                start += 1
            else:
                yield json.dumps(doc[start:stop], separators=_SEPARATORS)[1:-1]
                start = stop
        yield "]"


def _runs(count, entries):
    # the text of count list entries, without brackets, _SLICE per json.dumps
    for start in range(0, count, _SLICE):
        if start:
            yield ","
        run = entries(start, start + _SLICE)
        yield json.dumps(run, separators=_SEPARATORS)[1:-1]


def _weight(doc, cap=_SLICE) -> int:
    """About how many JSON values ``doc`` holds; an ndarray weighs more
    than a run, so json.dumps never sees one.  Every entry of a list of
    numbers or lists counts as its first does, which is exact for the lists
    documents hold (tensor entries, index rows of one length); a list of
    dicts, such as collision groups, is counted dict by dict until the
    count passes cap."""
    if isinstance(doc, dict):
        return 1 + sum(map(_weight, doc.values()))
    if not isinstance(doc, list) or not doc:
        return _SLICE + 1 if isinstance(doc, np.ndarray) else 1
    first = doc[0]
    if not isinstance(first, dict):
        return 1 + len(doc) * (_weight(first) if isinstance(first, list) else 1)
    weight = 1
    for entry in doc:
        weight += _weight(entry)
        if weight > cap:
            break
    return weight


def dump_document(doc) -> str:
    """Fixed compact serialization so identical documents give identical bytes."""
    return "".join(iter_document(doc))


def write_document(path, doc) -> None:
    """Write ``doc`` to ``path`` through a temporary file in its directory
    and os.replace, so a failed write leaves an existing file as it was;
    the file keeps the mode an ``open`` for writing would give it.  A
    refused tensor raises before the temporary file is made."""
    pieces = iter_document(doc)
    path = os.path.realpath(path)  # through a symlink, as open writes
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix=".scatterkit-", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
