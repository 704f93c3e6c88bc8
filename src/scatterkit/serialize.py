"""JSON wire formats for tensors, factored transformers, and reports.

Tensor documents are the bit-exact interchange contract shared by every
entry point::

    {"dtype": "f64" | "i64", "shape": [ints >= 0], "data": [row-major]}

Factored transformers carry their inner table inline as a tensor document.

Documents are written by :func:`iter_document`, which yields the text of
:func:`dump_document` in pieces.  A document may hold two heavy values,
as the whole document or as the value of a key.  An ndarray is written as
a tensor document ``_SLICE`` entries at a time.  A
:class:`CollisionReport` is written as the list of its groups,
``{"target": [...], "sources": [[...], ...]}`` each, straight from its
arrays: each run of groups of about ``_SLICE`` values in all is one
``json.dumps`` call, and a group heavier than a run is written alone, its
sources about ``_SLICE`` values at a time.  A dict that holds a heavy
value is laid out key by key, and any other value, such as a shape, a
pick or a report's counts, is one call of the C encoder of
``json.dumps``.  No single call then holds more than about 75 KB under
tracemalloc; writing a file of 2**20 float64 entries peaks at about
0.08 MB, where building the document as one string took 71 MB, and
building and writing an analysis of 2**14 groups holds 0.08 MB beyond
its reports, where a dict and two lists per group held 10 MB.

The CLI reads every document with :func:`_read_document`, ``_BLOCK``
characters of its file at a time.  A file that opens with the writer's
tensor header, ``{"dtype": …, "shape": […], "data": [`` in that order
with any JSON whitespace, or with a spec's ``{"inner":`` before it, has
its data list parsed one slice of at most ``_BLOCK`` characters at a time
by the C decoder of ``json.loads``, and each slice goes straight into an
array of its own; so reading holds the array, the block and one slice of
Python numbers, and a file of 2**20 float64 entries peaks at about 8.1 MB,
where ``json.load`` peaked at 51.7 MB.  After the list, a tensor may hold
only its closing brace, and the rest of a spec is read whole.  Any other
file, such as one with keys in another order or a malformed one, is read
again by ``json.load``, whose error the CLI reports.
:func:`tensor_from_json` checks a list from a dict with the same
:class:`_Entries` as the reader, so both give the same array or refusal.
"""

from __future__ import annotations

import itertools
import json
import os
import re
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
    file: it is no JSON, no UTF-8, holds an integer literal longer than
    Python's digit limit, or nests deeper than Python's recursion limit.
    A file that is not a regular one, such as a pipe, is read whole.
    """
    with open(path, encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            try:
                return _stream(fh, st.st_size)
            except (_Unread, UnicodeDecodeError):
                fh.seek(0)
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: {exc}") from exc


class _Unread(Exception):
    """The reader cannot follow the document, which is then read whole."""


_WS = r"[ \t\n\r]*"  # JSON's whitespace; \s would take more than json.load does
# the writer's tensor header, and json.dump's of the same dict, up to the
# data list's "["; a spec's "inner" may open it
_HEADER = re.compile(
    rf'{_WS}\{{{_WS}(?P<inner>"inner"{_WS}:{_WS}\{{{_WS})?'
    rf'"dtype"{_WS}:{_WS}"(?P<dtype>f64|i64)"{_WS},{_WS}'
    rf'"shape"{_WS}:{_WS}(?P<shape>\[[^\]]*\]){_WS},{_WS}"data"{_WS}:{_WS}\['
)
_CLOSE = re.compile(rf"{_WS}\}}{_WS}")


def _stream(fh, size):
    # the document of a file that opens with a tensor header; else _Unread
    buf = fh.read(_BLOCK)
    header = _HEADER.match(buf)
    if header is None:
        raise _Unread
    dtype = header["dtype"]
    try:
        shape = _check_header(dtype, json.loads(header["shape"]))
    except (FormatError, ValueError, RecursionError):  # json.load refuses it too
        raise _Unread from None
    # n entries and their commas take 2n - 1 characters
    entries = _Entries(dtype, shape, room=(size + 1) // 2)
    rest = _data(fh, buf, header.end(), entries)
    tensor = {"dtype": dtype, "shape": shape, "data": entries}
    close = _CLOSE.match(rest)  # the tensor's "}"; after a tensor, nothing
    if close is None or header["inner"] is None and close.end() < len(rest):
        raise _Unread
    if header["inner"] is None:
        return tensor
    try:
        doc = json.loads('{"inner":0' + rest[close.end() :], object_pairs_hook=_one_inner)
    except (ValueError, RecursionError):
        raise _Unread from None
    doc["inner"] = tensor
    return doc


def _one_inner(pairs):
    # json.load keeps the last of a key given twice: a later "inner" would
    # stand in place of the streamed one
    if sum(key == "inner" for key, _ in pairs) > 1:
        raise _Unread
    return dict(pairs)


def _data(fh, buf, pos, entries):
    # hands entries the list opening at buf[pos], and returns the file's
    # text after it; each slice runs up to the last "," or the first "]"
    # within the next width characters, and json.loads reads it as a list;
    # the slice holds no "]", so no nested list, and a cut inside a string
    # leaves that string open: it parses only where the cut is the list's
    # own comma or close
    width, first, eof = _BLOCK, True, False
    while True:
        while not eof and len(buf) - pos < width:
            block = fh.read(max(width - (len(buf) - pos), _BLOCK))
            eof = not block
            buf, pos = buf[pos:] + block, 0
        end = min(len(buf), pos + width)
        close = buf.find("]", pos, end)
        cut = close if close >= 0 else buf.rfind(",", pos, end)
        if cut < 0:  # one entry, or whitespace, wider than the window
            if eof and end == len(buf):
                raise _Unread
            width *= 2
            continue
        try:
            values = json.loads("[" + buf[pos:cut] + "]")
        except (ValueError, RecursionError):
            raise _Unread from None
        if not values and not (first and close >= 0):  # "[,", ",," or ",]"
            raise _Unread
        entries.add(values)
        pos = cut + 1
        if close >= 0:
            return buf[pos:] + fh.read()
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
    """``spec`` as a document for :func:`iter_document`; its table stays an ndarray."""
    return {
        "inner": spec.inner.table,
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
    """The reports as a document for :func:`iter_document`: tables stay
    ndarrays, and the groups are the :class:`CollisionReport` itself."""
    return {
        "max_suffix": sliceability.max_suffix,
        "verdict": sliceability.verdict,
        "pass_through": [list(p) for p in sorted(sliceability.pass_through)],
        "collisions": {"count": collisions.collision_count, "groups": collisions},
        "uncovered": collisions.uncovered_count,
        "canonical": spec_to_json(sliceability.canonical),
        "overlap": sorted(sliceability.overlap),
        "suffix_inner": getattr(sliceability.suffix_inner, "table", None),  # None: no suffix
    }


def iter_document(doc):
    """The text of ``dump_document(doc)``, as an iterator of pieces.

    ``doc`` is JSON data with string keys in which an ndarray may stand for
    a tensor document, and a :class:`CollisionReport` for the list of its
    groups, as the whole document or as the value of a key.  Every such
    tensor is checked here, once, before the first piece is made, so a
    refused tensor raises FormatError before anything is written.  Tensor
    entries and groups are encoded a run of about ``_SLICE`` values at a
    time.
    """
    for value in _heavy(doc):
        if isinstance(value, np.ndarray):
            _wire_dtype(value)
    return itertools.chain(_pieces(doc), ("\n",))


def _heavy(doc):
    # the ndarrays and reports that doc is or holds as the value of a key
    if isinstance(doc, (np.ndarray, CollisionReport)):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from _heavy(value)


def _pieces(doc):
    """The text of ``doc``, no json.dumps call holding much more than
    ``_SLICE`` of its values: the layout rule of the module docstring."""
    if isinstance(doc, np.ndarray):  # checked by iter_document: f64 or i64
        shape = json.dumps(list(doc.shape), separators=_SEPARATORS)
        tag = "f64" if doc.dtype == np.float64 else "i64"
        yield f'{{"dtype":"{tag}","shape":{shape},"data":['
        # C-order entries whatever the layout
        yield from _runs(doc.size, lambda start, stop: doc.flat[start:stop].tolist())
        yield "]}"
    elif isinstance(doc, CollisionReport):
        yield from itertools.chain(("[",), _groups(doc), ("]",))
    elif isinstance(doc, dict) and next(_heavy(doc), None) is not None:
        yield "{"
        for n, (key, value) in enumerate(doc.items()):
            yield ("," if n else "") + json.dumps(key) + ":"
            yield from _pieces(value)
        yield "}"
    else:
        yield json.dumps(doc, separators=_SEPARATORS)


def _runs(count, entries, step=_SLICE):
    # the text of count list entries, without brackets, step per json.dumps
    for start in range(0, count, step):
        if start:
            yield ","
        run = entries(start, start + step)
        yield json.dumps(run, separators=_SEPARATORS)[1:-1]


def _groups(report):
    # the text of report's groups, without brackets: each run of groups of
    # about _SLICE values in all is one json.dumps of dicts built from
    # slices of its arrays, and a heavier group is written alone
    targets, sources, sizes = report.targets, report.sources, report.sizes
    row_weight = 1 + sources.shape[1]  # a source row and its brackets
    weights = itertools.chain.from_iterable(  # each group's, _SLICE at a time
        (3 + targets.shape[1] + row_weight * sizes[at : at + _SLICE]).tolist()
        for at in range(0, len(sizes), _SLICE))
    start = row = total = 0  # the run's first group and source row, its weight
    # a last weight past _SLICE ends the last run
    for stop, weight in enumerate(itertools.chain(weights, [_SLICE + 1])):
        if stop == start or total + weight <= _SLICE:
            total += weight
            continue
        count = int(sizes[start:stop].sum())
        rows, row = sources[row : row + count], row + count
        sep = "," if start else ""
        if total > _SLICE:  # one group, its sources in runs
            target = json.dumps(targets[start].tolist(), separators=_SEPARATORS)
            yield f'{sep}{{"target":{target},"sources":['
            yield from _runs(count, lambda a, b: rows[a:b].tolist(), _SLICE // row_weight)
            yield "]}"
        else:
            members = iter(rows.tolist())
            run = [{"target": target, "sources": list(itertools.islice(members, size))}
                   for target, size in zip(targets[start:stop].tolist(), sizes[start:stop].tolist())]
            yield sep + json.dumps(run, separators=_SEPARATORS)[1:-1]
        start, total = stop, weight


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
