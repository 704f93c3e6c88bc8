"""JSON wire formats for tensors, factored transformers, and reports.

Tensor documents are the bit-exact interchange contract shared by every
entry point::

    {"dtype": "f64" | "i64", "shape": [ints >= 0], "data": [row-major]}

Factored transformers carry their inner table inline as a tensor document.

Documents are written by :func:`iter_document`, which yields the text of
:func:`dump_document` in pieces.  Wherever a document holds an ndarray, as
the whole document or as the value of a key, it is written as a tensor
document ``_SLICE`` entries at a time, each slice through the C encoder of
``json.dumps``.  So writing a tensor holds one slice's Python objects, not
one per entry: a file of 2**20 float64 entries peaks at about 0.5 MB under
tracemalloc, where building the document as one string took 71 MB.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .analysis import CollisionReport, SliceabilityReport
from .core import _refuse_rounded_ints, shape_size
from .engine import ScatterReport
from .errors import ArgumentError, FormatError
from .transform import ProvisionTensor, XTransformerSpec


_SEPARATORS = (",", ":")
_SLICE = 4096  # entries per json.dumps call when a tensor is written


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


def tensor_from_json(doc) -> np.ndarray:
    dtype = _require(doc, "dtype", "tensor document")
    shape = _require(doc, "shape", "tensor document")
    data = _require(doc, "data", "tensor document")
    if dtype not in ("f64", "i64"):
        raise FormatError(f"unknown dtype {dtype!r}")
    shape = _int_list(shape, "tensor shape")
    if any(d < 0 for d in shape):
        raise FormatError("tensor shape extents must be nonnegative")
    if not isinstance(data, list):
        raise FormatError("tensor data must be a list")
    if len(data) != shape_size(shape):
        raise FormatError(
            f"tensor data length {len(data)} does not match shape {shape}"
        )
    integral = dtype == "i64"
    types = set(map(type, data))
    # json reads true and false as bool, which is not int here
    if not types <= ({int} if integral else {int, float}):
        raise FormatError(f"{dtype} tensor data must be numbers, integers for i64")
    try:
        arr = np.array(data, dtype=np.int64 if integral else np.float64)
        arr.shape = shape  # in place: the array owns its memory, so a table adopts it
    except (OverflowError, ValueError) as exc:
        if not integral:  # only a listed int too large for a double overflows
            _refuse_rounded_ints(data, range(len(data)), shape)
        raise FormatError(f"tensor document out of range: {exc}") from exc
    if not integral and not np.isfinite(arr).all():
        raise FormatError("f64 tensor data must be finite")
    if not integral and int in types:  # a listed int past 2**53 casts to 2**53 or more
        _refuse_rounded_ints(data, np.flatnonzero(np.abs(arr) >= 2**53), shape)
    return arr


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


def collision_report_to_json(report: CollisionReport) -> dict:
    return {
        "count": report.collision_count,
        "groups": [
            {"target": target, "sources": sources}
            for target, sources in report._group_lists()  # lists, not groups' tuples
        ],
    }


def analysis_to_json(
    sliceability: SliceabilityReport, collisions: CollisionReport
) -> dict:
    return {
        "max_suffix": sliceability.max_suffix,
        "verdict": sliceability.verdict,
        "pass_through": [list(p) for p in sorted(sliceability.pass_through)],
        "collisions": collision_report_to_json(collisions),
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
    Every such tensor is checked here, before the first piece is made, so a
    refused tensor raises FormatError before anything is written.
    """
    parts = []
    _lay_out(doc, parts)
    parts.append("\n")
    return _expand(parts)


def _lay_out(doc, parts) -> None:
    # appends text, or (dtype, array) for each tensor
    if isinstance(doc, np.ndarray):
        parts.append((_wire_dtype(doc), doc))
    elif _holds_tensor(doc):  # a dict, laid out key by key
        parts.append("{")
        for n, (key, value) in enumerate(doc.items()):
            parts.append(("," if n else "") + json.dumps(key) + ":")
            _lay_out(value, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(doc, separators=_SEPARATORS))


def _holds_tensor(doc) -> bool:
    if isinstance(doc, dict):
        return any(map(_holds_tensor, doc.values()))
    return isinstance(doc, np.ndarray)


def _expand(parts):
    for part in parts:
        if isinstance(part, str):
            yield part
            continue
        dtype, arr = part
        shape = json.dumps(list(arr.shape), separators=_SEPARATORS)
        yield f'{{"dtype":"{dtype}","shape":{shape},"data":['
        for start in range(0, arr.size, _SLICE):
            if start:
                yield ","
            # C-order entries whatever the layout; the C encoder, one slice
            entries = arr.flat[start : start + _SLICE].tolist()
            yield json.dumps(entries, separators=_SEPARATORS)[1:-1]
        yield "]}"


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
