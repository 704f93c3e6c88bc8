"""JSON wire formats for tensors, factored transformers, and reports.

Tensor documents are the bit-exact interchange contract shared by every
entry point::

    {"dtype": "f64" | "i64", "shape": [ints >= 0], "data": [row-major]}

Factored transformers carry their inner table inline as a tensor document.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .analysis import CollisionReport, SliceabilityReport
from .core import _rounding_error, shape_size
from .engine import ScatterReport
from .errors import ArgumentError, FormatError
from .transform import ProvisionTensor, XTransformerSpec


def tensor_to_json(arr) -> dict:
    arr = np.asarray(arr)
    if arr.dtype == np.float64:
        dtype = "f64"
    elif arr.dtype == np.int64:
        dtype = "i64"
    else:
        raise FormatError(f"unsupported dtype {arr.dtype}; use float64 or int64")
    if not np.isfinite(arr).all():
        raise FormatError("tensor data is not finite; JSON has no NaN or infinity")
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
        raise FormatError(f"tensor document out of range: {exc}") from exc
    if not integral and not np.isfinite(arr).all():
        raise FormatError("f64 tensor data must be finite")
    if not integral and int in types:  # a listed int past 2**53 casts to 2**53 or more
        for i in np.flatnonzero(np.abs(arr) >= 2**53):
            if type(data[i]) is int and not -(2**53) <= data[i] <= 2**53:
                raise _rounding_error(data[i], i, shape)
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
            {"target": list(target), "sources": [list(s) for s in sources]}
            for target, sources in report.groups
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


def dump_document(doc) -> str:
    """Fixed compact serialization so identical documents give identical bytes."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def write_document(path, doc) -> None:
    """Write ``doc`` to ``path`` through a temporary file in its directory
    and os.replace, so a failed write leaves an existing file as it was;
    the file keeps the mode an ``open`` for writing would give it."""
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
            fh.write(dump_document(doc))
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
