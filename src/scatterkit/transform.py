"""Tabulated index transformers, factored composition, and the one
lowering of every map to the scatter kernel's keys.

A provision tensor stores an index-to-index map extensionally: the int row
at source index I is the target index I maps to.  A factored transformer
(:class:`XTransformerSpec`) builds the same kind of map out of an inner
provision plus three picks and can be flattened back into a single table
with :func:`compose_provision`.  Scatters never tabulate a factored map:
:func:`_lower` keys the kernel from one coordinate per target axis, read
from a table's columns or a spec's compact outputs (:func:`_coordinates`)
or torch's ``index`` beside aranges.  The analyzer reads either kind of map
the same way, through :func:`_read`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Index,
    Pick,
    Shape,
    _entry_text,
    as_index_tensor,
    as_shape,
    flat_offsets,
    shape_size,
)
from .errors import ArgumentError, PickRangeError, ValidationError


@dataclass(frozen=True, eq=False)
class ProvisionTensor:
    """An index transformer tabulated as an integer tensor.

    ``table`` has shape ``source_shape + (len(target_shape),)``: the last
    axis of the row at source index I spells out the target index T(I).
    Entries are not bounds-checked on construction; run
    :func:`validate_provision` before trusting them against the target.
    The table is copied unless the caller can no longer write it: a
    read-only int64 array that owns its memory is adopted as it is.
    """

    table: np.ndarray
    target_shape: Shape

    def __post_init__(self):
        table = as_index_tensor(self.table)
        if table.flags.writeable or table.base is not None:
            table = table.copy()
            table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "target_shape", as_shape(self.target_shape))
        if table.ndim < 1:
            raise ArgumentError("provision table must have at least one axis")
        if table.shape[-1] != len(self.target_shape):
            raise ArgumentError(
                f"last table extent {table.shape[-1]} must equal target rank "
                f"{len(self.target_shape)}"
            )

    @property
    def source_shape(self) -> Shape:
        return self.table.shape[:-1]

    @property
    def target_rank(self) -> int:
        return self.table.shape[-1]


def validate_provision(
    provision: ProvisionTensor,
) -> tuple[int, tuple[Index, int] | None]:
    """Count the entries escaping the target shape, and locate the first.

    Returns ``(count, (source index, target axis))`` for the first bad
    entry in row-major order, or ``(0, None)`` when the table is a total
    map into the target index set.
    """
    return _escapes(*_read(provision))


def _escapes(coords, shape, target_shape):
    """:func:`validate_provision` of the map whose target axis j reads the
    array ``coords[j]`` broadcast over the source ``shape``."""
    count, first = 0, None
    for j, coord in enumerate(coords):
        # a negative entry wraps above every extent below 2**63
        bad = coord.view(np.uint64) >= np.uint64(target_shape[j])
        # an entry stands for every source index along a dim of extent 1
        hits = int(np.count_nonzero(bad)) * shape_size(shape) // max(bad.size, 1)
        if hits:
            at = tuple(map(int, np.unravel_index(int(bad.argmax()), bad.shape))) + (j,)
            count, first = count + hits, at if first is None else min(first, at)
    return (count, (first[:-1], first[-1])) if count else (0, None)


def _bounds_error(count, index, axis) -> ValidationError:
    return ValidationError(
        f"{count} provision entries out of bounds; first at source "
        f"index {index}, target axis {axis}"
    )


@dataclass(frozen=True, eq=False)
class XTransformerSpec:
    """A transformer factored as out_pick(inner(inner_pick(I)) + pass_pick(I)).

    ``inner_pick`` selects the source coordinates fed to the inner
    transformer, ``pass_pick`` selects coordinates carried over verbatim,
    and ``out_pick`` rearranges the concatenation of the inner output and
    the passed coordinates into the final target index.

    Construction checks the picks, and raises PickRangeError when a picked
    source extent exceeds the inner table's, even for an empty source.
    """

    inner: ProvisionTensor
    inner_pick: Pick
    pass_pick: Pick
    out_pick: Pick
    source_shape: Shape
    target_shape: Shape

    def __post_init__(self):
        object.__setattr__(self, "inner_pick", tuple(map(int, self.inner_pick)))
        object.__setattr__(self, "pass_pick", tuple(map(int, self.pass_pick)))
        object.__setattr__(self, "out_pick", tuple(map(int, self.out_pick)))
        object.__setattr__(self, "source_shape", as_shape(self.source_shape))
        object.__setattr__(self, "target_shape", as_shape(self.target_shape))
        k, inner_shape = len(self.source_shape), self.inner.source_shape
        m = self.concat_rank
        for pick, length, what in ((self.inner_pick, k, "source index"),
                                   (self.pass_pick, k, "source index"),
                                   (self.out_pick, m, "concatenated index")):
            for v in pick:  # a negative value is refused, not wrapped
                if not 0 <= v < length:
                    raise PickRangeError(
                        f"pick value {_entry_text(v)} out of range for {what} of "
                        f"length {length}"
                    )
        if len(self.inner_pick) != len(inner_shape):
            raise ArgumentError(
                f"inner pick length {len(self.inner_pick)} must equal the inner "
                f"source rank {len(inner_shape)}"
            )
        if len(self.out_pick) != len(self.target_shape):
            raise ArgumentError(
                f"out pick length {len(self.out_pick)} must equal the target rank "
                f"{len(self.target_shape)}"
            )
        if any(self.source_shape[d] > e for d, e in zip(self.inner_pick, inner_shape)):
            raise PickRangeError(
                "inner pick selects indices outside the inner source shape "
                f"{inner_shape}"
            )

    @property
    def concat_rank(self) -> int:
        return self.inner.target_rank + len(self.pass_pick)


def compose_provision(spec: XTransformerSpec) -> ProvisionTensor:
    """Flatten a factored transformer into a single provision table.

    Tabulates out_pick(inner(inner_pick(I)) + pass_pick(I)) over the whole
    source index set as :func:`_read` reads it; the spec checked its picks
    when it was built, so every inner entry read lies inside its table.
    """
    coords, source, target = _read(spec)
    return ProvisionTensor(_tabulate(coords, source, range(len(source))), target)


def _read(transformer) -> tuple[list[np.ndarray], Shape, Shape]:
    """``(coords, source_shape, target_shape)`` of a table or a spec: target
    axis j of source index I reads ``coords[j][I]``, a read-only int64 view
    broadcast to the source shape."""
    shape = transformer.source_shape
    coords = [np.broadcast_to(_axis(c, shape) if isinstance(c, int) else c, shape)
              for c in _coordinates(transformer)]
    return coords, shape, transformer.target_shape


def _tabulate(coords, shape, dims) -> np.ndarray:
    """The table of :func:`_read` coordinates over the source dims ``dims``
    (ascending), with every other coordinate of the source ``shape`` at 0;
    zeros when the source is empty.  The table is fresh and read-only, so a
    :class:`ProvisionTensor` adopts it without a copy."""
    table = np.zeros(tuple(shape[d] for d in dims) + (len(coords),), np.int64)
    if shape_size(shape):
        corner = tuple(slice(None) if d in dims else 0 for d in range(len(shape)))
        for j, coord in enumerate(coords):
            table[..., j] = coord[corner]
    table.setflags(write=False)
    return table


def _coordinates(spec: XTransformerSpec | ProvisionTensor) -> list:
    """A table's or a spec's outputs as :func:`_lower` coordinates.

    A table's output j is its column ``table[..., j]``, the same view its
    trivial spec's inner output j would be.  A spec's inner output views
    the inner table at the open grid of the inner pick (a dim picked twice
    reads a diagonal), inside the table, as the spec checked when it was
    built.  A passed output is its source dim's int, or an arange when the
    inner reads that dim too.
    """
    if isinstance(spec, ProvisionTensor):
        return [spec.table[..., j] for j in range(spec.target_rank)]
    source, pick, table = spec.source_shape, spec.inner_pick, spec.inner.table
    shape, strides = [1] * len(source), [0] * len(source)
    for d, stride in zip(pick, table.strides):
        shape[d], strides[d] = source[d], strides[d] + stride
    # the table is C-ordered: output j starts j entries into its buffer, at 0 if empty
    cat = [
        np.ndarray(shape, np.int64, table, 8 * j if table.size else 0, strides)
        for j in range(table.shape[-1])
    ]
    cat += [_axis(d, source) if d in pick else d for d in spec.pass_pick]
    return [cat[v] for v in spec.out_pick]


def _axis(d, shape) -> np.ndarray:
    """Source coordinate d as an array with an axis per dim of ``shape``."""
    unit = [1] * len(shape)
    unit[d] = shape[d]
    return np.arange(shape[d], dtype=np.int64).reshape(unit)


def _declared(coords, source_shape, target_shape) -> int:
    """Length of the copied suffix that shapes alone prove: the last r
    coordinates are the ints of the last r source dims, in order, each no
    wider than its target axis and given once."""
    k, rank = len(source_shape), len(target_shape)
    r = 0
    for d, j in zip(range(k - 1, -1, -1), range(rank - 1, -1, -1)):
        c = coords[j]
        if not isinstance(c, int) or c != d or source_shape[d] > target_shape[j]:
            break
        if any(o == d for o in coords[:j] if isinstance(o, int)):
            break
        r += 1
    return r


def _copies(coord, i, extent) -> bool:
    """The coordinate equals source coordinate i, of the given extent, at
    every source index; one of extent 1 along a wider dim never does."""
    if np.count_nonzero(coord.swapaxes(0, i)[:1]):  # index 0 along i must read 0
        return False
    line = np.arange(extent).reshape((-1,) + (1,) * (coord.ndim - 1 - i))
    return bool((coord == line).all())


def _varies(coord, i) -> bool:
    """The coordinate changes along source dim i; one of extent 1 never does."""
    col = coord.swapaxes(0, i)
    if np.count_nonzero(col[1:2] != col[:1]):  # index 1 along i differs
        return True
    return bool((col[2:] != col[:1]).any())


def _copied_suffix(coords, source_shape) -> int:
    """Largest r such that the last r coordinates copy the last r source
    dims, in order, while no earlier coordinate varies along those dims."""
    k, rank = len(source_shape), len(coords)
    copied = 0  # the first condition holds exactly for r <= copied
    while copied < min(k, rank) and _copies(
        coords[rank - 1 - copied], k - 1 - copied, source_shape[k - 1 - copied]
    ):
        copied += 1
    for r in range(copied, 0, -1):
        if not any(
            _varies(coords[j], i) for j in range(rank - r) for i in range(k - r, k)
        ):
            return r
    return 0


def _lower(coords, source_shape, target_shape) -> tuple[np.ndarray, Shape]:
    """The kernel's ``(keys, lead_shape)`` for the map sending source index
    I to ``(coords[0][I], coords[1][I], ...)``.  A coordinate is an int64
    array with an axis per source dim that broadcasts over ``source_shape``,
    or the int of a source dim that no array coordinate reads."""
    k, rank = len(source_shape), len(target_shape)
    r = _declared(coords, source_shape, target_shape)
    lead = source_shape[: k - r]
    outs = [
        _axis(c, lead) if isinstance(c, int) else c[(...,) + (0,) * r]
        for c in coords[: rank - r]
    ]
    count, first = _escapes(outs, lead, target_shape)
    if count:
        raise _bounds_error(count, *first)
    if shape_size(source_shape):
        s = _copied_suffix(outs, lead)
        outs = [c[(...,) + (0,) * s] for c in outs[: len(outs) - s]]
    else:  # an empty source is an empty table, which copies every axis
        s, outs = min(k, rank) - r, []
    lead_shape = target_shape[: rank - r - s]
    return flat_offsets(outs, lead_shape), lead_shape


def _tf_source_shape(indices: np.ndarray, target_shape: Shape) -> Shape:
    """Source shape of the batched slice update that ``indices`` makes into
    ``target_shape``: the batch shape, then the target axes after the ``q``
    that the last axis of ``indices`` addresses."""
    if indices.ndim < 1:
        raise ArgumentError("indices must have at least one axis")
    q = indices.shape[-1]
    if q > len(target_shape):
        raise ArgumentError(
            f"indices address {q} target axes but the target has rank "
            f"{len(target_shape)}"
        )
    return indices.shape[:-1] + target_shape[q:]


def tf_transformer(indices, target_shape) -> XTransformerSpec:
    """Batched slice-update transformer behind tf-style scatter_nd.

    The last axis of ``indices`` addresses the leading ``q`` target axes;
    everything before it is batch.  Source indices are batch coordinates
    followed by the untouched trailing target coordinates, which pass
    through verbatim.
    """
    indices = as_index_tensor(indices)
    target_shape = as_shape(target_shape)
    source_shape = _tf_source_shape(indices, target_shape)
    batch = indices.ndim - 1
    inner = ProvisionTensor(indices, target_shape[: indices.shape[-1]])
    return XTransformerSpec(
        inner=inner,
        inner_pick=tuple(range(batch)),
        pass_pick=tuple(range(batch, len(source_shape))),
        out_pick=tuple(range(len(target_shape))),
        source_shape=source_shape,
        target_shape=target_shape,
    )
