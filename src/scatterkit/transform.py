"""Tabulated index transformers: provision tensors and factored composition.

A provision tensor stores an index-to-index map extensionally: the int row
at source index I is the target index I maps to.  A factored transformer
(:class:`XTransformerSpec`) builds the same kind of map out of an inner
provision plus three picks and can be flattened back into a single table
with :func:`compose_provision`.  When its trailing outputs are passed
copies of its trailing source dims that nothing else reads, the spec
declares a copied suffix; :func:`_split_declared_suffix` drops those axes,
so a scatter tabulates only the leading map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Index,
    Pick,
    Shape,
    as_index_tensor,
    as_pick,
    as_shape,
    check_pick,
    flat_offsets,
    identity_pick,
    index_matrix,
    shape_size,
)
from .errors import ArgumentError, ValidationError


@dataclass(frozen=True, eq=False)
class ProvisionTensor:
    """An index transformer tabulated as an integer tensor.

    ``table`` has shape ``source_shape + (len(target_shape),)``: the last
    axis of the row at source index I spells out the target index T(I).
    Entries are not bounds-checked on construction; run
    :func:`validate_provision` before trusting them against the target.
    """

    table: np.ndarray
    target_shape: Shape

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int64, order="C")
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

    @property
    def source_size(self) -> int:
        return shape_size(self.source_shape)

    def rows(self) -> np.ndarray:
        """The table flattened to (source_size, target_rank), row-major."""
        return self.table.reshape(self.source_size, self.target_rank)


def validate_provision(
    provision: ProvisionTensor,
) -> tuple[int, tuple[Index, int] | None]:
    """Count the entries escaping the target shape, and locate the first.

    Returns ``(count, (source index, target axis))`` for the first bad
    entry in row-major order, or ``(0, None)`` when the table is a total
    map into the target index set.
    """
    table = provision.table
    # a negative entry wraps above every extent below 2**63
    bad = table.view(np.uint64) >= np.asarray(provision.target_shape, dtype=np.uint64)
    if not bad.any():
        return 0, None
    count = int(np.count_nonzero(bad))
    *index, axis = np.unravel_index(int(bad.argmax()), bad.shape)
    return count, (tuple(int(c) for c in index), int(axis))


def check_provision_bounds(provision: ProvisionTensor) -> None:
    """Raise ValidationError unless every entry lies inside the target shape."""
    count, first = validate_provision(provision)
    if count:
        raise _bounds_error(count, *first)


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
    """

    inner: ProvisionTensor
    inner_pick: Pick
    pass_pick: Pick
    out_pick: Pick
    source_shape: Shape
    target_shape: Shape

    def __post_init__(self):
        object.__setattr__(self, "inner_pick", as_pick(self.inner_pick))
        object.__setattr__(self, "pass_pick", as_pick(self.pass_pick))
        object.__setattr__(self, "out_pick", as_pick(self.out_pick))
        object.__setattr__(self, "source_shape", as_shape(self.source_shape))
        object.__setattr__(self, "target_shape", as_shape(self.target_shape))

    @property
    def concat_rank(self) -> int:
        return self.inner.target_rank + len(self.pass_pick)


def validate_spec(spec: XTransformerSpec) -> None:
    """Raise unless the spec's picks are applicable and sized for its shapes."""
    k = len(spec.source_shape)
    check_pick(spec.inner_pick, k, what="source index")
    check_pick(spec.pass_pick, k, what="source index")
    check_pick(spec.out_pick, spec.concat_rank, what="concatenated index")
    if len(spec.inner_pick) != len(spec.inner.source_shape):
        raise ArgumentError(
            f"inner pick length {len(spec.inner_pick)} must equal the inner "
            f"source rank {len(spec.inner.source_shape)}"
        )
    if len(spec.out_pick) != len(spec.target_shape):
        raise ArgumentError(
            f"out pick length {len(spec.out_pick)} must equal the target rank "
            f"{len(spec.target_shape)}"
        )


def trivial_spec(provision: ProvisionTensor) -> XTransformerSpec:
    """The always-available factoring with the provision as its own inner."""
    return XTransformerSpec(
        inner=provision,
        inner_pick=identity_pick(len(provision.source_shape)),
        pass_pick=(),
        out_pick=identity_pick(provision.target_rank),
        source_shape=provision.source_shape,
        target_shape=provision.target_shape,
    )


def _split_declared_suffix(
    spec: XTransformerSpec,
) -> tuple[int, XTransformerSpec]:
    """Split off the copied coordinate suffix a validated spec declares.

    The suffix is the largest r0 such that the last r0 outputs are passed
    copies of the last r0 source dims, in order, each no wider than its
    target axis, and neither the inner pick nor an earlier output reads
    those dims.  Returns ``(r0, lead)``: ``lead`` factors the map of the
    remaining leading axes, or is the spec itself when r0 == 0.
    """
    k = len(spec.source_shape)
    m = spec.inner.target_rank
    rank = len(spec.target_shape)
    r0 = 0
    while r0 < min(k, rank):
        dim, out = k - 1 - r0, rank - 1 - r0
        v = spec.out_pick[out] - m
        if (
            v < 0
            or spec.pass_pick[v] != dim
            or spec.source_shape[dim] > spec.target_shape[out]
            or dim in spec.inner_pick
            or any(
                w >= m and spec.pass_pick[w - m] == dim for w in spec.out_pick[:out]
            )
        ):
            break
        r0 += 1
    if r0 == 0:
        return 0, spec
    kept = [p for p, d in enumerate(spec.pass_pick) if d < k - r0]
    moved = {m + p: m + q for q, p in enumerate(kept)}
    return r0, XTransformerSpec(
        inner=spec.inner,
        inner_pick=spec.inner_pick,
        pass_pick=[spec.pass_pick[p] for p in kept],
        out_pick=[moved.get(v, v) for v in spec.out_pick[: rank - r0]],
        source_shape=spec.source_shape[: k - r0],
        target_shape=spec.target_shape[: rank - r0],
    )


def compose_provision(spec: XTransformerSpec) -> ProvisionTensor:
    """Flatten a factored transformer into a single provision table.

    Tabulates out_pick(inner(inner_pick(I)) + pass_pick(I)) over the whole
    source index set, or returns the inner table itself when the spec is
    trivial over it.  Raises IndexError when the inner pick produces an
    index outside the inner transformer's source shape.
    """
    validate_spec(spec)
    return _compose(spec)


def _compose(spec: XTransformerSpec) -> ProvisionTensor:
    """:func:`compose_provision` of a spec already validated."""
    if (
        not spec.pass_pick
        and spec.inner_pick == identity_pick(len(spec.source_shape))
        and spec.out_pick == identity_pick(len(spec.out_pick))
        and spec.inner.source_shape == spec.source_shape
        and spec.inner.target_shape == spec.target_shape
    ):
        return spec.inner
    idx = index_matrix(spec.source_shape)
    inner_src = spec.inner.source_shape
    picked = idx[:, list(spec.inner_pick)]
    if picked.size:
        bounds = np.asarray(inner_src, dtype=np.int64)
        if ((picked < 0) | (picked >= bounds)).any():
            raise IndexError(
                "inner pick selects indices outside the inner source shape "
                f"{inner_src}"
            )
    offsets = np.broadcast_to(flat_offsets(picked.T, inner_src), len(idx))
    inner_rows = spec.inner.rows()[offsets]
    passed = idx[:, list(spec.pass_pick)]
    cat = np.concatenate([inner_rows, passed], axis=1)
    out = cat[:, list(spec.out_pick)]
    table = out.reshape(spec.source_shape + (len(spec.target_shape),))
    return ProvisionTensor(table, spec.target_shape)


def tf_transformer(indices, target_shape) -> XTransformerSpec:
    """Batched slice-update transformer behind tf-style scatter_nd.

    The last axis of ``indices`` addresses the leading ``q`` target axes;
    everything before it is batch.  Source indices are batch coordinates
    followed by the untouched trailing target coordinates, which pass
    through verbatim.
    """
    indices = as_index_tensor(indices)
    target_shape = as_shape(target_shape)
    if indices.ndim < 1:
        raise ArgumentError("indices must have at least one axis")
    q = indices.shape[-1]
    if q > len(target_shape):
        raise ArgumentError(
            f"indices address {q} target axes but the target has rank "
            f"{len(target_shape)}"
        )
    batch = indices.ndim - 1
    source_shape = indices.shape[:-1] + target_shape[q:]
    inner = ProvisionTensor(indices, target_shape[:q])
    return XTransformerSpec(
        inner=inner,
        inner_pick=tuple(range(batch)),
        pass_pick=tuple(range(batch, len(source_shape))),
        out_pick=identity_pick(len(target_shape)),
        source_shape=source_shape,
        target_shape=target_shape,
    )
