"""Static analysis of index transformers, tabulated or factored.

Answers two questions about a transformer before any data moves: which
target cells receive colliding writes and which receive none
(:func:`detect_collisions`), and whether scatter through it can lower to
contiguous block copies (:func:`slicing_impossibility`).  The second
answer is one report: the longest copied coordinate suffix, the verbatim
coordinate pairs, and the canonical factoring with its pick overlap.  A
nonempty overlap in the canonical factoring is the witness that the
pass-through structure cannot be straightened into a copied suffix.
Each takes a table or a spec, reads it as the engine does (one coordinate
per target axis, ``transform._read``) and tabulates only the tables its
answer holds.  Both refuse a map with an entry outside its target with
the same ValidationError.  Either also takes the map ``_read_in_bounds``
returns, read and checked, so a caller that asks both reads its map once.
A spec's answer, bounds errors included, is its composed table's: an
empty source raises nothing, though ``scatter_x`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .core import Index, Shape, flat_offsets, shape_size
from .transform import (
    ProvisionTensor,
    XTransformerSpec,
    _bounds_error,
    _copied_suffix,
    _copies,
    _escapes,
    _read,
    _tabulate,
    _varies,
)

SLICEABLE = "SLICEABLE"
WEAKLY_SLICEABLE_ONLY = "WEAKLY_SLICEABLE_ONLY"
TRIVIAL_ONLY = "TRIVIAL_ONLY"


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Preimage classes of size >= 2, plus the count of unreached targets.

    The classes live in three read-only int64 arrays.  ``targets`` (G,
    target rank) holds the colliding targets in flat target order;
    ``sources`` (M, source rank) holds their sources group after group,
    row-major within each group; ``sizes`` (G,) holds the number of sources
    in each group, so group g is the ``sizes[g]`` rows of ``sources`` that
    follow the rows of groups 0 to g - 1.  A rank-0 shape gives rows of no
    columns.  ``groups`` builds the same classes as index tuples, and only
    when it is read.  A document may hold the report itself, as the list
    of its groups: ``serialize`` writes that list from the three arrays.
    """

    targets: np.ndarray
    sources: np.ndarray
    sizes: np.ndarray
    uncovered_count: int

    @property
    def collision_count(self) -> int:
        return len(self.sizes)

    @property
    def groups(self) -> tuple[tuple[Index, tuple[Index, ...]], ...]:
        """``(target, sources)`` per group, as tuples of ints."""
        sources = map(tuple, self.sources.tolist())
        return tuple((tuple(target), tuple(islice(sources, size)))
                     for target, size in zip(self.targets.tolist(), self.sizes.tolist()))


def _read_in_bounds(transformer):
    """:func:`transform._read`, refusing a map with an entry outside its
    target: an analysis of such a map would answer for a different map.
    A map this function has read already is returned as it is."""
    if isinstance(transformer, _InBounds):
        return transformer
    coords, source_shape, target_shape = _read(transformer)
    count, first = _escapes(coords, source_shape, target_shape)
    if count:  # a bad entry would alias an offset
        raise _bounds_error(count, *first)
    return _InBounds(coords, source_shape, target_shape)


class _InBounds(NamedTuple):
    """A map read by :func:`_read_in_bounds`; either analysis takes one in
    place of a table or a spec, so the CLI reads its table once for both."""

    coords: list[np.ndarray]
    source_shape: Shape
    target_shape: Shape


def detect_collisions(transformer) -> CollisionReport:
    """Group source indices whose targets coincide; count uncovered targets."""
    coords, source_shape, target_shape = _read_in_bounds(transformer)
    n = shape_size(source_shape)
    offs = np.zeros(0, dtype=np.int64)
    if n:  # an empty source has no offsets to overflow, whatever its target
        offs = np.broadcast_to(flat_offsets(coords, target_shape), source_shape).reshape(n)
    # stable, so each group lists its sources in row-major order
    order = np.argsort(offs, kind="stable")
    ordered = offs[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(np.r_[starts, n])
    colliding = sizes >= 2
    return CollisionReport(
        targets=_rows(ordered[starts[colliding]], target_shape),
        sources=_rows(order[np.repeat(colliding, sizes)], source_shape),
        sizes=_frozen(sizes[colliding]),
        uncovered_count=shape_size(target_shape) - len(starts),
    )


def _rows(offsets, shape) -> np.ndarray:
    # one index row per row-major offset; every offset of a rank-0 shape is
    # 0, and no offsets need no unravel_index, which refuses a shape whose
    # size exceeds intp even with nothing to unravel
    if not shape or not len(offsets):
        return _frozen(np.zeros((len(offsets), len(shape)), dtype=np.int64))
    return _frozen(np.stack(np.unravel_index(offsets, shape), axis=-1))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _decompose(coords, shape, target_shape, pairs):
    rank = len(target_shape)
    source_for: dict[int, int] = {}
    for j in range(rank):
        partners = sorted(i for i, jj in pairs if jj == j)
        strong = [i for i in partners if shape[i] >= 2]
        if strong:
            source_for[j] = strong[0]
        elif partners:
            source_for[j] = partners[0]

    pass_pick = tuple(sorted(set(source_for.values())))
    inner_outs = [j for j in range(rank) if j not in source_for]
    inner_pick = tuple(  # with nothing passed, the trivial factoring
        i
        for i in range(len(shape))
        if not source_for or any(_varies(coords[j], i) for j in inner_outs)
    )
    inner = ProvisionTensor(
        _tabulate([coords[j] for j in inner_outs], shape, inner_pick),
        tuple(target_shape[j] for j in inner_outs),
    )

    inner_pos = {j: t for t, j in enumerate(inner_outs)}
    pass_pos = {d: t for t, d in enumerate(pass_pick)}
    out_pick = tuple(
        len(inner_outs) + pass_pos[source_for[j]]
        if j in source_for
        else inner_pos[j]
        for j in range(rank)
    )
    return XTransformerSpec(
        inner=inner,
        inner_pick=inner_pick,
        pass_pick=pass_pick,
        out_pick=out_pick,
        source_shape=shape,
        target_shape=target_shape,
    )


@dataclass(frozen=True, eq=False)
class SliceabilityReport:
    """Full sliceability diagnosis for one transformer T.

    ``max_suffix`` is the largest r such that (a) the last r output
    coordinates always equal the last r input coordinates and (b) the
    leading outputs are a function of the leading inputs alone;
    ``suffix_inner`` tabulates that leading map over the leading source
    dims, or is None when r is 0.  ``pass_through`` holds every (source
    dim i, target coord j) with T(I)[j] == I[i] for every source index I,
    so a dim of extent 1 pairs with any constantly-zero output coordinate.
    ``canonical`` routes each output with such a partner around its inner
    table, preferring partners of extent >= 2 and then the smallest dim,
    and tabulates the others over exactly the dims they vary along; it
    recomposes to T bit for bit, and is the trivial factoring when nothing
    passes through.  ``overlap`` holds the dims it reads both through the
    inner table and verbatim, a claim scoped to the canonical factoring,
    not to every possible one.  ``verdict`` is one of SLICEABLE,
    WEAKLY_SLICEABLE_ONLY, TRIVIAL_ONLY.
    """

    max_suffix: int
    suffix_inner: ProvisionTensor | None
    pass_through: frozenset[tuple[int, int]]
    canonical: XTransformerSpec
    overlap: frozenset[int]
    verdict: str


def slicing_impossibility(transformer) -> SliceabilityReport:
    """Diagnose whether scatter through this map can lower to block copies.

    SLICEABLE: a nonempty copied suffix exists (max_suffix >= 1).
    WEAKLY_SLICEABLE_ONLY: no suffix, but coordinates do pass through; a
    nonempty overlap means the canonical factoring reads some source dim
    both through the inner transformer and verbatim, which is exactly what
    blocks a suffix split.
    TRIVIAL_ONLY: no suffix and no pass-through structure at all.
    An entry outside the target raises ValidationError, as in
    :func:`detect_collisions`.
    """
    coords, shape, target_shape = _read_in_bounds(transformer)
    k, rank = len(shape), len(target_shape)
    r = _copied_suffix(coords, shape)
    inner = None
    if r:
        lead = _tabulate(coords[: rank - r], shape, range(k - r))
        inner = ProvisionTensor(lead, target_shape[: rank - r])
    pairs = frozenset((i, j) for i, extent in enumerate(shape)
                      for j, coord in enumerate(coords) if _copies(coord, i, extent))
    canonical = _decompose(coords, shape, target_shape, pairs)
    overlap = frozenset(canonical.inner_pick) & frozenset(canonical.pass_pick)
    if r >= 1:
        verdict = SLICEABLE
    elif canonical.pass_pick:
        verdict = WEAKLY_SLICEABLE_ONLY
    else:
        verdict = TRIVIAL_ONLY
    return SliceabilityReport(
        max_suffix=r,
        suffix_inner=inner,
        pass_through=pairs,
        canonical=canonical,
        overlap=overlap,
        verdict=verdict,
    )
