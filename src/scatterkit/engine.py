"""Scatter execution with explicit collision policies.

The general result of relocating an update tensor through an index
transformer on top of a background tensor is ambiguous twice over: several
sources may land on one target cell, and some target cells receive
nothing.  The engine resolves the first ambiguity with a named
:class:`CollisionPolicy` and the second by keeping the background value,
so every run is deterministic.

One kernel executes every scatter: given the flat keys of the leading map
left by splitting off a copied coordinate suffix, it resolves the policy
once per key and moves rows of ``b = prod(trailing source extents)``
elements (``b = 1`` without a suffix).  It builds one winner array per
call, the only one the size of the target, and takes the report's
counters from row-sized masks.  Rows then move in one of two ways, chosen
by whether at most half of the rows lose their key.  If so, every row
moves with one assignment straight from the updates, and the winners of
the colliding keys are assigned again over it; their keys are distinct, so
each key ends on its winner whatever order NumPy wrote its rows in, and
with no losing row that second step is empty.  Otherwise only the winners
are gathered and assigned, again on distinct keys, except under ``sum``
and ``prod`` with rows of at most ``_COLUMN_WIDTH`` elements, which start
every reached row from the identity and fold every row into it column by
column (see below).  When a row fills the target trail and is
contiguous, every assignment moves it as one opaque ``(np.void, 8 * b)``
item, a block copy of its bytes; a narrower or strided row moves through
its region of the target row.

Under ``error`` the winner array is built over row prefixes that double
from ``_ERROR_PREFIX`` (2^11) rows, each step's rows checked against it
once applied.  A later row cannot lower the minimum an earlier row set, so
the first row to lose in its own step is the first colliding write, the
one raised.  A colliding call thus costs the lowering, the one
target-sized ``np.full`` and at most the larger of the first prefix and
about twice the colliding row's position, not a pass over every row.  When
no row loses, the gather of winners by key and the masks taken from it
are skipped: every row won.  The other policies take one step over all
rows.

The result starts as a copy of the background, except when rows fill
the target trail, hold at least ``_MASKED_COPY_BLOCK`` (64) elements,
and the reached rows hold at least ``_MASKED_COPY_REACHED`` (2^16)
elements.  Every move case writes the whole target row of each key it
reaches, so then the result starts uninitialised and only the background
rows no key reaches are copied into it, by one ``np.copyto(..., where=)``
over ``(np.void, 8 * b)`` views of both arrays, the item type the moves
use.  Its mask, taken from ``win`` before ``win`` is gathered by key,
holds one bool per target row, at most 1/512 of the result, and ``win``
stays the only target-sized index array.  The two bounds come from
timing the masked copy against a full one (medians of interleaved pairs,
2-vCPU VM, NumPy 2.4.6).  On an 8 MB target with half of its rows
unreached the masked copy takes 10-13x the full copy's time at ``b = 1``,
1.4-1.6x at ``b = 8``, 0.93-1.03x at ``b = 16``, 0.6-0.9x at ``b = 32``
and 0.56-0.69x at ``b = 64``.  It also has a fixed cost of about 3 us,
so on targets of 16-32 KB it takes 2.2-3.3x at every width, and it skips
only the reached rows, so with 90% of the rows unreached it takes
1.07-1.27x on targets of 256 KB-1 MB.

Every gathered row, and under ``sum`` and ``prod`` every row folded from
the identity when every row moves, passes in row order through one reused
buffer of ``_MOVE_CHUNK`` elements (256 KB), filled with ``out=``; only
``last`` and ``first`` skip it, moving every row in one assignment when
most rows win.  So besides the result and row-sized index work, moved
rows hold ``max(_MOVE_CHUNK, b)`` elements at a time (updates read
through strides are made contiguous once when any row loses, a copy each
``take`` would make anyway), and the caller's updates are neither written
nor aliased.  Row indices die at their last read: the row positions once
each row is checked against its key's winner, and the losing rows'
indices, which only the flat fold below reads, before the result is
allocated.

``sum`` and ``prod`` fold in one of two ways.  When most rows lose and a
row holds at most ``_COLUMN_WIDTH`` (16) elements, they build neither the
winners' nor the losing rows' indices, only keep the row mask of each
key's first row.  Every row folds in row order, ``_MOVE_CHUNK // b`` rows
at a time: the keys whose first row falls in the chunk are set to the
fold's identity (their keys are distinct), and then one ``ufunc.at`` per
trail element ``e`` folds the chunk into the strided column
``flat[o::tb]`` of the target (``o`` is ``e``'s offset in the target
trail), from views of the keys and of ``updates[:, e]``.  So the target
rows a chunk reaches stay in cache from its identity writes across its
``b`` passes; one identity write keyed by every row instead costs about
as much as the whole fold once the target outgrows the L2 cache (21 of
44 ms with 2^20 rows of 4 into 2^18 keys).  Otherwise the losing rows
fold on flat element offsets, walked in row order ``_FOLD_CHUNK``
elements at a time, after the winners' identity-folded move.  Either way
each cell takes the identity, then its rows' values in row order:
``ufunc.at`` applies its operands in order and the chunks run in order, so
the result is bit-identical to sequential accumulation from zero or one,
``-0.0`` included.  The column fold's bounds come from timing whole
``sum`` and ``prod`` calls against the flat fold's (medians of alternating
in-process pairs, 2-vCPU VM, NumPy 2.4.6): with 2^14 rows into 4096 keys
the column fold takes 0.91x the time at ``b = 1``, 0.86x at 2, 0.78x at
4, 0.75x at 8 and 0.86-0.89x at 16; across processes 0.98x with 2^20
rows of 1 and 0.87x with rows of 4 into 2^18 keys, and 0.94x (0.86-1.09)
with 2^18 rows of 16 into 2^16 keys.  Forced onto wider rows it takes
1.09x at ``b = 32``, 1.4x at 64, 3.5x at 256 and 5.8-7.1x with rows of
1024 into 16 or 2 keys, and 1.5x on ``torch_collide``'s shape, where most
rows win.  The
flat fold's two chunks differ in size because their costs do: a move
chunk costs a Python step and an assignment, so at 4096 elements a chunk
512 rows of 1024 take 128 steps and ``sum`` runs about a quarter slower,
while a fold chunk holds about four chunk-sized temporaries (the gathered
rows, their transposed copy and the offsets), so a fold chunk of 2^15
elements would double the peak of a flat fold over 2^14 colliding rows
of 4.

Every entry point keys the kernel through one lowering,
:func:`scatterkit.transform._lower`, which finds the copied suffix of a
factored spec, a table (read as its columns), torch's ``(index, dim)``
and tensorflow's ``indices`` alike.  The two framework scatters build
their coordinates straight from the caller's index array, with no spec
and no copy of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import _entry_text, as_data_tensor, as_index_tensor, flat_offsets, shape_size
from .errors import ArgumentError, CollisionError
from .transform import (
    ProvisionTensor,
    XTransformerSpec,
    _coordinates,
    _lower,
    _tf_source_shape,
)

# rows of the first prefix over which ERROR resolves its winners; each
# later prefix doubles the one before.  On a 2^18-row torch_scatter into
# 2^20 cells, first colliding near row 1,200-2,800, 2^8-2^12 rows all took
# 0.22-0.28 ms in the kernel, 2^11 fastest on 4 of 6 seeds
_ERROR_PREFIX = 1 << 11
# elements of losing rows that a sum or prod fold gathers at a time
_FOLD_CHUNK = 1 << 12
# elements of the buffer that identity-folded rows and gathered winners
# move through, and of the rows a column fold takes at a time
_MOVE_CHUNK = 1 << 15
# a masked copy of the unreached background rows pays for itself only
# with rows of at least _MASKED_COPY_BLOCK elements, and when the reached
# rows it skips hold at least _MASKED_COPY_REACHED elements (512 KB); see
# the module docstring
_MASKED_COPY_BLOCK = 64
_MASKED_COPY_REACHED = 1 << 16
# rows of at most _COLUMN_WIDTH elements, most of them losing, fold column
# by column under sum and prod: 0.75-0.94x the flat fold's time up to 16
# elements, 1.09x at 32 and 1.4x at 64; see the module docstring
_COLUMN_WIDTH = 16


class CollisionPolicy(enum.Enum):
    """How concurrent writes to one target cell are resolved.

    FIRST_WINS and LAST_WINS order writes by row-major source traversal.
    SUM and PROD fold the colliding update values only; the background
    value at a written cell never joins the reduction.  ERROR demands an
    injective transformer and raises on the first colliding write, found
    over row prefixes that double in size, so a colliding call stops about
    twice the colliding row's position in rather than reading every row.
    """

    ERROR = "error"
    FIRST_WINS = "first"
    LAST_WINS = "last"
    SUM = "sum"
    PROD = "prod"


@dataclass(frozen=True, eq=False)
class ScatterReport:
    """Observability counters for one scatter execution.

    ``fast_path_used`` is true when the scatter moved rows along a copied
    suffix (r >= 1) rather than single elements.
    """

    writes: int
    colliding_groups: int
    uncovered_targets: int
    fast_path_used: bool


@dataclass(frozen=True, eq=False)
class Scattering:
    """Not exported and built by no entry point: kept, with its fields and
    an empty ``__post_init__``, only while ``perfbench/spans.py`` wraps it,
    then deleted."""

    transformer: ProvisionTensor
    updates: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        pass


def _scatter_rows(keys, lead_shape, updates, background, policy):
    # keys, broadcast over the leading axes of updates, are flat offsets in
    # lead_shape; the r trailing axes are copied, so a row is a block of b
    r = background.ndim - len(lead_shape)
    fast = r >= 1
    if updates.size == 0:
        return background.copy(), ScatterReport(0, 0, background.size, fast)
    source_trail = updates.shape[updates.ndim - r :]
    target_trail = background.shape[len(lead_shape) :]
    rows_shape = updates.shape[: updates.ndim - r]
    if keys.shape != rows_shape:  # np.broadcast_to alone costs about 5 us
        keys = np.broadcast_to(keys, rows_shape)
    keys = keys.reshape(-1)
    n = len(keys)
    t = shape_size(lead_shape)
    block = shape_size(source_trail)

    # the winning row per key: its last row under LAST_WINS, else its first.
    # win is the only target-sized index array; besides the bool mask of
    # unreached rows, everything after it is row-sized
    pos_dtype = np.int32 if n < 2**31 else np.int64
    last_wins = policy is CollisionPolicy.LAST_WINS
    error = policy is CollisionPolicy.ERROR
    unset = -1 if last_wins else n
    win = np.full(t, unset, dtype=pos_dtype)
    resolve = (np.maximum if last_wins else np.minimum).at
    # ERROR steps over prefixes doubling from _ERROR_PREFIX rows and raises
    # at the first row that loses in its own step, the first colliding
    # write (see the module docstring); other policies take one step
    start, stop = 0, min(n, _ERROR_PREFIX) if error else n
    while start < n:
        pos = np.arange(start, stop, dtype=pos_dtype)
        resolve(win, keys[start:stop], pos)
        if error:
            lost = np.flatnonzero(win[keys[start:stop]] != pos)
            if len(lost):
                at = keys[start + lost[0]]
                raise CollisionError(np.unravel_index(at, lead_shape) + (0,) * r)
        start, stop = stop, min(n, 2 * stop)
    # the target rows no key reaches, for a masked copy of the background
    fill = source_trail == target_trail
    unreached = win == unset if fill and block >= _MASKED_COPY_BLOCK else None
    fold = {CollisionPolicy.SUM: np.add, CollisionPolicy.PROD: np.multiply}.get(policy)
    if error:  # every row won its key, or the loop raised
        del pos, win
        picked, losing, colliding, most_win, columns = (), 0, 0, True, False
    else:
        win = win[keys]
        chosen = win == pos
        del pos
        rest = np.flatnonzero(~chosen)  # every row but its key's winner, in row order
        # a key collides when a rest row names its winner; intp indices
        # scatter faster than int32 ones
        mark = np.zeros(n, dtype=bool)
        mark[win[rest].astype(np.intp)] = True
        colliding, losing = int(np.count_nonzero(mark)), len(rest)
        most_win = 2 * losing <= n
        # narrow rows of sum and prod, most of them losing, fold column by
        # column from the identity: they need no row list, only the mask of
        # each key's first row
        columns = fold is not None and not most_win and block <= _COLUMN_WIDTH
        first = chosen if columns else None
        # the rows the move buffer gathers: the colliding keys' winners when
        # most rows win, else every winner; only the flat fold reads rest
        picked = () if columns else np.flatnonzero(mark if most_win else chosen)
        del win, mark, chosen
        if fold is None or columns:
            del rest
    distinct = n - losing
    if losing:  # every take below copies strided updates whole: copy once
        updates = np.ascontiguousarray(updates)
    updates = updates.reshape((n,) + source_trail)
    # a row that fills the target trail and is contiguous moves as one
    # opaque item of 8 * block bytes, a block copy rather than one per element
    whole = fill and updates[:1].flags.c_contiguous
    region = () if whole else tuple(slice(0, e) for e in source_trail)

    # one row as an opaque item, shared by the background copy and the moves
    item = np.dtype((np.void, 8 * block)) if fill else None

    def void_rows(values, count):  # count rows of block elements, one item each
        return values.reshape(count, block).view(item)[:, 0]

    if unreached is not None and distinct * block >= _MASKED_COPY_REACHED:
        # every move writes the whole target row of each reached key, so
        # only the rows no key reaches are copied from the background
        out = np.empty_like(background)
        np.copyto(void_rows(out, t), void_rows(background, t), where=unreached)
    else:
        out = background.copy()
    out_rows = void_rows(out, t) if whole else out.reshape((t,) + target_trail)

    def as_rows(values):  # rows in the form out_rows is indexed with
        return void_rows(values, len(values)) if whole else values

    def move(sel):  # every row if sel is None, else the rows sel picks
        # in row order through one buffer of _MOVE_CHUNK elements, freed on return
        m = n if sel is None else len(sel)
        step = max(1, _MOVE_CHUNK // block)
        buf = np.empty((min(m, step),) + source_trail)
        for start in range(0, m, step):
            part = buf[: min(step, m - start)]
            if sel is None:
                at = slice(start, start + len(part))
                rows = updates[at]
            else:
                at = sel[start : start + len(part)]
                rows = updates.take(at, axis=0, out=part, mode="clip")
            if fold is not None:
                # start from the identity, so a lone -0.0 sums to 0.0 as
                # sequential accumulation from zero does; never in the
                # caller's updates
                rows = fold(rows, fold.identity, out=part)
            out_rows[(keys[at],) + region] = as_rows(rows)

    if most_win and fold is None:
        # every row moves in one assignment straight from the updates
        out_rows[(keys,) + region] = as_rows(updates)
    elif most_win:
        move(None)
    if len(picked):
        # the picked rows' keys are distinct, so each key ends on its
        # winner whatever order NumPy wrote the rows moved before in
        move(picked)
    if fold is not None and losing:
        # off holds the flat offsets of the source-trail grid inside the
        # target trail.  Each cell takes its contributions in row order, so
        # the result is that of sequential accumulation
        flat = out.reshape(-1)
        tb = shape_size(target_trail)
        grid = np.indices(source_trail, sparse=True)
        off = flat_offsets(grid, target_trail).reshape(-1)
        if columns:
            # every row folds, a move chunk of rows at a time, so the target
            # rows a chunk reaches stay in cache from its identity writes
            # across its block passes: the keys whose first row is in the
            # chunk start from the identity (float64: the identity of
            # np.multiply is the int 1), then one ufunc.at per trail element
            # folds into its strided column of the target, from views of
            # the keys and the updates
            identity = as_rows(np.full((1,) + source_trail, float(fold.identity)))
            cols = updates.reshape(n, block)
            step = _MOVE_CHUNK // block
            for start in range(0, n, step):
                at = keys[start : start + step]
                out_rows[(at[first[start : start + step]],) + region] = identity
                for e, o in enumerate(off.tolist()):
                    fold.at(flat[o::tb], at, cols[start : start + step, e])
        else:
            # the rest rows fold _FOLD_CHUNK elements at a time
            off = off.reshape(-1, 1)
            step = max(1, _FOLD_CHUNK // block)
            for start in range(0, len(rest), step):
                part = rest[start : start + step]
                rows = updates.take(part, axis=0).reshape(len(part), block)
                fold.at(flat, (off + keys[part] * tb).reshape(-1), rows.T.reshape(-1))
    writes = (distinct if policy is CollisionPolicy.FIRST_WINS else n) * block
    uncovered = background.size - distinct * block
    return out, ScatterReport(writes, colliding * block, uncovered, fast)


def scatter_x(
    target,
    updates,
    spec: XTransformerSpec | ProvisionTensor,
    policy: CollisionPolicy | str = CollisionPolicy.LAST_WINS,
) -> tuple[np.ndarray, ScatterReport]:
    """Scatter ``updates`` onto a copy of ``target`` through a table, read
    as its columns, or a factored transformer, without tabulating it."""
    coords = _coordinates(spec)
    target = as_data_tensor(target)
    updates = as_data_tensor(updates)
    if updates.shape != spec.source_shape or target.shape != spec.target_shape:
        raise ArgumentError(
            f"updates shape {updates.shape} and target shape {target.shape} "
            f"must equal the spec's source shape {spec.source_shape} and "
            f"target shape {spec.target_shape}"
        )
    policy = CollisionPolicy(policy)
    keys, lead_shape = _lower(coords, spec.source_shape, spec.target_shape)
    return _scatter_rows(keys, lead_shape, updates, target, policy)


def scatter_nd_update(
    ts,
    indices,
    updates,
    policy: CollisionPolicy | str = CollisionPolicy.LAST_WINS,
) -> tuple[np.ndarray, ScatterReport]:
    """Tensorflow-style batched slice update of a tensor.

    Each row of ``indices`` addresses a leading-axes cell of ``ts`` whose
    trailing block is replaced by the matching slice of ``updates``.  The
    map is :func:`scatterkit.transform.tf_transformer`'s, lowered straight
    from the caller's ``indices``: target axis ``j < q`` reads the view
    ``indices[..., j]`` and each trailing target axis is its source dim, so
    no index data is copied and no spec is built.
    """
    ts = as_data_tensor(ts)
    indices = as_index_tensor(indices)
    source_shape = _tf_source_shape(indices, ts.shape)
    updates = as_data_tensor(updates)
    if updates.shape != source_shape:
        raise ArgumentError(
            f"updates shape {updates.shape} must equal {source_shape}, the "
            f"source shape that indices of shape {indices.shape} address in "
            f"a target of shape {ts.shape}"
        )
    policy = CollisionPolicy(policy)
    batch, q, rank = indices.ndim - 1, indices.shape[-1], ts.ndim
    unit = indices.shape[:-1] + (1,) * (rank - q)
    coords = [indices[..., j].reshape(unit) for j in range(q)]
    coords += range(batch, batch + rank - q)
    keys, lead_shape = _lower(coords, source_shape, ts.shape)
    return _scatter_rows(keys, lead_shape, updates, ts, policy)


def torch_scatter(
    self_t,
    dim: int,
    index,
    src,
    policy: CollisionPolicy | str = CollisionPolicy.LAST_WINS,
) -> tuple[np.ndarray, ScatterReport]:
    """Torch-style elementwise scatter of ``src`` into ``self_t`` along ``dim``.

    Only the leading ``index.shape`` corner of ``src`` is read.  Float64
    ``src`` and ``self_t`` reach the kernel without a copy.
    """
    self_t = as_data_tensor(self_t)
    index = as_index_tensor(index)
    src = as_data_tensor(src)
    k = index.ndim
    if k != self_t.ndim:
        raise ArgumentError(f"index rank {k} must equal target rank {self_t.ndim}")
    if not 0 <= dim < k:
        raise ArgumentError(f"dim {_entry_text(dim)} out of range for rank {k}")
    for d in range(k):
        if d != dim and index.shape[d] > self_t.shape[d]:
            raise ArgumentError(
                f"index extent {index.shape[d]} exceeds target extent "
                f"{self_t.shape[d]} on axis {d}"
            )
    if src.ndim != k or any(s < i for s, i in zip(src.shape, index.shape)):
        raise ArgumentError(
            f"src shape {src.shape} must cover the index shape {index.shape} "
            "elementwise"
        )
    policy = CollisionPolicy(policy)
    # position I goes to I with coordinate dim replaced by index[I]
    coords = list(np.indices(index.shape, dtype=np.int64, sparse=True))
    coords[dim] = index
    keys, lead_shape = _lower(coords, index.shape, self_t.shape)
    region = tuple(slice(0, e) for e in index.shape)
    return _scatter_rows(keys, lead_shape, src[region], self_t, policy)
