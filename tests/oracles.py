"""Independent reference implementations used only to cross-check the engine.

Everything here is deliberately written from the definitions with plain
python loops and dicts, sharing no code path with the package: sequential
row-major traversal, a collision-tracking scatter and the counters it
reports, the documented framework semantics for the two adapter entry
points, the tables of the tf and torch maps, and the map a table
tabulates, read one source index at a time.  ``check_against_oracles``
runs one scatter call and checks it against the traversal.  The benchmark
loads this module too, so it imports nothing beyond numpy and the package.
"""

from __future__ import annotations

import numpy as np

from scatterkit import CollisionError, ProvisionTensor


class OracleCollision(Exception):
    def __init__(self, target):
        self.target = tuple(target)
        super().__init__(f"collision at {self.target}")


def literal_traversal(shape):
    """Nested-loop row-major index enumeration."""

    def rec(prefix, dims):
        if not dims:
            yield tuple(prefix)
            return
        for j in range(dims[0]):
            yield from rec(prefix + [j], dims[1:])

    return list(rec([], list(shape)))


def transform(provision, index):
    """The target index the table stores at one source index."""
    return tuple(int(c) for c in provision.table[tuple(index)])


def provision_image(provision):
    """Distinct target indices the table reaches."""
    return {transform(provision, s) for s in literal_traversal(provision.source_shape)}


def identity_provision(shape):
    """The table mapping every index of ``shape`` to itself."""
    shape = tuple(shape)
    rows = np.array(literal_traversal(shape), dtype=np.int64)
    return ProvisionTensor(rows.reshape(shape + (len(shape),)), shape)


def brute_force_scatter(table, target_shape, updates, background, policy):
    """Definition-level scatter: walk sources in row-major order, resolve
    collisions per policy, keep the background elsewhere."""
    table = np.asarray(table)
    updates = np.asarray(updates, dtype=float)
    out = np.array(background, dtype=float, copy=True)
    source_shape = table.shape[:-1]

    hits: dict[tuple, list[float]] = {}
    first_collision = None
    for src in literal_traversal(source_shape):
        tgt = tuple(int(c) for c in table[src])
        if tgt in hits and first_collision is None:
            first_collision = tgt
        hits.setdefault(tgt, []).append(float(updates[src]))

    if policy == "error" and first_collision is not None:
        raise OracleCollision(first_collision)

    for tgt, vals in hits.items():
        if policy == "first":
            out[tgt] = vals[0]
        elif policy in ("last", "error"):
            out[tgt] = vals[-1]
        elif policy == "sum":
            acc = 0.0
            for v in vals:
                acc += v
            out[tgt] = acc
        elif policy == "prod":
            acc = 1.0
            for v in vals:
                acc *= v
            out[tgt] = acc
        else:
            raise ValueError(policy)
    return out


def brute_force_counters(table, target_shape, policy):
    """The ``(writes, colliding_groups, uncovered_targets)`` a scatter reports,
    counted per element along the same row-major walk: every source writes
    once, except that under "first" only the first source of a target does."""
    table = np.asarray(table)
    hits: dict[tuple, int] = {}
    for src in literal_traversal(table.shape[:-1]):
        tgt = tuple(int(c) for c in table[src])
        hits[tgt] = hits.get(tgt, 0) + 1
    writes = len(hits) if policy == "first" else sum(hits.values())
    colliding = sum(1 for count in hits.values() if count >= 2)
    cells = 1
    for e in target_shape:
        cells *= e
    return writes, colliding, cells - len(hits)


def check_against_oracles(call, table, background, updates, policy, case=None):
    """Check ``call(policy)`` against the row-major traversal of ``table``:
    the result bit for bit and its three counters, or, where the traversal
    collides under "error", the target of the CollisionError the call must
    raise.  Returns the call's result, or None when it raised."""
    try:
        want = brute_force_scatter(table, background.shape, updates, background,
                                   policy.value)
    except OracleCollision as exc:
        try:
            call(policy)
        except CollisionError as err:
            assert err.target == exc.target, (case, policy)
            return None
        raise AssertionError(f"no CollisionError at {exc.target}: {case}, {policy}")
    result, report = call(policy)
    assert (result.shape, result.dtype.str, result.tobytes()) == (
        want.shape, want.dtype.str, want.tobytes()), (case, policy)
    got = (report.writes, report.colliding_groups, report.uncovered_targets)
    want = brute_force_counters(table, background.shape, policy.value)
    assert got == want, (case, policy)
    return result


def tf_table(indices, target_shape):
    """The table of the map behind scatter_nd_update: batch row ``b`` and
    trailing index ``j`` map to ``indices[b] + j``."""
    indices = np.asarray(indices)
    batch_shape, q = indices.shape[:-1], indices.shape[-1]
    trail = tuple(target_shape)[q:]
    table = np.zeros(batch_shape + trail + (len(target_shape),), dtype=np.int64)
    for b in literal_traversal(batch_shape):
        for j in literal_traversal(trail):
            table[b + j] = tuple(int(c) for c in indices[b]) + j
    return table


def tf_scatter_reference(tensor, indices, updates):
    """Documented scatter_nd_update semantics: each index row names a cell of
    the leading axes whose trailing slice is overwritten, in batch order."""
    out = np.array(tensor, dtype=float, copy=True)
    indices = np.asarray(indices)
    updates = np.asarray(updates, dtype=float)
    for b in literal_traversal(indices.shape[:-1]):
        out[tuple(int(c) for c in indices[b])] = updates[b]
    return out


def torch_scatter_reference(self_t, dim, index, src):
    """Documented scatter_ semantics: out[..., index[pos], ...] = src[pos]
    with the stored value replacing coordinate ``dim``, in row-major order."""
    out = np.array(self_t, dtype=float, copy=True)
    index = np.asarray(index)
    src = np.asarray(src, dtype=float)
    for pos in literal_traversal(index.shape):
        tgt = pos[:dim] + (int(index[pos]),) + pos[dim + 1 :]
        out[tgt] = src[pos]
    return out


def torch_table(index, dim):
    """The table of the map behind torch-style scatter: position ``pos`` of
    ``index`` maps to ``pos`` with coordinate ``dim`` replaced by index[pos]."""
    index = np.asarray(index)
    table = np.zeros(index.shape + (index.ndim,), dtype=np.int64)
    for pos in literal_traversal(index.shape):
        table[pos] = pos[:dim] + (int(index[pos]),) + pos[dim + 1 :]
    return table


def direct_xtransform(inner_table, inner_pick, pass_pick, out_pick, index):
    """Evaluate the factored map at one index without tabulating anything."""
    picked = tuple(index[v] for v in inner_pick)
    inner_out = tuple(int(c) for c in np.asarray(inner_table)[picked])
    cat = inner_out + tuple(index[v] for v in pass_pick)
    return tuple(cat[v] for v in out_pick)


def brute_max_suffix(provision):
    """The largest r such that, at every source index I, the last r target
    coordinates are the last r source coordinates and the leading target
    coordinates are the same for every I with the same leading source
    coordinates."""
    sources = literal_traversal(provision.source_shape)
    k, rank = len(provision.source_shape), provision.target_rank
    for r in range(min(k, rank), 0, -1):
        lead = {}
        for src in sources:
            tgt = transform(provision, src)
            if tgt[rank - r :] != src[k - r :]:
                break
            if lead.setdefault(src[: k - r], tgt[: rank - r]) != tgt[: rank - r]:
                break
        else:
            return r
    return 0


def brute_pass_through(provision):
    """Every (source dim i, target coordinate j) with T(I)[j] == I[i] at
    every source index I."""
    sources = literal_traversal(provision.source_shape)
    return frozenset(
        (i, j)
        for i in range(len(provision.source_shape))
        for j in range(provision.target_rank)
        if all(transform(provision, src)[j] == src[i] for src in sources)
    )


def brute_collisions(provision):
    """``(groups, uncovered)``: every target reached from two or more
    sources, in row-major target order, with its sources in row-major
    order, and the count of targets no source reaches."""
    hits: dict[tuple, list[tuple]] = {}
    for src in literal_traversal(provision.source_shape):
        hits.setdefault(transform(provision, src), []).append(src)
    groups = tuple((tgt, tuple(srcs)) for tgt, srcs in sorted(hits.items())
                   if len(srcs) >= 2)
    return groups, len(literal_traversal(provision.target_shape)) - len(hits)
