"""Seeded random instance builders shared by differential tests."""

from __future__ import annotations

import math

import numpy as np

from scatterkit import ProvisionTensor, Scattering, XTransformerSpec, shape_size


def random_shape(rng, min_rank=0, max_rank=4, min_extent=1, max_extent=5):
    rank = int(rng.integers(min_rank, max_rank + 1))
    return tuple(
        int(rng.integers(min_extent, max_extent + 1)) for _ in range(rank)
    )


def random_rows(rng, n, target_shape):
    if not target_shape:
        return np.zeros((n, 0), dtype=np.int64)
    cols = [rng.integers(0, e, size=n, dtype=np.int64) for e in target_shape]
    return np.stack(cols, axis=1)


def force_collisions(rng, rows):
    """Overwrite >= 30% of the rows with copies of surviving rows."""
    n = rows.shape[0]
    dup_count = max(2, math.ceil(0.3 * n))
    order = rng.permutation(n)
    dups, keepers = order[:dup_count], order[dup_count:]
    rows[dups] = rows[rng.choice(keepers, size=dup_count)]
    return rows


def random_provision(rng, *, collisions=False, max_source_rank=3,
                     min_source_extent=1, max_source_extent=4, max_target_rank=4,
                     max_target_extent=5):
    while True:
        source_shape = random_shape(
            rng, max_rank=max_source_rank, min_extent=min_source_extent,
            max_extent=max_source_extent,
        )
        if not collisions or shape_size(source_shape) >= 5:
            break
    target_shape = random_shape(
        rng, min_rank=1, max_rank=max_target_rank, max_extent=max_target_extent
    )
    n = shape_size(source_shape)
    rows = random_rows(rng, n, target_shape)
    if collisions:
        rows = force_collisions(rng, rows)
    table = rows.reshape(source_shape + (len(target_shape),))
    return ProvisionTensor(table, target_shape)


def trivial_spec(provision):
    """The always-available factoring with the provision as its own inner:
    its outputs are the table's columns."""
    return XTransformerSpec(
        inner=provision,
        inner_pick=tuple(range(len(provision.source_shape))),
        pass_pick=(),
        out_pick=tuple(range(provision.target_rank)),
        source_shape=provision.source_shape,
        target_shape=provision.target_shape,
    )


def random_scattering(rng, provision):
    updates = rng.standard_normal(provision.source_shape)
    background = rng.standard_normal(provision.target_shape)
    return Scattering(provision, updates, background)


def random_spec(rng, max_rank=3, max_extent=4):
    """A factored transformer whose composition is valid by construction."""
    source_shape = random_shape(rng, max_rank=max_rank, max_extent=max_extent)
    k = len(source_shape)
    k0 = int(rng.integers(0, k + 1))
    inner_pick = tuple(int(v) for v in rng.integers(0, k, size=k0)) if k else ()
    inner_source = tuple(source_shape[v] for v in inner_pick)
    inner_rank = int(rng.integers(0, 4))
    inner_target = tuple(
        int(rng.integers(1, max_extent + 1)) for _ in range(inner_rank)
    )
    inner_rows = random_rows(rng, shape_size(inner_source), inner_target)
    inner = ProvisionTensor(
        inner_rows.reshape(inner_source + (inner_rank,)), inner_target
    )
    n_pass = int(rng.integers(0, k + 1))
    pass_pick = tuple(int(v) for v in rng.integers(0, k, size=n_pass)) if k else ()
    concat_rank = inner_rank + n_pass
    out_rank = int(rng.integers(0, concat_rank + 1)) if concat_rank else 0
    out_pick = tuple(
        int(v) for v in rng.integers(0, concat_rank, size=out_rank)
    )
    target_shape = tuple(
        inner_target[v] if v < inner_rank else source_shape[pass_pick[v - inner_rank]]
        for v in out_pick
    )
    return XTransformerSpec(
        inner=inner,
        inner_pick=inner_pick,
        pass_pick=pass_pick,
        out_pick=out_pick,
        source_shape=source_shape,
        target_shape=target_shape,
    )


def random_suffix_spec(rng):
    """random_spec with 1-2 passed-through source dims appended as its last
    outputs, which declares a copied suffix unless a variant breaks it.

    Appended extents may be 0, and their target axes may be wider, or
    narrower (out of bounds); sometimes an earlier output also reads the
    last appended dim, which the suffix must then exclude.
    """
    spec = random_spec(rng)
    m = spec.inner.target_rank
    source_shape, target_shape = list(spec.source_shape), list(spec.target_shape)
    pass_pick, out_pick = list(spec.pass_pick), list(spec.out_pick)
    for _ in range(int(rng.integers(1, 3))):
        extent = int(rng.integers(0, 4))
        pass_pick.append(len(source_shape))
        source_shape.append(extent)
        out_pick.append(m + len(pass_pick) - 1)
        target_shape.append(max(extent + int(rng.choice([0, 0, 0, 1, 1, -1])), 0))
    if rng.random() < 0.2:
        out_pick.insert(0, out_pick[-1])
        target_shape.insert(0, source_shape[-1])
    return XTransformerSpec(
        inner=spec.inner,
        inner_pick=spec.inner_pick,
        pass_pick=pass_pick,
        out_pick=out_pick,
        source_shape=source_shape,
        target_shape=target_shape,
    )


def random_suffix_provision(rng, *, collisions=False):
    """A provision guaranteed to carry a copied suffix of length >= 1."""
    r = int(rng.integers(1, 3))
    lead_source = random_shape(rng, max_rank=2, max_extent=4)
    suffix = random_shape(rng, min_rank=r, max_rank=r, max_extent=4)
    lead_target = random_shape(rng, min_rank=0, max_rank=2, max_extent=5)
    n_lead = shape_size(lead_source)
    lead_rows = random_rows(rng, n_lead, lead_target)
    if collisions and n_lead >= 5:
        lead_rows = force_collisions(rng, lead_rows)
    source_shape = lead_source + suffix
    target_shape = lead_target + suffix
    trail = shape_size(suffix)
    idx_suffix = (
        np.stack(
            [g.reshape(-1) for g in np.indices(suffix, dtype=np.int64)], axis=1
        )
        if trail
        else np.zeros((1, 0), dtype=np.int64)
    )
    rows = np.concatenate(
        [
            np.repeat(lead_rows, trail, axis=0),
            np.tile(idx_suffix, (n_lead, 1)),
        ],
        axis=1,
    )
    table = rows.reshape(source_shape + (len(target_shape),))
    return ProvisionTensor(table, target_shape)


def random_tf_instance(rng, *, collision_free=True):
    """(ts, indices, updates) for the batched slice-update adapter."""
    while True:
        target_shape = random_shape(rng, min_rank=1, max_rank=4)
        q = int(rng.integers(1, len(target_shape) + 1))
        lead_size = shape_size(target_shape[:q])
        # indices rank stays <= 4: batch rank <= 3 plus the coordinate axis
        batch_shape = random_shape(rng, max_rank=3, max_extent=4)
        batch = shape_size(batch_shape)
        if not collision_free or batch <= lead_size:
            break
    if collision_free:
        flat = rng.choice(lead_size, size=batch, replace=False)
    else:
        flat = rng.integers(0, lead_size, size=batch)
    if q:
        rows = np.stack(
            [c.astype(np.int64) for c in np.unravel_index(flat, target_shape[:q])],
            axis=1,
        )
    else:
        rows = np.zeros((batch, 0), dtype=np.int64)
    indices = rows.reshape(batch_shape + (q,))
    updates = rng.standard_normal(batch_shape + target_shape[q:])
    ts = rng.standard_normal(target_shape)
    return ts, indices, updates


def random_torch_instance(rng, *, collision_free=True):
    """(self_t, dim, index, src) for the axis-substitution adapter."""
    target_shape = random_shape(rng, min_rank=1, max_rank=4, max_extent=5)
    k = len(target_shape)
    dim = int(rng.integers(0, k))
    index_shape = tuple(
        int(rng.integers(1, target_shape[d] + 1)) if d != dim else 0
        for d in range(k)
    )
    if collision_free:
        dim_extent = int(rng.integers(1, target_shape[dim] + 1))
    else:
        dim_extent = int(rng.integers(1, 6))
    index_shape = index_shape[:dim] + (dim_extent,) + index_shape[dim + 1 :]
    index = np.zeros(index_shape, dtype=np.int64)
    fibers = [d for d in range(k) if d != dim]
    fiber_shape = tuple(index_shape[d] for d in fibers)
    for fiber in np.ndindex(*fiber_shape):
        if collision_free:
            vals = rng.choice(target_shape[dim], size=dim_extent, replace=False)
        else:
            vals = rng.integers(0, target_shape[dim], size=dim_extent)
        sel = list(fiber)
        sel.insert(dim, slice(None))
        index[tuple(sel)] = vals
    src_shape = tuple(
        int(rng.integers(e, e + 2)) for e in index_shape
    )
    src = rng.standard_normal(src_shape)
    self_t = rng.standard_normal(target_shape)
    return self_t, dim, index, src


def random_torch_case(rng, case):
    """(self_t, dim, index, src) of rank 1-3; src is wider than index.

    case % 5 picks the index: 0 random, 1 constant along a run of trailing
    axes after dim, 2 the identity along dim, 3 one entry at -1 and 4 one
    entry at the target extent along dim.  Extents may be 0.
    """
    k = int(rng.integers(1, 4))
    target = tuple(int(rng.integers(0, 4)) for _ in range(k))
    dim = int(rng.integers(0, k))
    shape = [int(rng.integers(0, target[d] + 1)) for d in range(k)]
    shape[dim] = int(rng.integers(0, 5))
    kind = case % 5
    if kind == 1:
        cut = int(rng.integers(dim + 1, k + 1))
        drawn = shape[:cut] + [1] * (k - cut)
        index = rng.integers(0, max(target[dim], 1), size=drawn)
        index = np.broadcast_to(index, shape)
    elif kind == 2:
        shape[dim] = int(rng.integers(0, target[dim] + 1))
        line = np.arange(shape[dim]).reshape((-1,) + (1,) * (k - 1 - dim))
        index = np.broadcast_to(line, shape)
    else:
        index = rng.integers(0, max(target[dim], 1), size=shape)
        if kind >= 3 and index.size:
            index = index.copy()
            index.reshape(-1)[int(rng.integers(index.size))] = (
                -1 if kind == 3 else target[dim]
            )
    src = rng.standard_normal([e + int(rng.integers(0, 2)) for e in shape])
    src.reshape(-1)[::3] = -0.0  # signed zeros expose the sum/prod seeding
    return rng.standard_normal(target), dim, np.asarray(index), src
