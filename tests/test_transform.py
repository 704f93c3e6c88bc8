import numpy as np
import pytest

from scatterkit import (
    ArgumentError,
    PickRangeError,
    ProvisionTensor,
    ValidationError,
    XTransformerSpec,
    compose_provision,
    tf_transformer,
    torch_scatter,
    validate_provision,
)
from scatterkit import fixtures as fx

from scatterkit.transform import _coordinates

from generators import (
    random_provision,
    random_shape,
    random_spec,
    random_suffix_spec,
    trivial_spec,
)
from oracles import direct_xtransform, identity_provision, literal_traversal, transform


def test_provision_table_shape_checked():
    with pytest.raises(ArgumentError):
        ProvisionTensor(np.zeros((4, 2, 3), dtype=np.int64), (2, 2, 2, 2))
    with pytest.raises(ArgumentError):
        ProvisionTensor(np.int64(3), (2,))


def test_validate_provision():
    emb = fx.embed_provision()
    assert validate_provision(emb) == (0, None)
    narrowed = ProvisionTensor(emb.table, (2, 2, 2, 1))
    # rows whose final coordinate is 1: one per source pair (i, 1); the
    # first in row-major order is (0, 1)
    assert validate_provision(narrowed) == (4, ((0, 1), 3))
    empty = ProvisionTensor(np.zeros((0, 3), dtype=np.int64), (2, 2, 2))
    assert validate_provision(empty) == (0, None)


def signed_bounds(table, target_shape):
    """The two signed comparisons the unsigned bounds check replaces."""
    bad = (table < 0) | (table >= np.asarray(target_shape, dtype=np.int64))
    count = int(np.count_nonzero(bad))
    if count == 0:
        return 0, None
    *index, axis = np.unravel_index(int(bad.argmax()), bad.shape)
    return count, (tuple(int(c) for c in index), int(axis))


def test_unsigned_bounds_check_flags_what_signed_checks_flag():
    # a negative entry viewed as uint64 lies above every extent below 2**63
    def edges(e):
        return [-1, -(2**63), 0, e - 1, e, 2**63 - 1]

    rng = np.random.default_rng(13)
    tables = []
    for e in (1, 2, 7, 2**62, 2**63 - 1):
        column = np.array(edges(e), dtype=np.int64)
        tables.append((column[:, None], (e,)))
        tables.append((np.stack([column, rng.permutation(column)], axis=1), (e, 3)))
    for _ in range(40):
        shape = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        rows = rng.integers(-3, 8, size=(int(rng.integers(0, 9)), len(shape)))
        tables.append((rows, shape))
    for table, shape in tables:
        assert validate_provision(ProvisionTensor(table, shape)) == signed_bounds(
            table, shape
        ), (table.tolist(), shape)

    # torch_scatter checks its index the same way, against the extent on dim
    for e in (1, 2, 7):
        index = np.array(edges(e), dtype=np.int64).reshape(2, 3)
        count, (first, _) = signed_bounds(index[..., None], (e,))
        with pytest.raises(ValidationError) as info:
            torch_scatter(np.zeros((2, e)), 1, index, np.zeros((2, 3)))
        assert str(info.value) == (
            f"{count} provision entries out of bounds; first at source index "
            f"{first}, target axis 1"
        )


def test_trivial_spec_reproduces_table():
    for provision in (fx.embed_provision(), fx.diag_provision(), fx.parity_provision()):
        composed = compose_provision(trivial_spec(provision))
        assert np.array_equal(composed.table, provision.table)
        assert composed.target_shape == provision.target_shape
    # identity picks over an inner of another shape still tabulate the spec's
    inner = ProvisionTensor([[0], [1], [2], [3]], (4,))
    for source_shape, target_shape in [((2,), (4,)), ((4,), (6,))]:
        spec = XTransformerSpec(inner, (0,), (), (0,), source_shape, target_shape)
        composed = compose_provision(spec)
        assert composed.table.tolist() == inner.table.tolist()[: source_shape[0]]
        assert composed.target_shape == target_shape


def test_a_table_reads_as_its_trivial_specs_outputs():
    # a table's columns are exactly the coordinates its trivial spec reads:
    # values, shapes, strides and read-only flag
    rng = np.random.default_rng(2020)
    seen = set()
    for case in range(300):
        if case % 5 == 0:  # a rank-0 target
            source = random_shape(rng, max_rank=3, min_extent=0, max_extent=3)
            provision = ProvisionTensor(np.zeros(source + (0,), np.int64), ())
        else:
            provision = random_provision(rng, collisions=case % 5 == 1,
                                         min_source_extent=0)
        got = _coordinates(provision)
        want = _coordinates(trivial_spec(provision))
        assert len(got) == len(want) == provision.target_rank, case
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.strides) == (w.dtype, w.shape, w.strides), case
            assert not g.flags.writeable and not w.flags.writeable, case
            assert np.array_equal(g, w), case
        source = provision.source_shape
        seen.add("rank 0" if not provision.target_rank else
                 "empty" if 0 in source else "extent 1" if 1 in source else "other")
    assert seen == {"rank 0", "empty", "extent 1", "other"}


def test_a_table_copies_what_its_caller_can_still_write():
    # a table copies an array its caller may still write, and adopts a
    # read-only one that owns its memory
    array = np.arange(6, dtype=np.int64).reshape(3, 2)
    view = array[1:]  # C-ordered, so only its base shows it is shared
    view.setflags(write=False)
    tables = [ProvisionTensor(array, (6, 6)), ProvisionTensor(view, (6, 6))]
    array[...] = 5
    for provision, want in zip(tables, ([[0, 1], [2, 3], [4, 5]], [[2, 3], [4, 5]])):
        assert provision.table.tolist() == want
        assert not provision.table.flags.writeable
    owned = np.array([[0, 1], [2, 3]], dtype=np.int64)
    owned.setflags(write=False)
    assert ProvisionTensor(owned, (4, 4)).table is owned


def test_compose_diag_structure():
    spec = XTransformerSpec(
        inner=fx.diag_inner(),
        inner_pick=(0,),
        pass_pick=(1, 2),
        out_pick=tuple(range(4)),
        source_shape=(2, 2, 2),
        target_shape=(2, 2, 2, 2),
    )
    composed = compose_provision(spec)
    assert np.array_equal(composed.table, fx.diag_provision().table)
    for i, j, k in literal_traversal((2, 2, 2)):
        assert transform(composed, (i, j, k)) == (i, i, j, k)


def test_compose_interleaving_out_pick():
    spec = XTransformerSpec(
        inner=identity_provision((4,)),
        inner_pick=(0,),
        pass_pick=(1,),
        out_pick=(0, 1, 0, 1),
        source_shape=(4, 2),
        target_shape=(4, 2, 4, 2),
    )
    composed = compose_provision(spec)
    for i, j in literal_traversal((4, 2)):
        assert transform(composed, (i, j)) == (i, j, i, j)


def test_compose_errors():
    inner = identity_provision((4,))
    base = dict(
        inner=inner,
        inner_pick=(0,),
        pass_pick=(1,),
        out_pick=(0, 1),
        source_shape=(4, 2),
        target_shape=(4, 2),
    )
    with pytest.raises(PickRangeError):
        compose_provision(XTransformerSpec(**{**base, "inner_pick": (5,)}))
    with pytest.raises(PickRangeError):
        compose_provision(XTransformerSpec(**{**base, "out_pick": (0, 3)}))
    with pytest.raises(ArgumentError):
        compose_provision(XTransformerSpec(**{**base, "out_pick": (0,)}))
    # picked coordinate exceeds the inner source extent: the spec refuses
    # itself where it is built
    with pytest.raises(IndexError):
        XTransformerSpec(
            inner=identity_provision((2,)),
            inner_pick=(0,),
            pass_pick=(1,),
            out_pick=(0, 1),
            source_shape=(4, 2),
            target_shape=(4, 2),
        )


def test_compose_matches_direct_evaluation():
    rng = np.random.default_rng(42)
    for _ in range(200):
        spec = random_spec(rng)
        composed = compose_provision(spec)
        for index in literal_traversal(spec.source_shape):
            expected = direct_xtransform(
                spec.inner.table,
                spec.inner_pick,
                spec.pass_pick,
                spec.out_pick,
                index,
            )
            assert transform(composed, index) == expected


def test_spec_refuses_exactly_the_picks_past_its_inner_table():
    # random specs, empty sources included, with one picked source dim
    # sometimes narrowed, possibly to 0, or widened past the inner table:
    # construction raises IndexError exactly when a picked extent exceeds
    # its inner extent, and every spec that builds composes to the factored
    # map evaluated directly
    rng = np.random.default_rng(1819)
    seen = set()
    for case in range(600):
        base = random_suffix_spec(rng) if case % 2 else random_spec(rng)
        source = list(base.source_shape)
        if base.inner_pick and rng.random() < 0.6:
            d = base.inner_pick[int(rng.integers(len(base.inner_pick)))]
            source[d] += int(rng.integers(-source[d], 3))
        fields = dict(inner=base.inner, inner_pick=base.inner_pick,
                      pass_pick=base.pass_pick, out_pick=base.out_pick,
                      source_shape=source, target_shape=base.target_shape)
        escapes = any(source[d] > e
                      for d, e in zip(base.inner_pick, base.inner.source_shape))
        seen.add((escapes, 0 in source))
        if escapes:
            with pytest.raises(IndexError, match="outside the inner source shape"):
                XTransformerSpec(**fields)
            continue
        spec = XTransformerSpec(**fields)
        composed = compose_provision(spec)
        for index in literal_traversal(spec.source_shape):
            assert transform(composed, index) == direct_xtransform(
                spec.inner.table, spec.inner_pick, spec.pass_pick,
                spec.out_pick, index,
            ), (case, index)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_tf_transformer_full_gather():
    spec = tf_transformer(fx.embed_provision().table, (2, 2, 2, 2))
    assert spec.source_shape == (4, 2)
    assert spec.inner_pick == (0, 1)
    assert spec.pass_pick == ()
    composed = compose_provision(spec)
    assert np.array_equal(composed.table, fx.embed_provision().table)


def test_tf_transformer_row_update():
    spec = tf_transformer(np.array([[0], [2]], dtype=np.int64), (3, 2))
    assert spec.source_shape == (2, 2)
    composed = compose_provision(spec)
    indices = [[0], [2]]
    for i, j in literal_traversal((2, 2)):
        assert transform(composed, (i, j)) == (indices[i][0], j)


def test_tf_transformer_single_full_index():
    spec = tf_transformer(np.array([[1, 0, 1]], dtype=np.int64), (2, 2, 2))
    assert spec.source_shape == (1,)
    composed = compose_provision(spec)
    assert transform(composed, (0,)) == (1, 0, 1)


def test_tf_transformer_errors():
    with pytest.raises(ArgumentError):
        tf_transformer(np.zeros((2, 3), dtype=np.int64), (4, 4))
    with pytest.raises(ArgumentError):
        tf_transformer(np.int64(0), (4,))


def test_tf_transformer_trailing_passthrough():
    rng = np.random.default_rng(11)
    for _ in range(30):
        target = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5))))
        q = int(rng.integers(1, len(target) + 1))
        batch_shape = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3))))
        rows = np.stack(
            [rng.integers(0, e, size=max(np.prod(batch_shape, dtype=int), 1)) for e in target[:q]],
            axis=1,
        )
        indices = rows.reshape(batch_shape + (q,))
        spec = tf_transformer(indices, target)
        composed = compose_provision(spec)
        b = len(batch_shape)
        for source in literal_traversal(spec.source_shape):
            image = transform(composed, source)
            assert image[q:] == source[b:]


def test_validate_spec_requires_matching_inner_rank():
    with pytest.raises(ArgumentError):
        XTransformerSpec(
            inner=identity_provision((2, 2)),
            inner_pick=(0,),
            pass_pick=(),
            out_pick=(0, 1),
            source_shape=(2, 2),
            target_shape=(2, 2),
        )
