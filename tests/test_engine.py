import datetime
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import (
    ArgumentError,
    CollisionError,
    CollisionPolicy,
    ProvisionTensor,
    ValidationError,
    XTransformerSpec,
    compose_provision,
    detect_collisions,
    scatter_nd_update,
    scatter_x,
    tf_transformer,
    torch_scatter,
    validate_provision,
)
import scatterkit
from scatterkit import analysis, core, engine, transform
from scatterkit import fixtures as fx
from scatterkit.core import shape_size
from scatterkit.transform import _coordinates, _lower

from generators import (
    element_view,
    random_provision,
    random_scattering,
    random_suffix_provision,
    random_suffix_spec,
    random_tf_instance,
    random_torch_case,
    trivial_spec,
)
from oracles import (
    brute_force_counters,
    brute_force_scatter,
    check_against_oracles,
    provision_image,
    tf_table,
    torch_table,
)

ALL_POLICIES = list(CollisionPolicy)


def bits(arr):
    return (arr.shape, arr.dtype.str, arr.tobytes())

DUP = ProvisionTensor(np.array([[0], [0]], dtype=np.int64), (1,))


def dup_scatter(policy, background=(0.0,)):
    return scatter_x(np.array(background), np.array([10.0, 20.0]), DUP, policy)


def test_worked_example_all_policies():
    emb = fx.embed_provision()
    expected = fx.embed_expected()
    for policy in ALL_POLICIES:
        result, report = scatter_x(
            fx.embed_background(), fx.embed_updates(), emb, policy
        )
        assert np.array_equal(result, expected)
        assert report.colliding_groups == 0
        assert report.uncovered_targets == 8


def test_empty_source_is_noop():
    empty = ProvisionTensor(np.zeros((0, 2), dtype=np.int64), (2, 3))
    background = np.arange(6, dtype=np.float64).reshape(2, 3)
    result, report = scatter_x(background, np.zeros((0,)), empty, "last")
    assert np.array_equal(result, background)
    assert report.writes == 0
    assert report.uncovered_targets == 6


@pytest.mark.parametrize(
    "policy,expected",
    [("last", [20.0]), ("first", [10.0]), ("sum", [30.0]), ("prod", [200.0])],
)
def test_duplicate_rows_policies(policy, expected):
    result, report = dup_scatter(policy)
    assert np.array_equal(result, expected)
    assert report.colliding_groups == 1


def test_duplicate_rows_error_policy():
    with pytest.raises(CollisionError) as info:
        dup_scatter("error")
    assert info.value.target == (0,)


def test_sum_excludes_background():
    result, _ = dup_scatter("sum", background=(100.0,))
    assert np.array_equal(result, [30.0])


def test_error_policy_names_first_collision():
    table = np.array([[3], [1], [3], [1]], dtype=np.int64)
    prov = ProvisionTensor(table, (4,))
    with pytest.raises(CollisionError) as info:
        scatter_x(np.zeros(4), np.arange(4.0), prov, "error")
    # source 2 is the first row-major re-hit, landing on target (3,)
    assert info.value.target == (3,)


def test_invalid_provision_rejected():
    bad = ProvisionTensor(np.array([[5]], dtype=np.int64), (2,))
    with pytest.raises(ValidationError):
        scatter_x(np.zeros(2), np.zeros((1,)), bad, "last")


def test_scattering_shape_checks():
    emb = fx.embed_provision()
    with pytest.raises(ArgumentError, match=re.escape(
            "updates shape (4, 3) and target shape (2, 2, 2, 2) must equal the "
            "spec's source shape (4, 2) and target shape (2, 2, 2, 2)")):
        scatter_x(fx.embed_background(), np.zeros((4, 3)), emb, "last")
    with pytest.raises(ArgumentError, match=re.escape(
            "updates shape (4, 2) and target shape (2, 2, 2) must equal the "
            "spec's source shape (4, 2) and target shape (2, 2, 2, 2)")):
        scatter_x(np.zeros((2, 2, 2)), fx.embed_updates(), emb, "last")


def test_scatter_nd_update_rows():
    result, report = scatter_nd_update(
        np.zeros((3, 2)), np.array([[0], [2]], dtype=np.int64),
        np.array([[1.0, 2.0], [3.0, 4.0]]), "last",
    )
    assert np.array_equal(result, [[1, 2], [0, 0], [3, 4]])
    assert report.writes == 4


def test_scatter_nd_update_empty_batch():
    ts = np.arange(6, dtype=np.float64).reshape(3, 2)
    result, report = scatter_nd_update(
        ts, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 2)), "last"
    )
    assert np.array_equal(result, ts)
    assert report.writes == 0


def test_scatter_nd_update_full_index_batch():
    # batching complete 4-coordinate indices reproduces the worked example
    table = fx.embed_provision().table
    result, _ = scatter_nd_update(
        fx.embed_background(), table, fx.embed_updates(), "last"
    )
    assert np.array_equal(result, fx.embed_expected())


def test_scatter_nd_update_shape_mismatch():
    # scatter_nd_update names the source shape its indices imply, since its
    # caller passes no spec; scatter_x names its spec's shapes
    indices = np.array([[0], [2]], dtype=np.int64)
    with pytest.raises(ArgumentError, match=re.escape(
            "updates shape (2, 3) must equal (2, 2), the source shape that "
            "indices of shape (2, 1) address in a target of shape (3, 2)")):
        scatter_nd_update(np.zeros((3, 2)), indices, np.zeros((2, 3)), "last")
    spec = tf_transformer(indices, (3, 2))
    with pytest.raises(ArgumentError, match=re.escape(
            "updates shape (2, 3) and target shape (3, 2) must equal the "
            "spec's source shape (2, 2) and target shape (3, 2)")):
        scatter_x(np.zeros((3, 2)), np.zeros((2, 3)), spec, "last")


def test_torch_scatter_dim0():
    result, _ = torch_scatter(
        np.zeros((2, 2)), 0, np.array([[0, 1], [1, 0]], dtype=np.int64),
        np.array([[1.0, 2.0], [3.0, 4.0]]), "last",
    )
    assert np.array_equal(result, [[1, 4], [3, 2]])


def test_torch_scatter_collision_policies():
    args = (
        np.array([[9.0], [9.0]]),
        0,
        np.array([[0], [0]], dtype=np.int64),
        np.array([[5.0], [7.0]]),
    )
    last, _ = torch_scatter(*args, "last")
    assert np.array_equal(last, [[7], [9]])
    total, _ = torch_scatter(*args, "sum")
    assert np.array_equal(total, [[12], [9]])


def test_torch_scatter_collision_free_policy_invariant():
    rng = np.random.default_rng(5)
    index = np.array([[0, 1], [2, 0]], dtype=np.int64)
    src = rng.standard_normal((2, 2))
    self_t = rng.standard_normal((3, 2))
    results = [
        torch_scatter(self_t, 0, index, src, policy)[0] for policy in ALL_POLICIES
    ]
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_torch_scatter_reads_src_corner_only():
    index = np.array([[0]], dtype=np.int64)
    src = np.array([[5.0, 6.0], [7.0, 8.0]])
    result, _ = torch_scatter(np.zeros((2, 2)), 0, index, src, "last")
    assert np.array_equal(result, [[5, 0], [0, 0]])


def test_torch_scatter_map_errors():
    # the substitution map itself is refused: dim outside the target rank,
    # index rank differing from it, or index wider than it off dim
    for dim in (2, -1):
        with pytest.raises(ArgumentError):
            torch_scatter(np.zeros((2, 2)), dim, np.zeros((2, 2), dtype=np.int64),
                          np.zeros((2, 2)), "last")
    with pytest.raises(ArgumentError):
        torch_scatter(np.zeros((2, 2)), 0, [0, 0], np.zeros(2), "last")
    with pytest.raises(ArgumentError):
        torch_scatter(np.zeros((2, 2)), 0, np.zeros((2, 3), dtype=np.int64),
                      np.zeros((2, 3)), "last")


def test_torch_scatter_errors():
    zeros = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ArgumentError):
        torch_scatter(np.zeros((2, 2)), 5, zeros, np.zeros((2, 2)), "last")
    # src narrower than index
    with pytest.raises(ArgumentError):
        torch_scatter(np.zeros((2, 2)), 0, zeros, np.zeros((1, 2)), "last")
    # only index is bounds-checked, against the target extent along dim
    with pytest.raises(ValidationError) as info:
        torch_scatter(np.zeros((2, 3)), 1, [[0, 3], [5, -1]], np.zeros((2, 2)))
    assert str(info.value) == (
        "3 provision entries out of bounds; first at source index (0, 1), "
        "target axis 1"
    )


def test_scatter_x_matches_compose_then_scatter():
    spec = trivial_spec(fx.embed_provision())
    result, report = scatter_x(
        fx.embed_background(), fx.embed_updates(), spec, "last"
    )
    assert np.array_equal(result, fx.embed_expected())
    assert report.uncovered_targets == 8


def test_scatter_x_block_diagonal():
    spec = XTransformerSpec(
        inner=fx.diag_inner(),
        inner_pick=(0,),
        pass_pick=(1, 2),
        out_pick=tuple(range(4)),
        source_shape=(2, 2, 2),
        target_shape=(2, 2, 2, 2),
    )
    updates = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    result, _ = scatter_x(np.zeros((2, 2, 2, 2)), updates, spec, "last")
    expected = np.zeros((2, 2, 2, 2))
    for i in range(2):
        expected[i, i] = updates[i]
    assert np.array_equal(result, expected)


def test_policies_match_brute_force_random():
    rng = np.random.default_rng(1234)
    for case in range(60):
        provision = random_provision(rng, collisions=case % 2 == 0)
        updates, background = random_scattering(rng, provision)
        for policy in ALL_POLICIES:
            try:
                expected = brute_force_scatter(
                    provision.table, provision.target_shape,
                    updates, background, policy.value,
                )
            except Exception:
                with pytest.raises(CollisionError):
                    scatter_x(background, updates, provision, policy)
                continue
            result, _ = scatter_x(background, updates, provision, policy)
            assert np.array_equal(result, expected), (policy, case)


def counter_cases(rng):
    """Instances of the three entry points, each with its name, target shape
    and the table of its map: lead rows both fewer and more than lead cells,
    rows of one element (b = 1) or of several (b > 1), and injective maps,
    under which no row loses."""
    for case in range(150):
        cells = int(rng.integers(1, 7))
        trail = ((), (2,), (2, 3))[case % 3]
        injective = case % 4 >= 2
        if injective:
            keys = rng.permutation(cells)[: int(rng.integers(1, cells + 1))]
        else:
            keys = rng.integers(0, cells, size=int(rng.integers(1, 3 * cells + 3)))
        n = len(keys)
        ts = rng.standard_normal((cells,) + trail)
        updates = rng.standard_normal((n,) + trail)
        indices = keys[:, None]
        table = tf_table(indices, ts.shape)
        provision = ProvisionTensor(table, ts.shape)
        yield "tf", table, ts.shape, lambda p: scatter_nd_update(ts, indices, updates, p)
        yield "table", table, ts.shape, lambda p: scatter_x(ts, updates, provision, p)
        # an index constant along the trailing axes has a copied suffix
        index = np.broadcast_to(keys.reshape((n,) + (1,) * len(trail)), updates.shape)
        if case % 2 and injective:  # a permutation per column
            index = np.argsort(rng.random((cells,) + trail), axis=0)[:n]
        elif case % 2:
            index = rng.integers(0, cells, size=updates.shape)
        table = torch_table(index, 0)
        yield "torch", table, ts.shape, lambda p: torch_scatter(ts, 0, index, updates, p)


def test_report_counters_match_traversal():
    # the kernel counts from row-sized masks; the oracle counts elements
    rng = np.random.default_rng(31)
    seen = set()
    for entry, table, target_shape, call in counter_cases(rng):
        for policy in ALL_POLICIES:
            want = brute_force_counters(table, target_shape, policy.value)
            if policy is CollisionPolicy.ERROR and want[1]:
                with pytest.raises(CollisionError):
                    call(policy)
                continue
            _, report = call(policy)
            got = (report.writes, report.colliding_groups, report.uncovered_targets)
            assert got == want, (policy, table.tolist(), target_shape)
        rows, cells = table.size // table.shape[-1], shape_size(target_shape)
        covered = cells - want[2]
        seen.add((rows > cells, report.fast_path_used))
        # a key hit three times or more tells colliding keys from extra rows
        seen.add(("3+", rows - covered > want[1]))
        if rows == covered:  # every source element lands on a cell of its own
            seen.add((entry, report.fast_path_used))
    assert seen >= {(True, True), (True, False), (False, True), (False, False)}
    assert ("3+", True) in seen
    assert seen >= {(name, fast) for name in ("tf", "table", "torch")
                    for fast in (True, False)}


def test_kernel_fills_one_target_sized_array(monkeypatch):
    # each policy builds one winner array over the target and scans the
    # target no further: one np.full and one maximum/minimum.at over it,
    # and no flatnonzero that long
    calls = []

    def spy(label, fn):
        def call(a, *args, **kwargs):
            calls.append((label, int(np.prod(a)) if label == "full" else np.size(a)))
            return fn(a, *args, **kwargs)

        return call

    class Numpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name in ("maximum", "minimum"):
                return SimpleNamespace(at=spy("at", attr.at))
            return spy(name, attr) if name in ("full", "flatnonzero") else attr

    monkeypatch.setattr(engine, "np", Numpy())
    # rows of 64 copy only the background rows no key reaches, through a
    # mask taken from the same winner array
    monkeypatch.setattr(engine, "_MASKED_COPY_REACHED", 1)
    rng = np.random.default_rng(5)
    ts, self_t = np.zeros((500, 3)), np.zeros((500, 2))
    wide = np.zeros((500, 64))
    for keys in (rng.permutation(500)[:40], rng.integers(0, 500, size=40)):
        for policy in ALL_POLICIES:
            for run in (
                lambda: scatter_nd_update(ts, keys[:, None], np.ones((40, 3)), policy),
                lambda: torch_scatter(self_t, 0, np.c_[keys, keys[::-1]],
                                      np.ones((40, 2)), policy),
                lambda: scatter_nd_update(wide, keys[:, None], np.ones((40, 64)),
                                          policy),
                lambda: torch_scatter(wide, 0, np.repeat(keys[:, None], 64, axis=1),
                                      np.ones((40, 64)), policy),
            ):
                calls.clear()
                try:
                    run()
                except CollisionError:
                    pass
                big = sorted(label for label, size in calls if size >= 500)
                assert big == ["at", "full"], (policy, calls)


def error_prefix_cases(rng, prefix):
    """Keys into 6 * prefix target rows around the edges of the prefixes
    ERROR resolves over, rows [0, P), [P, 2P), [2P, 4P) and so on for
    ``P = prefix``: 5P rows whose one colliding row is P - 1, P, P + 1,
    3P - 1, 3P, 3P + 1 or the last, then injective maps of P - 1, P, P + 1
    and 3P + 1 rows."""
    t, n = 6 * prefix, 5 * prefix
    for row in (prefix - 1, prefix, prefix + 1, 3 * prefix - 1, 3 * prefix,
                3 * prefix + 1, n - 1):
        keys = rng.permutation(t)[:n]
        keys[row] = keys[rng.integers(row)]  # an earlier row's key: the only collision
        yield f"collision at row {row} of {n}", keys
    for m in (prefix - 1, prefix, prefix + 1, 3 * prefix + 1):
        yield f"{m} injective rows", rng.permutation(t)[:m]


def keyed_calls(rng, keys, t):
    """``(name, call, table, background, updates)`` of each entry point on the
    map sending row i to target row keys[i] of t: scatter_nd_update with
    rows of 1 and 3, torch_scatter along dim 0 and dim 1, and scatter_x on
    a table into (t // 3, 3)."""
    n = len(keys)
    column, row = keys[:, None], keys[None, :]
    ts1, up1 = rng.standard_normal(t), rng.standard_normal(n)
    ts3, up3 = rng.standard_normal((t, 3)), rng.standard_normal((n, 3))
    yield ("scatter_nd_update, b = 1",
           lambda p: scatter_nd_update(ts1, column, up1, p),
           tf_table(column, ts1.shape), ts1, up1)
    yield ("scatter_nd_update, b = 3",
           lambda p: scatter_nd_update(ts3, column, up3, p),
           tf_table(column, ts3.shape), ts3, up3)
    yield ("torch_scatter, dim 0",
           lambda p: torch_scatter(ts1[:, None], 0, column, up1[:, None], p),
           torch_table(column, 0), ts1[:, None], up1[:, None])
    yield ("torch_scatter, dim 1",
           lambda p: torch_scatter(ts1[None], 1, row, up1[None], p),
           torch_table(row, 1), ts1[None], up1[None])
    shape = (t // 3, 3)
    table = np.stack(np.unravel_index(keys, shape), axis=-1)
    yield ("scatter_x, table",
           lambda p: scatter_x(ts1.reshape(shape), up1, ProvisionTensor(table, shape), p),
           table, ts1.reshape(shape), up1)


def test_error_over_doubling_prefixes_matches_oracles(monkeypatch):
    # ERROR raises in the prefix that holds the first colliding write, at the
    # target one pass over every row names; the other policies, and ERROR
    # on injective maps, give the oracles' results and counters
    prefix = 8
    monkeypatch.setattr(engine, "_ERROR_PREFIX", prefix)
    rng = np.random.default_rng(29)
    for case, keys in error_prefix_cases(rng, prefix):
        for name, call, table, background, updates in keyed_calls(rng, keys, 6 * prefix):
            for policy in ALL_POLICIES:
                check_against_oracles(call, table, background, updates, policy,
                                      (case, name))


def test_error_at_the_kernels_own_prefix_matches_oracles():
    prefix = engine._ERROR_PREFIX
    rng = np.random.default_rng(30)
    for case, keys in error_prefix_cases(rng, prefix):
        name, call, table, background, updates = next(keyed_calls(rng, keys, 6 * prefix))
        check_against_oracles(call, table, background, updates, CollisionPolicy.ERROR,
                              (case, name))


def test_a_colliding_error_call_stops_in_its_first_prefix(monkeypatch):
    # rows 0 and 1 of 2^16 collide: ERROR resolves, checks and raises within
    # its first prefix, handing minimum.at no more keys, building no longer
    # positions and taking no longer flatnonzero than that prefix's rows
    prefix = engine._ERROR_PREFIX
    calls = []

    def spy(label, fn, size):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((label, size(args, out)))
            return out

        return call

    class Numpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name in ("maximum", "minimum"):
                return SimpleNamespace(at=spy("at", attr.at, lambda args, out: np.size(args[1])))
            if name in ("arange", "flatnonzero"):
                return spy(name, attr, lambda args, out: np.size(out))
            return attr

    monkeypatch.setattr(engine, "np", Numpy())
    n = 1 << 16
    keys = np.random.default_rng(31).permutation(2 * n)[:n]
    keys[1] = keys[0]
    for run, target in (
        (lambda: scatter_nd_update(np.zeros(2 * n), keys[:, None], np.ones(n), "error"),
         (keys[0],)),
        (lambda: torch_scatter(np.zeros((2 * n, 1)), 0, keys[:, None], np.ones((n, 1)),
                               "error"), (keys[0], 0)),
    ):
        calls.clear()
        with pytest.raises(CollisionError) as exc:
            run()
        assert exc.value.target == target
        assert [label for label, _ in calls if label == "at"] == ["at"], calls
        assert all(size <= prefix for _, size in calls), calls


def test_first_wins_is_reversed_last_wins():
    rng = np.random.default_rng(9)
    for _ in range(20):
        provision = random_provision(rng, collisions=True)
        updates, background = random_scattering(rng, provision)
        first, _ = scatter_x(background, updates, provision, "first")
        reversed_rows = np.flip(provision.table, tuple(range(provision.table.ndim - 1)))
        reversed_updates = updates.reshape(-1)[::-1].reshape(provision.source_shape)
        flipped = ProvisionTensor(reversed_rows, provision.target_shape)
        last, _ = scatter_x(background, reversed_updates, flipped, "last")
        assert np.array_equal(first, last)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_background_preserved_outside_image(data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    provision = random_provision(rng)
    updates, background = random_scattering(rng, provision)
    policy = data.draw(st.sampled_from(["first", "last", "sum", "prod"]))
    result, _ = scatter_x(background, updates, provision, policy)
    covered = provision_image(provision)
    for target in np.ndindex(*provision.target_shape):
        if target not in covered:
            assert result[target] == background[target]


def test_fast_path_equals_elementwise_on_goldens():
    for provision in (fx.embed_provision(), fx.diag_provision()):
        rng = np.random.default_rng(0)
        updates, background = random_scattering(rng, provision)
        for policy in ALL_POLICIES:
            fast, frep = scatter_x(background, updates, provision, policy)
            slow, srep = element_view(provision, updates, background, policy)
            assert np.array_equal(fast, slow)
            assert frep.fast_path_used and not srep.fast_path_used
            assert (frep.writes, frep.colliding_groups, frep.uncovered_targets) == (
                srep.writes, srep.colliding_groups, srep.uncovered_targets
            )


def test_fast_path_equals_elementwise_random_suffix_provisions():
    rng = np.random.default_rng(77)
    for case in range(40):
        provision = random_suffix_provision(rng, collisions=case % 2 == 0)
        updates, background = random_scattering(rng, provision)
        if case % 4 < 2:
            # signed zeros: only the 0.0 / 1.0 seed makes a lone -0.0 under
            # sum become 0.0, as sequential accumulation does
            updates.reshape(-1)[::3] = -0.0
        for policy in ALL_POLICIES:
            report = detect_collisions(provision)
            if policy is CollisionPolicy.ERROR and report.collision_count:
                with pytest.raises(CollisionError):
                    scatter_x(background, updates, provision, policy)
                with pytest.raises(CollisionError):
                    element_view(provision, updates, background, policy)
                continue
            fast, frep = scatter_x(background, updates, provision, policy)
            slow, srep = element_view(provision, updates, background, policy)
            assert bits(fast) == bits(slow)
            assert (frep.writes, frep.colliding_groups, frep.uncovered_targets) == (
                srep.writes, srep.colliding_groups, srep.uncovered_targets
            )
            if policy in (CollisionPolicy.SUM, CollisionPolicy.PROD):
                want = brute_force_scatter(
                    provision.table,
                    provision.target_shape,
                    updates,
                    background,
                    policy.value,
                )
                assert bits(fast) == bits(want)


def test_fast_path_error_collision_targets_match():
    table = np.array(
        [[[0, 0], [0, 1]], [[0, 0], [0, 1]]], dtype=np.int64
    )  # two lead rows hit prefix (0,)
    prov = ProvisionTensor(table, (1, 2))
    updates, background = np.zeros((2, 2)), np.zeros((1, 2))
    with pytest.raises(CollisionError) as fast_info:
        scatter_x(background, updates, prov, "error")
    with pytest.raises(CollisionError) as slow_info:
        element_view(prov, updates, background, "error")
    assert fast_info.value.target == slow_info.value.target == (0, 0)


def test_inputs_not_mutated():
    emb = fx.embed_provision()
    updates = fx.embed_updates()
    background = fx.embed_background()
    updates_before = updates.copy()
    background_before = background.copy()
    scatter_x(background, updates, emb, "sum")
    assert np.array_equal(updates, updates_before)
    assert np.array_equal(background, background_before)

    # scatter_nd_update hands float64 inputs to the kernel without copying
    ts = np.arange(8, dtype=np.float64).reshape(4, 2)
    indices = np.array([[2], [0], [2]], dtype=np.int64)
    tf_updates = -np.arange(6, dtype=np.float64).reshape(3, 2)
    before = [a.copy() for a in (ts, indices, tf_updates)]
    for policy in ALL_POLICIES:
        if policy is CollisionPolicy.ERROR:
            with pytest.raises(CollisionError):
                scatter_nd_update(ts, indices, tf_updates, policy)
        else:
            scatter_nd_update(ts, indices, tf_updates, policy)
        for arr, old in zip((ts, indices, tf_updates), before):
            assert bits(arr) == bits(old), policy

    # torch_scatter hands self_t and a view of src's corner to the kernel
    self_t = np.arange(6, dtype=np.float64).reshape(3, 2)
    index = np.array([[2, 0], [2, 1]], dtype=np.int64)
    src = -np.arange(6, dtype=np.float64).reshape(2, 3)
    before = [a.copy() for a in (self_t, index, src)]
    for policy in ALL_POLICIES:
        if policy is CollisionPolicy.ERROR:
            with pytest.raises(CollisionError):
                torch_scatter(self_t, 0, index, src, policy)
        else:
            torch_scatter(self_t, 0, index, src, policy)
        for arr, old in zip((self_t, index, src), before):
            assert bits(arr) == bits(old), policy


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_injective_scatter_neither_writes_nor_aliases_inputs(policy):
    # with no losing row the kernel moves the caller's updates themselves,
    # so the sum/prod identity fold must write a fresh array; -0.0 shows it:
    # the sum reads 0.0 while the input keeps -0.0
    rng = np.random.default_rng(17)
    ts = rng.standard_normal((6, 3))
    indices = rng.permutation(6)[:4, None]
    updates = rng.standard_normal((4, 3))
    updates[::2] = -0.0
    self_t = rng.standard_normal((6, 3))
    index = np.argsort(rng.random((6, 3)), axis=0)[:4]  # a permutation per column
    src = rng.standard_normal((5, 4))
    src[:4:2, :3] = -0.0
    provision = ProvisionTensor(tf_table(indices, ts.shape), ts.shape)
    spec = tf_transformer(indices, ts.shape)
    for call, inputs, read in (
        (lambda: scatter_nd_update(ts, indices, updates, policy), (ts, updates), updates),
        (lambda: scatter_x(ts, updates, spec, policy), (ts, updates), updates),
        (lambda: torch_scatter(self_t, 0, index, src, policy), (self_t, src), src[:4, :3]),
        (lambda: scatter_x(ts, updates, provision, policy), (ts, updates), updates),
    ):
        before = [bits(a) for a in inputs]
        result, _ = call()
        assert [bits(a) for a in inputs] == before, policy
        assert not any(np.shares_memory(result, a) for a in inputs), policy
        negative_zeros = np.count_nonzero((read == 0) & np.signbit(read))
        want = 0 if policy is CollisionPolicy.SUM else negative_zeros
        assert np.count_nonzero((result == 0) & np.signbit(result)) == want, policy


def test_injective_scatter_gathers_no_winner_copy():
    # when every row wins, the rows move straight from the caller's updates:
    # the peak is the result plus row-sized index work, not a second copy
    rng = np.random.default_rng(23)
    ts = rng.standard_normal((256, 256))
    indices = rng.permutation(256)[:128, None]
    updates = rng.standard_normal((128, 256))
    for policy in ("last", "first", "error"):
        scatter_nd_update(ts, indices, updates, policy)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result, _ = scatter_nd_update(ts, indices, updates, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.nbytes + updates.nbytes // 2, (policy, peak)


def crossover_cases(rng):
    """Maps whose losing rows sit just below, at and just above half of the
    rows, where the kernel switches from moving every row to moving only
    the winners: each entry point, with rows of one element (b = 1) and of
    three (b > 1), and -0.0 among the updates."""
    for n in (20, 21):
        for losers in range((n - 1) // 2, n // 2 + 2):
            for trail in ((), (3,)):
                cells = n + 3
                winners = rng.permutation(cells)[: n - losers]
                keys = np.concatenate([winners, rng.choice(winners, losers)])
                rng.shuffle(keys)
                ts = rng.standard_normal((cells,) + trail)
                updates = rng.standard_normal((n,) + trail)
                updates.reshape(-1)[::3] = -0.0
                indices = keys[:, None]
                table = tf_table(indices, ts.shape)
                provision = ProvisionTensor(table, ts.shape)
                index = np.broadcast_to(keys.reshape((n,) + (1,) * len(trail)),
                                        updates.shape)
                side = (trail != (), 2 * losers <= n)
                yield ("tf",) + side, table, ts, updates, (
                    lambda p: scatter_nd_update(ts, indices, updates, p))
                yield ("table",) + side, table, ts, updates, (
                    lambda p: scatter_x(ts, updates, provision, p))
                yield ("torch",) + side, torch_table(index, 0), ts, updates, (
                    lambda p: torch_scatter(ts, 0, index, updates, p))


def test_kernel_crossover_matches_oracles():
    # on both sides of 2 * losing rows <= rows, results, counters and the
    # reported collision target equal the row-major traversal's
    rng = np.random.default_rng(41)
    seen = set()
    for case, table, ts, updates, call in crossover_cases(rng):
        seen.add(case)
        for policy in ALL_POLICIES:
            check_against_oracles(call, table, ts, updates, policy, case)
    assert seen == {(entry, wide, most_win) for entry in ("tf", "table", "torch")
                    for wide in (False, True) for most_win in (False, True)}


def test_colliding_scatter_where_most_rows_win_gathers_no_winner_copy():
    # a random 256 x 1024 dim-0 index into 1024 rows: about 89% of the rows
    # win their key, so every row moves straight from src, or under sum and
    # prod through the move buffer, and only the colliding keys' winners are
    # gathered; the peak is the result plus the keys and small index work,
    # not three winner-sized arrays more, nor an identity-folded copy of src
    rng = np.random.default_rng(29)
    self_t = rng.standard_normal((1024, 1024))
    index = rng.integers(0, 1024, size=(256, 1024))
    src = rng.standard_normal((256, 1024))
    for policy in ("last", "first", "sum", "prod"):
        torch_scatter(self_t, 0, index, src, policy)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result, _ = torch_scatter(self_t, 0, index, src, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.nbytes + 2 * src.nbytes, (policy, peak)


def peak_bytes(call):
    """The tracemalloc peak of one call, after an untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distinct_fold_streams_rows_through_one_buffer():
    # 320 distinct rows of 1024 floats, ten move chunks: sum and prod fold
    # the rows from the identity one chunk at a time into a reused buffer,
    # not into a second copy of every row
    rng = np.random.default_rng(31)
    ts = rng.standard_normal((512, 1024))
    indices = rng.permutation(512)[:320, None]
    updates = rng.standard_normal((320, 1024))
    assert updates.size >= 8 * engine._MOVE_CHUNK
    for policy in ("sum", "prod"):
        peak = peak_bytes(lambda: scatter_nd_update(ts, indices, updates, policy))
        assert peak < ts.nbytes + updates.nbytes // 4, (policy, peak)


def test_scatter_nd_update_holds_no_copy_of_its_indices():
    # 2^14 index rows of 4 floats into 4096 rows, about 4x collisions: the
    # keys are a view of the caller's indices, so beside the 128 KB result
    # the call holds row-sized index work only, not two 128 KB copies of
    # the indices (0.66 MB while a ProvisionTensor and flat_offsets copied them)
    rng = np.random.default_rng(41)
    ts = rng.standard_normal((4096, 4))
    indices = rng.integers(0, 4096, size=(1 << 14, 1))
    updates = rng.standard_normal((1 << 14, 4))
    for policy in ("last", "first", "sum", "prod"):
        peak = peak_bytes(lambda: scatter_nd_update(ts, indices, updates, policy))
        assert peak < 0.5 * 2**20, (policy, peak)


def test_winners_gather_streams_rows_through_one_buffer():
    # 12288 rows of 64 floats into 4096 rows, about 3x collisions, so most
    # rows lose: the winners are gathered a move chunk at a time into a
    # reused buffer, not all at once
    rng = np.random.default_rng(37)
    ts = rng.standard_normal((4096, 64))
    indices = rng.integers(0, 4096, size=(12288, 1))
    updates = rng.standard_normal((12288, 64))
    winners = len(np.unique(indices))
    assert 2 * (len(indices) - winners) > len(indices)
    assert winners * 64 >= 4 * engine._MOVE_CHUNK
    for policy in ("last", "first", "sum", "prod"):
        peak = peak_bytes(lambda: scatter_nd_update(ts, indices, updates, policy))
        assert peak < ts.nbytes + updates.nbytes // 8, (policy, peak)


def move_buffer_cases(rng, chunk):
    """Scatters whose moved rows fill several move chunks of ``chunk``
    elements, on both sides of the kernel's split: when most rows win,
    every row moves; otherwise only the winners, and each colliding key's
    rows are adjacent, so the winners fall in the same order under every
    policy.  The first and last moved row of every chunk holds -0.0, which
    sum must place as 0.0, and so does every other row of its key: none
    when every row moves, 1-4 adjacent losing rows otherwise.  Rows are
    single elements (b = 1), contiguous rows of 3 and of more than a chunk,
    which move as void items, rows of 2 x 3 in a 4 x 5 target trail, and torch
    rows read through strides: rows of 2 x 3 that move through their
    region, and rows of 3 whose last axis alone is contiguous, which move
    as void items.  Each case comes with its keys, its block b and its
    number of chunks."""

    def draw(trail, most_win):
        block = shape_size(trail)
        step = max(1, chunk // block)
        moved = 3 * step + step // 2 + 1  # three full chunks and a partial one
        edges = {i for c in range(0, moved, step) for i in (c, min(c + step, moved) - 1)}
        if most_win:
            # every row moves: the edge rows take keys of their own, the
            # others collide at random, about a third of them losing
            keys = rng.integers(0, moved, size=moved)
            keys[sorted(edges)] = moved + np.arange(len(edges))
            zeros = sorted(edges)
        else:
            # the winners move: each heads a run of 2-5 adjacent rows of its
            # key, so most rows lose; an edge winner's run is all -0.0
            runs = rng.integers(2, 6, size=moved)
            keys = np.repeat(rng.permutation(moved), runs)
            zeros = np.flatnonzero(np.repeat(np.isin(np.arange(moved), list(edges)), runs))
        values = rng.uniform(0.5, 1.5, size=(len(keys),) + trail)
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        values[zeros] = -0.0
        losing = len(keys) - len(np.unique(keys))
        assert (2 * losing <= len(keys)) == most_win
        return keys, values, block, -(-moved // step)

    for most_win in (True, False):
        for trail in ((), (3,), (chunk + 1,)):
            keys, updates, block, chunks = draw(trail, most_win)
            ts = rng.standard_normal((int(keys.max()) + 2,) + trail)
            indices = keys[:, None]
            yield (("tf", block > 1, most_win), keys, block, chunks,
                   tf_table(indices, ts.shape), ts, updates,
                   lambda p: scatter_nd_update(ts, indices, updates, p))

        keys, updates, block, chunks = draw((2, 3), most_win)
        background = rng.standard_normal((int(keys.max()) + 1, 4, 5))
        grid = np.broadcast_arrays(keys[:, None, None], *np.indices((2, 3), sparse=True))
        table = np.stack(grid, axis=-1)
        provision = ProvisionTensor(table, background.shape)
        yield (("region", most_win), keys, block, chunks, table, background, updates,
               lambda p: scatter_x(background, updates, provision, p))

        for trail, wide, contiguous in (((2, 3), (3, 4), False), ((3,), (5,), True)):
            keys, corner, block, chunks = draw(trail, most_win)
            self_t = rng.standard_normal((int(keys.max()) + 1,) + trail)
            index = np.broadcast_to(keys.reshape((-1,) + (1,) * len(trail)), corner.shape)
            src = rng.standard_normal((len(keys) + 1,) + wide)
            view = src[(slice(0, len(keys)),) + tuple(slice(0, e) for e in trail)]
            view[...] = corner
            assert view[:1].flags.c_contiguous == contiguous
            assert not view.flags.c_contiguous
            yield (("torch", contiguous, most_win), keys, block, chunks,
                   torch_table(index, 0), self_t, corner,
                   lambda p: torch_scatter(self_t, 0, index, src, p))


def test_move_buffer_matches_oracles(monkeypatch):
    # the rows that need a float temporary, identity-folded under sum and
    # prod when most rows win and the gathered winners otherwise, move
    # through one buffer a chunk at a time; results, counters and the
    # reported collision target equal the row-major traversal's, bit for
    # bit.  A small chunk keeps the oracles' element walk short
    chunk = 1 << 6
    monkeypatch.setattr(engine, "_MOVE_CHUNK", chunk)
    rng = np.random.default_rng(53)
    seen = set()
    for case, keys, block, chunks, table, background, updates, call in (
            move_buffer_cases(rng, chunk)):
        for policy in ALL_POLICIES:
            check_against_oracles(call, table, background, updates, policy, case)
        # the winners, or every row, fill three chunks and part of a fourth
        _, first = np.unique(keys, return_index=True)
        most_win = 2 * (len(keys) - len(first)) <= len(keys)
        moved = len(keys) if most_win else len(first)
        step = max(1, engine._MOVE_CHUNK // block)
        assert -(-moved // step) == chunks == 4, case
        seen.add((case, block))
    blocks = {block for _, block in seen}
    assert blocks == {1, 3, 6, chunk + 1}, blocks
    assert len(seen) == 12, seen


def flat_fold_cases(rng):
    """Colliding scatters whose losing rows fill several of the fold's
    element chunks: rows of one element (most rows losing, and most
    winning), of three, and one row wider than a chunk; a table whose
    copied suffix is narrower than the target trail; and torch srcs one
    wider than their index along each copied axis, whose rows are either
    strided or contiguous along their last axis alone.  Values near 1 keep
    sums and products sensitive to their order; -0.0 fills half of key 0's
    rows and the one row of a key hit once.  Each case comes with its keys
    and its block b."""

    def draw(n, cells, trail):
        keys = rng.integers(0, cells - 1, size=n)
        keys[rng.integers(n)] = cells - 1
        values = rng.uniform(0.5, 1.5, size=(n,) + trail)
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        values[np.flatnonzero(keys == 0)[::2]] = -0.0
        values[keys == cells - 1] = -0.0
        return keys, values

    for n, cells, trail in ((9000, 5, ()), (9000, 6000, ()), (3000, 8, (3,)),
                            (5, 3, (4097,))):
        keys, updates = draw(n, cells, trail)
        ts = rng.standard_normal((cells,) + trail)
        indices = keys[:, None]
        yield (("tf", len(trail)), keys, shape_size(trail), tf_table(indices, ts.shape),
               ts, updates, lambda p: scatter_nd_update(ts, indices, updates, p))

    # rows of 2 x 3 into a 4 x 5 target trail: the fold's offsets skip the
    # target elements no row reaches
    keys, updates = draw(2000, 6, (2, 3))
    background = rng.standard_normal((6, 4, 5))
    grid = np.broadcast_arrays(keys[:, None, None], *np.indices((2, 3), sparse=True))
    table = np.stack(grid, axis=-1)
    provision = ProvisionTensor(table, background.shape)
    yield ("region",), keys, 6, table, background, updates, (
        lambda p: scatter_x(background, updates, provision, p))

    # rows of 2 x 3 read through strides move through their region; rows of
    # 3 whose last axis alone is contiguous still move as void items
    for trail, wide, contiguous in (((2, 3), (3, 4), False), ((3,), (5,), True)):
        keys, corner = draw(1500, 6, trail)
        self_t = rng.standard_normal((6,) + trail)
        index = np.broadcast_to(keys.reshape((-1,) + (1,) * len(trail)), corner.shape)
        src = rng.standard_normal((1501,) + wide)
        view = src[(slice(0, 1500),) + tuple(slice(0, e) for e in trail)]
        view[...] = corner
        assert view[:1].flags.c_contiguous == contiguous
        assert not view.flags.c_contiguous
        table = torch_table(index, 0)
        yield ("torch", contiguous), keys, shape_size(trail), table, self_t, corner, (
            lambda p: torch_scatter(self_t, 0, index, src, p))


def test_flat_fold_matches_oracles():
    # sum and prod fold the losing rows a fixed number of elements at a
    # time, on flat element offsets; across chunk boundaries each cell still
    # takes its contributions in row order, so results, counters and the
    # reported collision target equal the row-major traversal's, bit for bit
    rng = np.random.default_rng(43)
    seen = set()
    for case, keys, block, table, background, updates, call in flat_fold_cases(rng):
        for policy in ALL_POLICIES:
            check_against_oracles(call, table, background, updates, policy, case)
        # the losing rows under sum and prod: all but each key's first
        _, first = np.unique(keys, return_index=True)
        losing = np.setdiff1d(np.arange(len(keys)), first)
        chunk = np.arange(len(losing)) // max(1, engine._FOLD_CHUNK // block)
        # some key folds rows in two chunks: a boundary falls inside its group
        split = len(set(zip(keys[losing], chunk))) > len(set(keys[losing]))
        seen.add((case, chunk[-1] >= 1, split))
    assert {(spans, split) for _, spans, split in seen} == {(True, True)}, seen
    assert {case for case, _, _ in seen} == {
        ("tf", 0), ("tf", 1), ("region",), ("torch", False), ("torch", True)}


def test_strided_src_where_most_rows_win_matches_oracles(monkeypatch):
    # a torch src wider than its index, so its rows are read through
    # strides, with most rows winning: the colliding keys' winners are
    # re-placed over the one assignment, and sum and prod fold the losing
    # rows over several chunks, all from one contiguous copy of the rows
    monkeypatch.setattr(engine, "_FOLD_CHUNK", 64)
    rng = np.random.default_rng(53)
    keys = rng.integers(0, 400, size=300)
    losing = len(keys) - len(np.unique(keys))
    # most rows win, and the losing rows of 3 fill several fold chunks
    assert 2 * losing <= len(keys) and 3 * losing > 2 * engine._FOLD_CHUNK
    index = np.broadcast_to(keys[:, None], (300, 3))
    src = rng.uniform(0.5, 1.5, size=(300, 5)) * rng.choice([-1.0, 1.0], (300, 5))
    src[::7] = -0.0
    self_t = rng.standard_normal((400, 3))
    table = torch_table(index, 0)
    for policy in ALL_POLICIES:
        check_against_oracles(lambda p: torch_scatter(self_t, 0, index, src, p),
                              table, self_t, src[:, :3], policy)


def test_colliding_fold_gathers_a_chunk_not_every_losing_row():
    # 2^14 rows of 4 floats into 4096 rows, about 4x collisions, so most
    # rows lose: sum and prod gather the losing rows and their offsets one
    # chunk at a time, not all of them at once
    rng = np.random.default_rng(47)
    ts = rng.standard_normal((4096, 4))
    indices = rng.integers(0, 4096, size=(1 << 14, 1))
    updates = rng.standard_normal((1 << 14, 4))
    for policy in ("sum", "prod"):
        scatter_nd_update(ts, indices, updates, policy)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            scatter_nd_update(ts, indices, updates, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * updates.nbytes // 2, (policy, peak)


def nan_background(rng, shape):
    """A random background with -0.0 and NaNs of distinct payloads and both
    signs, which only a bit-for-bit copy keeps."""
    background = rng.standard_normal(shape)
    flat = background.reshape(-1)
    flat[::5] = -0.0
    nans = flat[1::7]
    payloads = np.arange(1, len(nans) + 1, dtype=np.uint64)
    payloads[::2] |= np.uint64(1 << 63)
    nans[...] = (np.uint64(0x7FF8_0000_0000_0000) | payloads).view(np.float64)
    return background


def wide_row_cases(rng):
    """Scatters whose rows are about the narrowest that copy only the
    background rows no key reaches: rows of 63, 64 and 65 elements that
    fill the target trail, with no row losing, most rows winning and most
    losing, and with 4, 6 or all 12 keys reached; torch rows of 4 x 16
    that fill it but are read through strides, so with no losing row they
    move through their region, not as void items; and rows of 64 and 65
    narrower than the target trail, which keep the background outside
    their region.  Each background holds -0.0 and NaN payloads.  A case
    names its entry point, its block b, whether its rows fill the target
    trail, whether most rows win and how many keys it reaches."""

    def draw(cells, reached, losers):
        winners = rng.permutation(cells)[:reached]
        keys = np.concatenate([winners, rng.choice(winners, losers)])
        rng.shuffle(keys)
        return keys

    for block in (63, 64, 65):
        for reached, losers in ((6, 0), (6, 2), (4, 6), (12, 3)):
            keys = draw(12, reached, losers)
            ts = nan_background(rng, (12, block))
            updates = rng.standard_normal((len(keys), block))
            updates[::3] = -0.0
            indices = keys[:, None]
            table = tf_table(indices, ts.shape)
            provision = ProvisionTensor(table, ts.shape)
            index = np.broadcast_to(indices, updates.shape)
            side = (block, True, 2 * losers <= len(keys), reached)
            yield ("tf",) + side, table, ts, updates, updates, (
                lambda p: scatter_nd_update(ts, indices, updates, p))
            yield ("table",) + side, table, ts, updates, updates, (
                lambda p: scatter_x(ts, updates, provision, p))
            yield ("torch",) + side, torch_table(index, 0), ts, updates, updates, (
                lambda p: torch_scatter(ts, 0, index, updates, p))

    # torch rows of 4 x 16 read through strides from a wider src fill the
    # target trail; rows of 64, of 2 x 32 (b = 64) and of 65 do not
    for trail, target_trail, wide in (((4, 16), (4, 16), (5, 20)),
                                      ((64,), (70,), (64,)),
                                      ((2, 32), (4, 32), (2, 32)),
                                      ((65,), (66,), (67,))):
        for reached, losers in ((6, 0), (6, 2), (4, 6)):
            keys = draw(10, reached, losers)
            self_t = nan_background(rng, (10,) + target_trail)
            index = np.broadcast_to(keys.reshape((-1,) + (1,) * len(trail)),
                                    (len(keys),) + trail)
            src = rng.standard_normal((len(keys) + 1,) + wide)
            src.reshape(-1)[::3] = -0.0
            corner = src[(slice(0, len(keys)),) + tuple(slice(0, e) for e in trail)]
            fill = trail == target_trail
            assert not fill or not corner[:1].flags.c_contiguous
            side = (shape_size(trail), fill, 2 * losers <= len(keys), reached)
            yield ("torch",) + side, torch_table(index, 0), self_t, corner, src, (
                lambda p: torch_scatter(self_t, 0, index, src, p))


def test_wide_rows_copy_only_unreached_background_matches_oracles(monkeypatch):
    # rows of at least 64 elements that fill the target trail, whose reached
    # rows hold enough elements, start from an uninitialised result and copy
    # in only the background rows no key reaches; every move writes the
    # whole row of each reached key, so results, counters and the reported
    # collision target equal the row-major traversal's bit for bit, -0.0 and
    # NaN payloads included.  Other scatters copy the whole background, and
    # the caller's arrays are neither written nor aliased.  Five reached
    # rows of 64 stand for the 512 KB of reached rows, so the oracles' walk
    # stays short and 4 reached keys fall below it
    reached_min = 5 * 64
    monkeypatch.setattr(engine, "_MASKED_COPY_REACHED", reached_min)
    masked = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def copyto(self, dst, src, **kwargs):
            masked.append("where" in kwargs)
            return np.copyto(dst, src, **kwargs)

    monkeypatch.setattr(engine, "np", Numpy())
    rng = np.random.default_rng(61)
    seen = set()
    for case, table, background, updates, arg, call in wide_row_cases(rng):
        seen.add(case)
        _, block, fill, _, reached = case
        copies = fill and block >= 64 and reached * block >= reached_min
        for policy in ALL_POLICIES:
            before = [bits(a) for a in (background, arg)]
            masked.clear()
            result = check_against_oracles(call, table, background, updates, policy, case)
            if result is None:  # the call raised CollisionError
                assert masked == [], (case, policy)
                continue
            assert masked == ([True] if copies else []), (case, policy)
            assert [bits(a) for a in (background, arg)] == before, (case, policy)
            assert not np.shares_memory(result, background), (case, policy)
            assert not np.shares_memory(result, arg), (case, policy)
    assert {case[1:4] for case in seen} == {
        (block, fill, most_win) for block, fill in
        ((63, True), (64, True), (65, True), (64, False), (65, False))
        for most_win in (True, False)}
    assert {case[4] for case in seen} == {4, 6, 12}


def test_wide_rows_peak_below_result_and_move_buffer():
    # 512 of 1024 rows of 1024 floats, the tf_wide benchmark's shape: the
    # unreached background rows are picked by a mask of one bool per target
    # row, not gathered, so under every policy the call holds the result,
    # at most the move buffer and row-sized index work
    rng = np.random.default_rng(67)
    ts = rng.standard_normal((1024, 1024))
    indices = rng.permutation(1024)[:512, None]
    updates = rng.standard_normal((512, 1024))
    bound = ts.nbytes + 8 * engine._MOVE_CHUNK + (64 << 10)
    for policy in ALL_POLICIES:
        peak = peak_bytes(lambda: scatter_nd_update(ts, indices, updates, policy))
        assert peak < bound, (policy, peak)


def outcome(call, text=False):
    """Result bits and report counters, or the error a scatter raised
    (with the message of a ValidationError when ``text`` is set)."""
    try:
        result, report = call()
    except CollisionError as exc:
        return ("collision", exc.target)
    except ValidationError as exc:
        return ("out of bounds",) + ((str(exc),) if text else ())
    counters = (
        report.writes,
        report.colliding_groups,
        report.uncovered_targets,
        report.fast_path_used,
    )
    return ("ok", bits(result), counters)


def tabulated(target, updates, spec, policy):
    """The reference for scatter_x: compose the whole map, then scatter."""
    return scatter_x(target, updates, compose_provision(spec), policy)


def declares_suffix(spec):
    """Whether the spec's last output is a passed copy of its last source
    dim, no wider than its target axis and read by no other output or by
    the inner pick: a copied suffix its shapes alone prove."""
    k, m = len(spec.source_shape), spec.inner.target_rank
    if not k or not spec.out_pick or spec.out_pick[-1] < m:
        return False
    readers = [spec.pass_pick[w - m] for w in spec.out_pick[:-1] if w >= m]
    return (
        spec.pass_pick[spec.out_pick[-1] - m] == k - 1
        and spec.source_shape[-1] <= spec.target_shape[-1]
        and k - 1 not in spec.inner_pick + tuple(readers)
    )


def test_scatter_x_matches_tabulated_scatter():
    rng = np.random.default_rng(606)
    kinds = set()
    declared = 0
    for case in range(400):
        spec = random_suffix_spec(rng)
        declared += declares_suffix(spec)
        updates = rng.standard_normal(spec.source_shape)
        target = rng.standard_normal(spec.target_shape)
        for policy in ALL_POLICIES:
            got = outcome(lambda: scatter_x(target, updates, spec, policy))
            want = outcome(lambda: tabulated(target, updates, spec, policy))
            if got != want:
                # the one documented difference: an out-of-bounds lead entry
                # whose copied slices are empty, which the table never holds
                assert got == ("out of bounds",) and want[0] == "ok", (case, policy)
                assert 0 in spec.source_shape, (case, policy)
            kinds.add(got[0])
    assert kinds == {"ok", "collision", "out of bounds"}
    assert declared > 200


def test_scatter_of_a_table_is_scatter_x_of_its_trivial_spec():
    # scatter_x of the table and scatter_x of its trivial spec agree: same
    # result bits, counters, collision targets and bounds-error texts
    # under every policy, over tables with collisions, out-of-bounds entries,
    # and empty and extent-1 source dims
    rng = np.random.default_rng(1818)
    seen = set()
    for case in range(600):
        if case % 3 == 0:
            provision = random_suffix_provision(rng, collisions=case % 2 == 0)
        else:
            provision = random_provision(rng, collisions=case % 3 == 1,
                                         min_source_extent=0)
        if case % 4 == 3 and provision.table.size:
            # one entry at -1 or at its target extent
            table = provision.table.copy()
            p = int(rng.integers(table.size))
            extent = provision.target_shape[p % provision.target_rank]
            table.reshape(-1)[p] = -1 if case % 8 == 3 else extent
            provision = ProvisionTensor(table, provision.target_shape)
        updates = rng.standard_normal(provision.source_shape)
        background = rng.standard_normal(provision.target_shape)
        for policy in ALL_POLICIES:
            got = outcome(lambda: scatter_x(
                background, updates, provision, policy), text=True)
            want = outcome(lambda: scatter_x(
                background, updates, trivial_spec(provision), policy), text=True)
            assert got == want, (case, policy)
            seen.add(got[0])
        source = provision.source_shape
        seen.add("empty" if 0 in source else "extent 1" if 1 in source else "other")
    assert seen == {"ok", "collision", "out of bounds", "empty", "extent 1", "other"}


def test_a_table_is_read_without_its_trivial_spec():
    # a table reads as its own columns: the package cannot build its trivial spec
    for module in (scatterkit, analysis, core, engine, transform):
        assert not hasattr(module, "trivial_spec"), module.__name__
    emb = fx.embed_provision()
    updates, background = fx.embed_updates(), fx.embed_background()
    result, report = scatter_x(background, updates, emb)
    assert bits(result) == bits(fx.embed_expected())
    assert (report.writes, report.uncovered_targets) == (8, 8)
    assert detect_collisions(emb).collision_count == 0
    report = analysis.slicing_impossibility(emb)
    assert report.max_suffix == 1
    assert report.pass_through == {(1, 3)}
    assert report.canonical.pass_pick == (1,)
    assert report.verdict == analysis.SLICEABLE


def data_entry_points(provision):
    """Every scatter entry point as ``call(updates, background)`` on the map
    of ``provision``, a table of one row per source and a single axis."""
    indices = provision.table
    return {
        "scatter_x of a table": lambda u, b: scatter_x(b, u, provision),
        "scatter_x of a spec": lambda u, b: scatter_x(b, u, trivial_spec(provision)),
        "scatter_nd_update": lambda u, b: scatter_nd_update(b, indices, u),
        "torch_scatter": lambda u, b: torch_scatter(b, 0, indices[:, 0], u),
    }


def test_integer_data_is_refused_where_float64_could_round_it():
    # (0,) -> (0,) in a target of 2 cells: updates[0] lands on cell 0, and
    # background[1] is kept
    calls = data_entry_points(ProvisionTensor([[0]], (2,)))
    bad = [  # an int64 past 2**53, the uint64 maximum, and a listed 2**70
        (np.array([2**53 + 1]), 2**53 + 1),
        (np.array([2**64 - 1], dtype=np.uint64), 2**64 - 1),
        ([2**70], 2**70),
    ]
    for value, shown in bad:
        text = f"data entry {shown} at (0,) is an integer outside [-2**53, 2**53]"
        with pytest.raises(ArgumentError, match=re.escape(text)):
            core.as_data_tensor(value)
        for entry_point, call in calls.items():
            with pytest.raises(ArgumentError, match=re.escape(text)):
                call(value, np.zeros(2))
            background = np.concatenate([np.zeros(1, dtype=np.asarray(value).dtype),
                                         np.asarray(value)])
            with pytest.raises(ArgumentError, match=re.escape(text.replace("(0,)", "(1,)"))):
                call(np.zeros(1), background)
    # 2**53 and its negative are the widest integers that pass, bit for bit
    edge = np.array([2**53, -(2**53)])
    assert bits(core.as_data_tensor(edge)) == bits(np.array([2.0**53, -(2.0**53)]))
    for entry_point, call in calls.items():
        result, _ = call(edge[:1], edge[::-1])
        assert bits(result) == bits(np.array([2.0**53, 2.0**53])), entry_point
    # floats and bools pass unchanged, and a C-ordered float64 array as it is
    floats = np.array([0.5, 2.0**70, -np.inf])
    assert core.as_data_tensor(floats) is floats
    assert bits(core.as_data_tensor([True, False])) == bits(np.array([1.0, 0.0]))


def test_a_listed_int_beside_a_float_is_refused_where_float64_rounds_it():
    # numpy makes float64 of a list that mixes floats and ints, rounding an
    # int past 2**53; (0,) -> (1,) and (1,) -> (2,) in a target of 3 cells
    calls = data_entry_points(ProvisionTensor([[1], [2]], (3,)))
    text = "data entry {} at (1,) is an integer outside [-2**53, 2**53]"
    for entry_point, call in calls.items():
        with pytest.raises(ArgumentError, match=re.escape(text.format(2**53 + 1))):
            call([1.5, 2**53 + 1], np.zeros(3))
        with pytest.raises(ArgumentError, match=re.escape(text.format(-(2**53) - 1))):
            call(np.zeros(2), [0.5, -(2**53) - 1, 2.0])
        # 2**53 itself, and a listed float past it, load exactly
        result, _ = call([1.5, 2**53], [2.0**70, 0.5, 7])
        assert bits(result) == bits(np.array([2.0**70, 1.5, 2.0**53])), entry_point


def test_data_that_is_no_real_numbers_is_refused():
    # numpy casts strings, bytes, complex numbers and dates to floats, the
    # imaginary part dropped with a warning, and None to NaN; each is
    # refused, naming its dtype or its entry.  Bools cast exactly and still pass
    calls = data_entry_points(ProvisionTensor([[0], [2]], (3,)))
    dates = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
    refused = [
        (["1e3", b"5"], "data dtype <U3 is not bool, integer or float"),
        ([b"1", b"5"], "data dtype |S1 is not bool, integer or float"),
        (np.array([1.0, 2j]), "data dtype complex128 is not bool, integer or float"),
        (dates, "data dtype datetime64[D] is not bool, integer or float"),
        (np.array([1.0, "7"], dtype=object), "data entry '7' at (1,) is not a real number"),
        (np.array([b"7", 1.0], dtype=object), "data entry b'7' at (0,) is not a real number"),
        ([2**70, 2j], "data entry 2j at (1,) is not a real number"),
        # numpy 2 and numpy 1 show a numpy scalar differently
        (np.array([1, np.complex64(1)], dtype=object), "at (1,) is not a real number"),
        ([None, 1.0], "data entry None at (0,) is not a real number"),
        (np.array([1.0, np.datetime64("2020-01-01")], dtype=object),
         "at (1,) is not a real number"),
        (np.array([np.timedelta64(5, "D"), 1.0], dtype=object),
         "at (0,) is not a real number"),
        # the shift below would also move the year in the entry's text
        ([1.0, datetime.date(2020, 1, 1)], "at (1,) is not a real number"),
    ]
    for values, text in refused:
        for entry_point, call in calls.items():
            with pytest.raises(ArgumentError, match=re.escape(text)):
                call(values, np.zeros(3))
            # the background holds the same entries one cell later
            background = np.concatenate([np.zeros(1, dtype=np.asarray(values).dtype),
                                         np.asarray(values)])
            with pytest.raises(ArgumentError, match=re.escape(
                    re.sub(r"\((\d)", lambda m: f"({int(m[1]) + 1}", text))):
                call(np.zeros(2), background)
    for entry_point, call in calls.items():
        result, _ = call([True, False], [False, True, True])
        assert bits(result) == bits(np.array([1.0, 1.0, 0.0])), entry_point


def test_lowering_finds_the_tabulated_maps_suffix():
    # over factored specs, torch maps and tables, the suffix the one
    # lowering finds from shapes and compact coordinates is the largest
    # copied suffix of the tabulated map, empty sources included
    rng = np.random.default_rng(607)
    seen = set()
    for case in range(1200):
        kind = case % 3
        if kind == 0:
            spec = random_suffix_spec(rng)
            provision = compose_provision(spec)
            coords = _coordinates(spec)
            seen.add(("declared", declares_suffix(spec)))
        elif kind == 1:
            self_t, dim, index, _ = random_torch_case(rng, case // 3)
            provision = ProvisionTensor(torch_table(index, dim), self_t.shape)
            coords = list(np.indices(index.shape, dtype=np.int64, sparse=True))
            coords[dim] = index
        else:
            provision = (random_suffix_provision(rng) if case % 2
                         else random_provision(rng, min_source_extent=0))
            coords = [provision.table[..., j] for j in range(provision.target_rank)]
        source_shape = provision.source_shape
        try:
            _, lead_shape = _lower(coords, source_shape, provision.target_shape)
        except ValidationError:
            # the lowering checks the entries of the leading map, which an
            # empty source may still have
            assert validate_provision(provision)[0] or provision.table.size == 0
            continue
        suffix = provision.target_rank - len(lead_shape)
        assert suffix == analysis.slicing_impossibility(provision).max_suffix, case
        edge = ("empty" if 0 in source_shape
                else "extent 1" if 1 in source_shape else "other")
        seen.add((kind, edge, suffix > 0))
    # every kind of map finds a suffix over empty sources and over sources
    # with a dim of extent 1, and goes without one over some other source
    for kind in range(3):
        assert {(kind, "empty", True), (kind, "extent 1", True),
                (kind, "other", False)} <= seen, kind
    assert {("declared", True), ("declared", False)} <= seen


def tf_cases(rng):
    for case in range(300):
        ts, indices, updates = random_tf_instance(rng, collision_free=case % 2 == 0)
        if case % 5 == 4 and indices.size:
            # push one coordinate just past its axis, or below zero
            indices = indices.copy()
            p = int(rng.integers(indices.size))
            extent = ts.shape[p % indices.shape[-1]]
            indices.reshape(-1)[p] = -1 if case % 3 == 0 else extent
        yield ts, indices, updates
    # arange(n)[:, None] is itself a copied suffix, so the largest suffix is
    # one axis longer than the declared rank - q (q == rank in the first)
    arange = np.arange(5)[:, None]
    yield rng.standard_normal(7), arange, rng.standard_normal(5)
    yield rng.standard_normal((5, 3)), arange, rng.standard_normal((5, 3))
    # q == 0: every index row addresses the whole tensor
    no_axes = np.zeros((4, 0), dtype=np.int64)
    yield rng.standard_normal((2, 3)), no_axes, rng.standard_normal((4, 2, 3))
    yield rng.standard_normal(3), no_axes[:0], np.zeros((0, 3))


def test_scatter_nd_update_matches_compose_then_scatter():
    rng = np.random.default_rng(2024)
    kinds = set()
    for case, (ts, indices, updates) in enumerate(tf_cases(rng)):
        spec = tf_transformer(indices, ts.shape)
        for policy in ALL_POLICIES:
            direct = outcome(lambda: scatter_nd_update(ts, indices, updates, policy))
            composed = outcome(lambda: tabulated(ts, updates, spec, policy))
            assert direct == composed, (case, policy)
            kinds.add(direct[0])
    assert kinds == {"ok", "collision", "out of bounds"}


def torch_shaped_spec(index, rows):
    """torch_scatter's dim-0 map of ``index`` into ``rows`` rows written as
    a factored spec: (i, j) -> (index[i, j], j)."""
    return XTransformerSpec(
        inner=ProvisionTensor(index[..., None], (rows,)),
        inner_pick=(0, 1),
        pass_pick=(1,),
        out_pick=(0, 1),
        source_shape=index.shape,
        target_shape=(rows, index.shape[1]),
    )


def test_scatter_nd_update_tabulates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scatter tabulated its whole map or copied its inputs")

    monkeypatch.setattr(engine, "Scattering", refuse)
    monkeypatch.setattr(transform, "compose_provision", refuse)
    rng = np.random.default_rng(8)
    ts = rng.standard_normal((64, 256))
    indices = rng.permutation(64)[:32, None]
    before = indices.copy()
    updates = rng.standard_normal((32, 256))
    with monkeypatch.context() as m:
        # scatter_nd_update lowers the caller's indices itself: no spec, no
        # copy of them in a ProvisionTensor
        for owner, name in (
            (engine, "scatter_x"),
            (engine, "_coordinates"),
            (transform, "tf_transformer"),
            (ProvisionTensor, "__post_init__"),
            (XTransformerSpec, "__post_init__"),
        ):
            m.setattr(owner, name, refuse)
        result, report = scatter_nd_update(ts, indices, updates, "last")
    expected = ts.copy()
    expected[indices[:, 0]] = updates
    assert bits(result) == bits(expected)
    assert report.fast_path_used
    assert bits(indices) == bits(before) and indices.flags.writeable

    # (i, j) -> (i, i, j): the diag map widened, with its last axis declared
    # copied, so only the (64, 2) inner table is read
    diag = np.repeat(np.arange(64)[:, None], 2, axis=1)
    spec = XTransformerSpec(
        inner=ProvisionTensor(diag, (64, 64)),
        inner_pick=(0,),
        pass_pick=(1,),
        out_pick=(0, 1, 2),
        source_shape=(64, 256),
        target_shape=(64, 64, 256),
    )
    updates = rng.standard_normal((64, 256))
    result, report = scatter_x(np.zeros((64, 64, 256)), updates, spec, "sum")
    expected = np.zeros((64, 64, 256))
    expected[np.arange(64), np.arange(64)] = updates
    assert bits(result) == bits(expected)
    assert report.fast_path_used

    # a lead map that is not the inner table itself: torch's dim-0 map,
    # whose inner output is the inner table read in place
    index = rng.integers(0, 16, size=(8, 32))
    src = rng.standard_normal((8, 32))
    self_t = rng.standard_normal((16, 32))
    for policy in ALL_POLICIES:
        got = outcome(lambda: scatter_x(self_t, src, torch_shaped_spec(index, 16), policy))
        assert got == outcome(lambda: torch_scatter(self_t, 0, index, src, policy))


def test_factored_scatter_peaks_as_torch_scatter_does():
    # scatter_x on torch's dim-0 map written as a spec keys the kernel from
    # the inner table read in place, so it holds no more than torch_scatter
    # on the same data
    rng = np.random.default_rng(44)
    index = rng.integers(0, 1024, size=(256, 1024))
    src = rng.standard_normal((256, 1024))
    self_t = rng.standard_normal((1024, 1024))
    spec = torch_shaped_spec(index, 1024)
    factored = peak_bytes(lambda: scatter_x(self_t, src, spec, "last"))
    direct = peak_bytes(lambda: torch_scatter(self_t, 0, index, src, "last"))
    assert factored <= 1.05 * direct, (factored, direct)


def tabulated_torch(self_t, dim, index, src, policy):
    """The reference for torch_scatter: tabulate its map, then scatter."""
    provision = ProvisionTensor(torch_table(index, dim), self_t.shape)
    corner = tuple(slice(0, e) for e in np.shape(index))
    return scatter_x(self_t, src[corner], provision, policy)


# functions that tabulate a map; a path that must build no table has them
# refused in every module that binds them
TABULATORS = ("_tabulate", "compose_provision")
PACKAGE_MODULES = (core, transform, analysis, engine)


def test_refused_names_are_bound():
    # a refusal patched under hasattr checks nothing once its name is gone
    for name in TABULATORS:
        assert any(hasattr(module, name) for module in PACKAGE_MODULES), name


def test_torch_scatter_builds_no_scattering(monkeypatch):
    # torch_scatter copies no input into a Scattering and tabulates no map
    rng = np.random.default_rng(9)
    self_t = rng.standard_normal((6, 5, 4))
    cases = [
        # no copied suffix
        (0, rng.integers(0, 6, size=(4, 3, 4))),
        # constant along the two axes after dim: a copied suffix of 2
        (0, np.broadcast_to(rng.integers(0, 6, size=(4, 1, 1)), (4, 3, 4))),
        # the identity along dim: every axis is copied
        (1, np.broadcast_to(np.arange(5)[:, None], (6, 5, 4))),
    ]
    src = rng.standard_normal((7, 6, 5))
    expected = [
        [outcome(lambda: tabulated_torch(self_t, dim, index, src, policy))
         for policy in ALL_POLICIES]
        for dim, index in cases
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("torch_scatter copied its inputs or tabulated its map")

    monkeypatch.setattr(engine, "Scattering", refuse)
    for module in PACKAGE_MODULES:
        for name in TABULATORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for (dim, index), want in zip(cases, expected):
        got = [outcome(lambda: torch_scatter(self_t, dim, index, src, policy))
               for policy in ALL_POLICIES]
        assert got == want, dim
    assert expected[0][0][0] == "collision"  # ALL_POLICIES starts with ERROR
    fast = [want[1][2][3] for want in expected]  # fast_path_used under FIRST
    assert fast == [False, True, True]


def test_torch_scatter_matches_tabulated_scatter():
    rng = np.random.default_rng(4242)
    seen = {"kind": set(), "dim": set(), "fast": set(), "empty": 0}
    for case in range(1200):
        self_t, dim, index, src = random_torch_case(rng, case)
        for policy in ALL_POLICIES:
            got = outcome(
                lambda: torch_scatter(self_t, dim, index, src, policy), text=True
            )
            want = outcome(
                lambda: tabulated_torch(self_t, dim, index, src, policy), text=True
            )
            assert got == want, (case, policy)
            seen["kind"].add((case % 5, got[0]))
            if got[0] == "ok":
                seen["fast"].add((case % 5, got[2][3]))
        seen["dim"].add((self_t.ndim, dim))
        seen["empty"] += index.size == 0
    assert {kind for _, kind in seen["kind"]} == {"ok", "collision", "out of bounds"}
    # an entry at -1 and one at the target extent along dim are both refused
    assert {(3, "out of bounds"), (4, "out of bounds")} <= seen["kind"]
    assert len(seen["dim"]) == 6  # every dim of every rank
    # a suffix from trailing constant axes and from the identity along dim
    assert {(1, True), (2, True), (0, False)} <= seen["fast"]
    assert seen["empty"] >= 50


def test_scatter_nd_update_out_of_bounds_names_indices_row():
    with pytest.raises(ValidationError) as info:
        scatter_nd_update(np.zeros((4, 3)), [[1], [5]], np.zeros((2, 3)))
    assert str(info.value) == (
        "1 provision entries out of bounds; first at source index (1,), "
        "target axis 0"
    )
    # the index is checked even where the slices it addresses are empty
    with pytest.raises(ValidationError):
        scatter_nd_update(np.zeros((3, 0)), [[5]], np.zeros((1, 0)))


def test_scatter_x_out_of_bounds_names_lead_entry():
    def diag(width):
        # (i, j) -> (d(i), d(i), j) with d(1) = 5 outside the target
        return XTransformerSpec(
            inner=ProvisionTensor([[0, 0], [5, 5]], (2, 2)),
            inner_pick=(0,),
            pass_pick=(1,),
            out_pick=(0, 1, 2),
            source_shape=(2, width),
            target_shape=(2, 2, width),
        )

    with pytest.raises(ValidationError) as info:
        scatter_x(np.zeros((2, 2, 3)), np.zeros((2, 3)), diag(3))
    assert str(info.value) == (
        "2 provision entries out of bounds; first at source index (1,), "
        "target axis 0"
    )
    with pytest.raises(ValidationError):
        scatter_x(np.zeros((2, 2, 0)), np.zeros((2, 0)), diag(0))


def test_scatter_x_counts_an_entry_for_each_source_index_reading_it():
    # (i, j) -> (j, d(i)) with d(1) = 5 outside its axis: no suffix is
    # declared, and the inner output, read along i alone, is a bad entry at
    # each of the three source indices (1, j), as in the composed table
    spec = XTransformerSpec(
        inner=ProvisionTensor([[0], [5]], (2,)),
        inner_pick=(0,),
        pass_pick=(1,),
        out_pick=(1, 0),
        source_shape=(2, 3),
        target_shape=(3, 2),
    )
    with pytest.raises(ValidationError) as info:
        scatter_x(np.zeros((3, 2)), np.zeros((2, 3)), spec)
    assert str(info.value) == (
        "3 provision entries out of bounds; first at source index (1, 0), "
        "target axis 1"
    )
    assert validate_provision(compose_provision(spec)) == (3, ((1, 0), 1))


def test_inner_pick_outside_inner_table_raises_where_entries_are_read():
    # the inner table has 2 rows and its pick reads a source dim of 3
    def spec(width, out_pick):
        target = {(0, 1): (4, width), (1, 0): (width, 4)}[out_pick]
        return XTransformerSpec(ProvisionTensor([[0], [1]], (4,)), (0,), (1,),
                                out_pick, (3, width), target)

    # the spec refuses itself where it is built, before any entry is read,
    # so empty sources raise as the others do
    text = "inner pick selects indices outside the inner source shape (2,)"
    for width, out_pick in ((2, (0, 1)), (2, (1, 0)), (0, (0, 1)), (0, (1, 0))):
        with pytest.raises(IndexError, match=re.escape(text)):
            spec(width, out_pick)
