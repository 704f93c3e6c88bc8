import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterkit.analysis
import scatterkit.transform
from scatterkit import cli
from scatterkit import (
    SLICEABLE,
    ArgumentError,
    TRIVIAL_ONLY,
    WEAKLY_SLICEABLE_ONLY,
    CollisionReport,
    ProvisionTensor,
    ValidationError,
    XTransformerSpec,
    compose_provision,
    detect_collisions,
    scatter_x,
    slicing_impossibility,
    validate_provision,
)
from scatterkit.core import shape_size
from scatterkit import fixtures as fx
from scatterkit.serialize import dump_document

from generators import (
    random_provision,
    random_spec,
    random_suffix_provision,
    random_suffix_spec,
    random_torch_case,
)
from oracles import (
    identity_provision,
    literal_traversal,
    provision_image,
    torch_table,
    transform,
)


def test_detect_collisions_injective():
    report = detect_collisions(fx.embed_provision())
    assert report.groups == ()
    assert report.uncovered_count == 8


def test_detect_collisions_torch_dup():
    prov = ProvisionTensor(torch_table([[0], [0]], 0), (2, 1))
    report = detect_collisions(prov)
    assert len(report.groups) == 1
    target, sources = report.groups[0]
    assert target == (0, 0)
    assert sources == ((0, 0), (1, 0))


def test_detect_collisions_full_image():
    report = detect_collisions(identity_provision((3, 2)))
    assert report.groups == ()
    assert report.uncovered_count == 0


def test_detect_collisions_refuses_offset_wrap():
    # 2**61 * 8 wraps to 0 in int64, so int64 offsets would alias the two rows
    prov = ProvisionTensor([[0, 0], [2**61, 0]], (2**62, 8))
    with pytest.raises(ArgumentError):
        detect_collisions(prov)


def test_detect_collisions_empty_source_of_a_huge_target():
    # no offsets to unravel, so a target larger than intp raises nothing
    report = detect_collisions(ProvisionTensor(np.zeros((0, 2), np.int64), (2**62, 8)))
    assert report.groups == () and report.collision_count == 0
    assert report.uncovered_count == 2**65
    assert report.targets.shape == (0, 2) and report.sources.shape == (0, 1)


def test_detect_collisions_rejects_out_of_bounds_table():
    # (0, 5) would share flat offset 5 with (1, 0) in a (2, 5) target
    with pytest.raises(ValidationError):
        detect_collisions(ProvisionTensor([[0, 5], [1, 0]], (2, 5)))
    # two distinct hits in a one-cell target would leave -1 cells uncovered
    with pytest.raises(ValidationError):
        detect_collisions(ProvisionTensor([[5], [6]], (1,)))


@pytest.mark.parametrize("table, target", [
    ([[0], [5]], (3,)),
    ([[0, 5], [1, 0]], (2, 5)),
    ([[[0, 0], [0, -1]]], (1, 2)),
])
def test_both_analyses_refuse_an_escaping_table_alike(table, target):
    # an answer for a table whose entries leave the target would describe
    # another map; slicing_impossibility refuses it with detect_collisions' text
    prov = ProvisionTensor(table, target)
    with pytest.raises(ValidationError) as collisions:
        detect_collisions(prov)
    with pytest.raises(ValidationError) as sliceability:
        slicing_impossibility(prov)
    assert str(sliceability.value) == str(collisions.value)
    assert "out of bounds; first at source index" in str(collisions.value)


def test_detect_collisions_accounting():
    rng = np.random.default_rng(21)
    for case in range(40):
        provision = random_provision(rng, collisions=case % 2 == 0)
        report = detect_collisions(provision)
        image = provision_image(provision)
        assert len(image) + report.uncovered_count == shape_size(
            provision.target_shape
        )
        seen_sources = set()
        for target, sources in report.groups:
            assert len(sources) >= 2
            assert all(transform(provision, s) == target for s in sources)
            assert not (set(sources) & seen_sources)
            seen_sources |= set(sources)
        total_colliding = sum(
            1
            for source in literal_traversal(provision.source_shape)
            if sum(
                transform(provision, other) == transform(provision, source)
                for other in literal_traversal(provision.source_shape)
            )
            >= 2
        )
        assert sum(len(s) for _, s in report.groups) == total_colliding


@st.composite
def small_tables(draw):
    """(table, target_shape) of source and target rank 0-3; sources may be
    empty, and only an empty source may meet an empty target."""
    source = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    low = 0 if 0 in source else 1
    target = tuple(draw(st.lists(st.integers(low, 3), max_size=3)))
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, max(e - 1, 0)) for e in target)),
        min_size=shape_size(source), max_size=shape_size(source),
    ))
    table = np.array(rows, dtype=np.int64).reshape(source + (len(target),))
    return table, target


@given(small_tables())
@settings(max_examples=200, deadline=None)
def test_detect_collisions_groups_rows_as_tuples(drawn):
    table, target_shape = drawn
    report = detect_collisions(ProvisionTensor(table, target_shape))
    by_row = {}
    for source in literal_traversal(table.shape[:-1]):
        by_row.setdefault(tuple(int(c) for c in table[source]), []).append(source)
    groups = tuple(
        (target, tuple(sources))
        for target, sources in sorted(by_row.items())
        if len(sources) >= 2
    )
    assert report.groups == groups
    assert report.uncovered_count == shape_size(target_shape) - len(by_row)
    # the arrays the groups are built from: targets in flat order, sources
    # group after group, one size per group
    targets = [list(target) for target, _ in groups]
    sources = [list(source) for _, group in groups for source in group]
    sizes = [len(group) for _, group in groups]
    assert report.targets.shape == (len(targets), len(target_shape))
    assert report.sources.shape == (len(sources), table.ndim - 1)
    assert report.sizes.shape == (len(sizes),)
    got = report.targets.tolist(), report.sources.tolist(), report.sizes.tolist()
    assert got == (targets, sources, sizes)
    for arr in (report.targets, report.sources, report.sizes):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    assert report.collision_count == len(groups)


def test_max_suffix_diag():
    report = slicing_impossibility(fx.diag_provision())
    assert report.max_suffix == 2
    inner = report.suffix_inner
    assert np.array_equal(inner.table, [[0, 0], [1, 1]])
    assert inner.target_shape == (2, 2)


def test_max_suffix_parity():
    report = slicing_impossibility(fx.parity_provision())
    assert (report.max_suffix, report.suffix_inner) == (0, None)


def test_max_suffix_identity():
    ident = identity_provision((2, 3, 2))
    report = slicing_impossibility(ident)
    assert report.max_suffix == 3
    inner = report.suffix_inner
    assert inner.table.shape == (0,)
    assert inner.target_shape == ()


def test_max_suffix_embed():
    # last output coordinate copies the last input coordinate
    report = slicing_impossibility(fx.embed_provision())
    assert report.max_suffix == 1
    inner = report.suffix_inner
    assert np.array_equal(inner.table, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]])


def empty_provisions():
    """Tables over zero-size sources, into targets of rank 1, 2 and 4."""
    return [
        ProvisionTensor(np.zeros(shape + (len(target),), dtype=np.int64), target)
        for shape in [(0,), (2, 0), (0, 3, 2)]
        for target in [(3,), (2, 4), (1, 2, 3, 4)]
    ]


def test_suffix_soundness_and_maximality():
    rng = np.random.default_rng(31)
    provisions = [
        fx.embed_provision(),
        fx.diag_provision(),
        fx.parity_provision(),
        identity_provision((2, 2)),
    ] + empty_provisions() + [random_suffix_provision(rng) for _ in range(30)] + [
        random_provision(rng) for _ in range(30)
    ]
    for provision in provisions:
        report = slicing_impossibility(provision)
        r, inner = report.max_suffix, report.suffix_inner
        k = len(provision.source_shape)
        if shape_size(provision.source_shape) == 0:
            # every condition holds vacuously, so the suffix is as long as
            # both ranks allow, and the leading map is all zeros
            rank = provision.target_rank
            assert r == min(k, rank)
            assert inner.table.shape == provision.source_shape[: k - r] + (rank - r,)
            assert not inner.table.any()
        if r:
            for index in literal_traversal(provision.source_shape):
                lead = transform(inner, index[: k - r])
                assert transform(provision, index) == lead + index[k - r :]
        if r < min(k, provision.target_rank) and shape_size(provision.source_shape):
            # r + 1 must fail: either a suffix coordinate differs somewhere,
            # or the leading outputs depend on a trailing input coordinate
            bigger = r + 1
            rank = provision.target_rank
            broken = False
            leads = {}
            for index in literal_traversal(provision.source_shape):
                image = transform(provision, index)
                if image[rank - bigger :] != index[k - bigger :]:
                    broken = True
                    break
                key = index[: k - bigger]
                if leads.setdefault(key, image[: rank - bigger]) != image[: rank - bigger]:
                    broken = True
                    break
            assert broken


def test_pass_through_examples():
    parity = slicing_impossibility(fx.parity_provision())
    assert parity.pass_through == {(0, 0), (1, 1), (1, 3)}
    assert slicing_impossibility(fx.diag_provision()).pass_through == {
        (0, 0), (0, 1), (1, 2), (2, 3)
    }
    constant = ProvisionTensor(np.ones((2, 3, 2), dtype=np.int64), (2, 2))
    assert slicing_impossibility(constant).pass_through == set()


def test_pass_through_degenerate_extent1():
    # extent-1 dim pairs with the constantly-zero output coordinate
    table = np.zeros((1, 3, 2), dtype=np.int64)
    table[:, :, 1] = np.arange(3).reshape(1, 3)
    prov = ProvisionTensor(table, (1, 3))
    assert slicing_impossibility(prov).pass_through == {(0, 0), (1, 1)}


def test_pass_through_is_brute_scan():
    rng = np.random.default_rng(41)
    provisions = empty_provisions() + [random_provision(rng) for _ in range(30)]
    rng = np.random.default_rng(71)
    empty = rank0 = 0
    for case in range(150):  # empty and rank-0 sources among them
        if case % 3 == 2:
            provision = random_suffix_provision(rng, collisions=case % 2 == 0)
        else:
            provision = random_provision(rng, min_source_extent=0)
        empty += shape_size(provision.source_shape) == 0
        rank0 += len(provision.source_shape) == 0
        provisions.append(provision)
    assert empty >= 5 and rank0 >= 5
    for provision in provisions:
        expected = set()
        for i in range(len(provision.source_shape)):
            for j in range(provision.target_rank):
                if all(
                    transform(provision, index)[j] == index[i]
                    for index in literal_traversal(provision.source_shape)
                ):
                    expected.add((i, j))
        assert slicing_impossibility(provision).pass_through == expected


def test_weak_decomposition_diag():
    report = slicing_impossibility(fx.diag_provision())
    spec = report.canonical
    assert spec.pass_pick == (0, 1, 2)
    assert spec.inner_pick == ()
    assert spec.out_pick == (0, 0, 1, 2)
    assert report.overlap == set()
    assert np.array_equal(
        compose_provision(spec).table, fx.diag_provision().table
    )


def test_weak_decomposition_parity():
    report = slicing_impossibility(fx.parity_provision())
    spec = report.canonical
    assert spec.inner_pick == (0,)
    assert spec.pass_pick == (0, 1)
    assert spec.out_pick == (1, 2, 0, 2)
    assert np.array_equal(spec.inner.table, [[0], [1], [0], [1]])
    assert report.overlap == {0}
    assert np.array_equal(
        compose_provision(spec).table, fx.parity_provision().table
    )


def test_weak_decomposition_constant_is_trivial():
    constant = ProvisionTensor(np.ones((2, 3, 2), dtype=np.int64), (2, 2))
    spec = slicing_impossibility(constant).canonical
    assert spec.pass_pick == ()
    assert spec.inner_pick == (0, 1)
    assert spec.out_pick == (0, 1)
    assert np.array_equal(spec.inner.table, constant.table)


def test_weak_decomposition_prefers_wide_dims():
    # the constant-zero output pairs with the extent-1 dim only as a last
    # resort; the genuine copy of dim 1 must still be routed through
    table = np.zeros((1, 3, 2), dtype=np.int64)
    table[:, :, 1] = np.arange(3).reshape(1, 3)
    prov = ProvisionTensor(table, (1, 3))
    spec = slicing_impossibility(prov).canonical
    assert spec.pass_pick == (0, 1)
    assert np.array_equal(compose_provision(spec).table, prov.table)


def test_weak_decomposition_round_trip_random():
    rng = np.random.default_rng(51)
    for case in range(120):
        provision = random_provision(rng, collisions=case % 3 == 0)
        spec = slicing_impossibility(provision).canonical
        assert np.array_equal(compose_provision(spec).table, provision.table)
        assert compose_provision(spec).target_shape == provision.target_shape


def test_suffix_implies_pass_through_pairs():
    rng = np.random.default_rng(61)
    for _ in range(30):
        provision = random_suffix_provision(rng)
        report = slicing_impossibility(provision)
        r, pairs = report.max_suffix, report.pass_through
        k = len(provision.source_shape)
        rank = provision.target_rank
        for t in range(r):
            assert (k - r + t, rank - r + t) in pairs


def test_verdicts():
    assert slicing_impossibility(fx.diag_provision()).verdict == SLICEABLE
    parity = slicing_impossibility(fx.parity_provision())
    assert parity.verdict == WEAKLY_SLICEABLE_ONLY
    assert parity.overlap == {0}
    assert parity.max_suffix == 0
    constant = ProvisionTensor(np.ones((2, 3, 2), dtype=np.int64), (2, 2))
    assert slicing_impossibility(constant).verdict == TRIVIAL_ONLY


def test_verdict_swap_is_weak_without_overlap():
    # pure coordinate swap: passes through, no suffix, disjoint picks
    table = np.array(
        [[[j, i] for j in range(3)] for i in range(2)], dtype=np.int64
    )
    prov = ProvisionTensor(table, (3, 2))
    report = slicing_impossibility(prov)
    assert report.max_suffix == 0
    assert report.verdict == WEAKLY_SLICEABLE_ONLY
    assert report.overlap == frozenset()
    assert np.array_equal(
        compose_provision(report.canonical).table, prov.table
    )


def test_sliceability_report_fields():
    report = slicing_impossibility(fx.diag_provision())
    assert report.max_suffix == 2
    assert np.array_equal(report.suffix_inner.table, [[0, 0], [1, 1]])
    assert report.pass_through == {(0, 0), (0, 1), (1, 2), (2, 3)}
    assert report.overlap == frozenset()


def provision_fields(provision):
    if provision is None:
        return None
    return provision.table.shape, provision.table.tobytes(), provision.target_shape


def spec_fields(spec):
    return (
        provision_fields(spec.inner), spec.inner_pick, spec.pass_pick,
        spec.out_pick, spec.source_shape, spec.target_shape,
    )


def answer_fields(answer):
    """An analyzer report as comparable plain values."""
    if isinstance(answer, CollisionReport):
        return answer.groups, answer.uncovered_count
    return (
        answer.max_suffix, provision_fields(answer.suffix_inner),
        answer.pass_through, spec_fields(answer.canonical), answer.overlap,
        answer.verdict,
    )


def analysis_outcome(entry_point, transformer):
    """(None, the answer's fields), or the exception's type and text."""
    try:
        return None, answer_fields(entry_point(transformer))
    except Exception as exc:
        return type(exc), str(exc)


def torch_spec(rng, case):
    """torch's dim-`dim` scatter map, target index I with I[dim] replaced by
    index[I], as a spec over a rank 1-3 index."""
    target, dim, index, _ = random_torch_case(rng, case)
    k = index.ndim
    passed = tuple(d for d in range(k) if d != dim)
    return XTransformerSpec(
        inner=ProvisionTensor(index[..., None], (target.shape[dim],)),
        inner_pick=tuple(range(k)),
        pass_pick=passed,
        out_pick=tuple(0 if d == dim else 1 + passed.index(d) for d in range(k)),
        source_shape=index.shape,
        target_shape=target.shape,
    )


ANALYZER = (detect_collisions, slicing_impossibility)


def test_spec_analysis_is_its_composed_tables():
    rng = np.random.default_rng(19)
    escaping = empty = raised = lead_escapes = 0
    for case in range(2400):
        spec = (random_spec, random_suffix_spec, torch_spec)[case % 3](
            *((rng, case // 3) if case % 3 == 2 else (rng,))
        )
        if spec.target_shape and rng.random() < 0.3:  # narrow a target axis
            target = list(spec.target_shape)
            j = int(rng.integers(len(target)))
            target[j] = max(target[j] - 1, 0)
            spec = dataclasses.replace(spec, target_shape=tuple(target))
        table = compose_provision(spec)
        escaping += validate_provision(table)[0] > 0
        empty += shape_size(table.source_shape) == 0
        if shape_size(table.source_shape) == 0:  # analysis refuses only what the table holds
            try:
                scatter_x(np.zeros(spec.target_shape), np.zeros(spec.source_shape), spec)
            except ValidationError:
                lead_escapes += 1
        for entry_point in ANALYZER:
            want = analysis_outcome(entry_point, table)
            raised += want[0] is not None
            assert analysis_outcome(entry_point, spec) == want, (case, entry_point)
    assert escaping >= 100 and empty >= 100 and raised >= 100
    assert lead_escapes >= 10  # scatter_x refuses these; the analyzer answers


def test_spec_analysis_builds_only_the_reports_tables(monkeypatch):
    # torch_collide's map, (i, j) -> (index[i, j], j), written as a spec
    index = np.random.default_rng(5).integers(0, 1024, size=(256, 1024))
    spec = XTransformerSpec(
        inner=ProvisionTensor(index[..., None], (1024,)),
        inner_pick=(0, 1),
        pass_pick=(1,),
        out_pick=(0, 1),
        source_shape=index.shape,
        target_shape=(1024, 1024),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the analyzer tabulated the whole spec")

    for module in (scatterkit.transform, scatterkit.analysis):
        if hasattr(module, "compose_provision"):
            monkeypatch.setattr(module, "compose_provision", refuse)
    tracemalloc.start()
    try:
        report = slicing_impossibility(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the canonical inner (2 MiB) is the one table the report holds, and
    # ProvisionTensor copies it once; composing the map first peaks at 8 MiB,
    # its 4 MiB table and that table's copy
    assert peak <= 4.5e6, peak
    assert report.verdict == WEAKLY_SLICEABLE_ONLY and report.overlap == {1}
    assert report.max_suffix == 0 and report.pass_through == {(1, 1)}
    assert spec_fields(report.canonical) == spec_fields(spec)


def torch_collide_spec():
    """torch_collide's map, (i, j) -> (index[i, j], j), written as a spec."""
    index = np.random.default_rng(5).integers(0, 1024, size=(256, 1024))
    return XTransformerSpec(
        inner=ProvisionTensor(index[..., None], (1024,)),
        inner_pick=(0, 1),
        pass_pick=(1,),
        out_pick=(0, 1),
        source_shape=index.shape,
        target_shape=(1024, 1024),
    )


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_the_library_builds_are_held_once():
    # a table fresh from _tabulate is adopted, not copied: composing the
    # spec holds its 4 MiB table once, and the report its 2 MiB canonical
    # inner (both peaked at twice that while every table was copied)
    spec = torch_collide_spec()
    peak = traced_peak(lambda: compose_provision(spec))
    assert peak <= 4.5e6, peak
    peak = traced_peak(lambda: slicing_impossibility(spec))
    assert peak <= 2.5e6, peak


@pytest.fixture
def reads(monkeypatch):
    """The transformers ``analysis._read`` is called with, in order."""
    seen = []
    read = scatterkit.analysis._read

    def counted(transformer):
        seen.append(transformer)
        return read(transformer)

    monkeypatch.setattr(scatterkit.analysis, "_read", counted)
    return seen


def test_slicing_impossibility_reads_its_map_once(reads):
    for transformer in (fx.parity_provision(), fx.embed_provision(), torch_collide_spec()):
        reads.clear()
        slicing_impossibility(transformer)
        assert reads == [transformer]


def test_cli_analyze_reads_its_map_once(reads, tmp_path, capsys):
    # analyze answers both questions from one read and one bounds check
    for provision in (fx.parity_provision(), fx.embed_provision()):
        path = tmp_path / "provision.json"
        path.write_text(dump_document(provision.table))
        reads.clear()
        assert cli.main(["analyze", "--provision", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(reads) == 1 and doc["collisions"]["count"] == 0


def test_detect_collisions_holds_arrays_not_tuples():
    # the groups live in three int64 arrays, so finding torch_collide's 28,162
    # groups over 2**18 sources peaks below 4x its composed 4 MiB table
    # (21.2 MiB while every colliding source and target was a tuple)
    spec = torch_collide_spec()
    reports = []
    peak = traced_peak(lambda: reports.append(detect_collisions(spec)))
    assert peak < 16 * 2**20, peak
    report = reports[0]
    assert report.collision_count == 28162
    for arr in (report.targets, report.sources, report.sizes):
        assert type(arr) is np.ndarray and arr.dtype == np.int64
    assert report.sources.shape == (int(report.sizes.sum()), 2)
