"""End-to-end acceptance suite.

Each test covers one numbered exit criterion; the conftest prints a
PASS/FAIL line per criterion at the end of the run.  Expected values are
either frozen worked-example tensors or recomputed on the fly by the
independent oracles in ``oracles.py``.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from scatterkit import (
    CollisionError,
    CollisionPolicy,
    ProvisionTensor,
    compose_provision,
    detect_collisions,
    scatter_nd_update,
    scatter_x,
    slicing_impossibility,
    torch_scatter,
)
from scatterkit.core import shape_size
from scatterkit import fixtures as fx
from scatterkit.serialize import dump_document

from generators import (
    element_view,
    random_provision,
    random_scattering,
    random_suffix_provision,
    random_tf_instance,
    random_torch_instance,
)
from oracles import (
    OracleCollision,
    brute_force_scatter,
    identity_provision,
    provision_image,
    tf_scatter_reference,
    torch_scatter_reference,
)

ALL_POLICIES = list(CollisionPolicy)


def golden_provisions():
    return [
        fx.embed_provision(),
        fx.diag_provision(),
        fx.parity_provision(),
        identity_provision((2, 3, 2)),
        ProvisionTensor(np.ones((2, 3, 2), dtype=np.int64), (2, 2)),
    ]


def bits(arr):
    return (arr.shape, arr.dtype.str, arr.tobytes())


def test_criterion_1_worked_example():
    """criterion 1: worked example reproduced bit-equal under all five policies, < 1 ms"""
    emb = fx.embed_provision()
    expected = fx.embed_expected()
    updates, background = fx.embed_updates(), fx.embed_background()
    for policy in ALL_POLICIES:
        result, _ = scatter_x(background, updates, emb, policy)
        assert bits(result) == bits(expected)
        assert result.size == 16
        scatter_x(background, updates, emb, policy)  # warm
        best = min(
            _timed(lambda: scatter_x(background, updates, emb, policy))
            for _ in range(10)
        )
        assert best < 1e-3, f"{policy}: {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_sliceability_goldens():
    """criterion 2: sliceability golden cases match exactly"""
    diag = slicing_impossibility(fx.diag_provision())
    assert diag.max_suffix == 2
    assert np.array_equal(diag.suffix_inner.table, [[0, 0], [1, 1]])
    assert diag.verdict == "SLICEABLE"

    parity = slicing_impossibility(fx.parity_provision())
    assert parity.max_suffix == 0
    assert parity.suffix_inner is None
    assert parity.verdict == "WEAKLY_SLICEABLE_ONLY"
    assert parity.overlap == {0}


def test_criterion_3_brute_force_oracle_equivalence():
    """criterion 3: engine agrees bit-exactly with the definitional oracle on 1000 random instances"""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    forced_rates = []
    for case in range(1000):
        forced = case % 2 == 0
        provision = random_provision(
            rng,
            collisions=forced,
            max_source_rank=4,
            max_source_extent=5,
            max_target_rank=4,
            max_target_extent=5,
        )
        updates, background = random_scattering(rng, provision)
        n = shape_size(provision.source_shape)
        if forced:
            report = detect_collisions(provision)
            rate = sum(len(s) for _, s in report.groups) / n
            forced_rates.append(rate)
        for policy in ALL_POLICIES:
            try:
                expected = brute_force_scatter(
                    provision.table,
                    provision.target_shape,
                    updates,
                    background,
                    policy.value,
                )
            except OracleCollision as oracle_exc:
                with pytest.raises(CollisionError) as engine_exc:
                    scatter_x(background, updates, provision, policy)
                assert engine_exc.value.target == oracle_exc.target
                continue
            result, _ = scatter_x(background, updates, provision, policy)
            assert bits(result) == bits(expected), (case, policy)
    elapsed = time.perf_counter() - start
    assert len(forced_rates) == 500
    assert min(forced_rates) > 0.2
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_4_adapter_parity():
    """criterion 4: tf and torch adapters agree bit-exactly with framework-semantics oracles"""
    rng = np.random.default_rng(97)
    for _ in range(500):
        ts, indices, updates = random_tf_instance(rng, collision_free=True)
        expected = tf_scatter_reference(ts, indices, updates)
        for policy in ("last", "first", "error"):
            result, _ = scatter_nd_update(ts, indices, updates, policy)
            assert bits(result) == bits(expected)

    for _ in range(500):
        self_t, dim, index, src = random_torch_instance(rng, collision_free=True)
        expected = torch_scatter_reference(self_t, dim, index, src)
        for policy in ("last", "first", "error"):
            result, _ = torch_scatter(self_t, dim, index, src, policy)
            assert bits(result) == bits(expected)

    # under collisions the reference assignment loops define last-wins order
    for _ in range(150):
        ts, indices, updates = random_tf_instance(rng, collision_free=False)
        result, _ = scatter_nd_update(ts, indices, updates, "last")
        assert bits(result) == bits(tf_scatter_reference(ts, indices, updates))
    for _ in range(150):
        self_t, dim, index, src = random_torch_instance(rng, collision_free=False)
        result, _ = torch_scatter(self_t, dim, index, src, "last")
        assert bits(result) == bits(torch_scatter_reference(self_t, dim, index, src))


def test_criterion_5_composition_round_trips():
    """criterion 5: decomposition recomposes exactly and factored scatter matches direct scatter"""
    rng = np.random.default_rng(333)
    provisions = golden_provisions() + [
        random_provision(rng, collisions=case % 3 == 0) for case in range(500)
    ]
    for case, provision in enumerate(provisions):
        spec = slicing_impossibility(provision).canonical
        recomposed = compose_provision(spec)
        assert np.array_equal(recomposed.table, provision.table), case
        assert recomposed.target_shape == provision.target_shape

        updates, background = random_scattering(rng, provision)
        policy = ALL_POLICIES[case % 4 + 1]  # skip error: collisions allowed
        direct, _ = scatter_x(background, updates, provision, policy)
        factored, _ = scatter_x(background, updates, spec, policy)
        assert bits(direct) == bits(factored), case


def test_criterion_6_background_preservation():
    """criterion 6: background preserved on every cell outside the image, exhaustively"""
    rng = np.random.default_rng(4096)
    provisions = golden_provisions() + [
        random_provision(rng, collisions=case % 2 == 0) for case in range(200)
    ]
    for provision in provisions:
        target_size = shape_size(provision.target_shape)
        assert target_size <= 4096
        updates, background = random_scattering(rng, provision)
        covered = np.zeros(provision.target_shape, dtype=bool)
        for target in provision_image(provision):
            covered[target] = True
        for policy in ("first", "last", "sum", "prod"):
            result, _ = scatter_x(background, updates, provision, policy)
            assert np.array_equal(result[~covered], background[~covered])


def test_criterion_7_fast_path_equivalence_and_bench(capsys, tmp_path):
    """criterion 7: block-copy path bit-identical to element-wise path; speedup recorded"""
    rng = np.random.default_rng(55)
    provisions = [fx.embed_provision(), fx.diag_provision(), identity_provision((4, 4))]
    provisions += [
        random_suffix_provision(rng, collisions=case % 2 == 0) for case in range(60)
    ]
    for provision in provisions:
        assert slicing_impossibility(provision).max_suffix >= 1
        updates, background = random_scattering(rng, provision)
        colliding = detect_collisions(provision).collision_count > 0
        for policy in ALL_POLICIES:
            if policy is CollisionPolicy.ERROR and colliding:
                continue
            fast, frep = scatter_x(background, updates, provision, policy)
            slow, srep = element_view(provision, updates, background, policy)
            assert frep.fast_path_used and not srep.fast_path_used
            assert bits(fast) == bits(slow)
            assert (frep.writes, frep.colliding_groups, frep.uncovered_targets) == (
                srep.writes, srep.colliding_groups, srep.uncovered_targets
            )

    # bench on a >= 2**20 element target: leading dim remapped, suffix copied
    lead_src, lead_tgt, suffix = 512, 1024, (32, 32)
    source_shape = (lead_src,) + suffix
    target_shape = (lead_tgt,) + suffix
    assert shape_size(target_shape) >= 2**20
    sigma = (np.arange(lead_src, dtype=np.int64) * 2 + 1) % lead_tgt
    rows = np.empty((shape_size(source_shape), 3), dtype=np.int64)
    grid = np.indices(source_shape, dtype=np.int64).reshape(3, -1).T
    rows[:, 0] = sigma[grid[:, 0]]
    rows[:, 1:] = grid[:, 1:]
    provision = ProvisionTensor(rows.reshape(source_shape + (3,)), target_shape)
    updates = rng.standard_normal(source_shape)
    background = rng.standard_normal(target_shape)
    fast, frep = scatter_x(background, updates, provision, "last")
    slow, _ = element_view(provision, updates, background, "last")
    assert frep.fast_path_used
    assert bits(fast) == bits(slow)
    t_fast = min(
        _timed(lambda: scatter_x(background, updates, provision, "last"))
        for _ in range(3)
    )
    t_slow = min(
        _timed(lambda: element_view(provision, updates, background, "last"))
        for _ in range(3)
    )
    bench = {
        "target_elements": shape_size(target_shape),
        "source_elements": shape_size(source_shape),
        "policy": "last",
        "elementwise_seconds": t_slow,
        "block_copy_seconds": t_fast,
        "speedup": t_slow / t_fast,
    }
    (tmp_path / "bench_report.json").write_text(json.dumps(bench, indent=2) + "\n")
    with capsys.disabled():
        print(
            f"\n[bench] block-copy path speedup on {bench['target_elements']} "
            f"target elements: {bench['speedup']:.1f}x "
            f"({t_slow * 1e3:.1f} ms -> {t_fast * 1e3:.1f} ms)"
        )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "scatterkit", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_8_cli_black_box(tmp_path):
    """criterion 8: file-level pipeline reproduces criteria 1 and 2 with documented exit codes"""
    fixture_dir = tmp_path / "fx"
    first = run_cli("fixtures", "--dir", fixture_dir)
    assert first.returncode == 0
    names = json.loads(first.stdout)["files"]
    payload = {n: (fixture_dir / n).read_bytes() for n in names}
    again = run_cli("fixtures", "--dir", fixture_dir)
    assert again.returncode == 0
    assert {n: (fixture_dir / n).read_bytes() for n in names} == payload

    # criterion 1 through files
    out = tmp_path / "result.json"
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "embed_provision.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
        "--policy", "last",
        "--out", out,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["report"]
    assert report == {
        "writes": 8,
        "colliding_groups": 0,
        "uncovered_targets": 8,
        "fast_path_used": True,
    }
    assert json.loads(out.read_text()) == json.loads(
        (fixture_dir / "embed_expected.json").read_text()
    )

    # criterion 2 through files
    proc = run_cli("analyze", "--provision", fixture_dir / "diag_provision.json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["max_suffix"] == 2
    assert doc["verdict"] == "SLICEABLE"
    assert doc["suffix_inner"]["data"] == [0, 0, 1, 1]

    proc = run_cli(
        "analyze",
        "--provision", fixture_dir / "parity_provision.json",
        "--target-shape", "4,2,2,2",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["max_suffix"] == 0
    assert doc["verdict"] == "WEAKLY_SLICEABLE_ONLY"
    assert doc["overlap"] == [0]

    # documented exit codes per error class
    missing = run_cli(
        "scatter",
        "--provision", fixture_dir / "absent.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
    )
    assert missing.returncode == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    malformed = run_cli("analyze", "--provision", bad)
    assert malformed.returncode == 1

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        dump_document(
            {
                "inner": fx.diag_inner().table,
                "inner_pick": [0],
                "pass_pick": [],
                "out_pick": [0],
                "source_shape": [2],
                "target_shape": [2, 2],
            }
        )
    )
    mismatched = run_cli("compose", "--spec", spec_path)
    assert mismatched.returncode == 2

    dup = tmp_path / "dup.json"
    dup.write_text(dump_document(np.array([[0], [0]], dtype=np.int64)))
    upd = tmp_path / "upd.json"
    upd.write_text(dump_document(np.array([1.0, 2.0])))
    bg = tmp_path / "bg.json"
    bg.write_text(dump_document(np.zeros(1)))
    collided = run_cli(
        "scatter", "--provision", dup, "--updates", upd,
        "--background", bg, "--policy", "error",
    )
    assert collided.returncode == 3
