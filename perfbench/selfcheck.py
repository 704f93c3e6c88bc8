"""Prove the NumPy floor means what the package means.

Each reference in ``workloads.py`` is run on small seeded instances and
compared bit for bit with the definition-level oracles in
``tests/oracles.py``.  A mismatch is a defect of the benchmark, so the run
stops before it measures anything.
"""

from __future__ import annotations

import numpy as np

import workloads


def _oracle(oracles, table, target_shape, updates, background, policy):
    try:
        out = oracles.brute_force_scatter(table, target_shape, updates, background, policy)
    except oracles.OracleCollision as exc:
        return ("collision", exc.target)
    return ("ok", out)


def _signed_zero(arr, rng):
    # a -0.0 update makes the sum/prod seeding visible bit for bit
    arr.reshape(-1)[rng.integers(arr.size)] = -0.0


def _check(what, got, want):
    if not workloads.compare_outcomes(got, want):
        raise SystemExit(f"perfbench: NumPy reference disagrees with the oracle on {what}")


def check_tf(oracles, seed):
    for distinct, rows in ((True, 5), (False, 9)):
        wl = workloads.TfScatter("tf", seed, 6, 3, rows, distinct, workloads.TF_POLICIES)
        _signed_zero(wl.updates, np.random.default_rng(seed))
        width = wl.tensor.shape[1]
        table = np.stack(
            np.broadcast_arrays(wl.keys[:, None], np.arange(width)), axis=-1
        )
        for policy in wl.policies:
            want = _oracle(oracles, table, wl.tensor.shape, wl.updates, wl.tensor, policy)
            _check(f"tf {policy}", wl.reference(policy), want)
        framework = oracles.tf_scatter_reference(wl.tensor, wl.indices, wl.updates)
        _check("tf semantics", wl.reference("last"), ("ok", framework))


def check_torch(oracles, seed):
    wl = workloads.TorchCollide(seed, target_rows=5, cols=4, index_rows=3)
    _signed_zero(wl.src, np.random.default_rng(seed))
    table = np.stack(np.broadcast_arrays(wl.index, np.arange(wl.cols)), axis=-1)
    for policy in wl.policies:
        want = _oracle(oracles, table, wl.self_t.shape, wl.src, wl.self_t, policy)
        _check(f"torch {policy}", wl.reference(policy), want)
    framework = oracles.torch_scatter_reference(wl.self_t, 0, wl.index, wl.src)
    _check("torch semantics", wl.reference("last"), ("ok", framework))


def check_collisions(oracles, seed):
    rng = np.random.default_rng(seed)
    side, rows = 4, 6
    picked = rng.integers(0, side, size=(rows, side))
    offsets = (picked * side + np.arange(side)).reshape(-1)
    groups = {}
    for src in oracles.literal_traversal((rows, side)):
        target = (int(picked[src]), src[1])
        groups.setdefault(target, []).append(list(src))
    want = [
        {"target": list(t), "sources": s}
        for t, s in sorted(groups.items())
        if len(s) >= 2
    ]
    got, uncovered = workloads.ref_collisions(offsets, side, (rows, side))
    if got != {"count": len(want), "groups": want} or uncovered != side * side - len(groups):
        raise SystemExit("perfbench: NumPy collision reference disagrees with the oracle")


def run(oracles, seed):
    check_tf(oracles, seed)
    check_torch(oracles, seed)
    check_collisions(oracles, seed)
