"""The four benchmark workloads, their NumPy references and their checks.

A workload is built from a seed and then driven one operation at a time:
``call(policy)`` runs the public entry point, ``reference(policy)`` runs
hand-written NumPy code with the same semantics (the floor), and
``check(got, want)`` compares the two bit for bit.  Outcomes are tuples:
``("ok", array)``, ``("collision", target)`` or, for the CLI workload,
``("cli", payload)``.

Entry points are looked up on their module at every call, so the tracer in
``spans.py`` sees the call when it has wrapped the module's functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from scatterkit import cli, engine
from scatterkit.errors import CollisionError

TF_POLICIES = ("last", "first", "sum", "prod", "error")


def bit_equal(a, b) -> bool:
    """Same shape, dtype and bits; -0.0 differs from 0.0."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype == np.float64
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def first_repeat(keys: np.ndarray) -> int | None:
    """Position of the first key equal to an earlier key, or None."""
    _, first = np.unique(keys, return_index=True)
    if len(first) == len(keys):
        return None
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    return int(np.argmin(is_first))


def ref_rows(background, keys, values, policy):
    """NumPy floor for a scatter of ``values`` rows into ``background`` rows.

    ``background`` is viewed as (T, b) and ``values`` as (n, b); row g of
    ``values`` lands on row ``keys[g]``.  Returns an outcome tuple.
    """
    if policy == "error":
        pos = first_repeat(keys)
        if pos is not None:
            return ("collision", int(keys[pos]))
    out = background.copy()
    if policy == "first":
        out[keys[::-1]] = values[::-1]
    elif policy == "sum":
        out[keys] = 0.0
        np.add.at(out, keys, values)
    elif policy == "prod":
        out[keys] = 1.0
        np.multiply.at(out, keys, values)
    else:  # last, or error without a collision
        out[keys] = values
    return ("ok", out)


def outcome_of(fn, *args):
    """Run an entry point; map its result or CollisionError to an outcome."""
    try:
        result, _report = fn(*args)
    except CollisionError as exc:
        return ("collision", exc.target)
    return ("ok", result)


class TfScatter:
    """``scatter_nd_update`` of ``rows`` index rows into a (T, width) tensor."""

    def __init__(self, name, seed, target_rows, width, rows, distinct, policies):
        rng = np.random.default_rng(seed)
        self.name = name
        self.policies = policies
        self.tensor = rng.standard_normal((target_rows, width))
        if distinct:
            keys = rng.permutation(target_rows)[:rows]
        else:
            keys = rng.integers(0, target_rows, size=rows)
        self.keys = keys.astype(np.int64)
        self.indices = self.keys.reshape(rows, 1)
        self.updates = rng.standard_normal((rows, width))
        self.elements = self.updates.size
        # tensor, result, updates, indices and the composed (n, width, 2) table
        self.working_set_bytes = (
            self.tensor.nbytes * 2 + self.updates.nbytes * 3 + self.indices.nbytes
        )

    def call(self, policy):
        return outcome_of(
            engine.scatter_nd_update, self.tensor, self.indices, self.updates, policy
        )

    def reference(self, policy):
        got = ref_rows(self.tensor, self.keys, self.updates, policy)
        if got[0] == "collision":
            # a colliding index row is reported at its first trailing cell
            return ("collision", (got[1], 0))
        return got

    def check(self, got, want) -> bool:
        return compare_outcomes(got, want)


class TorchCollide:
    """``torch_scatter`` along dim 0 with a random (n, C) index into (T, C)."""

    def __init__(self, seed, target_rows=1024, cols=1024, index_rows=256):
        rng = np.random.default_rng(seed)
        self.name = "torch_collide"
        self.policies = TF_POLICIES
        self.self_t = rng.standard_normal((target_rows, cols))
        self.index = rng.integers(0, target_rows, size=(index_rows, cols)).astype(
            np.int64
        )
        self.src = rng.standard_normal((index_rows, cols))
        self.cols = cols
        self.offsets = (self.index * cols + np.arange(cols, dtype=np.int64)).reshape(-1)
        self.elements = self.index.size
        # self, result, src, index and the (n, C, 2) provision table
        self.working_set_bytes = (
            self.self_t.nbytes * 2 + self.src.nbytes + self.index.nbytes * 3
        )

    def call(self, policy):
        return outcome_of(
            engine.torch_scatter, self.self_t, 0, self.index, self.src, policy
        )

    def reference(self, policy):
        got = ref_rows(
            self.self_t.reshape(-1), self.offsets, self.src.reshape(-1), policy
        )
        if got[0] == "collision":
            return ("collision", divmod(got[1], self.cols))
        return ("ok", got[1].reshape(self.self_t.shape))

    def check(self, got, want) -> bool:
        return compare_outcomes(got, want)


def compare_outcomes(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if got[0] == "collision":
        return tuple(got[1]) == tuple(want[1])
    return bit_equal(got[1], want[1])


def write_tensor(path, arr):
    kind = "f64" if arr.dtype == np.float64 else "i64"
    data = [float(v) for v in arr.reshape(-1)] if kind == "f64" else [
        int(v) for v in arr.reshape(-1)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dtype": kind, "shape": list(arr.shape), "data": data}, fh)


def ref_collisions(offsets, side, source_shape):
    """NumPy floor for the ``collisions``/``uncovered`` part of ``analyze``
    on a table over a (side, side) target, given its flat target offsets."""
    uniq = np.unique(offsets)
    order = np.argsort(offsets, kind="stable")
    ordered = offsets[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, len(ordered)])
    groups = []
    for s, size in zip(starts[sizes >= 2].tolist(), sizes[sizes >= 2].tolist()):
        members = order[s : s + size]
        src = np.unravel_index(members, source_shape)
        groups.append(
            {
                "target": list(divmod(int(ordered[s]), side)),
                "sources": np.stack(src, axis=1).tolist(),
            }
        )
    return {"count": len(groups), "groups": groups}, side * side - len(uniq)


class CliRoundtrip:
    """In-process ``scatterkit.cli.main``: one op is an ``analyze`` call on a
    torch-style table followed by a ``tf-scatter --out`` call."""

    def __init__(self, seed, workdir, side=128, table_rows=32, tf_rows=64):
        rng = np.random.default_rng(seed)
        self.name = "cli_roundtrip"
        self.policies = ("last", "first", "sum", "prod")
        self.side = side
        column = np.arange(side, dtype=np.int64)
        picked = rng.integers(0, side, size=(table_rows, side)).astype(np.int64)
        table = np.stack(np.broadcast_arrays(picked, column), axis=-1)
        self.table_shape = (table_rows, side)
        self.offsets = (picked * side + column).reshape(-1)
        self.tensor = rng.standard_normal((side, side))
        self.keys = rng.integers(0, side, size=tf_rows).astype(np.int64)
        self.updates = rng.standard_normal((tf_rows, side))
        self.paths = {
            name: os.path.join(workdir, f"{name}.json")
            for name in ("table", "tensor", "indices", "updates", "out")
        }
        write_tensor(self.paths["table"], np.ascontiguousarray(table))
        write_tensor(self.paths["tensor"], self.tensor)
        write_tensor(self.paths["indices"], self.keys.reshape(tf_rows, 1))
        write_tensor(self.paths["updates"], self.updates)
        self.elements = self.updates.size + table_rows * side
        self.working_set_bytes = sum(
            os.path.getsize(self.paths[name])
            for name in ("table", "tensor", "indices", "updates")
        )

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def call(self, policy):
        p = self.paths
        analyze = self._main(
            ["analyze", "--provision", p["table"], "--target-shape", f"{self.side},{self.side}"]
        )
        tf = self._main(
            [
                "tf-scatter", "--tensor", p["tensor"], "--indices", p["indices"],
                "--updates", p["updates"], "--policy", policy, "--out", p["out"],
            ]
        )
        return ("cli", (analyze, tf))

    def reference(self, policy):
        collisions, uncovered = ref_collisions(
            self.offsets, self.side, self.table_shape
        )
        _, tensor = ref_rows(self.tensor, self.keys, self.updates, policy)
        return ("cli", (collisions, uncovered, tensor))

    def check(self, got, want) -> bool:
        (a_code, a_out), (t_code, t_out) = got[1]
        collisions, uncovered, tensor = want[1]
        if a_code != 0 or t_code != 0:
            return False
        doc = json.loads(a_out)
        if doc["collisions"] != collisions or doc["uncovered"] != uncovered:
            return False
        if json.loads(t_out).get("out") != self.paths["out"]:
            return False
        with open(self.paths["out"], encoding="utf-8") as fh:
            written = json.load(fh)
        result = np.array(written["data"], dtype=np.float64).reshape(written["shape"])
        return bit_equal(result, tensor)


def build(name, seed, workdir):
    if name == "tf_wide":
        return TfScatter(name, seed, 1024, 1024, 512, True, TF_POLICIES)
    if name == "tf_narrow_dup":
        return TfScatter(name, seed, 4096, 4, 1 << 14, False, TF_POLICIES)
    if name == "torch_collide":
        return TorchCollide(seed)
    if name == "cli_roundtrip":
        return CliRoundtrip(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
