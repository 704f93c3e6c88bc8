"""Span tracing of scatterkit's public functions, from outside the package.

``Tracer.install()`` replaces every public function defined in the traced
modules, wherever a scatterkit module binds it, with a wrapper that records
a span: name, start, end and parent.  ``Scattering.__post_init__`` is
wrapped as ``engine.Scattering``.  ``uninstall()`` restores the originals,
so untraced calls run the package's own code objects.  Spans stay in
memory until ``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = ("core", "transform", "analysis", "engine", "serialize", "cli")

# entry points and routing functions: their self time is the part of an op
# that no stage accounts for
GLUE = frozenset(
    {
        "op",
        "engine.scatter_nd_update",
        "engine.torch_scatter",
        "engine.scatter_x",
        "cli.main",
        "cli.cmd_analyze",
        "cli.cmd_tf_scatter",
    }
)

# counters taken from return values, keyed by span name
_COUNTERS = {
    "engine.scatter": lambda res: {
        "writes": res[1].writes,
        "colliding_groups": res[1].colliding_groups,
        "fast_path": int(res[1].fast_path_used),
        # computed, not measured: the background copy plus one store per write
        "bytes_moved": 8 * (2 * res[0].size + res[1].writes),
    },
    "transform.compose_provision": lambda res: {"table_bytes": res.table.nbytes},
    "transform.torch_transformer": lambda res: {"table_bytes": res.table.nbytes},
    "analysis.detect_collisions": lambda res: {"groups": res.collision_count},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, parent, name, start_ns, end_ns, counters]
        self._stack = []
        self._op = -1
        self._patches = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"scatterkit.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        self._scattering = importlib.import_module("scatterkit.engine").Scattering
        post_init = self._scattering.__post_init__
        self._post_init = (post_init, self._wrap("engine.Scattering", post_init))

    def _wrap(self, name, fn):
        counters = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counters is not None:
                span[6] = counters(result)
            return result

        return traced

    def install(self):
        """Bind the wrappers wherever a scatterkit module binds an original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "scatterkit" and not modname.startswith("scatterkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if obj is original:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        original, wrapper = self._post_init
        self._patches.append((self._scattering, "__post_init__", original))
        self._scattering.__post_init__ = wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    def _open(self, name):
        parent = self._stack[-1][1] if self._stack else None
        span = [self._op, len(self.spans), parent, name, time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self):
        self._op += 1
        return self._open("op")

    def end_op(self, span):
        self._close(span)

    def write(self, path, context):
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "counters")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"context": context}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def op_breakdown(spans):
    """Per op: inclusive ms per name, self ms per name and summed counters."""
    ops = {}
    child_ns = {}
    for op, sid, parent, name, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    for op, sid, parent, name, start, end, counters in spans:
        total, own, counts = ops.setdefault(op, ({}, {}, {}))
        dur = end - start
        total[name] = total.get(name, 0.0) + dur / 1e6
        own[name] = own.get(name, 0.0) + (dur - child_ns.get(sid, 0)) / 1e6
        if counters:
            for key, value in counters.items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
    return [ops[k] for k in sorted(ops)]


def layer_metrics(spans):
    """The per-layer metrics: medians over ops of per-op totals, except the
    run-wide ``engine.scatter_calls`` and ``engine.fast_path_ratio``.

    ``engine.kernel_ms`` is the self time of ``engine.scatter``: what is left
    after validation and suffix analysis.  ``trace.unattributed_ms`` is the
    self time of the op and of the GLUE functions, i.e. op time minus every
    stage span.
    """
    ops = op_breakdown(spans)

    def med(fn):
        return statistics.median(fn(total, own, counts) for total, own, counts in ops)

    def inclusive(name):
        return med(lambda total, own, counts: total.get(name, 0.0))

    def count(key):
        return med(lambda total, own, counts: counts.get(key, 0))

    scatters = sum(c.get("engine.scatter.calls", 0) for _, _, c in ops)
    fast = sum(c.get("engine.scatter.fast_path", 0) for _, _, c in ops)
    return {
        "transform.compose_provision_ms": (inclusive("transform.compose_provision"), "ms"),
        "transform.tf_transformer_ms": (inclusive("transform.tf_transformer"), "ms"),
        "transform.torch_transformer_ms": (inclusive("transform.torch_transformer"), "ms"),
        "transform.validate_provision_ms": (inclusive("transform.validate_provision"), "ms"),
        "transform.table_mb": (
            med(lambda t, o, c: c.get("transform.compose_provision.table_bytes", 0)
                + c.get("transform.torch_transformer.table_bytes", 0)) / 2**20,
            "MB",
        ),
        "core.index_matrix_ms": (inclusive("core.index_matrix"), "ms"),
        "analysis.max_sliceable_suffix_ms": (inclusive("analysis.max_sliceable_suffix"), "ms"),
        "analysis.detect_collisions_ms": (inclusive("analysis.detect_collisions"), "ms"),
        "analysis.slicing_impossibility_ms": (inclusive("analysis.slicing_impossibility"), "ms"),
        "analysis.collision_groups": (count("analysis.detect_collisions.groups"), "count"),
        "engine.kernel_ms": (med(lambda t, o, c: o.get("engine.scatter", 0.0)), "ms"),
        "engine.scattering_ms": (inclusive("engine.Scattering"), "ms"),
        "engine.scatter_calls": (scatters, "count"),
        "engine.fast_path_ratio": (fast / scatters if scatters else 0.0, "ratio"),
        "engine.writes": (count("engine.scatter.writes"), "count"),
        "engine.colliding_groups": (count("engine.scatter.colliding_groups"), "count"),
        "engine.bytes_moved_mb": (count("engine.scatter.bytes_moved") / 2**20, "MB"),
        "serialize.tensor_from_json_ms": (inclusive("serialize.tensor_from_json"), "ms"),
        "serialize.tensor_to_json_ms": (inclusive("serialize.tensor_to_json"), "ms"),
        "serialize.dump_document_ms": (inclusive("serialize.dump_document"), "ms"),
        "cli.main_ms": (inclusive("cli.main"), "ms"),
        "trace.unattributed_ms": (
            med(lambda t, o, c: sum(v for k, v in o.items() if k in GLUE)), "ms"
        ),
    }
