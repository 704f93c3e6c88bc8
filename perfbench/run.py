"""scatterkit benchmark: closed-loop workloads timed against a NumPy floor.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tf_wide --seed 1 --seconds 20 --trace 0

One process, one thread, one caller: each entry-point call starts after the
previous one returns.  Every result is checked bit for bit against a NumPy
reference on the same inputs, outside the timer.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced calls and
prints the per-layer metrics from the spans (see ``spans.py``).  The last
line of stdout is one JSON object; the line before it holds the run's
context (versions, seed, nproc, working set, fail rate).

Which end-to-end metric each layer metric should move, and on which
workload, is listed in ``LAYER_TO_END_TO_END`` below.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("tf_wide", "tf_narrow_dup", "torch_collide", "cli_roundtrip")
MIN_CALLS = 100
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# cache sizes of the host the benchmark was defined on (Intel Xeon, sysfs);
# every working set below fits in L3, so no figure is a bandwidth measurement
CACHE_BYTES = {"l1d_per_core": 48 << 10, "l2_per_core": 2 << 20, "l3": 300 << 20}

LAYER_TO_END_TO_END = {
    "transform.compose_provision_ms": "op_p50_ms, vs_numpy_x, peak_mem_mb on tf_wide; ~none on tf_narrow_dup",
    "transform.table_mb": "peak_mem_mb on tf_wide (computed from array sizes)",
    "transform.tf_transformer_ms": "op_p50_ms, vs_numpy_x on tf_wide",
    "transform.validate_provision_ms": "op_p50_ms on tf_wide and torch_collide",
    "analysis.max_sliceable_suffix_ms": "op_p50_ms on tf_wide and torch_collide",
    "engine.kernel_ms": "op_p50_ms, elems_per_s on tf_narrow_dup and torch_collide; no change on tf_wide",
    "engine.scattering_ms": "op_p50_ms, elems_per_s on the library workloads",
    "engine.fast_path_ratio": "op_p50_ms, elems_per_s (base: engine.scatter_calls)",
    "engine.writes": "elems_per_s",
    "engine.colliding_groups": "op_p50_ms on tf_narrow_dup and torch_collide",
    "engine.bytes_moved_mb": "op_p50_ms, elems_per_s (computed from array sizes)",
    "transform.torch_transformer_ms": "op_p50_ms on torch_collide",
    "core.index_matrix_ms": "op_p50_ms on torch_collide, and on tf_wide through compose_provision",
    "analysis.detect_collisions_ms": "op_p50_ms on cli_roundtrip only",
    "analysis.slicing_impossibility_ms": "op_p50_ms on cli_roundtrip only",
    "analysis.collision_groups": "op_p50_ms on cli_roundtrip only",
    "serialize.tensor_from_json_ms": "op_p50_ms, peak_mem_mb on cli_roundtrip only",
    "serialize.tensor_to_json_ms": "op_p50_ms, peak_mem_mb on cli_roundtrip only",
    "serialize.dump_document_ms": "op_p50_ms, peak_mem_mb on cli_roundtrip only",
    "cli.main_ms": "op_p50_ms, peak_mem_mb on cli_roundtrip only",
    "cli.stdout_bytes": "op_p50_ms, peak_mem_mb on cli_roundtrip only",
    "ref.numpy_ms": "the floor behind vs_numpy_x",
    "trace.unattributed_ms": "check on the trace: op time no stage span covers",
    "trace.overhead_pct": "check on the trace: traced p50 against untraced p50",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import scatterkit from this checkout's ``src`` and the test oracles."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracles.py"
    if not (src / "scatterkit" / "__init__.py").is_file() or not oracle_path.is_file():
        sys.exit(f"perfbench: {ROOT} holds no scatterkit checkout (src/, tests/oracles.py)")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import scatterkit

    if Path(scatterkit.__file__).resolve().parent != (src / "scatterkit").resolve():
        sys.exit(f"perfbench: imported scatterkit from {scatterkit.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup(workloads, name, seed, workdir):
    """Build inputs (and CLI files), then make one warm-up call per policy."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, workdir)
    for policy in wl.policies:
        wl.call(policy)
    return wl, time.perf_counter() - start


def peak_memory_mb(wl):
    """Largest tracemalloc peak of one call, over the policies; untimed."""
    peaks = []
    for policy in wl.policies:
        gc.collect()
        tracemalloc.start()
        try:
            wl.call(policy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20


class Samples:
    """What the timed loop saw: per call, the mode, policy and timings."""

    def __init__(self):
        self.calls = []  # (traced, policy, op_ms, ref_ms)
        self.stdout_bytes = []
        self.attempted = 0
        self.failed = 0
        self.elements = 0
        self.timed_s = 0.0

    def op_ms(self, traced=False, policy=None):
        return [
            op for t, p, op, _ in self.calls
            if t == traced and policy in (None, p)
        ]

    def ref_ms(self, policy=None):
        return [ref for _, p, _, ref in self.calls if policy in (None, p)]


def measure(wl, seconds, tracer):
    """Closed loop over the policy rotation for ``seconds`` and at least
    MIN_CALLS rotation steps; with a tracer, each step runs untraced, then
    traced."""
    samples = Samples()
    modes = (False, True) if tracer else (False,)
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_CALLS:
        policy = wl.policies[i % len(wl.policies)]
        i += 1
        for traced in modes:
            samples.attempted += 1
            if traced:
                tracer.install()
                span = tracer.begin_op()
            try:
                t0 = time.perf_counter()
                got = wl.call(policy)
                t1 = time.perf_counter()
            except Exception as exc:  # an unexpected error fails the call
                print(f"perfbench: {policy}: {exc!r}", file=sys.stderr)
                samples.failed += 1
                continue
            finally:
                if traced:
                    tracer.end_op(span)
                    tracer.uninstall()
            r0 = time.perf_counter()
            want = wl.reference(policy)
            r1 = time.perf_counter()
            samples.calls.append((traced, policy, (t1 - t0) * 1e3, (r1 - r0) * 1e3))
            samples.timed_s += t1 - t0
            if got[0] != "collision":
                samples.elements += wl.elements
            if got[0] == "cli":
                samples.stdout_bytes.append(sum(len(out.encode()) for _, out in got[1]))
            if not wl.check(got, want):
                print(f"perfbench: {policy}: result differs from reference", file=sys.stderr)
                samples.failed += 1
    return samples


def vs_numpy(wl, samples):
    """Geometric mean over policies of op p50 / reference p50, each pair
    timed on the same inputs in the same steps of the loop."""
    logs = [
        math.log(
            statistics.median(samples.op_ms(policy=p))
            / statistics.median(samples.ref_ms(policy=p))
        )
        for p in wl.policies
        if samples.op_ms(policy=p)
    ]
    return math.exp(sum(logs) / len(logs))


def run(args):
    oracles = load_package()
    import numpy as np

    import selfcheck
    import workloads
    from spans import Tracer, layer_metrics

    selfcheck.run(oracles, args.seed)

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl, seconds = setup(workloads, args.workload, args.seed, str(workdir))
            setups.append(seconds)
        tracer = Tracer() if args.trace else None
        samples = measure(wl, args.seconds, tracer)
        untraced = samples.op_ms()
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "calls": len(untraced),
            "traced_calls": len(samples.op_ms(traced=True)),
            "fail_rate": {"value": samples.failed / samples.attempted, "unit": "ratio"},
            "working_set_bytes": wl.working_set_bytes,
            "cache_bytes_reference_host": CACHE_BYTES,
            "setup_runs_s": setups,
            "policy_p50_ms": {
                p: statistics.median(samples.op_ms(policy=p))
                for p in wl.policies
                if samples.op_ms(policy=p)
            },
        }
        if args.trace:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in layer_metrics(tracer.spans).items()
            }
            metrics["cli.stdout_bytes"] = {
                "value": statistics.median(samples.stdout_bytes or [0]),
                "unit": "bytes",
            }
            metrics["ref.numpy_ms"] = {
                "value": statistics.median(samples.ref_ms()), "unit": "ms"
            }
            traced_p50 = statistics.median(samples.op_ms(traced=True))
            metrics["trace.overhead_pct"] = {
                "value": (traced_p50 / statistics.median(untraced) - 1) * 100,
                "unit": "%",
            }
            context["layer_to_end_to_end"] = LAYER_TO_END_TO_END
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", context)
        else:
            metrics = {
                "op_p50_ms": {"value": statistics.median(untraced), "unit": "ms"},
                "op_p90_ms": {"value": percentile(untraced, 90), "unit": "ms"},
                "elems_per_s": {"value": samples.elements / samples.timed_s, "unit": "1/s"},
                "vs_numpy_x": {"value": vs_numpy(wl, samples), "unit": "x"},
                "peak_mem_mb": {"value": peak_memory_mb(wl), "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": samples.failed == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": metrics,
            }
        )
    )


def main(argv=None):
    run(parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
