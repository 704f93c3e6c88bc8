"""Timing a block-copy scatter against its NumPy floor.

The transformer remaps the leading axis and copies the two trailing axes,
so the scatter moves rows of 1024 contiguous floats.  The floor is the
hand-written NumPy code with the same semantics, ``out[sigma] = updates``
on a copy of the background; the two results are checked bit for bit
before either is timed.
"""

import time

import numpy as np

from scatterkit import ProvisionTensor, Scattering, max_sliceable_suffix, scatter

lead_src, lead_tgt, suffix = 512, 1024, (32, 32)
source_shape = (lead_src,) + suffix
target_shape = (lead_tgt,) + suffix

sigma = (np.arange(lead_src, dtype=np.int64) * 2 + 1) % lead_tgt
grid = np.indices(source_shape, dtype=np.int64).reshape(3, -1).T
rows = np.empty((grid.shape[0], 3), dtype=np.int64)
rows[:, 0] = sigma[grid[:, 0]]
rows[:, 1:] = grid[:, 1:]
provision = ProvisionTensor(rows.reshape(source_shape + (3,)), target_shape)

print("source:", source_shape, "->", "target:", target_shape,
      f"({np.prod(target_shape)} elements)")
print("copied suffix length:", max_sliceable_suffix(provision)[0])

rng = np.random.default_rng(0)
scattering = Scattering(
    provision,
    rng.standard_normal(source_shape),
    rng.standard_normal(target_shape),
)


def numpy_floor():
    out = scattering.background.copy()
    out[sigma] = scattering.updates
    return out


def best_of(fn, n=5):
    times = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


result, _ = scatter(scattering, "last")
print("bit-identical to the NumPy floor:",
      result.tobytes() == numpy_floor().tobytes())

t_scatter = best_of(lambda: scatter(scattering, "last"))
t_floor = best_of(numpy_floor)
print(f"scatterkit scatter: {t_scatter * 1e3:7.2f} ms")
print(f"NumPy floor:        {t_floor * 1e3:7.2f} ms")
print(f"ratio to floor:     {t_scatter / t_floor:7.1f}x")
