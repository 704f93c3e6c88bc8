"""Timing a block-copy scatter against its NumPy floor.

The transformer remaps the leading axis and copies the two trailing axes,
so the scatter moves rows of 1024 contiguous floats.  The floor is the
hand-written NumPy code with the same semantics, ``out[sigma] = updates``
on a copy of the background.  The same map is scattered twice: ``scatter_x``
reads it from a table, whose scan for the copied suffix costs more than
the floor, and ``scatter_nd_update`` from ``sigma`` itself.  Rows this
wide copy only the background rows no key reaches, half of them here,
while the floor copies the whole background, so ``scatter_nd_update``
can beat the floor.  Both results are checked bit for bit before
anything is timed, and the demo exits 1 if either differs.
"""

import sys
import time

import numpy as np

from scatterkit import (
    ProvisionTensor,
    scatter_nd_update,
    scatter_x,
    slicing_impossibility,
)

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
print("copied suffix length:", slicing_impossibility(provision).max_suffix)

rng = np.random.default_rng(0)
updates = rng.standard_normal(source_shape)
background = rng.standard_normal(target_shape)


def numpy_floor():
    out = background.copy()
    out[sigma] = updates
    return out


def best_of(fn, n=5):
    times = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def table_scatter():
    return scatter_x(background, updates, provision, "last")


def tf_scatter():
    return scatter_nd_update(background, sigma[:, None], updates, "last")


floor = numpy_floor().tobytes()
identical = {
    "scatter_x": table_scatter()[0].tobytes() == floor,
    "scatter_nd_update": tf_scatter()[0].tobytes() == floor,
}
for name, same in identical.items():
    print(f"{name} bit-identical to the NumPy floor: {same}")
if not all(identical.values()):
    sys.exit(1)

t_table = best_of(table_scatter)
t_tf = best_of(tf_scatter)
t_floor = best_of(numpy_floor)
print(f"scatterkit scatter_x:         {t_table * 1e3:7.2f} ms "
      f"({t_table / t_floor:.2f}x the floor)")
print(f"scatterkit scatter_nd_update: {t_tf * 1e3:7.2f} ms "
      f"({t_tf / t_floor:.2f}x the floor)")
print(f"NumPy floor:                  {t_floor * 1e3:7.2f} ms")
