"""The two mainstream scatter APIs expressed as transformers.

Both adapters run the same engine, so their semantics differ only in the
index map: batched rows of target coordinates versus per-element
substitution of one axis.  The tf adapter states its map as a factored
spec; the torch adapter keys straight from ``index`` and ``dim``.
"""

import numpy as np

from scatterkit import scatter_nd_update, tf_transformer, torch_scatter

# batched row update: each index row names a leading cell whose trailing
# slice is replaced by the matching updates slice
ts = np.zeros((3, 2))
indices = np.array([[0], [2]], dtype=np.int64)
updates = np.array([[1.0, 2.0], [3.0, 4.0]])
result, report = scatter_nd_update(ts, indices, updates)
print("row update of rows 0 and 2:")
print(result)
print("report:", report)

spec = tf_transformer(indices, ts.shape)
print("\nderived source shape:", spec.source_shape)
print("passed-through source positions:", spec.pass_pick)

# per-element substitution along one axis
self_t = np.zeros((2, 2))
index = np.array([[0, 1], [1, 0]], dtype=np.int64)
src = np.array([[1.0, 2.0], [3.0, 4.0]])
result, _ = torch_scatter(self_t, 0, index, src)
print("\nscatter along dim 0 with index [[0,1],[1,0]]:")
print(result)

print("\nthe substitution map, read from index: coordinate 0 becomes index[I]")
for source in np.ndindex(*index.shape):
    target = (int(index[source]),) + source[1:]
    print(f"  {source} -> {target}")

# duplicate index values collide; policies resolve them explicitly
index = np.array([[0], [0]], dtype=np.int64)
src = np.array([[5.0], [7.0]])
self_t = np.array([[9.0], [9.0]])
for policy in ("last", "sum"):
    result, _ = torch_scatter(self_t, 0, index, src, policy)
    print(f"\ncolliding scatter under {policy!r}:")
    print(result)
