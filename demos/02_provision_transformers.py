"""Provision tensors: index maps stored as integer tables.

A transformer from one index space to another is tabulated as an integer
tensor whose last axis holds the target index for each source index.  A
factored transformer routes part of the source index through an inner
table and part around it, and can be flattened back into one table.
"""

import numpy as np

from scatterkit import (
    ProvisionTensor,
    XTransformerSpec,
    compose_provision,
    validate_provision,
)
from scatterkit import fixtures as fx

# the embed table relocates a (4, 2) grid into a (2, 2, 2, 2) target
embed = fx.embed_provision()
print("source shape:", embed.source_shape, "-> target shape:", embed.target_shape)
print("table:")
print(embed.table)

print("\nthe row at a source index is its target index:")
for source in [(0, 0), (3, 0), (3, 1)]:
    print(f"  {source} -> {tuple(embed.table[source].tolist())}")

image = sorted(set(map(tuple, embed.table.reshape(-1, embed.target_rank).tolist())))
print(f"\nimage covers {len(image)} of 16 target cells, all in the low half:")
print(" ", image[:4], "...")

# validation counts the entries escaping the declared target shape and
# locates the first one as (source index, target axis)
count, first = validate_provision(embed)
print("\nviolations against (2,2,2,2):", count, first)
narrowed = ProvisionTensor(embed.table, (2, 2, 2, 1))
count, first = validate_provision(narrowed)
print("violations against (2,2,2,1):", count, "first at", first)

# factored form: inner table [[0,0],[1,1]] on coordinate 0, coordinates
# 1 and 2 passed through, identity reassembly
spec = XTransformerSpec(
    inner=fx.diag_inner(),
    inner_pick=(0,),
    pass_pick=(1, 2),
    out_pick=tuple(range(4)),
    source_shape=(2, 2, 2),
    target_shape=(2, 2, 2, 2),
)
composed = compose_provision(spec)
print("\ncomposed factored transformer (i,j,k) -> (i,i,j,k):")
for source in np.ndindex(2, 2, 2):
    print(f"  {source} -> {tuple(composed.table[source].tolist())}")
print("matches the diag fixture:", np.array_equal(composed.table, fx.diag_provision().table))
