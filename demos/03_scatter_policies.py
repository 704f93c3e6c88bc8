"""Scattering through a table under the five collision policies.

Relocating updates through a transformer is ambiguous when two sources hit
one target cell.  The engine refuses to be ambiguous: you name the policy,
it applies it over row-major source order, and the report tells you how
contested the write set was.
"""

import numpy as np

from scatterkit import (
    CollisionError,
    CollisionPolicy,
    ProvisionTensor,
    scatter_x,
)
from scatterkit import fixtures as fx

# injective case: the embed worked example; every policy agrees
result, report = scatter_x(
    fx.embed_background(), fx.embed_updates(), fx.embed_provision(), "last"
)
print("embed result:")
print(result)
print("report:", report)
print("matches frozen expectation:", np.array_equal(result, fx.embed_expected()))

# colliding case: both sources write target cell (0,)
dup = ProvisionTensor(np.array([[0], [0]], dtype=np.int64), (1,))
updates = np.array([10.0, 20.0])
background = np.array([100.0])

print("\ntwo writes onto one cell, background 100:")
for policy in CollisionPolicy:
    try:
        result, report = scatter_x(background, updates, dup, policy)
    except CollisionError as exc:
        print(f"  {policy.value:>5}: raises CollisionError at {exc.target}")
        continue
    print(f"  {policy.value:>5}: {result}  (writes={report.writes})")

print("\nnote: sum and prod fold the update values only; the background")
print("value at a written cell is replaced, never folded in.")

# uncovered cells always keep the background
sparse = ProvisionTensor(np.array([[2]], dtype=np.int64), (4,))
result, report = scatter_x(np.arange(4.0), np.array([7.0]), sparse, "last")
print("\nsingle write into cell 2 of [0,1,2,3]:", result)
print("uncovered targets:", report.uncovered_targets)
