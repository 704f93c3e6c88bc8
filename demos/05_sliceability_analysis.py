"""When can a scatter become block copies, and how do we prove it cannot?

A transformer whose last r coordinates pass straight through (with the
leading outputs depending only on the leading inputs) lets the engine copy
whole contiguous blocks instead of single elements.  When no such suffix
exists, the canonical factoring explains why: some source dim is read both
through the inner transformer and verbatim, and that overlap is the
obstruction.  The analyzer reads a factored spec as it reads a table, without
tabulating it, and gives the answer of the table the spec composes to.
"""

import sys

from scatterkit import compose_provision, detect_collisions, slicing_impossibility
from scatterkit import fixtures as fx
from scatterkit.serialize import analysis_to_json, dump_document
import numpy as np

# the diag transformer (i,j,k) -> (i,i,j,k): suffix of length 2
diag = fx.diag_provision()
diag_report = slicing_impossibility(diag)
print("diag transformer (i,j,k) -> (i,i,j,k)")
print("  max copied suffix:", diag_report.max_suffix)
print("  inner leading map:", diag_report.suffix_inner.table.tolist())
print("  verdict:", diag_report.verdict)

# the parity transformer (i,j) -> (i, j, i%2, j): no suffix exists
parity = fx.parity_provision()
print("\nparity transformer (i,j) -> (i, j, i%2, j)")
report = slicing_impossibility(parity)
print("  max copied suffix:", report.max_suffix)
print("  verbatim coordinate pairs:", sorted(report.pass_through))

spec = report.canonical
print("  canonical factoring:")
print("    inner table:", spec.inner.table.tolist())
print("    inner pick:", spec.inner_pick, " pass pick:", spec.pass_pick,
      " out pick:", spec.out_pick)
print("  verdict:", report.verdict, " overlap:", sorted(report.overlap))
print("  (source dim 0 feeds the inner map AND passes through: that is")
print("   exactly what prevents a copied suffix)")

recomposed = compose_provision(spec)
print("  factoring recomposes exactly:",
      np.array_equal(recomposed.table, parity.table))

# the canonical factoring is itself a map: analysing it directly gives the
# table's report, byte for byte (the reports hold their tables as arrays,
# which == cannot compare, so their written documents are compared)
spec_report = dump_document(
    analysis_to_json(slicing_impossibility(spec), detect_collisions(spec))
)
table_report = dump_document(analysis_to_json(report, detect_collisions(parity)))
print("  the spec, analysed without tabulating it, reports the same:",
      spec_report == table_report)
if spec_report != table_report:
    sys.exit(1)

# collision structure is part of the same report surface
col = detect_collisions(diag)
print("\ndiag collision report: groups =", col.collision_count,
      " uncovered =", col.uncovered_count)
