"""Screening a design for linearly dependent columns before selection.

Gene-expression style inputs often carry columns that are exact or
near-exact linear combinations of others; the lasso then spreads weight
arbitrarily across the dependent set.  The screener keeps the earliest
independent columns, reports what each dropped column was made of, and
is idempotent.
"""

import numpy as np

from lmmlasso import LongitudinalDataset, remove_linear_combos

# long format: 12 subjects of 4 rows each, stacked subject by subject
rng = np.random.default_rng(5)
ys, Xs = [], []
for i in range(12):
    A = rng.normal(size=(4, 3))
    # column 4 = col1 + col2, column 5 = 2*col3, column 6 independent
    Xs.append(np.column_stack([A, A[:, 0] + A[:, 1], 2.0 * A[:, 2],
                               rng.normal(size=4)]))
    ys.append(rng.normal(size=4))
Z = np.tile(np.column_stack([np.ones(4), np.arange(1, 5)]), (12, 1))
ds = LongitudinalDataset(np.arange(12), np.full(12, 4), np.concatenate(ys), np.vstack(Xs), Z)

reduced, report = remove_linear_combos(ds)
print(f"original p = {ds.p}, kept {len(report.kept)}: "
      f"{[ds.x_names[j] for j in report.kept]}")
for j in report.dropped:
    made_of = [ds.x_names[k] for k in report.dependency_sets[j]]
    print(f"  dropped {ds.x_names[j]}: linear combination of {made_of}")

again, second = remove_linear_combos(reduced)
print(f"\nsecond pass drops nothing: {second.dropped == ()}")

rank_before = np.linalg.matrix_rank(ds.X)
rank_after = np.linalg.matrix_rank(reduced.X)
print(f"rank preserved: {rank_before} -> {rank_after} "
      f"with {reduced.p} columns (full column rank)")
