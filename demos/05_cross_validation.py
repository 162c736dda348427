"""Subject-grouped cross-validation when p is larger than the subject count.

Folds split SUBJECTS, never rows: a held-out subject contributes no
information to the training fit, and its random effects are predicted at
their prior mean (zero).  We compare the selection pipeline's held-out
error against a null baseline that predicts zero everywhere; the gap the
pipeline cannot close is the subject-level random variation, which is
unpredictable for unseen subjects by construction.
"""

import numpy as np

from lmmlasso import ScenarioConfig, generate_scenario, kfold_cv

cfg = ScenarioConfig.scenario3(n=16, n_i=4, p=20, p_star=4, seed=11,
                               D_true=np.array([[0.4, 0.1], [0.1, 0.2]]))
ds, truth = generate_scenario(cfg)
print(f"dataset: {ds.n} subjects, {ds.N} observations, p={ds.p} "
      f"(p > n), true support size {cfg.p_star}\n")

grid = np.linspace(0.01, 0.4, 12)
results = kfold_cv(ds, k=4, grid=grid, seed=1)

print("fold  test subjects       held-out SSE   per-obs MSE  selected lambda")
for r in results:
    subj = ",".join(str(s) for s in r.test_subjects)
    print(f"  {r.fold}   {subj:<17}  {r.sse:>11.2f}   {r.mse_per_obs:>10.2f}"
          f"   {r.selected_lambda:.3f}")

row_subjects = np.repeat(ds.subject_ids, ds.counts)  # each row's subject id
null_sse = []
for r in results:
    y_out = ds.y[np.isin(row_subjects, r.test_subjects)]
    null_sse.append(float(y_out @ y_out))

pipeline = float(np.mean([r.sse for r in results]))
baseline = float(np.mean(null_sse))
print(f"\nmean held-out SSE, selection pipeline:    {pipeline:.1f}")
print(f"mean held-out SSE, predict-zero baseline: {baseline:.1f}")
print(f"pipeline/baseline error ratio: {pipeline / baseline:.2f}")
assert pipeline < baseline
print("the fixed effects recovered on training subjects transfer to unseen")
print("subjects; the remaining error is their own random variation")
