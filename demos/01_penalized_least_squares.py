"""Tour of the active-set lasso solver on a plain regression problem.

We build a small design with two strong effects and three noise columns,
then walk the penalty level down from the level that zeroes every
coefficient towards 0 (ordinary least squares), printing the support, the solver's
passes and the stationarity residual at each step.  Each solve is
warm-started from the one before, as each EM M-step is from the last:
every M-step runs this same solver.
"""

import numpy as np

from lmmlasso import kkt_check, lambda_max, solve_pls

rng = np.random.default_rng(0)
N, p = 60, 5
X = rng.normal(size=(N, p))
beta_true = np.array([2.0, -1.5, 0.0, 0.0, 0.0])
y = X @ beta_true + rng.normal(scale=0.7, size=N)

lmax = lambda_max(X, y)
print(f"data: N={N}, p={p}, true support {{1, 2}}")
print(f"penalty level that kills every coefficient: lambda_max = {lmax:.2f}\n")

print(f"{'lambda':>10} {'nnz':>4} {'passes':>6} {'kkt residual':>13}  coefficients")
warm = None
for lam in [lmax, 0.5 * lmax, 0.2 * lmax, 0.05 * lmax, 0.01 * lmax]:
    sol = solve_pls(X, y, lam, warm_start=warm)
    resid = kkt_check(X, y, sol.beta, lam)
    assert resid <= 1e-9
    coef = " ".join(f"{b:+.3f}" for b in sol.beta)
    print(f"{lam:>10.3f} {np.count_nonzero(sol.beta):>4} {sol.iterations:>6} "
          f"{resid:>13.2e}  [{coef}]")
    warm = sol.beta

print("\nA pass proves its support optimal, adds the column that most violates")
print("the optimality conditions, or steps to where columns reach zero and drops")
print("them; from a zero start it adds one column per pass (LARS-lasso):")
cold = solve_pls(X, y, 0.01 * lmax)
print(f"  cold start: {cold.iterations} passes, warm start from 0.05*lambda_max: "
      f"{sol.iterations}")
np.testing.assert_allclose(cold.beta, sol.beta, rtol=0, atol=1e-12)

print("\nAt lambda=0 the solution matches the normal equations:")
ols = np.linalg.solve(X.T @ X, X.T @ y)
sol0 = solve_pls(X, y, 0.0)
print("  max |beta - beta_ols| =", f"{np.abs(sol0.beta - ols).max():.2e}")
assert np.abs(sol0.beta - ols).max() <= 1e-10

print("\nWith a column duplicated, X'X is singular; at lambda=0 the solver")
print("returns the minimum-norm solution, splitting the weight evenly:")
X_dup = np.column_stack([X, X[:, 0]])
dup = solve_pls(X_dup, y, 0.0)
print(f"  beta_1 = {dup.beta[0]:.4f}, copy = {dup.beta[-1]:.4f}, "
      f"sum = {dup.beta[0] + dup.beta[-1]:.4f} (OLS beta_1 = {ols[0]:.4f})")
assert abs(dup.beta[0] + dup.beta[-1] - ols[0]) <= 1e-8
