"""Standard errors without the observed information matrix, and the tests
built on them.

The EM update is a map on the parameter space; its Jacobian at the estimate
measures the fraction of information the filter destroyed. Supplemented EM
recovers the observed covariance as V_obs = V_com (I - M1)^(-1) using only
EM steps and the complete-data information, then splits it into the
complete-data part and the price of filtering. M1 is taken by complex step,
one complex EM step per free parameter; its spectral radius is the rate at
which EM converged.
"""

import numpy as np

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    apply_filter,
    chi_square_test,
    confidence_interval,
    run_em,
    run_sem,
    simulate_chain,
    z_test,
)

P_true = TransitionMatrix.from_probs(
    [[0.2, 0.3, 0.5],
     [0.8, 0.1, 0.1],
     [0.7, 0.1, 0.2]]
)
F = FilterMatrix(np.array(
    [[0, 1, 0],
     [1, 1, 0],
     [1, 0, 0]]
))

chain = simulate_chain(P_true, initial=1, n=1000, seed=42)
y = apply_filter(chain, F)
result = run_em(y, F, tol=1e-12)
sem = run_sem(y, F, result)

print("EM-map Jacobian at the estimate (fraction of information lost):")
print(np.round(sem.m1, 4))
print(f"\nEM rate (spectral radius of M1): {sem.spectral_radius:.4f}, "
      f"cond(I - M1) = {sem.cond:.2f}")
print(f"symmetry diagnostic of the raw observed covariance: {sem.asymmetry:.2e}")
print("\nobserved covariance (diagonal):", np.round(np.diag(sem.v_obs), 6))
print("complete-data covariance (diagonal):", np.round(np.diag(sem.v_com), 6))
print("variance inflation due to filtering (diagonal):",
      np.round(np.diag(sem.delta_v), 6))

theta_hat = result.theta_hat.theta
theta_true = P_true.theta().theta
se = np.sqrt(np.diag(sem.v_obs))

print("\nper-parameter summaries (95% intervals):")
labels = [f"p_{i}{j}" for i in (1, 2, 3) for j in (1, 2)]
for idx, label in enumerate(labels):
    lo, hi = confidence_interval(theta_hat[idx], sem.v_obs[idx, idx], 0.05)
    rep = z_test(theta_hat[idx], theta_true[idx], sem.v_obs[idx, idx])
    print(f"  {label}: {theta_hat[idx]:.4f} +/- {se[idx]:.4f}"
          f"  CI [{lo:.4f}, {hi:.4f}]  z vs truth {rep.statistic:+.2f}")

overall = chi_square_test(theta_hat, theta_true, sem.v_obs)
print(f"\njoint test against the truth: chi2({overall.df}) = "
      f"{overall.statistic:.3f}, p = {overall.p_value:.3f}")
print("reject at 5%:", overall.p_value < 0.05)
