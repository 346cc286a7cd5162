"""Recover the transition probabilities from a blanked chain by EM.

The observed pattern decomposes into known adjacent pairs and gaps. A gap's
hidden states move only along unrecorded transitions, so the conditional
expectations the E-step needs are ratios of powers of the unrecorded part
of P. The M-step row-normalizes the expected counts. ``run_em`` speeds EM
up by SQUAREM cycles: it extrapolates along two EM steps and keeps the
plain steps wherever the jump would lose likelihood, so an iteration is a
cycle of about three E-steps. The observed log-likelihood is exact and
must never decrease along the way.
"""

import numpy as np

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    apply_filter,
    complete_mle,
    run_em,
    simulate_chain,
    transition_counts,
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
print(f"kept {len(y) - y.blank_count} of {len(y)} states "
      f"({y.blank_count} blanked)")

result = run_em(y, F, tol=1e-12)
print(f"\nEM converged after {result.iterations} iterations ({result.e_steps} E-steps)")
print(f"final observed log-likelihood: {result.final_observed_loglik:.6f}")

print("\nestimate from the blanked chain:")
print(np.round(result.probs, 4))
print("\ncomplete-data MLE (sees everything, for comparison):")
print(np.round(complete_mle(transition_counts(chain)).probs, 4))
print("\ntruth:")
print(P_true.probs)

trace = np.array(result.loglik_trace)
print(f"\nlog-likelihood rose monotonically: {bool(np.all(np.diff(trace) >= -1e-10))}")
print("first five values:", np.round(trace[:5], 4))
