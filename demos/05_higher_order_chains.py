"""Order-s chains reduce to simple chains over tuple states, at the price
of structural zeros.

The tuple (X_t, ..., X_{t+s-1}) walks a k**s-state simple chain whose
transitions are only allowed when the tuples overlap, so the embedded
transition matrix has exactly k**(s+1) allowed entries. Estimation then
works as before, with the support mask carried through; the filter must
record at least one allowed transition per row to stay identifiable.
Standard errors come from supplemented EM on the free coordinates: each
tuple row here has two allowed successors, p and 1 - p, so both share one
standard error.
"""

import numpy as np

from markovfilter import (
    FilterMatrix,
    StateSpace,
    CompleteChain,
    apply_filter,
    embed_higher_order,
    embedded_support,
    encode_tuple_state,
    project_embedded_params,
    run_em,
    run_sem,
    TransitionMatrix,
)

k, s = 2, 2
K = k**s

# an order-2 process: the next state prefers repeating the PREVIOUS state
rng = np.random.default_rng(11)
states = [1, 2]
for _ in range(600):
    prev2, prev1 = states[-2], states[-1]
    p_repeat_older = 0.8 if prev2 == 1 else 0.3
    states.append(prev2 if rng.random() < p_repeat_older else 3 - prev2)
chain = CompleteChain(tuple(states), StateSpace(k))

embedded = embed_higher_order(chain, s)
mask = embedded_support(k, s)
print(f"embedded {len(chain)} base states into {len(embedded)} tuple states "
      f"over {K} labels")
print(f"allowed embedded transitions: {int(mask.sum())} of {K * K}")

# record one allowed transition per tuple state (labels 1..4 stand for the
# tuples (1,1), (1,2), (2,1), (2,2)); rows keep the per-row restriction
F = FilterMatrix(np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [1, 0, 0, 0],
     [0, 0, 0, 1]]
))
y = apply_filter(embedded, F)
print(f"blanked {y.blank_count} of {len(y)} tuple states")

result = run_em(y, F, support=mask)
print(f"\nEM converged after {result.iterations} iterations ({result.e_steps} E-steps)")
proj = project_embedded_params(
    TransitionMatrix.from_probs(result.probs, mask), s
)
sem = run_sem(y, F, result)
# the free-parameter layout omits each row's last column; a row's allowed
# entries share one standard error, and its other entries have none
row_se = np.sqrt(np.diag(sem.v_obs)).reshape(K, K - 1).max(axis=1)
print("estimated order-2 transition probabilities (history -> next, std. err.):")
for key in sorted(proj):
    history, nxt = key[:s], key[s]
    se = row_se[encode_tuple_state(history, k) - 1]
    print(f"  {history} -> {nxt}: {proj[key]:.4f}  ({se:.4f})")
print("\n(the data were generated with repeat-the-older-state probabilities "
      "0.8 after a 1 and 0.3 after a 2)")
