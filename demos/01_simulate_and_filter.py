"""Simulate a three-state chain, throw away most transitions with a filter
matrix, and look at what survives.

A filter matrix F records transition i -> j exactly when f_ij = 1. States
not adjacent to any recorded transition are blanked. Some unrecorded
transitions still become visible when both endpoints survive (indirect
records); others vanish entirely.
"""

import numpy as np

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    apply_filter,
    classify_transitions,
    reduction_fraction,
    simulate_chain,
    transition_counts,
)

P = TransitionMatrix.from_probs(
    [[0.2, 0.3, 0.5],
     [0.8, 0.1, 0.1],
     [0.7, 0.1, 0.2]]
)
F = FilterMatrix(np.array(
    [[0, 1, 0],
     [1, 1, 0],
     [1, 0, 0]]
))

chain = simulate_chain(P, initial=1, n=60, seed=7)
print("complete chain:")
print(" ".join(str(s) for s in chain.states))

y = apply_filter(chain, F)
print("\nfiltered chain (blanks shown as '-'):")
print(" ".join("-" if s is None else str(s) for s in y.symbols))
print(f"\nfraction of symbols discarded: {reduction_fraction(y):.3f}")

print("\nhow each occurring transition fares under this filter:")
for (i, j), vis in sorted(classify_transitions(chain, F).items()):
    print(f"  {i} -> {j}: {vis.value}")

print("\ncomplete-data transition counts (for reference):")
print(transition_counts(chain).counts)
