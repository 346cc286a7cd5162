"""Which filters can you estimate from? Deciding identifiability before
collecting any data.

A filter is provably safe when some filter BELOW it (storing a subset of
its transitions) belongs to one of three structured families; storing more
data than an identifiable filter keeps identifiability. The checker finds
such a witness by bipartite matching: one matching for the one-zero-row
family, one per candidate pair of rows for the other two. When it fails,
the verdict is "unknown", not "impossible" - the conditions are
sufficient, not necessary.
The enumeration oracle cross-checks a verdict empirically: an identifiable
filter must separate the filtered-pattern distributions of distinct
parameter values.
"""

import numpy as np

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    closure_witness,
    distinguishability_check,
    dominates,
    identifiability_verdict,
)

F = FilterMatrix(np.array(
    [[0, 1, 0],
     [1, 1, 0],
     [1, 0, 0]]
))
verdict = identifiability_verdict(F)
print("filter under test:")
print(F.bits.astype(int))
print(f"verdict: {verdict.verdict.value}")
print("witness found below it (one zero row, one zero column, a matching):")
print(verdict.closure_witness.bits.astype(int))
assert dominates(F, verdict.closure_witness)

# a nearly empty filter on a large space proves nothing
bits = np.zeros((10, 10), dtype=bool)
bits[0, 0] = True
print("\nrecording only 1 -> 1 on ten states:",
      identifiability_verdict(FilterMatrix(bits)).verdict.value)

# structural zeros tighten the requirement: every row must record at least
# one transition the support allows
support = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 1]], dtype=bool)
print("\nsame filter, but state 1 can only ever move to state 1:",
      identifiability_verdict(F, support).verdict.value)

# empirical cross-check: an approved filter separates parameter pairs
rng = np.random.default_rng(3)


def random_params():
    probs = rng.gamma(1.0, 1.0, (3, 3)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    return TransitionMatrix.from_probs(probs).theta()


tv = distinguishability_check(F, random_params(), random_params(), length=8, initial=1)
print(f"\npattern-distribution distance between two random parameters: {tv:.4f}")

blind = FilterMatrix.all_zeros(3)
tv0 = distinguishability_check(blind, random_params(), random_params(), length=8, initial=1)
print(f"same distance when nothing is recorded: {tv0:.4f}")
print("witness for the all-zeros filter:", closure_witness(blind))
