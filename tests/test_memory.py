"""Memory of the long-chain layers on the bench case: the slope of each
call's traced peak (``tracemalloc``, which sees numpy's buffers) per symbol,
from n = 2e5 to 6e5. A chain is stored one byte per symbol, so a layer that
made an 8-byte copy of it would show at least 8 bytes per symbol. And the
stacked complex pass of ``em_jacobian``, which must hold no more than its
chunk budget."""

import gc
import tracemalloc

import numpy as np
import pytest

from markovfilter import (
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    classify_transitions,
    em_jacobian,
    io,
    sem,
    simulate_chain,
    transition_counts,
    validate_consistency,
)
from conftest import BENCH_FILTER, BENCH_PROBS, random_interior_probs

N = (200_000, 600_000)
P = TransitionMatrix.from_probs(BENCH_PROBS)
F = FilterMatrix(BENCH_FILTER)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """n -> (x, y, file of y, scratch directory)."""
    work = tmp_path_factory.mktemp("memory")
    out = {}
    for n in N:
        x = simulate_chain(P, 1, n, 0)
        y = apply_filter(x, F)
        io.write_filtered_chain(work / f"y{n}.txt", y)
        out[n] = x, y, work / f"y{n}.txt", work
    return out


def traced_peak(fn, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: name -> (bytes per symbol allowed, the call's function and arguments
#: from (x, y, file of y, scratch directory), made before tracing starts)
LAYERS = {
    "simulate_chain": (6, lambda x, y, f, d: (simulate_chain, P, 1, len(x) - 1, 0)),
    "apply_filter": (2, lambda x, y, f, d: (apply_filter, x, F)),
    "write_chain": (1, lambda x, y, f, d: (io.write_chain, d / "x.txt", x)),
    "write_filtered_chain": (1, lambda x, y, f, d: (io.write_filtered_chain, d / "y.txt", y)),
    "transition_counts": (6, lambda x, y, f, d: (transition_counts, x)),
    "read_filtered_chain": (8, lambda x, y, f, d: (io.read_filtered_chain, f, 3)),
    "validate_consistency": (
        8,  # a new chain, so the first segmentation is part of the call
        lambda x, y, f, d: (validate_consistency, FilteredChain.from_codes(y.codes, y.space), F),
    ),
    "classify_transitions": (2, lambda x, y, f, d: (classify_transitions, x, F)),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_bytes_per_symbol(inputs, layer):
    limit, call = LAYERS[layer]
    low, high = (traced_peak(*call(*inputs[n])) for n in N)
    assert (high - low) / (N[1] - N[0]) <= limit


def test_stacked_jacobian_holds_one_chunk():
    # k = 8 with 25 gaps of 30 to 54 blanks: a coordinate's power table and
    # edge gathers take 22 307 complex cells, so all 56 coordinates in one
    # stack would hold about 20 MB
    k = 8
    rng = np.random.default_rng(8)
    codes = [1]
    for nu in range(30, 55):
        codes += [0] * nu + [int(rng.integers(1, k + 1))]
    y = FilteredChain.from_codes(codes, StateSpace(k))
    F = FilterMatrix(np.eye(k, dtype=bool))
    P = random_interior_probs(rng, k)
    cells = y.segments.cells  # segmented before tracing
    assert traced_peak(em_jacobian, y, F, P) <= (sem._BLOCK + cells) * np.dtype(complex).itemsize
