"""Chains are stored in the smallest unsigned dtype that holds k. Across the
uint8/uint16 boundary of the symbols and of the transition cells, every
layer that reads stored symbols must give what a plain ``intp`` reference
kept here gives."""

import itertools

import numpy as np
import pytest

from markovfilter import (
    CompleteChain,
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    TransitionVisibility,
    apply_filter,
    classify_transitions,
    embed_higher_order,
    io,
    simulate_chain,
    transition_counts,
)
from markovfilter.oracle import _fill

#: Around 255 the codes 0..k leave uint8; around 16 the k**2 cells do.
KS = (2, 3, 16, 17, 255, 256, 300)


def case(k: int, n: int = 3000):
    """(0-based intp states, filter bits): a chain that visits every state
    and a filter recording about a third of the transitions."""
    rng = np.random.default_rng(k)
    states = rng.permutation(np.resize(np.arange(k), n + 1))
    return states, rng.random((k, k)) < 0.35


def ref_revealed(states, bits):
    recorded = bits[states[:-1], states[1:]]
    revealed = np.zeros(len(states), dtype=bool)
    revealed[0] = True
    revealed[1:] |= recorded
    revealed[:-1] |= recorded
    return revealed


def ref_codes(states, bits):
    return np.where(ref_revealed(states, bits), states + 1, 0)


def ref_segments(codes, k):
    """(pair counts, [(a, nu, b, mult, first)] in order of first occurrence),
    walking the codes one position at a time."""
    codes = [int(c) for c in codes]
    n = len(codes)
    pairs = np.zeros((k, k))
    for s, t in zip(codes[:-1], codes[1:]):
        if s and t:
            pairs[s - 1, t - 1] += 1
    types = {}
    p = 1
    while p < n:
        if codes[p]:
            p += 1
            continue
        start = p - 1
        while p < n and not codes[p]:
            p += 1
        end, b = (p, codes[p] - 1) if p < n else (n - 1, k)
        key = (codes[start] - 1, end - start, b)
        types.setdefault(key, [0, start])[0] += 1
    return pairs, [key + tuple(v) for key, v in types.items()]


@pytest.fixture(params=KS, ids=lambda k: f"k{k}")
def chain(request):
    k = request.param
    states, bits = case(k)
    return k, states, CompleteChain(states + 1, StateSpace(k)), FilterMatrix(bits)


def test_storage_dtype(chain):
    k, _, x, F = chain
    expected = np.uint8 if k <= 255 else np.uint16
    assert x.as_indices().dtype == expected
    assert apply_filter(x, F).codes.dtype == expected


def test_simulate_chain(chain):
    """Against the walk of one cumulative-row search per step; for large k a
    block of draws holds only _BLOCK // k of them."""
    k = chain[0]
    rng = np.random.default_rng([k, 1])
    probs = rng.random((k, k))
    P = TransitionMatrix.from_probs(probs / probs.sum(axis=1, keepdims=True))
    n = 2000
    cum = np.cumsum(P.probs, axis=1)
    states = [k - 1]
    for draw in np.random.default_rng(7).random(n):
        states.append(min(int(np.searchsorted(cum[states[-1]], draw, side="right")), k - 1))
    x = simulate_chain(P, k, n, 7)
    assert x.as_indices().dtype == np.min_scalar_type(k)
    np.testing.assert_array_equal(x.as_indices(), states)


def test_transition_counts(chain):
    k, states, x, _ = chain
    expected = np.zeros((k, k))
    np.add.at(expected, (states[:-1], states[1:]), 1)
    np.testing.assert_array_equal(transition_counts(x).counts, expected)


def test_apply_filter(chain):
    _, states, x, F = chain
    y = apply_filter(x, F)
    np.testing.assert_array_equal(y.codes, ref_codes(states, F.bits))
    assert 0 < y.blank_count < len(y)


def test_classify_transitions(chain):
    _, states, x, F = chain
    revealed = ref_revealed(states, F.bits)
    expected = {}
    for t, (i, j) in enumerate(zip(states[:-1].tolist(), states[1:].tolist())):
        if F.bits[i, j]:
            kind = TransitionVisibility.DIRECT
        elif revealed[t] and revealed[t + 1]:
            kind = TransitionVisibility.INDIRECT
        else:
            kind = expected.get((i + 1, j + 1), TransitionVisibility.UNOBSERVED)
        expected[(i + 1, j + 1)] = kind
    assert classify_transitions(x, F) == expected


def test_segments(chain):
    k, states, _, F = chain
    codes = np.append(ref_codes(states, F.bits), [0, 0])  # a trailing gap: b = k is stored
    seg = FilteredChain.from_codes(codes, StateSpace(k)).segments
    pairs, types = ref_segments(codes, k)
    np.testing.assert_array_equal(seg.pair_counts, pairs)
    got = list(zip(*(arr.tolist() for arr in (seg.a, seg.nu, seg.b, seg.mult, seg.first))))
    assert got == types


@pytest.mark.parametrize("blank", ["-", "NA"])
def test_round_trips(chain, tmp_path, blank):
    """Both reader paths: one-byte tokens (k <= 9 with "-") and the token loop."""
    k, states, x, F = chain
    y = apply_filter(x, F)
    io.write_chain(tmp_path / "x.txt", x)
    io.write_filtered_chain(tmp_path / "y.txt", y, blank)
    assert (tmp_path / "x.txt").read_text().split() == [str(s) for s in (states + 1).tolist()]
    back_x = io.read_chain(tmp_path / "x.txt", k)
    back_y = io.read_filtered_chain(tmp_path / "y.txt", k, blank)
    assert back_x == x and back_x.as_indices().dtype == x.as_indices().dtype
    assert back_y == y and back_y.codes.dtype == y.codes.dtype


def test_embedding_into_256_tuple_states():
    k, s = 4, 4
    states, _ = case(k, 500)
    code = np.zeros(len(states) - s + 1, dtype=np.intp)
    for j in range(s):
        code = code * k + states[j : j + code.size]
    y = embed_higher_order(CompleteChain(states + 1, StateSpace(k)), s)
    assert y.space.k == 256 and y.as_indices().dtype == np.uint16
    np.testing.assert_array_equal(y.as_indices(), code)
    assert y.states == tuple((code + 1).tolist())
    assert code.max() == 255


def test_oracle_fill_at_17_states():
    k = 17
    y = FilteredChain((17, None, 16, None, None, 1), StateSpace(k))
    rows, cells = _fill(y.codes, k)
    fills = list(itertools.product(range(k), repeat=3))
    expected = np.array([[16, a, 15, b, c, 0] for a, b, c in fills], dtype=np.intp)
    np.testing.assert_array_equal(rows, expected)
    np.testing.assert_array_equal(cells, expected[:, :-1] * k + expected[:, 1:])
    assert cells.max() > 255
