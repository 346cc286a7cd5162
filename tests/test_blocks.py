"""Block edges of the long-chain loops. ``apply_filter`` and the chain
writers work one ``_BLOCK`` of symbols at a time, as the pair tally does;
with the block shrunk to a few symbols, every output must equal the one
computed with the real block (one block for these chains), and the plain
references kept here."""

import numpy as np
import pytest

from markovfilter import (
    CompleteChain,
    FilterMatrix,
    StateSpace,
    apply_filter,
    classify_transitions,
    core,
    filtering,
    io,
)
from test_widths import ref_codes

BLANKS = ("-", "NA", "0")


def chains(k: int):
    """(chain, filter) pairs over k states: lengths 2 to 300, around the
    multiples of the small blocks, and drawn at random."""
    rng = np.random.default_rng([k, 20])
    lengths = [2, 3, 4, 5, 6, 63, 64, 65, 66, 127, 128, 129, 300, *rng.integers(2, 301, 4)]
    for n in lengths:
        states = rng.integers(0, k, n)
        yield CompleteChain(states + 1, StateSpace(k)), FilterMatrix(rng.random((k, k)) < 0.4)


def outputs(x, F, tmp_path):
    """apply_filter's codes, write_chain's bytes, write_filtered_chain's
    bytes for each blank token, and classify_transitions."""
    y = apply_filter(x, F)
    io.write_chain(tmp_path / "x.txt", x)
    written = [(tmp_path / "x.txt").read_bytes()]
    for blank in BLANKS:
        io.write_filtered_chain(tmp_path / "y.txt", y, blank)
        written.append((tmp_path / "y.txt").read_bytes())
    return y.codes.tobytes(), written, classify_transitions(x, F)


def reference(x, F):
    """The codes, and the files as one join of the tokens."""
    states = x.as_indices().astype(np.intp)
    codes = ref_codes(states, F.bits)
    files = [" ".join(map(str, (states + 1).tolist()))]
    files += [" ".join(str(c) if c else blank for c in codes.tolist()) for blank in BLANKS]
    return codes, [(text + "\n").encode() for text in files]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("k", [2, 3, 9, 10, 17, 300])
def test_small_blocks_give_the_whole_chain_outputs(k, block, tmp_path, monkeypatch):
    cases = list(chains(k))
    whole = [outputs(x, F, tmp_path) for x, F in cases]
    for module in (core, filtering, io):
        monkeypatch.setattr(module, "_BLOCK", block)
    for (x, F), expected in zip(cases, whole):
        got = outputs(x, F, tmp_path)
        assert got == expected
        codes, files = reference(x, F)
        assert got[0] == codes.astype(x.as_indices().dtype).tobytes()
        assert got[1] == files


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("k", [3, 17])
def test_chains_just_past_one_block(k, extra, tmp_path):
    rng = np.random.default_rng([k, extra])
    x = CompleteChain(rng.integers(1, k + 1, core._BLOCK + extra), StateSpace(k))
    F = FilterMatrix(rng.random((k, k)) < 0.4)
    codes, files = reference(x, F)
    got = outputs(x, F, tmp_path)
    assert got[0] == codes.astype(x.as_indices().dtype).tobytes()
    assert got[1] == files
