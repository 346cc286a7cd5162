"""The benchmark tracer's contract with the package: every function it
wraps exists where it looks for it, and its input statistics read the
per-gap listing of ``markovfilter.em.segment_chain``. The tracer is loaded
from its file, without touching ``sys.path`` or writing under its
directory."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from markovfilter import FilteredChain, StateSpace
from markovfilter.em import segment_chain

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ beside it
        spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module(tracer):
    missing = [
        f"{short}.{name}"
        for short, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"markovfilter.{short}"), name, None))
    ]
    assert missing == []


def test_input_stats_reads_the_gap_listing(tracer):
    y = FilteredChain(tuple(None if c == "_" else int(c) for c in "11_312232____311___31"), StateSpace(3))
    assert tracer.input_stats(y, segment_chain(y)[1]) == {
        "k": 3,
        "n": 20,
        "blank_fraction": 8 / 21,
        "gap_types": 3,
        "longest_gap": 5,
    }
