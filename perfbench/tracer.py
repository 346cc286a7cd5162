"""In-memory span recorder for the markovfilter benchmark.

The tracer replaces the layer-boundary functions of the installed package
with thin wrappers, in every ``markovfilter`` module namespace that binds
them, so calls made through any module (including calls one layer makes
into another) are recorded. Nothing in the package itself changes; the
wrappers are removed again by :meth:`Tracer.uninstall`.

A span is ``[name, op, parent, start, end, probe, error]``: ``op`` is the
benchmark op that caused it (``None`` during set-up), ``parent`` the index
of the enclosing span, ``probe`` marks extra calls made after an op to
measure a layer on its own, and ``error`` is the exception class name when
the call raised.
"""

from __future__ import annotations

import functools
import importlib
import time

#: The public functions wrapped, by module; names are ``<module>.<function>``.
#: A call into an unwrapped function counts as self time of its caller, so
#: cross-module calls the ops make (e.g. ``cli`` -> ``filtering``) are listed
#: even when no metric names them.
TRACED = {
    "cli": ("main",),
    "io": ("read_filtered_chain", "read_filter_csv", "write_kv_report"),
    "core": ("simulate_chain",),
    "filtering": ("apply_filter", "validate_consistency", "reduction_fraction", "identifiability_verdict"),
    "em": ("run_em", "e_step", "segment_chain"),
    "sem": ("run_sem", "sem_m1"),
    "inference": ("chi_square_test", "confidence_interval"),
    "oracle": ("distinguishability_check", "oracle_expected_counts"),
}

MODULES = tuple(TRACED)
NAME, OP, PARENT, START, END, PROBE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self.probe = False
        self._stack: list = []
        self._patched: list = []
        #: name -> callback(args, kwargs, result), run after a successful call
        self.hooks: dict = {}

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer.op, tracer._stack[-1] if tracer._stack else None, 0.0, 0.0, tracer.probe, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec[ERROR] = type(err).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a package module binds it."""
        originals = {}
        for short, names in TRACED.items():
            module = importlib.import_module(f"markovfilter.{short}")
            for fname in names:
                originals[getattr(module, fname)] = f"{short}.{fname}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for short in ("__init__",) + MODULES:
            module = importlib.import_module("markovfilter" if short == "__init__" else f"markovfilter.{short}")
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def probe_call(self, fn, *args):
        """Call ``fn`` with its spans flagged as a probe, outside op time."""
        self.probe = True
        try:
            return fn(*args)
        finally:
            self.probe = False

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def to_json(self) -> list:
        return [list(s) for s in self.spans]


def split_by_op(spans) -> dict:
    """Group spans by op, renumbering parents within each group."""
    groups: dict = {}
    where: dict = {}
    for idx, span in enumerate(spans):
        group = groups.setdefault(span[OP], [])
        where[idx] = len(group)
        span = list(span)
        if span[PARENT] is not None:
            span[PARENT] = where[span[PARENT]]
        group.append(span)
    return groups


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover (s)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def input_stats(y, gaps) -> dict:
    """Properties of one filtered chain ``y`` with gaps from ``segment_chain``."""
    return {
        "k": y.space.k,
        "n": y.n_transitions,
        "blank_fraction": y.blank_count / len(y),
        "gap_types": len({(g.prev_state, g.length, g.next_state) for g in gaps}),
        "longest_gap": max((g.length for g in gaps), default=0),
    }
