"""SQUAREM in ``run_em`` against plain EM (``reference.plain_em``): the same
fixed point, a non-decreasing trace, a fraction of the E-step passes, both
fallbacks, exact structural zeros, and ``em_error``, the distance to the
fixed point that ``run_sem`` reports."""

import numpy as np
import pytest

from markovfilter import (
    FilterMatrix,
    TransitionMatrix,
    apply_filter,
    free_coordinates,
    run_em,
    run_sem,
    simulate_chain,
)
from markovfilter import em
from markovfilter.core import _normalize_rows, probs_to_theta
from conftest import BENCH_FILTER, BENCH_PROBS, SPARSE5_PROBS
from reference import plain_em

F_SPARSE5 = FilterMatrix(
    np.array([[c == "1" for c in row] for row in "00000 11000 01100 00100 00111".split()])
)
F_BENCH = FilterMatrix(BENCH_FILTER)

#: The benchmark's fits: the sparse panel (5 states, n = 5 000, seeds 0-2)
#: and the replicate chains (the bench case, n = 1 000, seeds 0-15).
PANEL = [("sparse", seed) for seed in range(3)] + [("replicate", seed) for seed in range(16)]


def sparse_chain(seed: int, n: int = 5_000):
    return apply_filter(simulate_chain(TransitionMatrix.from_probs(SPARSE5_PROBS), 1, n, seed), F_SPARSE5)


def panel_case(kind: str, seed: int) -> tuple:
    if kind == "sparse":
        return sparse_chain(seed), F_SPARSE5
    return apply_filter(simulate_chain(TransitionMatrix.from_probs(BENCH_PROBS), 1, 1_000, seed), F_BENCH), F_BENCH


@pytest.fixture
def passes(monkeypatch) -> list:
    """Every ``em._e_pass`` call from now on, as (its parameter, its counts)."""
    calls = []
    inner = em._e_pass

    def counted(seg, probs, bits):
        counts, loglik = inner(seg, probs, bits)
        calls.append((probs, counts))
        return counts, loglik

    monkeypatch.setattr(em, "_e_pass", counted)
    return calls


def cycle_kinds(calls: list, fit) -> tuple:
    """(extrapolations, simplex exits, likelihood fallbacks) of a converged
    fit from its passes. The pass at an extrapolated point is the only one
    whose parameter is no earlier pass's M-step. The start and the
    converging cycle make one pass each, a cycle whose extrapolation is
    kept three, one that leaves the simplex two (p1, p2), and one whose
    stabilised point loses likelihood four (p1, jump, p3, p2)."""
    steps, jumps = [], 0
    for probs, counts in calls:
        jumps += bool(steps) and not any(np.array_equal(probs, step) for step in steps)
        steps.append(_normalize_rows(counts))
    exits = fit.iterations - 1 - jumps
    return jumps, exits, fit.e_steps - 2 - 3 * jumps - 2 * exits


def assert_plain_em_fixed_point(y, F, fit):
    ref = plain_em(y, F, tol=1e-13)
    assert fit.converged and ref.converged
    assert np.max(np.abs(fit.probs - ref.probs)) <= 1e-9
    assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


@pytest.mark.parametrize("kind,seed", PANEL)
def test_reaches_plain_em_fixed_point(kind, seed):
    y, F = panel_case(kind, seed)
    fit = run_em(y, F)
    assert_plain_em_fixed_point(y, F, fit)
    assert len(fit.loglik_trace) == fit.iterations + 1
    assert run_sem(y, F, fit).em_error < 1e-9


def test_a_fifth_of_plain_em_passes(passes):
    squarem = plain = 0
    for kind, seed in PANEL:
        y, F = panel_case(kind, seed)
        fit = run_em(y, F)
        assert fit.e_steps == len(passes)
        squarem += len(passes)
        passes.clear()
        plain_em(y, F, tol=1e-12)
        plain += len(passes)
        passes.clear()
    assert squarem <= plain / 5


def test_likelihood_fallback_on_a_boundary_estimate(passes):
    # chain 2's p_24 goes to 0: some stabilised points lose likelihood
    y = sparse_chain(2)
    fit = run_em(y, F_SPARSE5)
    _, _, fallbacks = cycle_kinds(passes, fit)
    assert fallbacks > 0
    assert_plain_em_fixed_point(y, F_SPARSE5, fit)


def test_simplex_fallback(passes):
    # at n = 2 000, chain 0's extrapolation leaves the simplex
    y = sparse_chain(0, n=2_000)
    fit = run_em(y, F_SPARSE5)
    _, exits, _ = cycle_kinds(passes, fit)
    assert exits > 0
    assert_plain_em_fixed_point(y, F_SPARSE5, fit)


def test_structural_zeros_stay_exactly_zero(passes):
    probs = SPARSE5_PROBS.copy()
    probs[0, 1] = probs[3, 4] = probs[4, 3] = 0.0  # unrecorded, unrecorded, recorded
    probs /= probs.sum(axis=1, keepdims=True)
    support = probs > 0.0
    y = apply_filter(simulate_chain(TransitionMatrix.from_probs(probs, support), 1, 5_000, 7), F_SPARSE5)
    fit = run_em(y, F_SPARSE5, support=support)
    jumps, _, _ = cycle_kinds(passes, fit)
    assert fit.converged and jumps > 0
    assert all(np.all(at[~support] == 0.0) for at, _ in passes)
    assert np.all(fit.probs[~support] == 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_em_error_is_the_distance_to_the_fixed_point(seed):
    # plain EM stopped early lies ~1e-7 from the fixed point, which the
    # default fit reaches far closer than that
    y = sparse_chain(seed)
    early = plain_em(y, F_SPARSE5, tol=1e-8)
    free, _ = free_coordinates(early.probs)
    distance = np.max(np.abs(probs_to_theta(early.probs - run_em(y, F_SPARSE5).probs)[free]))
    assert run_sem(y, F_SPARSE5, early).em_error == pytest.approx(distance, rel=1e-2)


def test_em_error_is_zero_under_full_observation(worked_chain):
    F = FilterMatrix.all_ones(3)
    y = apply_filter(worked_chain, F)
    assert run_sem(y, F, run_em(y, F)).em_error == 0.0
