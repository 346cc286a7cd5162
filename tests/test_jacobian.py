"""``em_jacobian``'s stacked complex pass against the per-coordinate loop
(``reference.loop_jacobian``): M1 bit for bit on the benchmark's fits and
on a filter whose M1 vanishes, also when every chunk holds one coordinate;
one E-step pass for ``run_sem`` on a replicate chain; and a stacked pass
against its slices, counts and log-likelihood."""

import numpy as np
import pytest

from markovfilter import TransitionMatrix, apply_filter, em_jacobian, free_coordinates, run_em, run_sem, simulate_chain
from markovfilter import em, sem
from reference import loop_jacobian
from test_sem import F_DIAG
from test_squarem import PANEL, panel_case

#: The sparse panel, the replicate chains, and the chain of
#: ``test_sem``'s ``test_alternating_filter_has_no_missing_information``.
CASES = [*PANEL, ("alternating", 15)]


@pytest.fixture(scope="module")
def fits() -> dict:
    """(kind, seed) -> (y, F, EM fit)."""
    out = {}
    for kind, seed in CASES:
        if kind == "alternating":
            P = TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])
            y, F = apply_filter(simulate_chain(P, 1, 200, seed=seed), F_DIAG), F_DIAG
        else:
            y, F = panel_case(kind, seed)
        out[kind, seed] = y, F, run_em(y, F)
    return out


@pytest.fixture
def passes(monkeypatch) -> list:
    """The shape of the parameter of every ``_e_pass`` call ``sem`` makes
    from now on."""
    calls = []
    inner = sem._e_pass

    def counted(seg, probs, bits):
        calls.append(probs.shape)
        return inner(seg, probs, bits)

    monkeypatch.setattr(sem, "_e_pass", counted)
    return calls


@pytest.mark.parametrize("kind,seed", CASES)
def test_one_stacked_pass_gives_the_loop_jacobian(fits, kind, seed):
    y, F, fit = fits[kind, seed]
    ref = loop_jacobian(y, F, fit.probs)
    assert em_jacobian(y, F, fit.probs).tobytes() == ref.tobytes()
    assert run_sem(y, F, fit).m1.tobytes() == ref.tobytes()
    if kind == "alternating":
        assert np.all(ref == 0.0)


@pytest.mark.parametrize("kind,seed", CASES)
def test_chunks_of_one_coordinate_give_the_same_jacobian(fits, kind, seed, passes, monkeypatch):
    y, F, fit = fits[kind, seed]
    whole = em_jacobian(y, F, fit.probs)
    monkeypatch.setattr(sem, "_BLOCK", 1)
    passes.clear()
    assert em_jacobian(y, F, fit.probs).tobytes() == whole.tobytes()
    free = free_coordinates(fit.probs)[0]
    assert passes == [(1, *fit.probs.shape)] * free.size


def test_run_sem_makes_one_pass_on_a_replicate_chain(fits, passes):
    y, F, fit = fits["replicate", 0]
    run_sem(y, F, fit)
    assert passes == [(6, 3, 3)]


@pytest.mark.parametrize("kind,seed", PANEL)
def test_a_stacked_pass_gives_each_slice_alone(fits, kind, seed):
    y, F, fit = fits[kind, seed]
    rng = np.random.default_rng(seed)
    stack = fit.probs * rng.uniform(0.9, 1.1, (6, *fit.probs.shape))
    stack /= stack.sum(axis=-1, keepdims=True)
    for probs in (stack, stack + 1e-30j * rng.uniform(-1.0, 1.0, stack.shape)):
        counts, loglik = em._e_pass(y.segments, probs, F.bits)
        for i, one in enumerate(probs):
            one_counts, one_loglik = em._e_pass(y.segments, one, F.bits)
            assert counts[i].tobytes() == one_counts.tobytes()
            assert loglik[i] == one_loglik
