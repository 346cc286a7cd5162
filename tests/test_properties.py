"""Property-based checks of the E-step, the observed log-likelihood and the
consistency check against the enumeration oracles, of the gap kernel
against the backward recursion over gap lengths and of a stack of
parameter points against its slices, of the EM fit and its
Jacobian, on random parameters, filters, supports and chains, of a missing
support against the all-ones mask, and of the chain reader and the
segmentation against per-token and per-position loops."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovfilter import (
    CompleteChain,
    ConsistencyError,
    FileFormatError,
    FilteredChain,
    FilterMatrix,
    MarkovFilterError,
    StateSpace,
    TransitionMatrix,
    Verdict,
    SingularCovarianceError,
    ZeroDenominatorError,
    apply_filter,
    e_step,
    em_jacobian,
    enumerate_completions,
    free_coordinates,
    identifiability_verdict,
    m_step,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    run_em,
    run_sem,
    satisfies_r,
    simulate_chain,
    transition_counts,
    validate_consistency,
)
from markovfilter import io
from markovfilter.filtering import ChainSegments, _coverage_failure
from markovfilter.sem import sem_m1
from reference import default_sem_start
from test_sem import fd_hessian, moved


@st.composite
def filtered_cases(draw):
    """(P, F, y): an interior transition matrix on k in {2, 3, 4} states, any
    filter, and the filtered image of a chain of 1 to 6 transitions."""
    k = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k * k, max_size=k * k))
    probs = np.reshape(weights, (k, k))
    P = TransitionMatrix.from_probs(probs / probs.sum(axis=1, keepdims=True))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    F = FilterMatrix(np.reshape(bits, (k, k)))
    states = draw(st.lists(st.integers(1, k), min_size=2, max_size=7))
    return P, F, apply_filter(CompleteChain(tuple(states), StateSpace(k)), F)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(filtered_cases())
def test_e_step_and_loglik_match_the_oracles(case):
    P, F, y = case
    E = e_step(y, P, F)
    np.testing.assert_allclose(E.counts, oracle_expected_counts(y, F, P).counts, atol=1e-10)
    assert E.total == pytest.approx(y.n_transitions, abs=1e-10)
    expected = np.log(oracle_observed_likelihood(y, F, P))
    assert observed_loglik(y, P, F) == pytest.approx(expected, abs=1e-10)


def backward_recursion(seg, p0):
    """The reference gap kernel: powers by a forward loop, each gap type's
    weight scattered into B_nu, then Z_t = B_(t+1) + Z_(t+1) P0^T backward
    over the lengths (Baum-Welch); counts P0 o sum_t (P0^t)^T Z_t."""
    k, top = seg.k, seg.nu_max
    trail = seg.b == k
    powers = np.empty((top + 1, k, k), dtype=p0.dtype)
    powers[0] = np.eye(k)
    for t in range(top):
        np.matmul(powers[t], p0, out=powers[t + 1])
    ends = np.minimum(seg.b, k - 1)  # any column; a trailing gap takes the row sum
    masses = np.where(trail, powers[seg.nu, seg.a].sum(axis=1), powers[seg.nu, seg.a, ends])
    w = seg.mult / masses
    inner = ~trail
    weights = np.zeros((top + 1, k, k), dtype=p0.dtype)
    np.add.at(weights, (seg.nu[inner], seg.a[inner], seg.b[inner]), w[inner])
    np.add.at(weights, (seg.nu[trail], seg.a[trail]), w[trail, None])
    z = np.zeros((top + 1, k, k), dtype=p0.dtype)
    for t in range(top - 1, -1, -1):
        np.matmul(z[t + 1], p0.T, out=z[t])
        z[t] += weights[t + 1]
    return p0 * np.tensordot(powers[:top], z[:top], axes=([0, 1], [0, 1])), masses


@st.composite
def unrecorded_parts(draw, k):
    """A positive substochastic k x k p0, real or complex-stepped along a
    random direction as in ``em_jacobian``."""
    weights = np.reshape(draw(st.lists(st.floats(0.05, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    p0 = weights / weights.sum(axis=1, keepdims=True) * draw(st.floats(0.3, 1.0))
    if draw(st.booleans()):
        direction = draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k, max_size=k * k))
        p0 = p0 + 1e-30j * np.reshape(direction, (k, k))
    return p0


@st.composite
def gap_kernel_cases(draw):
    """(segments, p0): up to six interior gap types and a trailing one of
    lengths 1 to 40 on k in 2..6 states, and a p0 of ``unrecorded_parts``."""
    k = draw(st.integers(2, 6))
    state, length = st.integers(0, k - 1), st.integers(1, 40)
    inner = draw(st.lists(st.tuples(state, length, state, st.integers(1, 5)), min_size=1, max_size=6))
    a, nu, b, mult = map(list, zip(*inner, (draw(state), draw(length), k, 1)))
    seg = ChainSegments(k, np.zeros((k, k)), a, nu, b, mult, range(len(a)))
    return seg, draw(unrecorded_parts(k))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gap_kernel_cases())
def test_gap_kernel_matches_the_backward_recursion(case):
    seg, p0 = case
    counts, masses = seg.gap_counts(p0)
    ref_counts, ref_masses = backward_recursion(seg, p0)
    assert counts.dtype == ref_counts.dtype and masses.dtype == ref_masses.dtype
    for got, ref in ((counts, ref_counts), (masses, ref_masses)):
        np.testing.assert_allclose(got.real, ref.real, rtol=1e-13, atol=0)
        # the step's part: rounding of h = 1e-30 times the real part's scale
        np.testing.assert_allclose(got.imag, ref.imag, rtol=1e-13, atol=1e-43 * np.abs(ref.real).max())


@st.composite
def stacked_kernel_cases(draw):
    """(segments, stack): a ``gap_kernel_cases`` p0 and up to four more of
    ``unrecorded_parts``, stacked (complex if any slice is)."""
    seg, p0 = draw(gap_kernel_cases())
    return seg, np.stack([p0, *draw(st.lists(unrecorded_parts(seg.k), max_size=4))])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stacked_kernel_cases())
def test_stacked_gap_kernel_gives_each_slice_alone(case):
    seg, stack = case
    table, masses = seg.gap_masses(stack)
    counts, counted_masses = seg.gap_counts(stack)
    np.testing.assert_array_equal(counted_masses, masses)
    for i, p0 in enumerate(stack):
        slice_table, slice_masses = seg.gap_masses(p0)
        np.testing.assert_array_equal(table[i], slice_table)
        np.testing.assert_array_equal(masses[i], slice_masses)
        np.testing.assert_array_equal(counts[i], seg.gap_counts(p0)[0])
    # a stack of stacks reads the same slices
    np.testing.assert_array_equal(seg.gap_counts(stack[:, None])[0][:, 0], counts)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(stacked_kernel_cases(), st.data())
def test_a_zero_mass_in_one_slice_raises_its_message(case, data):
    seg, stack = case
    # no unrecorded step out of a gap's start state: that gap has mass zero
    i = data.draw(st.integers(0, len(stack) - 1))
    stack[i, seg.a[data.draw(st.integers(0, seg.a.size - 1))]] = 0.0
    with pytest.raises(ZeroDenominatorError) as alone:
        seg.gap_counts(stack[i])
    with pytest.raises(ZeroDenominatorError) as stacked:
        seg.gap_counts(stack)
    assert str(stacked.value) == str(alone.value)


@st.composite
def patterns(draw):
    """(P, F, support, y): k in {2, 3}, any filter, a support mask (or None)
    with P positive exactly on it, and an arbitrary pattern of 1 to 7
    transitions that starts observed."""
    k = draw(st.integers(2, 3))
    support = None
    mask = np.ones((k, k), dtype=bool)
    if draw(st.booleans()):
        mask = np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k))
        mask[np.arange(k), draw(st.permutations(range(k)))] = True  # rows and columns nonempty
        support = mask
    weights = np.reshape(draw(st.lists(st.floats(0.05, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    weights = weights * mask
    P = TransitionMatrix.from_probs(weights / weights.sum(axis=1, keepdims=True), mask)
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    F = FilterMatrix(np.reshape(bits, (k, k)))
    label = st.integers(1, k)
    symbols = [draw(label)] + draw(st.lists(st.none() | label, min_size=1, max_size=7))
    return P, F, support, FilteredChain(tuple(symbols), StateSpace(k))


def uncovered(symbols, bits, p) -> bool:
    """Whether observed position p > 0 has no recorded transition to or
    from an observed neighbour."""
    n = len(symbols) - 1
    left, s = symbols[p - 1], symbols[p]
    right = symbols[p + 1] if p < n else None
    into = left is not None and bits[left - 1, s - 1]
    out = right is not None and bits[s - 1, right - 1]
    return not (into or out)


def first_failure(symbols, bits, support):
    """(position, rule) of the first position that breaks a consistency
    rule, scanning the pattern one position at a time; None if none does."""
    k = len(bits)
    support = np.ones((k, k), dtype=bool) if support is None else support
    n = len(symbols) - 1
    for p, s in enumerate(symbols):
        if s is not None:
            right = symbols[p + 1] if p < n else None
            if p > 0 and uncovered(symbols, bits, p):
                return p, "observed position has no recorded adjacent transition"
            if right is not None and not support[s - 1, right - 1]:
                return p, "observed transition off the support"
        elif symbols[p - 1] is not None:  # the first blank of a gap
            end = next((q for q in range(p + 1, n + 1) if symbols[q] is not None), None)
            reached = {symbols[p - 1] - 1}
            for _ in range((n if end is None else end) - (p - 1)):
                reached = {j for i in reached for j in range(k) if support[i, j] and not bits[i, j]}
            if end is None and not reached:
                return p, "trailing blanks admit no unrecorded continuation"
            if end is not None and symbols[end] - 1 not in reached:
                return p, "no unrecorded path of the gap's length"
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(patterns())
def test_validation_accepts_exactly_the_completable_patterns(case):
    P, F, support, y = case
    expected = first_failure(y.symbols, F.bits, support)
    try:
        validate_consistency(y, F, support)
    except ConsistencyError as err:
        assert (err.position, err.rule) == expected
        assert len(enumerate_completions(y, F, P)) == 0
    else:
        assert expected is None
        assert len(enumerate_completions(y, F, P)) > 0


@st.composite
def unsupported_cases(draw):
    """(F, y): k in 2..4, any filter, and either the filtered image of a
    chain of 1 to 30 transitions or an arbitrary pattern of that length
    that starts observed."""
    k = draw(st.integers(2, 4))
    F = FilterMatrix(np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k)))
    label = st.integers(1, k)
    if draw(st.booleans()):
        return F, apply_filter(CompleteChain(tuple(draw(st.lists(label, min_size=2, max_size=31))), StateSpace(k)), F)
    symbols = [draw(label)] + draw(st.lists(st.none() | label, min_size=1, max_size=30))
    return F, FilteredChain(tuple(symbols), StateSpace(k))


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (MarkovFilterError, ValueError) as err:
        return type(err), str(err)


def verdict_fields(v) -> tuple:
    """The verdict's fields, the witness as bytes."""
    witness = None if v.closure_witness is None else v.closure_witness.bits.tobytes()
    return v.in_c1, v.in_c2, v.in_c3, witness, v.satisfies_r, v.verdict


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(unsupported_cases())
def test_no_support_is_the_all_ones_mask(case):
    F, y = case
    ones = np.ones((F.k, F.k))
    assert outcome(validate_consistency, y, F) == outcome(validate_consistency, y, F, ones)
    fits = [outcome(run_em, y, F, max_iter=200, support=s) for s in (None, ones)]
    if isinstance(fits[0], tuple):
        assert fits[0] == fits[1]
    else:
        got, ref = fits
        assert got.probs.tobytes() == ref.probs.tobytes()
        assert got.expected_counts.counts.tobytes() == ref.expected_counts.counts.tobytes()
        assert (got.loglik_trace, got.iterations, got.converged) == (ref.loglik_trace, ref.iterations, ref.converged)
    plain, masked = (identifiability_verdict(F, s) for s in (None, ones))
    assert verdict_fields(plain) == verdict_fields(masked)
    assert plain.satisfies_r == satisfies_r(F, None)  # the row check, no special case


#: Two-state filters that record one self-loop and hide the other three
#: transitions: every coordinate loses information and EM converges at a
#: moderate rate, where the forced iteration is well posed.
ONE_SELF_LOOP = (((1, 0), (0, 0)), ((0, 0), (0, 1)))


@st.composite
def fitted_cases(draw, filters=None):
    """(y, F, fit): an interior transition matrix on k in {2, 3} states, a
    filter with a sufficient identifiability witness (or one of
    ``filters``, all of the same k), and the EM fit to the filtered image of
    a simulated chain of 200 to 800 transitions (at most 3000 EM steps)."""
    if filters is None:
        k = draw(st.integers(2, 3))
        bits = np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k))
    else:
        bits = np.array(draw(st.sampled_from(filters)), dtype=bool)
        k = len(bits)
    F = FilterMatrix(bits)
    assume(identifiability_verdict(F).verdict is Verdict.SUFFICIENT_IDENTIFIABLE)
    weights = np.reshape(draw(st.lists(st.floats(0.1, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    P = TransitionMatrix.from_probs(weights / weights.sum(axis=1, keepdims=True))
    y = apply_filter(simulate_chain(P, 1, draw(st.integers(200, 800)), draw(st.integers(0, 2**16))), F)
    return y, F, run_em(y, F, max_iter=3000)


def interior(fit) -> bool:
    return fit.converged and fit.probs.min() > 1e-3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fitted_cases())
def test_complex_step_jacobian_matches_central_differences(case):
    y, F, fit = case
    assume(interior(fit))
    theta = fit.theta_hat.theta

    def em_map(t):
        return m_step(e_step(y, t, F)).theta

    h = 1e-6
    fd = np.array([(em_map(theta + h * e) - em_map(theta - h * e)) / (2 * h) for e in np.eye(theta.size)])
    np.testing.assert_allclose(em_jacobian(y, F, theta), fd, rtol=0, atol=1e-7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fitted_cases(ONE_SELF_LOOP))
def test_complex_step_jacobian_matches_forced_iterations(case):
    # The forced iteration is only as good as its perturbations. Where EM
    # converges fast, or a coordinate carries almost no missing information
    # of its own (M1[i, i] near 0), they reach rounding size before the
    # ratios settle and the row freezes on noise; at a rate near 1 the
    # 1e-6 ratio tolerance leaves errors of 1e-6 / (1 - rate). Those cases
    # are left out, as are three-state filters: there, even at moderate
    # rates, the forced ratios often stop while the perturbation is still
    # large enough to leave an error above 1e-4.
    y, F, fit = case
    assume(interior(fit))
    m1 = em_jacobian(y, F, fit.theta_hat)
    assume(0.3 <= np.max(np.abs(np.linalg.eigvals(m1))) <= 0.95 and np.diag(m1).min() >= 0.05)
    start = default_sem_start(fit.theta_hat, run_sem(y, F, fit).v_com, y.space.k)
    forced, _ = sem_m1(y, F, fit.theta_hat, start)
    np.testing.assert_allclose(m1, forced, rtol=0, atol=1e-4)


@st.composite
def supported_fits(draw):
    """(y, F, fit): k in {2, 3}, a support with a zero in the last column of
    some row, an identifiable filter, and the EM fit to the filtered image
    of a simulated chain of 300 to 800 transitions that leaves every state.
    Under a support only the two-zero-column family certifies a filter, and
    only for k >= 3: k = 3 draws a sparse filter above such a witness, and
    k = 2 records everything."""
    k = draw(st.sampled_from((3, 2)))
    dense = st.sampled_from((True, True, True, False))  # hidden paths that branch
    mask = np.reshape(draw(st.lists(dense, min_size=k * k, max_size=k * k)), (k, k))
    perm = np.array(draw(st.permutations(range(k))))
    mask[np.arange(k), perm] = True  # rows and columns nonempty
    mask[draw(st.sampled_from(np.flatnonzero(perm != k - 1).tolist())), k - 1] = False
    col = draw(st.integers(0, k - 2))
    mask[:, col] = True
    sparse = st.sampled_from((False, False, False, True))  # little recorded: M1 far from 0
    bits = np.reshape(draw(st.lists(sparse, min_size=k * k, max_size=k * k)), (k, k))
    bits[:, col] = True  # a witness: the other two columns zero
    F = FilterMatrix(bits | (k == 2))
    assert k == 2 or identifiability_verdict(F, mask).verdict is Verdict.SUFFICIENT_IDENTIFIABLE
    weights = np.reshape(draw(st.lists(st.floats(0.1, 1.0), min_size=k * k, max_size=k * k)), (k, k))
    weights = weights * mask
    P = TransitionMatrix.from_probs(weights / weights.sum(axis=1, keepdims=True), mask)
    x = simulate_chain(P, 1, draw(st.integers(300, 800)), draw(st.integers(0, 2**16)))
    assume(np.all(transition_counts(x).counts.sum(axis=1) > 0))  # every state is left
    y = apply_filter(x, F)
    return y, F, run_em(y, F, max_iter=3000, support=mask)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(supported_fits())
def test_v_obs_is_the_inverse_observed_information_on_the_free_coordinates(case):
    # the free directions are e_ij - e_ir with r_i the row's last positive
    # entry, which lies before the last column in some row
    y, F, fit = case
    positive = fit.probs[fit.probs > 0]
    assume(fit.converged and positive.min() > 0.02)
    try:
        sem = run_sem(y, F, fit)
    except SingularCovarianceError:  # EM stopped at a saddle point
        assume(False)
    free, lift = free_coordinates(fit.probs)
    # central differences err by about (h / p)^2 relative at the smallest p
    h = 1e-3 * positive.min()
    H = fd_hessian(lambda delta: observed_loglik(y, moved(fit.probs, lift, delta), F), np.zeros(free.size), h)
    v_fd = np.linalg.inv(-H)
    v = sem.v_obs[np.ix_(free, free)]
    assert np.max(np.abs(v - v_fd)) <= 1e-4 * np.max(np.abs(v_fd))
    # a row with a zero last column sums to one inside the reported layout
    k = y.space.k
    for i in np.flatnonzero(fit.probs[:, -1] == 0):
        block = slice(i * (k - 1), (i + 1) * (k - 1))
        assert abs(sem.v_obs[block, block].sum()) <= 1e-12 * np.max(np.abs(v))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fitted_cases())
def test_em_log_likelihood_never_decreases(case):
    _, _, fit = case
    trace = np.array(fit.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[1:]))


#: Whitespace between tokens; \x1c-\x1f separate tokens for ``str.split``
#: but are not ASCII whitespace.
SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", "\r", " \t ", "\x0b", "\x0c", "\x1c", "\x1f")
BAD_TOKENS = ("0", "x", "13", "1.5", "--", "1-", "N", "+", "?!")


@st.composite
def chain_files(draw):
    """(text, k, blank): a filtered chain of k in 2..12 states written with
    mixed separators, leading and trailing whitespace and sometimes no final
    newline; some labels are spelled with a leading zero and some tokens are
    bad. ``blank`` None stands for a complete chain."""
    k = draw(st.integers(2, 12))
    blank = draw(st.sampled_from([None, "-", "?", "NA", "1"]))
    label = st.integers(1, k).map(str)
    kinds = [label, label] + ([] if blank is None else [st.just(blank)])
    if draw(st.booleans()):  # other spellings
        kinds += [st.integers(1, k).map(lambda s: f"0{s}"), st.sampled_from(BAD_TOKENS)]
    tokens = draw(st.lists(st.one_of(kinds), max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = seps[0] * draw(st.booleans()) + "".join(s + t for s, t in zip(seps[1:], tokens))
    return text + draw(st.sampled_from(["", "\n", " \n", "\t"])), k, blank


def reference_read(text, k, blank):
    """Codes, or the error message, of the reader's rules applied one token
    at a time."""
    expected = "not a state label" if blank is None else f"neither a state nor {blank!r}"
    codes = []
    for pos, tok in enumerate(text.split()):
        if tok == blank:
            codes.append(0)
            continue
        try:
            state = int(tok)
        except ValueError:
            return f"token {pos + 1} ({tok!r}) is {expected}"
        if not 1 <= state <= k:
            return f"token {pos + 1}: state {state} outside 1..{k}"
        codes.append(state)
    if blank is None:
        return codes if len(codes) >= 2 else "a chain file needs at least two states"
    if not codes:
        return "empty filtered chain"
    if len(codes) < 2:
        return "a filtered chain needs at least two symbols"
    return codes if codes[0] else "the initial state must be observed"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=chain_files())
def test_reader_matches_the_per_token_rules(case, tmp_path_factory):
    text, k, blank = case
    path = tmp_path_factory.getbasetemp() / "chain.txt"
    path.write_bytes(text.encode("ascii"))
    expected = reference_read(text, k, blank)
    try:
        if blank is None:
            codes = io.read_chain(path, k).as_indices() + 1
        else:
            codes = io.read_filtered_chain(path, k, blank).codes
    except FileFormatError as err:
        assert str(err) == f"{path}: {expected}"
    else:
        assert codes.dtype == np.uint8  # k <= 12
        assert codes.tolist() == expected


@st.composite
def segmented_chains(draw):
    """(y, F): a filtered chain on k in 2..8 states built from observed
    symbols and blank runs of 1 to 5, with no blank, or blank after
    position 0, and any filter."""
    k = draw(st.integers(2, 8))
    label = st.integers(1, k)
    style = draw(st.sampled_from(["runs", "runs", "no blank", "blank after 0"]))
    symbols = [draw(label)]
    if style == "blank after 0":
        symbols += [None] * draw(st.integers(1, 12))
    elif style == "no blank":
        symbols += draw(st.lists(label, min_size=1, max_size=12))
    else:
        run = st.integers(1, 5).map(lambda m: [None] * m)
        for part in draw(st.lists(label.map(lambda s: [s]) | run, min_size=1, max_size=20)):
            symbols += part
    F = FilterMatrix(np.reshape(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)), (k, k)))
    return FilteredChain(tuple(symbols), StateSpace(k)), F


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(segmented_chains())
def test_segments_and_coverage_match_a_loop(case):
    y, F = case
    k, symbols = y.space.k, y.symbols
    n = len(symbols) - 1
    tally, types = np.zeros((k, k)), {}
    observed = [p for p, s in enumerate(symbols) if s is not None]
    for p, q in zip(observed, observed[1:] + [n]):
        if q == p + 1 and symbols[q] is not None:
            tally[symbols[p] - 1, symbols[q] - 1] += 1
        elif q > p:  # a gap; it ends the chain when symbols[q] is blank
            key = (symbols[p] - 1, q - p, symbols[q] and symbols[q] - 1)
            first, mult = types.get(key, (p, 0))
            types[key] = (first, mult + 1)

    seg = y.segments
    np.testing.assert_array_equal(seg.pair_counts, tally)
    assert seg.pair_counts.dtype == float and seg.mult.dtype == float
    assert all(arr.dtype == np.intp for arr in (seg.a, seg.nu, seg.b, seg.first))
    got = zip(seg.a.tolist(), seg.nu.tolist(), seg.b.tolist())
    assert [(a, nu, None if b == k else b) for a, nu, b in got] == list(types)
    # b = k marks one type exactly when the chain ends in blanks
    assert np.count_nonzero(seg.b == k) == (symbols[-1] is None)
    assert seg.first.tolist() == [f for f, _ in types.values()]
    assert seg.mult.tolist() == [m for _, m in types.values()]
    assert seg.nu_max == max((nu for _, nu, _ in types), default=0)
    expected = next((p for p in observed[1:] if uncovered(symbols, F.bits, p)), None)
    assert _coverage_failure(y, F) == expected
