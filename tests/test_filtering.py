"""Filter application, transition classification, the identifiability
checker, and pattern consistency."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from markovfilter import (
    CompleteChain,
    ConsistencyError,
    FilteredChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    TransitionVisibility,
    Verdict,
    apply_filter,
    classify_transitions,
    closure_witness,
    dominates,
    enumerate_completions,
    identifiability_verdict,
    in_class_c1,
    in_class_c2,
    in_class_c3,
    reduction_fraction,
    run_em,
    satisfies_r,
    validate_consistency,
)
from markovfilter.core import support_mask
from conftest import WORKED_FILTERED, random_interior_probs


def random_chain(rng, k, n):
    states = tuple(int(s) for s in rng.integers(1, k + 1, n + 1))
    return CompleteChain(states, StateSpace(k))


def filtered_images(F, support, n):
    """The symbols of every pattern ``apply_filter`` makes from a chain of
    n transitions on the support (any chain when it is None)."""
    images = set()
    for states in itertools.product(range(1, F.k + 1), repeat=n + 1):
        if support is None or all(support[i - 1, j - 1] for i, j in zip(states, states[1:])):
            images.add(apply_filter(CompleteChain(states, StateSpace(F.k)), F).symbols)
    return images


class TestApplyFilter:
    def test_worked_example_golden(self, worked_chain, worked_filter):
        y = apply_filter(worked_chain, worked_filter)
        assert "".join("_" if s is None else str(s) for s in y.symbols) == WORKED_FILTERED

    def test_all_ones_keeps_everything(self, worked_chain):
        y = apply_filter(worked_chain, FilterMatrix.all_ones(3))
        assert y.symbols == worked_chain.states
        assert reduction_fraction(y) == 0.0

    def test_all_zeros_reveals_initial_only(self):
        chain = CompleteChain((1, 2, 1), StateSpace(2))
        y = apply_filter(chain, FilterMatrix.all_zeros(2))
        assert y.symbols == (1, None, None)

    def test_dimension_mismatch(self, worked_chain):
        with pytest.raises(ValueError):
            apply_filter(worked_chain, FilterMatrix.all_ones(2))


class TestFilteredChainStorage:
    def test_codes_hold_blanks_as_zero(self):
        y = FilteredChain((2, None, 3, None), StateSpace(3))
        np.testing.assert_array_equal(y.codes, [2, 0, 3, 0])
        with pytest.raises(ValueError):
            y.codes[1] = 1
        assert y.symbols == (2, None, 3, None)
        assert (len(y), y.n_transitions, y.blank_count) == (4, 3, 2)
        assert " ".join("-" if s is None else str(s) for s in y.symbols) == "2 - 3 -"

    def test_from_codes_equals_the_tuple_form(self):
        y = FilteredChain.from_codes(np.array([2, 0, 3, 0]), StateSpace(3))
        assert y == FilteredChain((2, None, 3, None), StateSpace(3))
        assert hash(y) == hash(FilteredChain((2, None, 3, None), StateSpace(3)))

    @pytest.mark.parametrize(
        "symbols, message",
        [
            ((1,), "a filtered chain needs at least two symbols"),
            ((None, 1), "the initial state must be observed"),
            ((1, None, 0), "state 0 at position 2 outside 1..2"),
            ((0, 1), "state 0 at position 0 outside 1..2"),
            ((1, 3, None, -1), "state 3 at position 1 outside 1..2"),
            ((1, None, 10**30), "state 1000000000000000000000000000000 at position 2 outside 1..2"),
            ((1.7, None, 2.0), "state 1.7 at position 0 is not an integer"),
            ((1, None, 2.0, 1.5), "state 1.5 at position 3 is not an integer"),
            ((1, float("inf")), "state inf at position 1 is not an integer"),
            ((1, None, -np.inf), "state -inf at position 2 is not an integer"),
            ((1, None, float("nan")), "state nan at position 2 is not an integer"),
        ],
    )
    def test_rejections_name_the_position(self, symbols, message):
        with pytest.raises(ValueError) as err:
            FilteredChain(symbols, StateSpace(2))
        assert str(err.value) == message

    def test_from_codes_refuses_a_non_integral_code(self):
        with pytest.raises(ValueError, match="state 2.5 at position 2 is not an integer"):
            FilteredChain.from_codes(np.array([1.0, 0.0, 2.5]), StateSpace(3))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"state {bad} at position 1 is not an integer"):
                FilteredChain.from_codes(np.array([1.0, bad]), StateSpace(3))
        assert FilteredChain.from_codes(np.array([1.0, 0.0, 2.0]), StateSpace(3)).symbols == (1, None, 2)

    def test_from_codes_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="state -1 at position 1 outside 1..2"):
            FilteredChain.from_codes([1, -1, 2], StateSpace(2))

    def test_segmented_once(self, worked_chain, worked_filter):
        y = apply_filter(worked_chain, worked_filter)
        assert y.segments is y.segments


class TestClassify:
    def test_worked_example_categories(self, worked_chain, worked_filter):
        cls = classify_transitions(worked_chain, worked_filter)
        assert cls[(2, 3)] is TransitionVisibility.INDIRECT
        assert cls[(3, 3)] is TransitionVisibility.UNOBSERVED
        assert cls[(1, 1)] is TransitionVisibility.DIRECT

    def test_all_ones_all_direct(self, worked_chain):
        cls = classify_transitions(worked_chain, FilterMatrix.all_ones(3))
        assert set(cls.values()) == {TransitionVisibility.DIRECT}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(
        st.lists(st.integers(1, k), min_size=2, max_size=30),
        st.lists(st.booleans(), min_size=k * k, max_size=k * k),
    )))
    def test_matches_the_per_transition_definition(self, case):
        states, flat = case
        k = int(np.sqrt(len(flat)))
        x, F = CompleteChain(states, StateSpace(k)), FilterMatrix(np.reshape(flat, (k, k)))
        survived = [s is not None for s in apply_filter(x, F).symbols]
        expected: dict = {}
        for t, (i, j) in enumerate(zip(states, states[1:])):
            if F.bits[i - 1, j - 1]:
                expected[(i, j)] = TransitionVisibility.DIRECT
            elif survived[t] and survived[t + 1]:
                expected[(i, j)] = TransitionVisibility.INDIRECT
            else:
                expected.setdefault((i, j), TransitionVisibility.UNOBSERVED)
        assert classify_transitions(x, F) == expected


class TestDominates:
    def test_adding_ones_dominates(self):
        H = FilterMatrix(np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
        M = FilterMatrix(np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0]]))
        assert dominates(M, H)
        assert not dominates(H, M)

    def test_reflexive(self, worked_filter):
        assert dominates(worked_filter, worked_filter)

    def test_zeros_do_not_dominate_ones(self):
        assert not dominates(FilterMatrix.all_zeros(3), FilterMatrix.all_ones(3))


class TestClassMembership:
    def test_c1_witness(self):
        D = FilterMatrix(np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]]))
        assert in_class_c1(D) == (1, 3)

    def test_bench_filter_not_c1(self, bench_filter):
        assert in_class_c1(bench_filter) is None

    def test_all_ones_not_c1(self):
        assert in_class_c1(FilterMatrix.all_ones(3)) is None

    def test_c2_witness(self):
        F = FilterMatrix(np.array([[0, 0, 1], [0, 0, 1], [0, 0, 1]]))
        assert in_class_c2(F) == (1, 2)

    def test_c3_is_the_transpose_condition(self):
        F = FilterMatrix(np.array([[0, 0, 1], [0, 0, 1], [0, 0, 1]]).T)
        assert in_class_c3(F) == (1, 2)

    def test_bench_filter_not_c2_c3(self, bench_filter):
        assert in_class_c2(bench_filter) is None
        assert in_class_c3(bench_filter) is None

    def test_c2_requires_three_states(self):
        assert in_class_c2(FilterMatrix.all_zeros(2)) is None


class TestClosureWitness:
    def test_bench_filter_has_the_known_witness(self, bench_filter):
        wit = closure_witness(bench_filter)
        expected = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=bool)
        np.testing.assert_array_equal(wit.bits, expected)
        assert in_class_c1(wit) == (1, 3)

    def test_worked_filter_witness(self, worked_filter):
        wit = closure_witness(worked_filter)
        assert wit is not None
        assert dominates(worked_filter, wit)
        assert in_class_c1(wit) == (1, 3)
        np.testing.assert_array_equal(
            wit.bits, np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=bool)
        )

    def test_single_bit_large_filter_has_none(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[0, 0] = True
        assert closure_witness(FilterMatrix(bits)) is None

    def test_witness_soundness_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.9))
            wit = closure_witness(F)
            if wit is None:
                continue
            assert dominates(F, wit)
            assert (
                in_class_c1(wit) is not None
                or in_class_c2(wit) is not None
                or in_class_c3(wit) is not None
            )

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            H = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.9))
            extra = rng.random((k, k)) < 0.3
            M = FilterMatrix(H.bits | extra)
            if closure_witness(H) is not None:
                assert closure_witness(M) is not None


def family_members(k):
    """Every member of the three identifiable families, built from their
    definitions, as a (members, k, k) boolean array."""
    members = []
    for a, b in itertools.product(range(k), repeat=2):
        # one zero row a and zero column b; a bijection between the rest
        rows = [r for r in range(k) if r != a]
        for cols in itertools.permutations([c for c in range(k) if c != b]):
            m = np.zeros((k, k), dtype=bool)
            m[rows, list(cols)] = True
            members.append(m)
    for a, b in itertools.combinations(range(k), 2) if k > 2 else ():
        # zero columns a and b, rows a and b full elsewhere, a permutation on
        # the rest (at k = 2 that would be the all-zero filter, which is excluded)
        rest = [c for c in range(k) if c not in (a, b)]
        for cols in itertools.permutations(rest):
            m = np.zeros((k, k), dtype=bool)
            m[np.ix_([a, b], rest)] = True
            m[rest, list(cols)] = True
            members += [m, m.T]
    return np.array(members)


def reference_approval(bits):
    """A witness exists iff some candidate (alpha, beta) submatrix has a
    perfect matching, decided by scipy for every candidate."""

    def perfect(sub):
        match = maximum_bipartite_matching(csr_matrix(sub.astype(np.int8)), perm_type="column")
        return bool(np.all(match >= 0))

    k = len(bits)
    for a, b in itertools.product(range(k), repeat=2):
        if perfect(np.delete(np.delete(bits, a, axis=0), b, axis=1)):
            return True
    for m in (bits, bits.T):
        for a, b in itertools.combinations(range(k), 2):
            rest = [c for c in range(k) if c not in (a, b)]
            if m[a, rest].all() and m[b, rest].all() and perfect(m[np.ix_(rest, rest)]):
                return True
    return False


class TestCompleteness:
    """The search finds a witness exactly when one exists."""

    @staticmethod
    def check(filters, k):
        members = family_members(k)
        outcomes = set()
        for bits in filters:
            dominates_member = bool(np.all(bits | ~members, axis=(1, 2)).any())
            found = closure_witness(FilterMatrix(bits)) is not None
            assert found == dominates_member, bits.astype(int)
            outcomes.add(found)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_small_filter(self, k):
        self.check((np.array(c).reshape(k, k) for c in itertools.product((False, True), repeat=k * k)), k)

    @pytest.mark.parametrize("k", [4, 5])
    def test_sampled_filters(self, k):
        rng = np.random.default_rng(k)
        self.check((rng.random((k, k)) < rng.uniform(0.1, 0.6) for _ in range(400)), k)

    def test_large_filters_against_a_library_matching(self):
        rng = np.random.default_rng(16)
        outcomes = set()
        for k in range(6, 17):
            for density in (0.06, 0.1, 0.15, 0.3):
                bits = rng.random((k, k)) < density
                approved = identifiability_verdict(FilterMatrix(bits)).verdict is Verdict.SUFFICIENT_IDENTIFIABLE
                assert approved == reference_approval(bits), bits.astype(int)
                outcomes.add(approved)
        assert outcomes == {True, False}


class TestRestrictionR:
    def test_all_ones_satisfies(self):
        support = np.ones((3, 3), dtype=bool)
        assert satisfies_r(FilterMatrix.all_ones(3), support)

    def test_zero_row_fails(self):
        bits = np.ones((3, 3), dtype=bool)
        bits[1] = False
        assert not satisfies_r(FilterMatrix(bits), np.ones((3, 3), dtype=bool))

    def test_two_state_swap_filter(self):
        F = FilterMatrix(np.array([[0, 1], [1, 0]]))
        assert satisfies_r(F, np.ones((2, 2), dtype=bool))

    def test_requires_valid_support(self):
        support = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            satisfies_r(FilterMatrix.all_ones(2), support)

    def test_no_support_is_the_all_ones_mask(self):
        ones = np.ones((3, 3))
        for combo in itertools.product((0, 1), repeat=9):
            F = FilterMatrix(np.reshape(combo, (3, 3)))
            assert satisfies_r(F, None) == satisfies_r(F, ones)


class TestSupportEntries:
    """A support, like a filter, has entries 0 or 1 (or bool); any other
    value is refused wherever a support is read, not taken as allowed."""

    @pytest.fixture(params=[2, 0.5])
    def support(self, request):
        support = np.ones((3, 3))
        support[0, 0] = request.param
        return support

    def test_support_mask(self, support):
        with pytest.raises(ValueError, match="^support entries must be 0 or 1$"):
            support_mask(support, 3)

    def test_transition_matrix(self, support, bench_matrix):
        with pytest.raises(ValueError, match="^support entries must be 0 or 1$"):
            TransitionMatrix.from_probs(bench_matrix.probs, support=support)

    def test_run_em(self, support, bench_matrix, bench_filter):
        y = apply_filter(CompleteChain((1, 2, 3, 1, 2), StateSpace(3)), bench_filter)
        with pytest.raises(ValueError, match="^support entries must be 0 or 1$"):
            run_em(y, bench_filter, support=support)

    def test_identifiability_verdict(self, support, bench_filter):
        with pytest.raises(ValueError, match="^support entries must be 0 or 1$"):
            identifiability_verdict(bench_filter, support)


class TestVerdict:
    def test_bench_filter_sufficient(self, bench_filter):
        v = identifiability_verdict(bench_filter)
        assert v.verdict is Verdict.SUFFICIENT_IDENTIFIABLE
        assert v.closure_witness is not None
        assert not (v.in_c1 or v.in_c2 or v.in_c3)

    def test_sparse_large_filter_unknown(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[0, 0] = True
        v = identifiability_verdict(FilterMatrix(bits))
        assert v.verdict is Verdict.UNKNOWN
        assert v.closure_witness is None

    def test_support_can_break_the_verdict(self, bench_filter):
        # row 1 of the filter records only 1->2; forbid it in the support
        support = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 1]], dtype=bool)
        v = identifiability_verdict(bench_filter, support)
        assert not v.satisfies_r
        assert v.verdict is Verdict.UNKNOWN

    def test_restriction_r_skips_a_pair_that_records_only_forbidden_transitions(self):
        # rows 1 and 2 are full outside {1, 2}, but the support forbids 1->3,
        # the only transition row 1 records: the pair {1, 2} is no witness
        F = FilterMatrix(np.array([[0, 0, 1], [0, 0, 1], [1, 1, 1]]))
        support = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]], dtype=bool)
        v = identifiability_verdict(F, support)
        assert not v.satisfies_r
        assert v.verdict is Verdict.UNKNOWN
        assert v.closure_witness is None
        assert identifiability_verdict(F).verdict is Verdict.SUFFICIENT_IDENTIFIABLE

    def test_c2_based_witness_survives_support(self):
        F = FilterMatrix(np.array([[0, 0, 1], [0, 0, 1], [0, 0, 1]]))
        support = np.ones((3, 3), dtype=bool)
        v = identifiability_verdict(F, support)
        assert v.verdict is Verdict.SUFFICIENT_IDENTIFIABLE
        assert satisfies_r(v.closure_witness, support)


class TestReduction:
    def test_worked_example_fraction(self, worked_chain, worked_filter):
        y = apply_filter(worked_chain, worked_filter)
        assert reduction_fraction(y) == pytest.approx(8 / 21)

    def test_no_blanks(self):
        y = FilteredChain((1, 2, 1), StateSpace(2))
        assert reduction_fraction(y) == 0.0


class TestConsistency:
    def test_round_trip_is_always_ok(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            k = int(rng.integers(2, 4))
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.1, 0.9))
            chain = random_chain(rng, k, int(rng.integers(1, 12)))
            y = apply_filter(chain, F)
            validate_consistency(y, F)

    def test_unexplainable_observed_pair(self):
        F = FilterMatrix(np.array([[1, 0], [0, 1]]))
        y = FilteredChain((1, 2), StateSpace(2))
        with pytest.raises(ConsistencyError) as err:
            validate_consistency(y, F)
        assert err.value.position == 1

    def test_gap_with_a_completion_is_ok(self):
        F = FilterMatrix(np.array([[1, 0], [0, 1]]))
        validate_consistency(FilteredChain((1, None, 1, 1), StateSpace(2)), F)
        # the gap 1 -> 2 -> 1 is unrecorded, so nothing reveals the last 1
        with pytest.raises(ConsistencyError) as err:
            validate_consistency(FilteredChain((1, None, 1), StateSpace(2)), F)
        assert err.value.position == 2

    def test_unreachable_gap(self):
        # both self loops recorded: no unrecorded 2-step path 1 -> 1 exists
        # once the support forbids 1->2
        F = FilterMatrix(np.array([[1, 0], [0, 1]]))
        support = np.array([[1, 0], [1, 1]], dtype=bool)
        y = FilteredChain((1, None, 1), StateSpace(2))
        with pytest.raises(ConsistencyError):
            validate_consistency(y, F, support)

    def test_observed_pair_off_support(self):
        F = FilterMatrix(np.array([[1, 1], [1, 1]]))
        support = np.array([[0, 1], [1, 1]], dtype=bool)
        y = FilteredChain((1, 1, 2), StateSpace(2))
        with pytest.raises(ConsistencyError):
            validate_consistency(y, F, support)

    def test_trailing_gap_needs_a_continuation(self):
        F = FilterMatrix(np.array([[0, 1], [1, 1]]))
        # state 2 has every outgoing transition recorded, so nothing can
        # follow it invisibly
        y = FilteredChain((2, None), StateSpace(2))
        with pytest.raises(ConsistencyError):
            validate_consistency(y, F)

    def test_accepts_exactly_the_filtered_images(self):
        # by definition a pattern is consistent when some chain filters to it
        no_corner = np.array([[1, 1], [1, 0]], dtype=bool)
        cases = [
            (FilterMatrix(np.reshape(bits, (2, 2))), support, 5)
            for bits in itertools.product((0, 1), repeat=4)
            for support in (None, no_corner)
        ]
        rng = np.random.default_rng(29)
        cases += [(FilterMatrix(rng.random((3, 3)) < 0.5), None, 3) for _ in range(8)]
        wrong = []
        for F, support, n_max in cases:
            labels = range(1, F.k + 1)
            for n in range(1, n_max + 1):
                images = filtered_images(F, support, n)
                for symbols in itertools.product(labels, *[(None, *labels)] * n):
                    try:
                        validate_consistency(FilteredChain(symbols, StateSpace(F.k)), F, support)
                        accepted = True
                    except ConsistencyError:
                        accepted = False
                    if accepted != (symbols in images):
                        wrong.append((F.bits.astype(int).tolist(), support is not None, symbols))
        assert not wrong, f"{len(wrong)} patterns misjudged, first {wrong[:3]}"

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(400):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.8))
            symbols = [int(rng.integers(1, k + 1))]
            for _ in range(n):
                symbols.append(
                    None if rng.random() < 0.4 else int(rng.integers(1, k + 1))
                )
            y = FilteredChain(tuple(symbols), StateSpace(k))
            P = TransitionMatrix.from_probs(random_interior_probs(rng, k))
            nonempty = len(enumerate_completions(y, F, P)) > 0
            try:
                validate_consistency(y, F)
                assert nonempty, f"validated but no completion: {y.symbols}"
            except ConsistencyError:
                assert not nonempty, f"rejected but completions exist: {y.symbols}"
            checked += 1
        assert checked == 400


class TestSeparationOracleAgreement:
    def test_approved_filters_separate_parameters(self, bench_filter):
        # approval must imply a strictly positive pattern-distribution gap
        from markovfilter import distinguishability_check
        from conftest import random_theta

        rng = np.random.default_rng(53)
        for _ in range(20):
            t1 = random_theta(rng, 3)
            t2 = random_theta(rng, 3)
            tv = distinguishability_check(bench_filter, t1, t2, length=8, initial=1)
            assert tv > 1e-10

    def test_blank_everything_hides_parameters(self):
        from markovfilter import distinguishability_check

        F = FilterMatrix.all_zeros(3)
        t1 = TransitionMatrix.from_probs(
            [[0.2, 0.3, 0.5], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]]
        ).theta()
        # swap two rows: a genuinely different parameter
        t2 = TransitionMatrix.from_probs(
            [[0.2, 0.3, 0.5], [0.7, 0.1, 0.2], [0.8, 0.1, 0.1]]
        ).theta()
        tv = distinguishability_check(F, t1, t2, length=8, initial=1)
        assert tv == pytest.approx(0.0, abs=1e-12)
