"""Filter matrices: applying them to chains, classifying transitions, and
deciding the sufficient identifiability conditions.

A filter matrix F records transition i -> j exactly when f_ij = 1. Applying
it to a complete chain blanks every state not adjacent to a recorded
transition (the initial state is always revealed). The identifiability
checker searches for a witness filter D below F that belongs to one of the
three structured families known to keep all transition probabilities
identifiable; data reduced by any filter above such a D stays estimable.
One search per family serves both questions: a family's witness lies below
F, so F is itself a member exactly when the witness has as many ones as F.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import CompleteChain, StateSpace, _ArrayChain, _labels, _out_of_range, _readonly, support_mask
from .errors import ConsistencyError

#: Placeholder for a hidden state inside a filtered chain.
BLANK = None


@dataclass(frozen=True)
class FilterMatrix:
    """Binary k x k matrix; bit (i, j) set means transition i -> j is stored."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.dtype != bool:
            if not np.isin(bits, (0, 1)).all():
                raise ValueError("filter entries must be 0 or 1")
            bits = bits.astype(bool)
        bits = _readonly(bits, bool)
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1] or bits.shape[0] < 2:
            raise ValueError(f"filter must be square of size >= 2, got {bits.shape}")

    @property
    def k(self) -> int:
        return self.bits.shape[0]

    @classmethod
    def all_ones(cls, k: int) -> "FilterMatrix":
        return cls(np.ones((k, k), dtype=bool))

    @classmethod
    def all_zeros(cls, k: int) -> "FilterMatrix":
        return cls(np.zeros((k, k), dtype=bool))


def _pair_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Code of each transition t -> t+1 of a filtered chain,
    ``codes[t] * (k + 1) + codes[t + 1]``: an index into a flattened
    (k+1) x (k+1) table whose row and column 0 stand for a blank."""
    return codes[:-1] * (k + 1) + codes[1:]


def _pair_table(bits: np.ndarray) -> np.ndarray:
    """Flattened (k+1) x (k+1) lookup by pair code: ``bits`` where both
    symbols are observed, False where either is blank."""
    k = bits.shape[0]
    table = np.zeros((k + 1, k + 1), dtype=bool)
    table[1:, 1:] = bits
    return table.ravel()


class ChainSegments:
    """A filtered chain cut into adjacent observed pairs and gaps (maximal
    blank runs), together covering its n transitions once.

    ``pair_counts`` is the k x k tally of adjacent observed pairs. The
    distinct gap types, a trailing gap included, are arrays in order of
    first occurrence: 0-based start state ``a``, length ``nu``, 0-based end
    state ``b`` (0 where ``trail`` marks the gap that ends the chain),
    multiplicity ``mult`` and ``first``, the position of the observed start
    of the type's first gap. All arrays are read-only.
    """

    __slots__ = ("k", "pair_counts", "pair_mask", "a", "nu", "b", "trail", "mult", "first", "nu_max")

    def __init__(self, k, pair_counts, a, nu, b, trail, mult, first):
        def frozen(values, dtype):  # the arrays passed in are new ones
            arr = np.asarray(values, dtype=dtype)
            arr.setflags(write=False)
            return arr

        self.k = k
        self.pair_counts = frozen(pair_counts, float)
        self.pair_mask = frozen(self.pair_counts > 0, bool)
        self.a = frozen(a, np.intp)
        self.nu = frozen(nu, np.intp)
        self.b = frozen(b, np.intp)
        self.trail = frozen(trail, bool)
        self.mult = frozen(mult, float)
        self.first = frozen(first, np.intp)
        self.nu_max = int(self.nu.max(initial=0))

    @classmethod
    def from_codes(cls, codes: np.ndarray, k: int) -> "ChainSegments":
        """Segment a chain given as codes (1..k observed, 0 blank, first
        symbol observed)."""
        n = len(codes) - 1
        pair_counts = np.bincount(_pair_codes(codes, k), minlength=(k + 1) ** 2).reshape(k + 1, k + 1)[1:, 1:]
        # a blank run starts after an observed symbol and ends before one; the
        # first symbol is observed, so starts and ends alternate from a start
        blank = codes == 0
        edges = np.flatnonzero(blank[1:] != blank[:-1])
        first = edges[0::2]
        end = edges[1::2] + 1
        a = codes[first] - 1
        b = codes[end] - 1
        nu = end - first[: end.size]
        if first.size > end.size:  # trailing gap, end marked by the code k
            nu, b = np.append(nu, n - first[-1]), np.append(b, k)
        key = (a * (n + 1) + nu) * (k + 1) + b
        _, where, mult = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(where)
        types = where[order]
        b = b[types]
        trail = b == k
        return cls(
            k, pair_counts, a[types], nu[types], np.where(trail, 0, b), trail,
            mult[order], first[types],
        )


class FilteredChain(_ArrayChain):
    """Sequence of observed states and blanks produced by a filter.

    The chain is held as one read-only integer array ``codes``: 1..k for an
    observed state, 0 for a blank. The first symbol is always observed (the
    initial state is known). ``symbols``, the tuple of 1-based labels with
    ``None`` for blanks, is built on demand. ``segments`` cuts the chain into
    observed pairs and gaps on first use and keeps the result, so validation,
    EM and SEM share one segmentation of the chain.
    """

    __slots__ = ("_segments",)

    def __init__(self, symbols, space: StateSpace):
        symbols = tuple(symbols)
        blank = np.array([s is None for s in symbols], dtype=bool)
        self._check(_labels([0 if s is None else s for s in symbols]), blank, space)

    @classmethod
    def from_codes(cls, codes, space: StateSpace) -> "FilteredChain":
        """Chain from codes: 1..k for observed states, 0 for blanks."""
        codes = _labels(codes)
        y = cls.__new__(cls)
        y._check(codes, codes == 0, space)
        return y

    def _check(self, codes: np.ndarray, blank: np.ndarray, space: StateSpace) -> None:
        if len(codes) < 2:
            raise ValueError("a filtered chain needs at least two symbols")
        if blank[0]:
            raise ValueError("the initial state must be observed")
        _out_of_range(codes, ~blank & ((codes < 1) | (codes > space.k)), space.k)
        self._set(codes, space)

    def _set(self, codes: np.ndarray, space: StateSpace) -> None:
        super()._set(codes, space)
        object.__setattr__(self, "_segments", None)

    @property
    def codes(self) -> np.ndarray:
        return self._array

    @property
    def symbols(self) -> tuple:
        return tuple(c or BLANK for c in self._array.tolist())

    @property
    def segments(self) -> ChainSegments:
        """The chain's segmentation, computed on first use."""
        if self._segments is None:
            object.__setattr__(self, "_segments", ChainSegments.from_codes(self._array, self.space.k))
        return self._segments

    @property
    def blank_count(self) -> int:
        return len(self._array) - int(np.count_nonzero(self._array))

    def tokens(self, blank_token: str = "-") -> list:
        names = np.array([blank_token] + [str(s) for s in self.space.labels], dtype=object)
        return names[self._array].tolist()

    def to_text(self, blank_token: str = "-", sep: str = " ") -> str:
        return sep.join(self.tokens(blank_token))


class TransitionVisibility(enum.Enum):
    DIRECT = "directly recorded"
    INDIRECT = "indirectly recorded"
    UNOBSERVED = "unobserved"


class Verdict(enum.Enum):
    SUFFICIENT_IDENTIFIABLE = "sufficient-identifiable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    """Outcome of the sufficient-condition checks for one filter.

    ``verdict`` is SUFFICIENT_IDENTIFIABLE exactly when a closure witness
    exists; when the support mask has a structural zero, the witness must
    also meet the per-row restriction R. ``satisfies_r`` is the literal row
    check of ``satisfies_r`` whenever a support is given (an all-ones one
    included), and True without one. UNKNOWN is not a proof of
    non-identifiability; it only means the sufficient conditions fail.
    """

    in_c1: bool
    in_c2: bool
    in_c3: bool
    closure_witness: FilterMatrix | None
    satisfies_r: bool
    verdict: Verdict


def apply_filter(x: CompleteChain, F: FilterMatrix) -> FilteredChain:
    """Blank every state of x not adjacent to a recorded transition.

    Position p stays observed iff p = 0, or the transition into p is
    recorded, or the transition out of p is recorded.
    """
    if F.k != x.space.k:
        raise ValueError(f"filter is {F.k}x{F.k} but the chain has k={x.space.k}")
    idx = x.as_indices()
    recorded = F.bits[idx[:-1], idx[1:]]
    observed = np.append(True, recorded)  # recorded into p (p = 0 always)
    observed[:-1] |= recorded  # or recorded out of p
    return FilteredChain._of(np.where(observed, idx + 1, 0), x.space)


def classify_transitions(x: CompleteChain, F: FilterMatrix) -> dict:
    """Classify every transition occurring in x as directly recorded
    (f_ij = 1), indirectly recorded (f_ij = 0 but both endpoints of some
    occurrence survive filtering), or unobserved."""
    observed = (apply_filter(x, F).codes != 0).tolist()
    states = x.states
    out: dict = {}
    for t in range(x.n_transitions):
        i, j = states[t], states[t + 1]
        if F.bits[i - 1, j - 1]:
            out[(i, j)] = TransitionVisibility.DIRECT
        elif observed[t] and observed[t + 1]:
            out[(i, j)] = TransitionVisibility.INDIRECT
        else:
            out.setdefault((i, j), TransitionVisibility.UNOBSERVED)
    return out


def dominates(M: FilterMatrix, H: FilterMatrix) -> bool:
    """True iff M stores at least the transitions H stores (h_ij=1 => m_ij=1)."""
    if M.k != H.k:
        raise ValueError("filters must have the same size")
    return bool(np.all(M.bits | ~H.bits))


def reduction_fraction(y: FilteredChain) -> float:
    """Fraction of symbols discarded by the filter."""
    return y.blank_count / len(y)


def _matching(adj: np.ndarray) -> np.ndarray:
    """Maximum bipartite matching by augmenting paths, rows tried from last
    to first. ``adj`` is rows x cols boolean; returns the row matched to
    each column, -1 where the column stays free."""
    neighbours = [[c for c, edge in enumerate(row) if edge] for row in adj.tolist()]
    match_col = [-1] * adj.shape[1]

    def augment(r: int, seen: set) -> bool:
        for c in neighbours[r]:
            if c not in seen:
                seen.add(c)
                if match_col[c] < 0 or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in reversed(range(adj.shape[0])):
        augment(r, set())
    return np.array(match_col, dtype=np.intp)


def _c1_search(bits: np.ndarray):
    """(alpha, beta, witness), 0-based, of the one-zero-row family below
    ``bits``, or None. A matching with k-1 edges leaves exactly one row alpha
    and one column beta free, so one maximum matching decides the family; a
    perfect matching gives up column 0's edge."""
    match = _matching(bits)
    free = np.flatnonzero(match < 0)
    if free.size > 1:
        return None
    if free.size == 0:
        free, match[0] = [0], -1
    cols = np.flatnonzero(match >= 0)
    wit = np.zeros_like(bits)
    wit[match[cols], cols] = True
    return int(np.flatnonzero(~wit.any(axis=1))[0]), int(free[0]), wit


def _c2_search(bits: np.ndarray, support=None):
    """(alpha, beta, witness), 0-based with alpha < beta, of the
    two-zero-column family below ``bits``, or None: rows alpha and beta full
    outside {alpha, beta} and a perfect matching on the rest. With a support
    mask the matching uses allowed transitions only and rows alpha, beta
    must record an allowed one (restriction R)."""
    k = bits.shape[0]
    if k < 3:
        return None
    edges = bits if support is None else bits & support
    rows = np.flatnonzero(bits.sum(axis=1) >= k - 2).tolist()  # the only candidates
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            outside = [c for c in range(k) if c not in (a, b)]
            if not (bits[a, outside].all() and bits[b, outside].all()):
                continue
            if support is not None and not (
                support[a, outside].any() and support[b, outside].any()
            ):
                continue
            match = _matching(edges[np.ix_(outside, outside)])
            if (match >= 0).all():
                wit = np.zeros_like(bits)
                wit[np.ix_([a, b], outside)] = True
                wit[np.array(outside)[match], outside] = True
                return a, b, wit
    return None


def _searches(bits: np.ndarray):
    """The three family searches below ``bits`` in order, each run when the
    caller asks for the next: one zero row and column, two zero columns, two
    zero rows (the transpose of the second)."""
    yield _c1_search(bits)
    yield _c2_search(bits)
    found = _c2_search(bits.T)
    yield None if found is None else (found[0], found[1], found[2].T)


def _member(found, F: FilterMatrix, ones: int):
    """(alpha, beta), 1-based, when F is in the family: the family's witness
    lies below F, so F is a member iff the witness has as many ones as F."""
    if found is None or np.count_nonzero(F.bits) != ones:
        return None
    return found[0] + 1, found[1] + 1


def in_class_c1(F: FilterMatrix):
    """Witness (alpha, beta), 1-based, iff row alpha and column beta are zero
    and every other row and column holds exactly one 1; None otherwise."""
    return _member(_c1_search(F.bits), F, F.k - 1)


def in_class_c2(F: FilterMatrix):
    """Witness (alpha, beta), 1-based with alpha < beta, iff columns alpha and
    beta are zero, rows alpha and beta are all ones outside {alpha, beta}, and
    the remaining (k-2)x(k-2) submatrix is a permutation matrix."""
    return _member(_c2_search(F.bits), F, 3 * (F.k - 2))


def in_class_c3(F: FilterMatrix):
    """Transpose condition of the two-zero-column class: rows alpha, beta zero,
    columns alpha, beta all ones outside {alpha, beta}, remaining submatrix a
    permutation."""
    return in_class_c2(FilterMatrix(F.bits.T))


def _witness(bits: np.ndarray, mask, searches):
    """The first witness of the family ``searches`` as a FilterMatrix, or
    None. Restriction R applies exactly when ``mask`` has a structural zero:
    the one-zero-row and two-zero-row families cannot observe anything in
    their zero rows, so R rules them out, and the two-zero-column search
    then runs on the allowed transitions."""
    if mask is not None and not mask.all():
        found = _c2_search(bits, mask)
    else:
        found = next((f for f in searches if f is not None), None)
    return None if found is None else FilterMatrix(found[2])


def closure_witness(F: FilterMatrix, support=None):
    """Search for a filter D below F (D's ones a subset of F's) belonging to
    one of the three identifiable families. When the support mask has a
    structural zero, D must also observe at least one allowed transition
    per row (restriction R); None and an all-ones mask search alike.

    One maximum matching decides the one-zero-row family; the two-zero-column
    and two-zero-row families take a matching per candidate pair (alpha,
    beta), so the search is exact and polynomial. Returns None when no
    witness exists.
    """
    return _witness(F.bits, support_mask(support, F.k), _searches(F.bits))


def satisfies_r(F: FilterMatrix, support) -> bool:
    """True iff every row records at least one transition the support allows."""
    return bool((F.bits & support_mask(support, F.k)).any(axis=1).all())


def identifiability_verdict(F: FilterMatrix, support=None) -> IdentifiabilityVerdict:
    """Assemble class memberships and the closure-witness search into a
    verdict. Each family search runs at most once; its witness gives both
    the membership and, unless the support has a structural zero, the
    closure witness. SUFFICIENT_IDENTIFIABLE is a proof; UNKNOWN only means
    the sufficient conditions checked here do not apply."""
    searches = _searches(F.bits)
    c1 = next(searches)
    # a C1 witness is a matching of k-1 edges, so F then has no two zero
    # columns or rows: it is in neither pair family and needs no other witness
    c2, c3 = searches if c1 is None else (None, None)
    pair_ones = 3 * (F.k - 2)
    mask = support_mask(support, F.k)
    wit = _witness(F.bits, mask, (c1, c2, c3))
    return IdentifiabilityVerdict(
        in_c1=_member(c1, F, F.k - 1) is not None,
        in_c2=_member(c2, F, pair_ones) is not None,
        in_c3=_member(c3, F, pair_ones) is not None,
        closure_witness=wit,
        satisfies_r=True if mask is None else satisfies_r(F, mask),
        verdict=Verdict.SUFFICIENT_IDENTIFIABLE if wit is not None else Verdict.UNKNOWN,
    )


def _coverage_failure(y: FilteredChain, F: FilterMatrix):
    """First observed position that no complete chain can explain, or None.

    An observed position needs a recorded transition to or from an observed
    neighbour, unless it is position 0 or sits next to a blank (the hidden
    neighbour, not the filter, accounts for it then).
    """
    # transition t -> t+1 with both ends observed that the filter does not
    # record; position t+1 fails when the transition out of it is one too,
    # or when t+1 = n
    unrecorded = _pair_table(~F.bits)[_pair_codes(y.codes, F.k)]
    bad = np.flatnonzero(unrecorded & np.append(unrecorded[1:], True))
    return int(bad[0]) + 1 if bad.size else None


def _reach_table(edges: np.ndarray, nu_max: int) -> np.ndarray:
    """Boolean (nu_max+1, k, k) table: entry (nu, i, j) is set when j can be
    reached from i in exactly nu steps along ``edges``."""
    k = edges.shape[0]
    step = edges.astype(np.int64)
    reach = np.empty((nu_max + 1, k, k), dtype=bool)
    reach[0] = np.eye(k, dtype=bool)
    for t in range(nu_max):
        reach[t + 1] = (reach[t].astype(np.int64) @ step) > 0
    return reach


def validate_consistency(y: FilteredChain, F: FilterMatrix, support=None) -> None:
    """Raise ConsistencyError unless some complete chain produces ``y``.

    Checks: every observed position away from blanks has a recorded
    adjacent transition (or is position 0); with a support mask, observed
    adjacent pairs lie on the support; every gap is spanned by an
    unrecorded path through the support graph (every transition when the
    support is None); trailing blanks admit at least one all-unrecorded
    continuation of the right length. The failure reported is the one at
    the smallest position (a gap's position is its first blank).
    """
    if F.k != y.space.k:
        raise ValueError(f"filter is {F.k}x{F.k} but the pattern has k={y.space.k}")
    mask = support_mask(support, F.k)
    seg = y.segments

    failures = []  # (position, rule); on a tie the earlier entry wins
    cov = _coverage_failure(y, F)
    if cov is not None:
        failures.append((cov, "observed position has no recorded adjacent transition"))

    if mask is not None and (seg.pair_mask & ~mask).any():
        pairs_off = _pair_table(~mask)[_pair_codes(y.codes, F.k)]
        failures.append((int(np.argmax(pairs_off)), "observed transition off the support"))

    if seg.nu.size:
        reach = _reach_table(~F.bits if mask is None else ~F.bits & mask, seg.nu_max)
        ok = np.where(seg.trail, reach[seg.nu, seg.a].any(axis=1), reach[seg.nu, seg.a, seg.b])
        bad = np.flatnonzero(~ok)
        if bad.size:  # gap types are in order of first occurrence
            i = bad[0]
            rule = (
                "trailing blanks admit no unrecorded continuation"
                if seg.trail[i]
                else "no unrecorded path of the gap's length"
            )
            failures.append((int(seg.first[i]) + 1, rule))

    if failures:
        raise ConsistencyError(*min(failures, key=lambda f: f[0]))
