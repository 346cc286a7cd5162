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

A filtered chain's codes (0 blank, 1..k a state) are stored in the
smallest unsigned dtype that holds k, as a complete chain's states are.
What a filter reveals is one flat lookup of each transition's cell, formed
by ``core._cells`` in a dtype just wide enough for the k**2 cells; the pair
tallies of ``transition_counts``, ``classify_transitions`` and the
segmentation are one helper, ``core._pair_counts``. ``apply_filter`` fills
its codes one block of ``core._BLOCK`` positions at a time, as the pair
tally and the simulator work, so its only chain-length array is its
output. No step of the long-chain path makes an 8-byte copy of the chain;
only the per-gap arrays are ``intp``.

``ChainSegments`` cuts a filtered chain into observed pairs and gap types
once, and owns the gap kernel that reads them: the power table of a step
matrix with each gap type's mass (a bool step for validation, the
unrecorded part P0 of P for ``em``, a stack of complex-stepped ones for
the Jacobian in ``sem``) and the expected counts inside all gaps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    CompleteChain,
    StateSpace,
    _ArrayChain,
    _BLOCK,
    _cells,
    _check_range,
    _labels,
    _pair_counts,
    _zero_one,
    support_mask,
)
from .errors import ConsistencyError, ZeroDenominatorError

#: Placeholder for a hidden state inside a filtered chain.
BLANK = None


@dataclass(frozen=True)
class FilterMatrix:
    """Binary k x k matrix; bit (i, j) set means transition i -> j is stored."""

    bits: np.ndarray

    def __post_init__(self):
        bits = _zero_one(self.bits, "filter")
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


def _pair_table(bits: np.ndarray) -> np.ndarray:
    """(k+1) x (k+1) lookup by a pair of codes: ``bits`` where both symbols
    are observed, False where either is blank."""
    k = bits.shape[0]
    table = np.zeros((k + 1, k + 1), dtype=bool)
    table[1:, 1:] = bits
    return table


def _revealed(states: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Which positions of chains of 0-based ``states`` (along the last
    axis) the filter ``bits`` reveals: position 0, and each end of a
    recorded transition. The one rule for what a filter leaves observed.
    Each transition's flat cell is looked up in one gather."""
    recorded = bits.ravel()[_cells(states[..., :-1], states[..., 1:], bits.shape[1])]
    revealed = np.empty(states.shape, dtype=bool)
    revealed[..., 0] = True
    revealed[..., 1:] = recorded
    revealed[..., :-1] |= recorded
    return revealed


def _gaps(codes: np.ndarray, k: int):
    """Every gap of a chain given as codes (first symbol observed), in chain
    order, as arrays: the position ``first`` of its observed start, 0-based
    start state ``a``, length ``nu`` and 0-based end state ``b``, which is k
    for a gap that ends the chain."""
    # a blank run starts after an observed symbol and ends before one; the
    # first symbol is observed, so starts and ends alternate from a start
    blank = codes == 0
    edges = np.flatnonzero(blank[1:] != blank[:-1])
    first = edges[0::2]
    end = edges[1::2] + 1
    b = codes[end].astype(np.intp) - 1
    nu = end - first[: end.size]
    if first.size > end.size:  # trailing gap
        nu, b = np.append(nu, len(codes) - 1 - first[-1]), np.append(b, k)
    return first, codes[first].astype(np.intp) - 1, nu, b


class ChainSegments:
    """A filtered chain cut into adjacent observed pairs and gaps (maximal
    blank runs), together covering its n transitions once.

    ``pair_counts`` is the k x k tally of adjacent observed pairs,
    ``pair_cells`` the flat indices of its nonzero cells and ``pair_n``
    their counts. The distinct gap types, a trailing gap included, are
    arrays in order of first occurrence: 0-based start state ``a``, length
    ``nu``, 0-based end state ``b``, which is k for the gap that ends the
    chain, multiplicity ``mult`` and ``first``, the position of the
    observed start of the type's first gap.

    The class also owns the gap kernel, the one E-step over all gaps that
    EM, the observed log-likelihood and the EM-map Jacobian share.
    ``gap_masses`` gives each gap type's mass, ``gap_counts`` the expected
    counts inside all gaps, at one step matrix or at a stack of them (the
    Jacobian's complex steps); ``cells`` counts the cells of one slice's
    power table and edge gathers. Flat indices into the power table, whose
    column k holds the row sums (so b = k reads a trailing gap's
    continuation mass), are built once: ``mass_cells``, each type's
    P0^nu[a, b]; and for the S edges m = 0 .. nu - 1 of the types in turn,
    ``edge_type``, ``left`` (S x k cells of row a of P0^m) and ``right``
    (S x k cells of column b of P0^(nu-1-m)); so is the table's first
    power, ``origin`` = [I | 1]. All arrays are read-only.
    """

    __slots__ = ("k", "pair_counts", "pair_cells", "pair_n", "a", "nu", "b", "mult", "first",
                 "nu_max", "mass_cells", "edge_type", "left", "right", "origin", "cells")

    def __init__(self, k, pair_counts, a, nu, b, mult, first):
        def frozen(values, dtype):  # the arrays passed in are new ones
            arr = np.asarray(values, dtype=dtype)
            arr.setflags(write=False)
            return arr

        self.k = k
        self.pair_counts = frozen(pair_counts, float)
        self.pair_cells = frozen(np.flatnonzero(self.pair_counts), np.intp)
        self.pair_n = frozen(self.pair_counts.take(self.pair_cells), float)
        self.a = frozen(a, np.intp)
        self.nu = frozen(nu, np.intp)
        self.b = frozen(b, np.intp)
        self.mult = frozen(mult, float)
        self.first = frozen(first, np.intp)
        self.nu_max = int(self.nu.max(initial=0))
        self.mass_cells = frozen((self.nu * k + self.a) * (k + 1) + self.b, np.intp)
        edge = self.edge_type = frozen(np.repeat(np.arange(self.nu.size), self.nu), np.intp)
        rest = np.repeat(np.cumsum(self.nu), self.nu) - 1 - np.arange(edge.size)  # nu - 1 - m
        m_rows = (self.nu[edge] - 1 - rest) * k + self.a[edge]
        self.left = frozen((m_rows * (k + 1))[:, None] + np.arange(k), np.intp)
        self.right = frozen((rest[:, None] * k + np.arange(k)) * (k + 1) + self.b[edge, None], np.intp)
        origin = np.eye(k, k + 1)
        origin[:, k] = 1
        self.origin = frozen(origin, float)
        # one slice's power table and edge gathers: two rows of k and a weight per edge
        self.cells = (self.nu_max + 1) * k * (k + 1) + edge.size * (2 * k + 1)

    def gap_masses(self, step: np.ndarray):
        """(the table of step^0 .. step^nu_max, each power k x (k + 1) with
        its row sums in column k and the powers flattened, so that the flat
        cells index it; each gap type's mass read from it: step^nu[a, b], or
        the row sum of step^nu[a] for a trailing gap), in the dtype of
        ``step``; a bool one gives reachability. ``step`` is a k x k matrix
        or a (..., k, k) stack of them; a stack gives a table and masses
        per slice, each what the slice gives alone. By doubling: with
        step^0 .. step^(f-1) known, step^(f-1) times step^1 .. step^n gives
        the next n powers in one batched matmul."""
        k, top, lead = self.k, self.nu_max, step.shape[:-2]
        table = np.empty(lead + (top + 1, k, k + 1), dtype=step.dtype)
        table[..., 0, :, :] = self.origin
        table[..., 1:2, :, :] = step[..., None, :, :] @ table[..., :1, :, :]  # nothing when nu_max = 0
        f = 2
        while f <= top:
            n = min(f - 1, top + 1 - f)
            np.matmul(table[..., f - 1 : f, :, :k], table[..., 1 : n + 1, :, :], out=table[..., f : f + n, :, :])
            f += n
        table = table.reshape(lead + (-1,))
        return table, table.take(self.mass_cells, axis=-1)

    def gap_counts(self, p0: np.ndarray):
        """(expected counts inside all gaps, gap masses) at the unrecorded part
        ``p0``, a k x k matrix or a (..., k, k) stack: each edge's row of
        P0^m and column of P0^(nu-1-m), weighted by its type's multiplicity
        over mass, in one matmul per slice. Raises ZeroDenominatorError when
        a gap has no unrecorded path, naming the first such gap type of the
        first such slice. Any dtype of ``p0`` works (a complex one gives the
        complex-step Jacobian in ``sem``); the check reads the real part of
        the masses."""
        table, masses = self.gap_masses(p0)
        if masses.real.min(initial=np.inf) <= 0.0:
            i = np.argwhere(masses.real <= 0.0)[0, -1]
            a, nu, b = self.a[i], self.nu[i], self.b[i]
            what, end = ("continuation", "") if b == self.k else ("path", f" to state {b + 1}")
            raise ZeroDenominatorError(f"no unrecorded {what} of length {nu} from state {a + 1}{end}")
        w = (self.mult / masses).take(self.edge_type, axis=-1)
        left = table.take(self.left, axis=-1).swapaxes(-1, -2) * w[..., None, :]
        return p0 * (left @ table.take(self.right, axis=-1)), masses

    @classmethod
    def from_codes(cls, codes: np.ndarray, k: int) -> "ChainSegments":
        """Segment a chain given as codes (1..k observed, 0 blank, first
        symbol observed)."""
        # tally pairs by code pair in a (k+1) x (k+1) table; code 0 is a blank
        pair_counts = _pair_counts(codes, k + 1)[1:, 1:]
        first, a, nu, b = _gaps(codes, k)
        # key gaps by (a, rank of nu among the distinct lengths, b): the
        # distinct lengths sum to at most n, so there are at most sqrt(2n)
        present = np.bincount(nu) > 0
        rank = np.cumsum(present) - 1
        key = (a * np.count_nonzero(present) + rank[nu]) * (k + 1) + b
        mult = np.bincount(key)
        where = np.full(mult.size, key.size)  # each type's first gap
        np.minimum.at(where, key, np.arange(key.size))
        types = np.sort(where[mult > 0])
        return cls(k, pair_counts, a[types], nu[types], b[types], mult[key[types]], first[types])


class FilteredChain(_ArrayChain):
    """Sequence of observed states and blanks produced by a filter.

    The chain is held as one read-only integer array ``codes``: 1..k for an
    observed state, 0 for a blank, in the storage dtype
    ``core._code_dtype(k)`` (cast before arithmetic that can leave 0..k).
    The first symbol is always observed (the initial state is known).
    ``symbols``, the tuple of 1-based labels with ``None`` for blanks, is
    built on demand. ``segments`` cuts the chain into
    observed pairs and gaps on first use and keeps the result, so validation,
    EM and SEM share one segmentation of the chain.
    """

    __slots__ = ("_segments",)

    def __init__(self, symbols, space: StateSpace):
        symbols = tuple(symbols)
        blank = np.array([s is None for s in symbols], dtype=bool)
        # a blank stands in as state 1 for the checks, so an explicit 0 is out of range
        codes = _labels([1 if s is None else s for s in symbols])
        self._check(codes, 1, blank[:1].any(), space)
        codes[blank] = 0
        self._set(codes, space)

    @classmethod
    def from_codes(cls, codes, space: StateSpace) -> "FilteredChain":
        """Chain from codes: 1..k for observed states, 0 for blanks."""
        y = cls.__new__(cls)
        codes = _labels(codes)
        y._check(codes, 0, len(codes) and codes[0] == 0, space)
        y._set(codes, space)
        return y

    @staticmethod
    def _check(codes: np.ndarray, lo: int, initial_blank, space: StateSpace) -> None:
        """Refuse a chain shorter than two symbols, a blank initial state,
        or a code outside lo..k."""
        if len(codes) < 2:
            raise ValueError("a filtered chain needs at least two symbols")
        if initial_blank:
            raise ValueError("the initial state must be observed")
        _check_range(codes, lo, space.k)

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
    also meet the per-row restriction R. ``satisfies_r`` is the row check
    of ``satisfies_r`` on the support. UNKNOWN is not a proof of
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
    recorded, or the transition out of p is recorded. The codes are filled
    one ``_BLOCK`` of positions at a time, each block read with one state
    past either edge, so only the output is as long as the chain.
    """
    if F.k != x.space.k:
        raise ValueError(f"filter is {F.k}x{F.k} but the chain has k={x.space.k}")
    idx = x.as_indices()
    codes = np.empty_like(idx)
    for lo in range(0, len(idx), _BLOCK):
        hi = min(lo + _BLOCK, len(idx))
        edge = min(lo, 1)  # the state before the block, for the transition into lo
        np.add(idx[lo:hi], idx.dtype.type(1), out=codes[lo:hi])  # indices stop at k - 1
        codes[lo:hi] *= _revealed(idx[lo - edge : hi + 1], F.bits)[edge : edge + hi - lo]
    return FilteredChain._of(codes, x.space)


def classify_transitions(x: CompleteChain, F: FilterMatrix) -> dict:
    """Classify every transition occurring in x, keyed (i, j) in row-major
    order, as directly recorded (f_ij = 1), indirectly recorded (f_ij = 0
    but both endpoints of some occurrence survive filtering), or unobserved.
    One pair tally of the chain finds the transitions that occur, and one of
    its filtered codes the ones with both ends revealed."""
    k = F.k
    occurs = np.flatnonzero(_pair_counts(x.as_indices(), k))
    both = _pair_counts(apply_filter(x, F).codes, k + 1)[1:, 1:].ravel()[occurs]
    kind = np.where(F.bits.ravel()[occurs], 0, np.where(both > 0, 1, 2))
    names = list(TransitionVisibility)
    return {(c // k + 1, c % k + 1): names[v] for c, v in zip(occurs.tolist(), kind.tolist())}


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


def _c2_search(bits: np.ndarray, edges: np.ndarray):
    """(alpha, beta, witness), 0-based with alpha < beta, of the
    two-zero-column family below ``bits``, or None: rows alpha and beta full
    outside {alpha, beta} and a perfect matching on the rest. The matching
    runs on ``edges``, the recorded transitions a support allows (``bits``
    itself without one), and rows alpha, beta must keep one of them outside
    {alpha, beta} (restriction R, which ``bits`` always meets)."""
    k = bits.shape[0]
    if k < 3:
        return None
    rows = np.flatnonzero(bits.sum(axis=1) >= k - 2).tolist()  # the only candidates
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            outside = [c for c in range(k) if c not in (a, b)]
            if not (bits[a, outside].all() and bits[b, outside].all()):
                continue
            if not (edges[a, outside].any() and edges[b, outside].any()):
                continue
            match = _matching(edges[np.ix_(outside, outside)])
            if (match >= 0).all():
                wit = np.zeros_like(bits)
                wit[np.ix_([a, b], outside)] = True
                wit[np.array(outside)[match], outside] = True
                return a, b, wit
    return None


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
    return _member(_c2_search(F.bits, F.bits), F, 3 * (F.k - 2))


def in_class_c3(F: FilterMatrix):
    """Transpose condition of the two-zero-column class: rows alpha, beta zero,
    columns alpha, beta all ones outside {alpha, beta}, remaining submatrix a
    permutation."""
    return in_class_c2(FilterMatrix(F.bits.T))


def closure_witness(F: FilterMatrix, support=None):
    """The closure witness of ``identifiability_verdict``: a filter D below
    F (D's ones a subset of F's) belonging to one of the three identifiable
    families, or None when no such D exists. When the support mask has a
    structural zero, D must also observe at least one allowed transition
    per row (restriction R); None and an all-ones mask search alike.

    One maximum matching decides the one-zero-row family; the two-zero-column
    and two-zero-row families take a matching per candidate pair (alpha,
    beta), so the search is exact and polynomial.
    """
    return identifiability_verdict(F, support).closure_witness


def satisfies_r(F: FilterMatrix, support) -> bool:
    """True iff every row records at least one transition the support
    (read by ``support_mask``; None allows every transition) allows."""
    return bool((F.bits & support_mask(support, F.k)).any(axis=1).all())


def identifiability_verdict(F: FilterMatrix, support=None) -> IdentifiabilityVerdict:
    """Assemble class memberships and the closure-witness search into a
    verdict. Each family search runs at most once; its witness gives both
    the membership and, unless the support has a structural zero, the
    closure witness. SUFFICIENT_IDENTIFIABLE is a proof; UNKNOWN only means
    the sufficient conditions checked here do not apply."""
    c1 = _c1_search(F.bits)
    c2 = c3 = None
    # a C1 witness is a matching of k-1 edges, so F then has no two zero
    # columns or rows: it is in neither pair family and needs no other witness
    if c1 is None:
        c2, c3 = _c2_search(F.bits, F.bits), _c2_search(F.bits.T, F.bits.T)
        if c3 is not None:
            c3 = (c3[0], c3[1], c3[2].T)
    mask = support_mask(support, F.k)
    # restriction R applies exactly when the mask has a structural zero: the
    # one-zero-row and two-zero-row families observe nothing in their zero
    # rows, so R rules them out, and the two-zero-column search then runs on
    # the allowed transitions
    found = _c2_search(F.bits, F.bits & mask) if not mask.all() else c1 or c2 or c3
    pair_ones = 3 * (F.k - 2)
    return IdentifiabilityVerdict(
        in_c1=_member(c1, F, F.k - 1) is not None,
        in_c2=_member(c2, F, pair_ones) is not None,
        in_c3=_member(c3, F, pair_ones) is not None,
        closure_witness=None if found is None else FilterMatrix(found[2]),
        satisfies_r=satisfies_r(F, mask),
        verdict=Verdict.SUFFICIENT_IDENTIFIABLE if found is not None else Verdict.UNKNOWN,
    )


def _coverage_failure(y: FilteredChain, F: FilterMatrix):
    """First observed position that no complete chain can explain, or None.

    An observed position p >= 1 needs a recorded transition to or from an
    observed neighbour: a transition into or out of a blank is never
    recorded, so a blank neighbour cannot reveal it. This is ``_revealed``
    read on the codes, with a blank's transitions unrecorded.
    """
    codes = y.codes
    hidden = ~_revealed(codes, _pair_table(F.bits))
    hidden &= codes != 0
    bad = np.flatnonzero(hidden)
    return int(bad[0]) if bad.size else None


def validate_consistency(y: FilteredChain, F: FilterMatrix, support=None) -> None:
    """Raise ConsistencyError unless some complete chain on the support
    produces ``y`` under ``apply_filter``.

    Checks: every observed position but position 0 has a recorded
    transition to or from an observed neighbour; observed adjacent pairs
    lie on the support (read by ``support_mask``: None allows every
    transition); every gap is spanned by an unrecorded path through the
    support graph; trailing blanks admit at least one all-unrecorded
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

    if not mask.take(seg.pair_cells).all():
        pairs_off = _pair_table(~mask)[y.codes[:-1], y.codes[1:]]
        failures.append((int(np.argmax(pairs_off)), "observed transition off the support"))

    bad = np.flatnonzero(~seg.gap_masses(~F.bits & mask)[1])
    if bad.size:  # gap types are in order of first occurrence
        i = bad[0]
        rule = (
            "trailing blanks admit no unrecorded continuation"
            if seg.b[i] == seg.k
            else "no unrecorded path of the gap's length"
        )
        failures.append((int(seg.first[i]) + 1, rule))

    if failures:
        raise ConsistencyError(*min(failures, key=lambda f: f[0]))
