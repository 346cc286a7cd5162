"""State spaces, complete chains, simulation, transition counting, the
complete-data MLE, and the embedding of higher-order chains.

States are labeled 1..k everywhere a user sees them; arrays are indexed
0-based internally. A chain over k states is stored one symbol per
element of the smallest unsigned dtype that holds k (``_code_dtype``:
uint8 up to k = 255, uint16 above), and the long-chain loops (simulation,
the pair tally ``_pair_counts``) work through it in blocks of ``_BLOCK``
symbols, so no step holds an 8-byte copy of the chain. Arithmetic on
stored symbols casts explicitly first, so nothing wraps under either
numpy's 1.x or 2.x casting rules. All value types are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ChainTooShortError, ZeroRowTotalError

ROW_SUM_TOL = 1e-12


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Finite state space {1, ..., k}."""

    k: int

    def __post_init__(self):
        if int(self.k) < 2:
            raise ValueError(f"need at least two states, got k={self.k}")
        object.__setattr__(self, "k", int(self.k))

    @property
    def labels(self) -> range:
        return range(1, self.k + 1)


def _labels(values) -> np.ndarray:
    """New integer array of ``values``; input that is not already integer
    goes through ``int()`` one item at a time, and a number that ``int()``
    would truncate or cannot convert (inf, nan) is refused."""
    arr = np.array(values)
    if arr.dtype.kind not in "iu":
        ints = []
        for pos, v in enumerate(values):
            number = isinstance(v, numbers.Number)
            try:
                ints.append(int(v))
            except (OverflowError, ValueError):
                if not number:
                    raise
                ints.append(None)  # inf or nan: no integer equals it
            if number and v != ints[-1]:
                raise ValueError(f"state {v} at position {pos} is not an integer")
        try:
            arr = np.array(ints, dtype=np.int64)
        except OverflowError:  # far out of range: keep the exact values to report
            arr = np.array(ints, dtype=object)
    return arr


def _check_range(labels: np.ndarray, lo: int, k: int) -> None:
    """Raise for the first label outside lo..k, naming it and its position.
    A min/max pass decides, so only a failing chain builds a mask."""
    if labels.min() < lo or labels.max() > k:
        pos = int(np.argmax((labels < lo) | (labels > k)))
        raise ValueError(f"state {labels[pos]} at position {pos} outside 1..{k}")


#: Symbols per block of the long-chain loops; bounds their temporaries.
_BLOCK = 1 << 16


def _code_dtype(k: int) -> np.dtype:
    """The storage dtype of a chain over k states: the smallest unsigned
    integer type that holds k, so a filtered chain's codes 0..k fit too."""
    return np.min_scalar_type(k)


def _cells(head: np.ndarray, tail: np.ndarray, base: int) -> np.ndarray:
    """The flat cells head * base + tail of symbols in 0..base-1, formed in
    the narrowest unsigned dtype that holds all base**2 of them."""
    cells = head.astype(np.min_scalar_type(base * base - 1))
    cells *= base
    np.add(cells, tail, out=cells, casting="unsafe")  # every cell fits
    return cells


def _pair_counts(symbols: np.ndarray, base: int) -> np.ndarray:
    """base x base tally of the adjacent pairs (symbols[t], symbols[t+1])
    of symbols in 0..base-1, one block of ``_BLOCK`` cells at a time, so no
    step makes an 8-byte copy of the chain (``bincount`` casts its input to
    ``intp``)."""
    counts = np.zeros(base * base, dtype=np.intp)
    for lo in range(0, len(symbols) - 1, _BLOCK):
        hi = min(lo + _BLOCK, len(symbols) - 1)
        counts += np.bincount(_cells(symbols[lo:hi], symbols[lo + 1 : hi + 1], base), minlength=base * base)
    return counts.reshape(base, base)


class _ArrayChain:
    """Body shared by the chain types: one read-only integer array and the
    state space. Immutable, compared and hashed by value."""

    __slots__ = ("_array", "space")

    @classmethod
    def _of(cls, array: np.ndarray, space: StateSpace):
        """Wrap a new array already known to be valid, without checks."""
        chain = cls.__new__(cls)
        chain._set(array, space)
        return chain

    def _set(self, array: np.ndarray, space: StateSpace) -> None:
        """Take ownership of ``array`` (a new array, values already checked),
        in the storage dtype, and freeze it."""
        array = np.asarray(array, dtype=_code_dtype(space.k))
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self._array)

    @property
    def n_transitions(self) -> int:
        return len(self._array) - 1

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other.space == self.space and np.array_equal(other._array, self._array)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._array!r}, {self.space!r})"


class CompleteChain(_ArrayChain):
    """A fully observed realization: n+1 states, n transitions.

    The states are held as one read-only array of 0-based indices
    (``as_indices``), in the storage dtype ``_code_dtype(k)``; ``states``,
    the tuple of 1-based labels, is built on demand.
    """

    __slots__ = ()

    def __init__(self, states, space: StateSpace):
        labels = _labels(states)
        if len(labels) < 2:
            raise ChainTooShortError("a chain needs at least two states")
        _check_range(labels, 1, space.k)
        indices = labels.astype(_code_dtype(space.k), copy=False)  # labels is a new array
        indices -= indices.dtype.type(1)
        self._set(indices, space)

    @property
    def states(self) -> tuple:
        return tuple(np.add(self._array, 1, dtype=np.intp).tolist())

    def as_indices(self) -> np.ndarray:
        """0-based state indices, shape (n+1,), read-only, in the storage
        dtype: cast before arithmetic that can leave 0..k."""
        return self._array


def _zero_one(values, what: str) -> np.ndarray:
    """``values`` as a new read-only bool array: the one reader of 0/1
    masks (filters and supports). Bool entries, and entries equal to 0 or
    1, are accepted; anything else raises ValueError."""
    arr = np.asarray(values)
    if arr.dtype != bool and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    return _readonly(arr, bool)


def support_mask(support, k: int) -> np.ndarray:
    """The structural support as a read-only k x k bool mask, the one
    reader of a support: None is the all-ones mask (every transition
    allowed); any other value must be a k x k 0/1 mask (``_zero_one``) that
    allows at least one transition in every row and every column."""
    if support is None:
        return _readonly(np.ones((k, k), dtype=bool), bool)
    mask = _zero_one(support, "support")
    if mask.shape != (k, k):
        raise ValueError(f"support mask must be {k} x {k}, got shape {mask.shape}")
    if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
        raise ValueError("support must allow a transition in every row and column")
    return mask


def _check_probs(probs: np.ndarray, row_tol: float = ROW_SUM_TOL) -> None:
    """Raise ValueError unless the k x k ``probs`` are finite, no entry is
    below -``ROW_SUM_TOL`` and every row sums to 1 within ``row_tol``.
    Two reductions decide (a NaN fails the first, an inf the second); the
    message is built only on failure."""
    if probs.min() >= -ROW_SUM_TOL and np.abs(probs.sum(axis=1) - 1.0).max() <= row_tol:
        return
    if not np.isfinite(probs).all():
        raise ValueError("non-finite transition probability")
    if np.any(probs < -ROW_SUM_TOL):
        raise ValueError("negative transition probability")
    rowsums = probs.sum(axis=1)
    bad = int(np.argmax(np.abs(rowsums - 1.0)))
    raise ValueError(f"row {bad + 1} sums to {float(rowsums[bad])!r}, not 1")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities with an explicit support mask.

    ``support[i, j]`` marks transitions allowed to be positive; entries off
    the support are structural zeros fixed before any data are collected.
    The mask is read by ``support_mask``; None allows every transition.
    """

    probs: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        probs = _readonly(self.probs, float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError(f"probs must be square, got shape {probs.shape}")
        if probs.shape[0] < 2:
            raise ValueError("need at least two states")
        support = support_mask(self.support, probs.shape[0])
        object.__setattr__(self, "support", support)
        _check_probs(probs)
        if np.any(probs[~support] != 0.0):
            raise ValueError("positive probability on a structural zero")

    @classmethod
    def from_probs(cls, probs, support=None) -> "TransitionMatrix":
        return cls(probs, support)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    @property
    def space(self) -> StateSpace:
        return StateSpace(self.k)

    def theta(self) -> "ParamVector":
        return ParamVector(probs_to_theta(self.probs), self.space)


def theta_to_probs(theta: np.ndarray, k: int) -> np.ndarray:
    """Expand the free-parameter layout (row-major, last column omitted)
    into a full k x k matrix with p_ik = 1 - sum of the row's stored entries,
    an exact 0 where that is within ``ROW_SUM_TOL`` of 0 (the reading of
    ``free_coordinates``), so a structural zero there stays zero. ``theta``
    holds k^2 - k entries; ``_as_probs`` checks that for its callers."""
    theta = np.asarray(theta, dtype=float)
    probs = np.empty((k, k), dtype=float)
    probs[:, : k - 1] = theta.reshape(k, k - 1)
    last = 1.0 - probs[:, : k - 1].sum(axis=1)
    probs[:, k - 1] = np.where(np.abs(last) <= ROW_SUM_TOL, 0.0, last)
    return probs


def probs_to_theta(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    return probs[:, :-1].reshape(-1).copy()


def free_coordinates(probs) -> tuple:
    """The coordinates an estimate leaves free, decided from its support:
    the positive entries of ``probs``, where the last column counts only
    above ``ROW_SUM_TOL`` (computed as p_ik = 1 - sum of the row's stored
    entries, it keeps rounding of about 1e-16 where it is zero). Each row's
    reference column r_i is its last positive entry, and p_ir = 1 - (sum of
    the row's other entries); the row's other positive entries are free. A
    zero entry is fixed, and so is the reference of a row with one positive
    entry.

    Returns (free, lift). ``free`` holds the free coordinates' indices in
    the free-parameter layout (row-major, last column omitted); a
    reference column never lies before a free one, so every free
    coordinate has an index there. Column a of the d x m matrix ``lift``
    is the change of that layout along free coordinate a, e_ij - e_ir:
    a covariance V on the free coordinates is lift V lift^T in the layout,
    with zero rows for fixed entries."""
    probs = np.asarray(probs)
    pos = probs > 0.0
    pos[:, -1] = probs[:, -1] > ROW_SUM_TOL
    k = pos.shape[0]
    ref = k - 1 - np.argmax(pos[:, ::-1], axis=1)
    pos[np.arange(k), ref] = False
    free = np.flatnonzero(pos[:, :-1])
    rows = free // (k - 1)
    lift = np.zeros((k * (k - 1), free.size))
    lift[free, np.arange(free.size)] = 1.0
    inside = ref[rows] < k - 1  # the last column is outside the layout
    lift[(rows * (k - 1) + ref[rows])[inside], np.flatnonzero(inside)] = -1.0
    return free, lift


@dataclass(frozen=True)
class ParamVector:
    """Free transition parameters: d = k^2 - k reals, row-major with each
    row's last column omitted. Bijective with TransitionMatrix via
    p_ik = 1 - sum of the row's stored entries."""

    theta: np.ndarray
    space: StateSpace

    def __post_init__(self):
        theta = _readonly(self.theta, float)
        object.__setattr__(self, "theta", theta)
        k = self.space.k
        if theta.shape != (k * (k - 1),):
            raise ValueError(
                f"expected {k * (k - 1)} parameters for k={k}, got shape {theta.shape}"
            )
        if not np.isfinite(theta).all():
            raise ValueError("non-finite parameter")
        if np.any(theta < -ROW_SUM_TOL) or np.any(theta > 1.0 + ROW_SUM_TOL):
            raise ValueError("parameter outside [0, 1]")
        partial = theta.reshape(k, k - 1).sum(axis=1)
        if np.any(1.0 - partial < -ROW_SUM_TOL):  # the last entry theta_to_probs rebuilds
            bad = int(np.argmax(partial))
            raise ValueError(f"row {bad + 1} stored entries sum to {float(partial[bad])!r} > 1")

    @property
    def k(self) -> int:
        return self.space.k

    @property
    def d(self) -> int:
        return self.space.k * (self.space.k - 1)

    def to_probs(self) -> np.ndarray:
        return theta_to_probs(self.theta, self.k)

    def to_matrix(self, support=None) -> TransitionMatrix:
        return TransitionMatrix.from_probs(self.to_probs(), support)


@dataclass(frozen=True)
class CountMatrix:
    """k x k nonnegative transition counts; integer-valued for complete data,
    real-valued for conditional expected counts."""

    counts: np.ndarray

    def __post_init__(self):
        counts = _readonly(self.counts, float)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got shape {counts.shape}")
        if np.any(counts < -1e-9):
            raise ValueError("negative transition count")

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def _as_probs(theta, k: int) -> np.ndarray:
    """k x k probabilities from a parameter: the one reader of parameters
    and their one size check. A ParamVector is read as its ``theta`` and a
    TransitionMatrix as its ``probs``; then a k x k array is taken as it is
    and a free-parameter vector of k^2 - k entries is expanded by
    ``theta_to_probs``. Any other shape raises ValueError naming k and the
    shape, and probabilities that ``TransitionMatrix`` would refuse (an
    entry not finite or below -``ROW_SUM_TOL``, a row not summing to 1)
    raise its ValueError."""
    if isinstance(theta, ParamVector):
        theta = theta.theta
    elif isinstance(theta, TransitionMatrix):
        theta = theta.probs
    probs = np.asarray(theta, dtype=float)
    if probs.shape != (k, k):
        if probs.shape != (k * (k - 1),):
            raise ValueError(f"expected {k * (k - 1)} parameters or a {k} x {k} matrix, got shape {probs.shape}")
        probs = theta_to_probs(probs, k)
    _check_probs(probs)
    return probs


def _as_theta(theta) -> np.ndarray:
    """Free-parameter vector from a ParamVector or any array-like."""
    if isinstance(theta, ParamVector):
        theta = theta.theta
    return np.asarray(theta, dtype=float).reshape(-1)


def simulate_chain(P: TransitionMatrix, initial: int, n: int, seed: int) -> CompleteChain:
    """Draw n transitions starting from ``initial``; deterministic per seed.

    Step t moves from state i to the first state whose cumulative row
    probability exceeds draw t (the last state if none does). The successor
    of every state is looked up for a block of draws at once, ``_BLOCK``
    successors in all; the walk then only follows that table, one row of k
    successors per step. The draws come one block at a time, the same
    stream as one call for all n.
    """
    k = P.k
    if not 1 <= initial <= k:
        raise ValueError(f"initial state {initial} outside 1..{k}")
    if n < 1:
        raise ValueError("need at least one transition")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(P.probs, axis=1)
    states = np.empty(n + 1, dtype=_code_dtype(k))
    cur = states[0] = initial - 1
    size = max(1, _BLOCK // k)
    for lo in range(0, n, size):
        block = rng.random(min(size, n - lo))
        # table[t, i]: the state reached from i with draw lo + t
        table = np.empty((block.size, k), dtype=np.intp)
        for i in range(k):
            table[:, i] = np.searchsorted(cum[i], block, side="right")
        rows = zip(*[iter(np.minimum(table, k - 1, out=table).ravel().tolist())] * k)
        states[lo + 1 : lo + 1 + block.size] = [cur := row[cur] for row in rows]
    return CompleteChain._of(states, StateSpace(k))


def transition_counts(x: CompleteChain) -> CountMatrix:
    """Count adjacent (i, j) pairs; the total equals the transition count n."""
    return CountMatrix(_pair_counts(x.as_indices(), x.space.k))


def _normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Row-normalize counts, a k x k matrix or a (..., k, k) stack; raises
    when a state gathered no mass (the first such row of the first such
    slice), judged on the real part so that complex counts normalize too."""
    rowsums = counts.sum(axis=-1)
    if rowsums.real.min() <= 0.0:
        raise ZeroRowTotalError(int(np.argwhere(rowsums.real <= 0.0)[0, -1]) + 1)
    return counts / rowsums[..., None]


def complete_mle(N: CountMatrix, support=None) -> TransitionMatrix:
    """Row-normalize the counts: p_ij = n_ij / n_i. Every state must occur
    as a source at least once."""
    return TransitionMatrix.from_probs(_normalize_rows(N.counts), support)


def encode_tuple_state(tup, k: int) -> int:
    """Label a state tuple by base-k positional encoding, oldest coordinate
    most significant; labels run 1..k**s."""
    code = 0
    for a in tup:
        a = int(a)
        if not 1 <= a <= k:
            raise ValueError(f"coordinate {a} outside 1..{k}")
        code = code * k + (a - 1)
    return code + 1


def decode_tuple_state(label: int, k: int, s: int) -> tuple:
    code = int(label) - 1
    if not 0 <= code < k**s:
        raise ValueError(f"label {label} outside 1..{k**s}")
    return tuple(int(digit) + 1 for digit in np.unravel_index(code, (k,) * s))


def embed_higher_order(x: CompleteChain, s: int) -> CompleteChain:
    """Re-express an order-s chain as a simple chain over k**s tuple states
    Y_t = (X_t, ..., X_{t+s-1}), labelled as by ``encode_tuple_state``;
    output length is len(x) - s + 1."""
    if s < 2:
        raise ValueError("embedding order must be at least 2")
    if len(x) < s + 1:
        raise ChainTooShortError(
            f"chain of length {len(x)} too short for order {s} (need {s + 1})"
        )
    k = x.space.k
    idx = x.as_indices()
    m = len(x) - s + 1
    code = np.zeros(m, dtype=_code_dtype(k**s))  # every partial code is below k**s
    for j in range(s):  # base-k digits, oldest coordinate most significant
        code *= k
        code += idx[j : j + m]
    return CompleteChain._of(code, StateSpace(k**s))


def embedded_support(k: int, s: int) -> np.ndarray:
    """Support mask of the tuple-state chain: a transition is allowed exactly
    when the target tuple's first s-1 coordinates equal the source tuple's
    last s-1 coordinates; k**(s+1) entries are allowed."""
    if s < 2:
        raise ValueError("embedding order must be at least 2")
    return np.tile(np.repeat(np.eye(k ** (s - 1), dtype=bool), k, axis=1), (k, 1))


def project_embedded_params(P_emb: TransitionMatrix, s: int) -> dict:
    """Read the order-s transition probabilities back out of an embedded
    matrix: key (a_1, ..., a_s, a_{s+1}) maps to the probability of moving
    to a_{s+1} given the history (a_1, ..., a_s)."""
    K = P_emb.k
    k = round(K ** (1.0 / s))
    if k**s != K:
        raise ValueError(f"matrix of size {K} is not a {s}-fold tuple space")
    rows = np.arange(K)  # row a's k allowed targets start at column (a mod k^(s-1)) k
    probs = P_emb.probs.reshape(K, -1, k)[rows, rows % k ** (s - 1)]
    keys = np.ndindex((k,) * (s + 1))  # (history, next state), 0-based, in row-major order
    return {tuple(d + 1 for d in key): p for key, p in zip(keys, probs.ravel().tolist())}
