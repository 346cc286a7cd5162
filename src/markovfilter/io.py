"""File formats: chains as whitespace-separated state labels, matrices as
plain CSV (one row per line), filtered chains with a configurable blank
token, and flat dotted-key reports for machine consumption.

A chain file is read as bytes, in one of two ways decided only by its
contents. If every token is a single byte (labels 1-9, a one-character
blank token, ASCII whitespace between), its bytes are translated through
two 256-entry tables, without a Python object per token: one to their
shapes, which show whether two tokens touch, and one to the codes, which
drops the whitespace. Any other byte, such as a label of 10 or more,
``01``, ``NA``, a non-ASCII byte or \x1c-\x1f (separators only for
``str.split``), sends the file through one loop over its tokens that
parses each distinct spelling once. Both give the same codes, in the
chain's storage dtype, and the same error messages. The writers are the
inverse: a table from code to token, through which a chain is written one
block of ``core._BLOCK`` symbols at a time, each block one numpy gather,
so a writer holds nothing as long as the chain. Text is encoded as
``Path.read_text``/``write_text`` would, in the locale's preferred
encoding. The filter, probability and support readers build their value
from ``read_matrix_csv`` through one helper, which names the file in any
error the value's checks raise."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import CompleteChain, StateSpace, TransitionMatrix, _BLOCK, _code_dtype, support_mask
from .errors import FileFormatError
from .filtering import FilteredChain, FilterMatrix


#: The bytes ``bytes.split()`` separates tokens on; ``str.split()`` also
#: splits on \x1c-\x1f, so a file holding those takes the token path.
_SPACE = b" \t\n\r\x0b\x0c"
_NOT_A_TOKEN = 0xFF
#: Two adjacent token bytes of a file's shape, read as one uint16.
_TOUCHING = np.frombuffer(b"xx", dtype=np.uint16)[0]


def _encoding() -> str:
    """The encoding ``Path.read_text`` and ``write_text`` use by default."""
    import locale  # only chain files need it; at the top it adds 1 ms to every import

    return locale.getpreferredencoding(False)


def _byte_codes(data: bytes, k: int, blank_token) -> np.ndarray | None:
    """Codes, as a read-only uint8 array, of a file's bytes whose tokens are
    all one byte; None when some byte is not a one-digit label, the blank
    token or ASCII whitespace, or two tokens touch. One translation of the
    bytes to their shapes (token ``x``, space or neither) decides; a second
    maps each token to its code and drops the whitespace."""
    table = bytearray([_NOT_A_TOKEN]) * 256
    for s in range(1, min(k, 9) + 1):
        table[ord(str(s))] = s
    if blank_token is not None and len(blank_token) == 1 and blank_token.isascii() and not blank_token.isspace():
        table[ord(blank_token)] = 0  # wins over a label
    shapes = bytearray(_NOT_A_TOKEN if code == _NOT_A_TOKEN else ord("x") for code in table)
    for byte in _SPACE:
        shapes[byte] = ord(" ")
    shape = data.translate(shapes)
    if _NOT_A_TOKEN in shape:
        return None
    # two tokens touch iff two adjacent bytes read "xx": compare the byte
    # pairs that start at even offsets, then those at odd ones
    for offset in (0, 1):
        pairs = np.frombuffer(memoryview(shape)[offset:], dtype=np.uint16, count=(len(shape) - offset) // 2)
        if (pairs == _TOUCHING).any():
            return None
    del shape, pairs  # so that the shape and the codes never coexist
    return np.frombuffer(data.translate(table, _SPACE), dtype=np.uint8)


def _read_codes(path: Path, k: int, blank_token=None) -> np.ndarray:
    """The file's tokens as integer codes: state labels 1..k map to
    themselves and ``blank_token`` (when given; it wins over a label) to 0.

    A file of one-byte tokens goes through ``_byte_codes``. Otherwise each
    spelling not seen before goes through ``int()`` and the range check,
    which accept any ``int()`` spelling of a label and name the first bad
    token by position; its code is then remembered."""
    data = path.read_bytes()
    codes = _byte_codes(data, k, blank_token)
    if codes is not None:
        return codes
    text = data.decode(_encoding())
    del data
    expected = "not a state label" if blank_token is None else f"neither a state nor {blank_token!r}"
    known = {blank_token: 0}
    codes = []
    for pos, tok in enumerate(text.split()):
        code = known.get(tok)
        if code is None:
            try:
                code = int(tok)
            except ValueError:
                raise FileFormatError(path, f"token {pos + 1} ({tok!r}) is {expected}")
            if not 1 <= code <= k:
                raise FileFormatError(path, f"token {pos + 1}: state {code} outside 1..{k}")
            known[tok] = code
        codes.append(code)
    return np.array(codes, dtype=_code_dtype(k))


def read_chain(path, k: int) -> CompleteChain:
    path = Path(path)
    states = _read_codes(path, k)
    if len(states) < 2:
        raise FileFormatError(path, "a chain file needs at least two states")
    return CompleteChain(states, StateSpace(k))


def _write_tokens(path, codes: np.ndarray, names: list) -> None:
    """Write token ``names[c]`` for each code c, a space after each but the
    last, which gets a newline: the inverse of the reader's byte table. Each
    token with its space is one row of a table padded to the longest, so a
    block of output is one gather of rows; a second step drops the padding
    when the names differ in length. The file is written one ``_BLOCK`` of
    symbols at a time."""
    names = [name.encode(_encoding()) + b" " for name in names]
    width = max(len(name) for name in names)
    table = np.frombuffer(b"".join(name.ljust(width) for name in names), dtype=f"V{width}")
    # keep[c]: the bytes of the table's row c that names[c] fills
    keep = np.arange(width) < np.array([len(name) for name in names])[:, None]
    padded = not keep.all()
    with open(path, "wb") as f:
        for lo in range(0, len(codes), _BLOCK):
            block = codes[lo : lo + _BLOCK]
            out = table[block].view(np.uint8)
            if padded:
                out = out.reshape(-1, width)[keep[block]]
            if lo + _BLOCK >= len(codes):
                out[-1] = ord("\n")
            f.write(out)


def write_chain(path, chain: CompleteChain) -> None:
    _write_tokens(path, chain.as_indices(), [str(s) for s in chain.space.labels])


def read_filtered_chain(path, k: int, blank_token: str = "-") -> FilteredChain:
    path = Path(path)
    codes = _read_codes(path, k, blank_token)
    if not codes.size:
        raise FileFormatError(path, "empty filtered chain")
    try:
        return FilteredChain.from_codes(codes, StateSpace(k))
    except ValueError as err:
        raise FileFormatError(path, str(err))


def write_filtered_chain(path, y: FilteredChain, blank_token: str = "-") -> None:
    """Write the chain's tokens, ``blank_token`` for a blank. Raises
    ValueError, before the file is opened, for a blank token that would not
    read back as a blank: an empty one, one containing whitespace, or a
    state label of the chain."""
    labels = [str(s) for s in y.space.labels]
    if not blank_token:
        raise ValueError("the blank token is empty")
    if any(c.isspace() for c in blank_token):
        raise ValueError(f"the blank token {blank_token!r} contains whitespace")
    if blank_token in labels:
        raise ValueError(f"the blank token {blank_token!r} is a state label")
    _write_tokens(path, y.codes, [blank_token] + labels)


def read_matrix_csv(path) -> np.ndarray:
    """Dense numeric matrix, one CSV row per line; parse errors name the cell."""
    path = Path(path)
    rows = []
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise FileFormatError(path, "empty matrix file")
    for li, line in enumerate(lines, start=1):
        row = []
        for ci, cell in enumerate(line.split(","), start=1):
            try:
                row.append(float(cell.strip()))
            except ValueError:
                raise FileFormatError(
                    path, f"cell {cell.strip()!r} is not a number", line=li, column=ci
                )
        rows.append(row)
    width = len(rows[0])
    for li, row in enumerate(rows, start=1):
        if len(row) != width:
            raise FileFormatError(path, f"expected {width} columns, found {len(row)}", line=li)
    return np.asarray(rows, dtype=float)


def write_matrix_csv(path, matrix) -> None:
    matrix = np.asarray(matrix)
    lines = []
    for row in matrix:
        if matrix.dtype == bool:
            lines.append(",".join("1" if v else "0" for v in row))
        else:
            lines.append(",".join(f"{float(v):.12g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_matrix_as(path, build):
    """``build`` of the file's matrix; a ValueError it raises becomes a
    FileFormatError naming the file, with the same message."""
    values = read_matrix_csv(path)
    try:
        return build(values)
    except ValueError as err:
        raise FileFormatError(path, str(err))


def read_filter_csv(path) -> FilterMatrix:
    return _read_matrix_as(path, FilterMatrix)


def read_probability_csv(path, support=None) -> TransitionMatrix:
    return _read_matrix_as(path, lambda values: TransitionMatrix.from_probs(values, support))


def read_support_csv(path, k: int) -> np.ndarray:
    """The file's k x k 0/1 mask as a read-only bool array, checked by
    ``support_mask``: its entries, its shape, and a transition allowed in
    every row and column."""
    return _read_matrix_as(path, lambda values: support_mask(values, k))


def format_kv_report(entries: dict) -> list:
    """One ``key = value`` line per entry: booleans as true/false, floats
    with 12 significant digits."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.12g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return lines


def write_kv_report(path, entries: dict) -> None:
    """Flat dotted-key document, the lines of ``format_kv_report``."""
    Path(path).write_text("\n".join(format_kv_report(entries)) + "\n")


def read_kv_report(path) -> dict:
    path = Path(path)
    entries = {}
    for li, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(path, "expected 'key = value'", line=li)
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries
