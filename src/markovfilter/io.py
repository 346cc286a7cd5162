"""File formats: chains as whitespace-separated state labels, matrices as
plain CSV (one row per line), filtered chains with a configurable blank
token, and flat dotted-key reports for machine consumption.

A chain file is read in one of two ways, decided only by its contents. If
every token is a single byte (labels 1-9, a one-character blank token,
ASCII whitespace between), its bytes are translated through a 256-entry
table, without a Python object per token. Any other byte, such as a label
of 10 or more, ``01``, ``NA``, a non-ASCII byte or \x1c-\x1f (separators
only for ``str.split``), sends the file through one loop over its tokens
that parses each distinct spelling once. Both give the same codes and the
same error messages."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import CompleteChain, StateSpace, TransitionMatrix
from .errors import FileFormatError
from .filtering import FilteredChain, FilterMatrix


#: The bytes ``bytes.split()`` separates tokens on; ``str.split()`` also
#: splits on \x1c-\x1f, so a file holding those takes the token path.
_SPACE = b" \t\n\r\x0b\x0c"
_NOT_A_TOKEN = 0xFF


def _byte_codes(text: str, k: int, blank_token) -> np.ndarray | None:
    """Codes of a file whose tokens are all one byte, from one translation
    of its bytes through a 256-entry table; None when some byte is not a
    one-digit label, the blank token or ASCII whitespace, or two tokens
    touch."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    table = bytearray([_NOT_A_TOKEN]) * 256
    for s in range(1, min(k, 9) + 1):
        table[ord(str(s))] = s
    if blank_token is not None and len(blank_token) == 1 and blank_token.isascii() and not blank_token.isspace():
        table[ord(blank_token)] = 0  # wins over a label
    for byte in _SPACE:
        table[byte] = ord(" ")
    mapped = raw.translate(table)
    if _NOT_A_TOKEN in mapped:
        return None
    token = np.frombuffer(mapped, dtype=np.uint8) <= 9
    if (token[1:] & token[:-1]).any():
        return None
    return np.frombuffer(mapped.translate(None, b" "), dtype=np.uint8).astype(np.intp)


def _read_codes(path: Path, k: int, blank_token=None) -> np.ndarray:
    """The file's tokens as integer codes: state labels 1..k map to
    themselves and ``blank_token`` (when given; it wins over a label) to 0.

    A file of one-byte tokens goes through ``_byte_codes``. Otherwise each
    spelling not seen before goes through ``int()`` and the range check,
    which accept any ``int()`` spelling of a label and name the first bad
    token by position; its code is then remembered."""
    text = path.read_text()
    codes = _byte_codes(text, k, blank_token)
    if codes is not None:
        return codes
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
    return np.array(codes, dtype=np.intp)


def read_chain(path, k: int) -> CompleteChain:
    path = Path(path)
    states = _read_codes(path, k)
    if len(states) < 2:
        raise FileFormatError(path, "a chain file needs at least two states")
    return CompleteChain(states, StateSpace(k))


def write_chain(path, chain: CompleteChain) -> None:
    Path(path).write_text(" ".join(str(s) for s in chain.states) + "\n")


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
    Path(path).write_text(y.to_text(blank_token) + "\n")


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


def read_filter_csv(path) -> FilterMatrix:
    values = read_matrix_csv(path)
    if not np.isin(values, (0.0, 1.0)).all():
        raise FileFormatError(path, "filter entries must be 0 or 1")
    return FilterMatrix(values.astype(bool))


def read_probability_csv(path, support=None) -> TransitionMatrix:
    values = read_matrix_csv(path)
    try:
        return TransitionMatrix.from_probs(values, support)
    except ValueError as err:
        raise FileFormatError(path, str(err))


def read_support_csv(path) -> np.ndarray:
    values = read_matrix_csv(path)
    if not np.isin(values, (0.0, 1.0)).all():
        raise FileFormatError(path, "support entries must be 0 or 1")
    return values.astype(bool)


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
