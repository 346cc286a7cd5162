"""File formats: chains as whitespace-separated state labels, matrices as
plain CSV (one row per line), filtered chains with a configurable blank
token, and flat dotted-key reports for machine consumption."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import CompleteChain, StateSpace, TransitionMatrix
from .errors import FileFormatError
from .filtering import FilteredChain, FilterMatrix


def _read_codes(path: Path, k: int, blank_token=None) -> np.ndarray:
    """The file's tokens as integer codes: state labels 1..k map to
    themselves and ``blank_token`` (when given; it wins over a label) to 0.
    One dict lookup per token; a token outside that table sends the file
    through the per-token parser, which accepts any ``int()`` spelling of a
    label and names the first bad token by position."""
    tokens = path.read_text().split()
    table = {str(s): s for s in range(1, k + 1)}
    if blank_token is not None:
        table[blank_token] = 0
    try:
        return np.fromiter(map(table.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    except KeyError:
        pass
    expected = "not a state label" if blank_token is None else f"neither a state nor {blank_token!r}"
    codes = []
    for pos, tok in enumerate(tokens):
        if tok == blank_token:
            codes.append(0)
            continue
        try:
            state = int(tok)
        except ValueError:
            raise FileFormatError(path, f"token {pos + 1} ({tok!r}) is {expected}")
        if not 1 <= state <= k:
            raise FileFormatError(path, f"token {pos + 1}: state {state} outside 1..{k}")
        codes.append(state)
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
