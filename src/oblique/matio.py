"""Matrix and report I/O: JSON and CSV readers/writers.

Matrix JSON form: ``{"rows": m, "cols": n, "data": [row-major reals]}``.
CSV alternative: one row per line, comma separated, '.' decimal separator.
Both readers reject non-finite entries.
"""

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "read_matrix",
    "load_json",
    "dump_json",
]


def matrix_to_dict(a) -> dict:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": arr.ravel().tolist()}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def matrix_from_dict(d: dict, name: str = "matrix") -> np.ndarray:
    """The matrix of a ``{"rows": m, "cols": n, "data": [...]}`` dict: m and n
    whole numbers, data m*n finite numbers (a bool or a string is not one)."""
    try:
        rows, cols, data = d["rows"], d["cols"], list(d["data"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{name}: expected keys rows/cols/data with numeric content: {exc}") from exc
    for key, v in (("rows", rows), ("cols", cols)):
        if not (_is_number(v) and (isinstance(v, int) or v.is_integer())):
            raise ValidationError(f"{name}: {key} must be a whole number, got {v!r}")
    bad = [v for v in data if not _is_number(v)]
    if bad:
        raise ValidationError(f"{name}: data entries must be numbers, got {bad[0]!r}")
    try:
        data = [float(v) for v in data]
    except OverflowError as exc:  # an integer past the float range
        raise ValidationError(f"{name}: non-finite entries rejected") from exc
    rows, cols = int(rows), int(cols)
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"{name}: rows and cols must be positive")
    if len(data) != rows * cols:
        raise ValidationError(f"{name}: data has {len(data)} entries, expected {rows * cols}")
    if not all(math.isfinite(v) for v in data):
        raise ValidationError(f"{name}: non-finite entries rejected")
    return np.array(data).reshape(rows, cols)


def _read_text(path: Path) -> str:
    """The UTF-8 text of a file; ValidationError where it is missing, cannot
    be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; ValidationError where it cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _read_matrix_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    for ln, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValidationError(f"{path}:{ln}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ValidationError(f"{path}:{ln}: non-finite entries rejected")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{path}:{ln}: ragged row ({len(row)} vs {width} columns)")
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: empty matrix")
    return np.array(rows)


def read_matrix(path) -> np.ndarray:
    """Read a matrix from a .json or .csv file (decided by suffix)."""
    p = Path(path)
    if p.suffix.lower() != ".csv":
        return matrix_from_dict(load_json(p), name=str(p))
    return _read_matrix_csv(p)


def load_json(path) -> dict:
    p = Path(path)
    text = _read_text(p)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


# Leaves the C encoder writes with json.dumps' bytes; the JSON of a number,
# bool or None holds no quote, bracket or _ROW_MARK.
_NUMBERS = frozenset({float, int, bool, type(None), np.float64})
_LEAVES = _NUMBERS | {str}
_ROW_MARK = ";"
_SEQUENCES = frozenset({list, tuple})


class _Unhandled(Exception):
    """A value ``_indented`` leaves to ``json.dumps``."""


@functools.lru_cache(maxsize=32)
def _c_encode(item_separator: str):
    """The C encoder's ``encode`` with ``item_separator`` between items."""
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _number_rows(obj) -> bool:
    """Whether ``obj`` is a sequence of non-empty lists or tuples of numbers."""
    if not (_SEQUENCES.issuperset(map(type, obj)) and all(obj)):
        return False
    return _NUMBERS.issuperset(map(type, chain.from_iterable(obj)))


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` of ``obj`` set at indentation ``pad``.

    A dict or list whose items are all leaves (numbers, bools, None,
    strings) is one C encoder call, its item separator carrying the next
    line's indentation; a list of number rows is one call with
    ``_ROW_MARK`` between items, which two replaces then turn into row
    breaks and item breaks.  Raises ``_Unhandled`` at a non-str key and at
    a type other than those json.dumps writes, or a subclass of one of them
    (np.float64 aside: json writes it as the float it is).
    """
    kind = type(obj)
    if kind in _LEAVES:
        return _c_encode(",")(obj)
    if kind is dict:
        opening, closing, values = "{", "}", obj.values()
        if not all(type(k) is str for k in obj):
            raise _Unhandled
    elif kind is list or kind is tuple:
        opening, closing, values = "[", "]", obj
    else:
        raise _Unhandled
    if not obj:
        return opening + closing
    inner = pad + "  "
    if _LEAVES.issuperset(map(type, values)):
        body = _c_encode(",\n" + inner)(obj)[1:-1]
    elif kind is not dict and _number_rows(obj):
        deeper = inner + "  "
        body = _c_encode(_ROW_MARK)(obj)[1:-1]  # [1;2];[3;4]
        body = body.replace("]" + _ROW_MARK + "[", f"\n{inner}],\n{inner}[\n{deeper}")
        body = "[\n" + deeper + body[1:-1].replace(_ROW_MARK, ",\n" + deeper) + "\n" + inner + "]"
    elif kind is dict:
        body = (",\n" + inner).join(encode_basestring_ascii(k) + ": " + _indented(v, inner) for k, v in obj.items())
    else:
        body = (",\n" + inner).join(_indented(v, inner) for v in obj)
    return opening + "\n" + inner + body + "\n" + pad + closing


def dump_json(obj, path=None) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte; written to
    ``path`` when given.

    json takes its C encoder only without ``indent``, so an indented report
    would go through the pure-Python encoder, item by item.  Here dicts,
    lists and tuples are walked in Python and each run of leaves is written
    by the C encoder (``_indented``).  An object the walk does not handle
    (a non-str key, a type json.dumps has no rule for, a subclass, a cycle)
    goes to ``json.dumps(obj, indent=2)`` whole, so its text or its error is
    json's own.
    """
    try:
        text = _indented(obj, "") + "\n"
    except (_Unhandled, RecursionError):
        text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        _write_text(path, text)
    return text
