"""Matrix and report I/O: JSON and CSV readers/writers.

Matrix JSON form: ``{"rows": m, "cols": n, "data": [row-major reals]}``.
CSV alternative: one row per line, comma separated, '.' decimal separator.
Both readers reject non-finite entries.
"""

import json
import math
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


def matrix_from_dict(d: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        data = [float(v) for v in d["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected keys rows/cols/data with numeric content: {exc}") from exc
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


def dump_json(obj, path=None) -> str:
    """Serialize deterministically; write to ``path`` when given."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        _write_text(path, text)
    return text
