"""JSON round-tripping for grid fields and small report/CSV helpers.

File layout: one JSON object with a chart descriptor and flattened
arrays.  Grid points are flattened with the first coordinate varying
fastest; complex entries are stored as [re, im] pairs.  Everything is
plain JSON so files are diffable and readable from any language.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import InputError
from .geometry import FrameField, PrincipalSymbolField
from .operators import FirstOrderOperator

_FORMAT_VERSION = 1


def _flatten_grid(arr: np.ndarray) -> np.ndarray:
    """(n, n, n, *comp) -> (n^3, *comp) with the x^1 index fastest."""
    n = arr.shape[0]
    comp = arr.shape[3:]
    swapped = np.transpose(arr, (2, 1, 0) + tuple(range(3, arr.ndim)))
    return swapped.reshape((n**3,) + comp)


def _unflatten_grid(flat: np.ndarray, n: int) -> np.ndarray:
    comp = flat.shape[1:]
    arr = flat.reshape((n, n, n) + comp)
    return np.transpose(arr, (2, 1, 0) + tuple(range(3, arr.ndim)))


def _encode_complex(arr: np.ndarray) -> list:
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def _header(kind: str, n: int) -> dict:
    return {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "chart": {"grid": n, "domain": "[0, 2*pi)^3", "point_order": "x1-fastest"},
    }


def _write_document(doc: dict, path: str) -> None:
    # one json.dumps runs the C encoder; json.dump streams through the
    # pure-Python iterencode and writes the same bytes about twice as slowly
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def save_symbol(sym: PrincipalSymbolField, path: str) -> None:
    doc = _header("principal-symbol", sym.chart.n)
    doc["sigma"] = _encode_complex(_flatten_grid(sym.sigma))
    _write_document(doc, path)


def load_symbol(path: str) -> PrincipalSymbolField:
    return _from_document(_load_document(path, "principal-symbol"), path)


def save_frame(frame: FrameField, path: str) -> None:
    n = frame.e.shape[0]
    doc = _header("frame", n)
    doc["frame"] = _flatten_grid(frame.e).tolist()
    _write_document(doc, path)


def load_frame(path: str) -> FrameField:
    return _from_document(_load_document(path, "frame"), path)


def save_operator(op: FirstOrderOperator, path: str) -> None:
    doc = _header("operator", op.chart.n)
    doc["sigma"] = _encode_complex(_flatten_grid(op.sigma.sigma))
    doc["a0"] = _encode_complex(_flatten_grid(op.a0))
    _write_document(doc, path)


def load_operator(path: str) -> FirstOrderOperator:
    return _from_document(_load_document(path, "operator"), path)


def _from_document(doc: dict, path: str):
    """The frame, symbol or operator a checked document holds."""
    if doc["kind"] == "frame":
        return FrameField(_grid_array(doc, "frame", (3, 3), path, is_complex=False))
    sym = PrincipalSymbolField(_grid_array(doc, "sigma", (3, 2, 2), path))
    if doc["kind"] == "principal-symbol":
        return sym
    return FirstOrderOperator(sym, _grid_array(doc, "a0", (2, 2), path))


def _load_document(path: str, kind: str | None = None) -> dict:
    """Parse a file once and check its header; kind=None accepts every known kind."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    got = doc.get("kind") if isinstance(doc, dict) else None
    wanted = (kind,) if kind else ("operator", "principal-symbol", "frame")
    if got not in wanted:
        raise InputError(f"{path} holds {got!r}, expected {' or '.join(map(repr, wanted))}")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise InputError(f"unsupported format version {doc.get('format_version')}")
    chart = doc.get("chart")
    if not isinstance(chart, dict) or not isinstance(chart.get("grid"), int) or chart["grid"] < 1:
        raise InputError(f"{path}: chart.grid must be a positive integer")
    return doc


def _grid_array(doc: dict, key: str, comp: tuple, path: str, is_complex: bool = True) -> np.ndarray:
    """The grid field stored under key, checked against the chart before reshaping."""
    n = doc["chart"]["grid"]
    want = (n**3,) + comp + ((2,) if is_complex else ())
    try:
        flat = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise InputError(f"{path}: {key!r} is missing or not a regular array of numbers") from None
    if flat.shape != want:
        raise InputError(f"{path}: {key!r} has shape {flat.shape}, grid {n} needs {want}")
    if not np.all(np.isfinite(flat)):
        raise InputError(f"{path}: {key!r} holds non-finite numbers")
    if is_complex:
        flat = np.ascontiguousarray(flat).view(complex)[..., 0]  # keeps signed zeros
    return _unflatten_grid(flat, n)


def write_json_report(report: dict, path: str | None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def write_csv(columns: dict, path: str) -> None:
    """Named equal-length columns as CSV: a header row, then numbers to 15 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*([f"{v:.15g}" for v in col] for col in columns.values())))
