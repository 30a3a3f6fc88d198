"""JSON round-tripping for grid fields and small report/CSV helpers.

File layout: one JSON object with a chart descriptor and flattened
arrays.  Grid points are flattened with the first coordinate varying
fastest.  Frame, symbol and operator files all store the 9 real frame
components per point under "frame" (a symbol's p, which is its frame);
only an operator's a0 is complex, stored as [re, im] pairs.  Version-1
symbol and operator files, which stored the complex symbol matrices
under "sigma", still load.  Everything is plain JSON so files are
diffable and readable from any language.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import InputError
from .geometry import FrameField, PrincipalSymbolField, symbol_from_frame
from .operators import FirstOrderOperator

_FORMAT_VERSION = 2


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


def _frame_document(kind: str, e: np.ndarray) -> dict:
    """The header and the frame components e[..., j, alpha] every document kind holds."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "chart": {"grid": e.shape[0], "domain": "[0, 2*pi)^3", "point_order": "x1-fastest"},
        "frame": _flatten_grid(e).tolist(),
    }


def _write_document(doc: dict, path: str) -> None:
    # one json.dumps runs the C encoder; json.dump streams through the
    # pure-Python iterencode and writes the same bytes about twice as slowly
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def save_symbol(sym: PrincipalSymbolField, path: str) -> None:
    _write_document(_frame_document("principal-symbol", sym.p), path)


def load_symbol(path: str) -> PrincipalSymbolField:
    return _from_document(_load_document(path, "principal-symbol"), path)


def save_frame(frame: FrameField, path: str) -> None:
    _write_document(_frame_document("frame", frame.e), path)


def load_frame(path: str) -> FrameField:
    return _from_document(_load_document(path, "frame"), path)


def save_operator(op: FirstOrderOperator, path: str) -> None:
    doc = _frame_document("operator", op.sigma.p)
    a0 = _flatten_grid(op.a0)
    doc["a0"] = np.stack([a0.real, a0.imag], axis=-1).tolist()
    _write_document(doc, path)


def load_operator(path: str) -> FirstOrderOperator:
    return _from_document(_load_document(path, "operator"), path)


def _from_document(doc: dict, path: str):
    """The frame, symbol or operator a checked document holds."""
    if doc["format_version"] == 1 and doc["kind"] != "frame":
        sym = PrincipalSymbolField(_grid_array(doc, "sigma", (3, 2, 2), path))
    else:
        e = _grid_array(doc, "frame", (3, 3), path, is_complex=False)
        if doc["kind"] == "frame":
            return FrameField(e)
        sym = symbol_from_frame(e)
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
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, _FORMAT_VERSION):  # not a bool, not 2.0
        raise InputError(f"{path}: unsupported format version {version!r}; "
                         f"expected the integer 1 or {_FORMAT_VERSION}")
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
