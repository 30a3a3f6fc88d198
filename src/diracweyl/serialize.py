"""JSON round-tripping for grid fields and small report/CSV helpers.

File layout (format version 3): one JSON object whose header
(format_version, kind, chart) is plain JSON and whose grid arrays are
each one base64 string of little-endian float64 bytes.  Grid points are
flattened with the first coordinate varying fastest.  Frame, symbol and
operator files all store the 9 real frame components per point under
"frame" (a symbol's p, which is its frame); only an operator's a0 is
complex, stored as (re, im) pairs of float64.  Files of format
versions 1 and 2 (complex symbol matrices, or nested JSON lists) are
refused.  Headers stay readable and diffable; the arrays are readable
from any language with a base64 decoder but are not diffable.

Reading checks a file with the standard library first: the header and
each array's base64 and byte count.  Only then does it
import numpy and the classes, so the command line refuses a malformed
file without them.
"""

from __future__ import annotations

import base64
import csv
import io
import json
from math import prod
from typing import TYPE_CHECKING

from .errors import ConsistencyError, InputError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import FrameField, PrincipalSymbolField
    from .operators import FirstOrderOperator

_FORMAT_VERSION = 3

# Components per grid point of each stored array, and whether they are
# complex (stored as (re, im) pairs).
_COMPONENTS = {"frame": ((3, 3), False), "a0": ((2, 2), True)}


def _flatten_grid(arr: np.ndarray) -> np.ndarray:
    """(n, n, n, *comp) -> (n^3, *comp) with the x^1 index fastest."""
    n = arr.shape[0]
    comp = arr.shape[3:]
    swapped = arr.transpose((2, 1, 0) + tuple(range(3, arr.ndim)))
    return swapped.reshape((n**3,) + comp)


def _unflatten_grid(flat: np.ndarray, n: int) -> np.ndarray:
    comp = flat.shape[1:]
    arr = flat.reshape((n, n, n) + comp)
    return arr.transpose((2, 1, 0) + tuple(range(3, arr.ndim)))


def _frame_document(kind: str, e: np.ndarray) -> dict:
    """The header and the frame components e[..., j, alpha] every document kind holds."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "chart": {"grid": e.shape[0], "domain": "[0, 2*pi)^3", "point_order": "x1-fastest"},
        "frame": _encoded(e),
    }


def _encoded(arr: np.ndarray) -> str:
    """A grid array as base64 of its little-endian float64 values, x^1 fastest, complex as (re, im)."""
    dtype = "<c16" if arr.dtype.kind == "c" else "<f8"
    return base64.b64encode(_flatten_grid(arr).astype(dtype, copy=False).tobytes()).decode("ascii")


def _write_text(text: str, path: str) -> None:
    """Write text to path; a path that cannot be written is bad input, as one that cannot be read."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_document(doc: dict, path: str) -> None:
    # one json.dumps runs the C encoder; json.dump streams through the
    # pure-Python iterencode and writes the same bytes about twice as slowly
    _write_text(json.dumps(doc), path)


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
    doc["a0"] = _encoded(op.a0)
    _write_document(doc, path)


def load_operator(path: str) -> FirstOrderOperator:
    return _from_document(_load_document(path, "operator"), path)


def _from_document(doc: dict, path: str):
    """The frame, symbol or operator a checked document holds."""
    from .geometry import FrameField, symbol_from_frame
    from .operators import FirstOrderOperator

    e = _grid_array(doc, "frame", path)
    if doc["kind"] == "frame":
        return FrameField(e)
    sym = symbol_from_frame(e)
    if doc["kind"] == "principal-symbol":
        return sym
    return FirstOrderOperator(sym, _grid_array(doc, "a0", path))


def _load_document(path: str, kind: str | None = None) -> dict:
    """Parse a file once and check it with the standard library; kind=None accepts every known kind.

    Checks the header and replaces each array the kind holds by its
    base64-decoded bytes, checked against the chart.
    """
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
    if type(version) is not int or version != _FORMAT_VERSION:  # not a bool, not 3.0
        raise InputError(f"{path}: unsupported format version {version!r}; expected the "
                         f"integer {_FORMAT_VERSION} (only format version {_FORMAT_VERSION} is read)")
    chart = doc.get("chart")
    if not isinstance(chart, dict) or not isinstance(chart.get("grid"), int) or chart["grid"] < 1:
        raise InputError(f"{path}: chart.grid must be a positive integer")
    for key in ("frame", "a0") if got == "operator" else ("frame",):
        doc[key] = _decoded(doc.get(key), key, _flat_shape(doc, key), path)
    return doc


def _flat_shape(doc: dict, key: str) -> tuple:
    """The float64 shape of the array stored under key: points, then components, then (re, im)."""
    comp, is_complex = _COMPONENTS[key]
    return (doc["chart"]["grid"] ** 3,) + comp + ((2,) if is_complex else ())


def _grid_array(doc: dict, key: str, path: str) -> np.ndarray:
    """The grid field stored under key in a checked document.

    The array arrives as the little-endian float64 bytes that
    _load_document decoded and checked against the chart.  The result
    is a writable view of a fresh array, sharing no memory with doc.
    """
    import numpy as np

    # frombuffer over bytes is read-only; astype copies into native, writable memory
    flat = np.frombuffer(doc[key], dtype="<f8").astype(float).reshape(_flat_shape(doc, key))
    if not np.all(np.isfinite(flat)):
        raise InputError(f"{path}: {key!r} holds non-finite numbers")
    if _COMPONENTS[key][1]:
        flat = np.ascontiguousarray(flat).view(complex)[..., 0]  # keeps signed zeros
    return _unflatten_grid(flat, doc["chart"]["grid"])


def _decoded(text, key: str, want: tuple, path: str) -> bytes:
    """The bytes of a base64 string, checked to hold float64 values of shape want."""
    if not isinstance(text, str):
        raise InputError(f"{path}: {key!r} is missing or not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise InputError(f"{path}: {key!r} is not valid base64: {exc}") from None
    need = 8 * prod(want)
    if len(raw) != need:
        raise InputError(f"{path}: {key!r} holds {len(raw)} bytes, chart.grid needs {need}: "
                         f"8 per float64 of shape {want}")
    return raw


def write_json_report(report: dict, path: str | None) -> str:
    """The report as strict JSON text, also written to path if one is given.

    A NaN or infinity has no JSON form, so it raises ConsistencyError
    rather than print a non-standard constant.
    """
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConsistencyError(f"report holds a non-finite number: {exc}") from None
    if path:
        _write_text(text + "\n", path)
    return text


def write_csv(columns: dict, path: str) -> None:
    """Named equal-length columns as CSV: a header row, then numbers to 15 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(zip(*([f"{v:.15g}" for v in col] for col in columns.values())))
    _write_text(buf.getvalue(), path)
