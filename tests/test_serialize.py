"""JSON persistence round trips and report writers."""

import base64
import json
import re

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import geometry
from diracweyl.cli import main
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.serialize import _grid_array, _load_document


def test_symbol_round_trip(tmp_path):
    sym = dw.symbol_from_frame(dw.random_band_limited_frame(1, n=8))
    path = tmp_path / "sym.json"
    dw.save_symbol(sym, str(path))
    back = dw.load_symbol(str(path))
    assert np.abs(back.sigma - sym.sigma).max() == 0.0


def test_frame_round_trip(tmp_path):
    fr = dw.twisted_frame(2, 8)
    path = tmp_path / "frame.json"
    dw.save_frame(fr, str(path))
    back = dw.load_frame(str(path))
    assert np.abs(back.e - fr.e).max() == 0.0


def test_operator_round_trip(tmp_path):
    op = dw.dirac_plus_scalar(dw.standard_frame(8), 0.25)
    path = tmp_path / "op.json"
    dw.save_operator(op, str(path))
    back = dw.load_operator(str(path))
    assert np.abs(back.sigma.sigma - op.sigma.sigma).max() == 0.0
    assert np.abs(back.a0 - op.a0).max() == 0.0


def test_kind_mismatch_rejected(tmp_path):
    fr = dw.standard_frame(8)
    path = tmp_path / "frame.json"
    dw.save_frame(fr, str(path))
    with pytest.raises(InputError, match="kind"):
        dw.load_operator(str(path))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        dw.load_symbol(str(path))


def test_version_field_checked(tmp_path):
    fr = dw.standard_frame(8)
    path = tmp_path / "frame.json"
    dw.save_frame(fr, str(path))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="version"):
        dw.load_frame(str(path))


@pytest.mark.parametrize("version", [True, 2.0, 1.0, 3.0, "2", None], ids=repr)
def test_version_must_be_the_integer_1_2_or_3(tmp_path, version):
    """A JSON true or 3.0 compares equal to a known version but is not one."""
    path = tmp_path / "frame.json"
    dw.save_frame(dw.standard_frame(8), str(path))
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="unsupported format version .*expected the integer 3 "):
        dw.load_frame(str(path))


def test_write_json_report(tmp_path):
    from diracweyl.serialize import write_json_report

    path = tmp_path / "report.json"
    text = write_json_report({"alpha": 1, "nested": {"b": 2.5}}, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == {"alpha": 1, "nested": {"b": 2.5}}
    assert json.loads(text) == on_disk


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_report_refuses_non_finite_numbers(value, tmp_path):
    """NaN and Infinity are not JSON; the report raises rather than print them, and writes nothing."""
    from diracweyl.serialize import write_json_report

    path = tmp_path / "report.json"
    with pytest.raises(ConsistencyError, match="non-finite"):
        write_json_report({"nested": {"b_global": value}}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("target", ["absent/doc.json", "."])
def test_unwritable_path_is_refused_by_name(target, tmp_path):
    from diracweyl.serialize import write_csv, write_json_report

    path = str(tmp_path / target)
    writers = [lambda: dw.save_frame(dw.standard_frame(4), path),
               lambda: write_json_report({"alpha": 1}, path),
               lambda: write_csv({"x": [1.0]}, path)]
    for write in writers:
        with pytest.raises(InputError, match=f"cannot write {re.escape(path)}: "):
            write()


def test_write_spectrum_csv(tmp_path):
    from diracweyl.serialize import write_csv

    table = dw.torus_exact_spectrum(dw.SpinStructure((0.0, 0.0, 0.0)), 2.0)
    path = tmp_path / "spec.csv"
    write_csv({"eigenvalue": table.values, "multiplicity": table.multiplicities}, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert len(lines) == len(table.values) + 1
    first = lines[1].split(",")
    assert float(first[0]) == table.values[0]
    assert int(first[1]) == table.multiplicities[0]


def test_saved_files_equal_the_streamed_encoder_output(tmp_path):
    """Each save writes exactly the bytes json.dump would have written."""
    frame = dw.twisted_frame(1, 8)
    op = dw.dirac_operator(frame)
    for save, obj in ((dw.save_operator, op), (dw.save_symbol, op.sigma), (dw.save_frame, frame)):
        path = tmp_path / "doc.json"
        save(obj, str(path))
        with open(path) as fh:
            doc = json.load(fh)
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == streamed.read_bytes()


def _flat(arr):
    """(n, n, n, *comp) -> (n^3, *comp) with x1 fastest, as every format version orders points."""
    flat = np.transpose(arr, (2, 1, 0) + tuple(range(3, arr.ndim)))
    return flat.reshape((arr.shape[0] ** 3,) + arr.shape[3:])


def _nested(arr):
    """Nested lists of the flattened array, complex entries as [re, im]: the version-1 and 2 arrays."""
    flat = _flat(arr)
    if np.iscomplexobj(flat):
        flat = np.stack([flat.real, flat.imag], axis=-1)
    return flat.tolist()


def _chart(n):
    return {"grid": n, "domain": "[0, 2*pi)^3", "point_order": "x1-fastest"}


def _earlier_document(version, kind, op):
    """The document the version-1 or version-2 writer made: complex symbol matrices under
    "sigma" (version 1, symbols and operators) or the frame components (version 2), and a0,
    as nested lists."""
    doc = {"format_version": version, "kind": kind, "chart": _chart(op.sigma.chart.n)}
    if version == 1 and kind != "frame":
        doc["sigma"] = _nested(op.sigma.sigma)
    else:
        doc["frame"] = _nested(op.sigma.p)
    if kind == "operator":
        doc["a0"] = _nested(op.a0)
    return doc


def _decoded(doc, key):
    """A version-3 array, flat: little-endian float64 from base64."""
    return np.frombuffer(base64.b64decode(doc[key], validate=True), dtype="<f8")


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("version, kind", [(1, "operator"), (1, "principal-symbol"), (2, "operator"),
                                           (2, "principal-symbol"), (2, "frame")])
def test_format_1_and_2_documents_are_refused(version, kind, tmp_path, capsys):
    """Only earlier releases wrote them: loading one, or reading it on the command line
    (exit 2, one error line), names format version 3."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_earlier_document(version, kind, dw.build_scenario("standard-torus", 8))))
    words = (f"{path}: unsupported format version {version}; "
             "expected the integer 3 (only format version 3 is read)")
    load = {"operator": dw.load_operator, "principal-symbol": dw.load_symbol, "frame": dw.load_frame}[kind]
    with pytest.raises(InputError, match=re.escape(words)):
        load(str(path))
    assert main(["decode", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {words}\n"


def test_saved_documents_hold_the_nine_frame_components(tmp_path):
    op = dw.build_scenario("random-band-limited", 16)
    docs = {}
    for kind, save, obj in (("operator", dw.save_operator, op), ("symbol", dw.save_symbol, op.sigma),
                            ("frame", dw.save_frame, dw.decode_frame(op.sigma))):
        path = tmp_path / f"{kind}.json"
        save(obj, str(path))
        docs[kind] = json.loads(path.read_text())
    for kind in ("operator", "symbol"):
        assert docs[kind]["format_version"] == 3 and "sigma" not in docs[kind]
        assert _same_bits(_decoded(docs[kind], "frame").reshape(16**3, 3, 3), _flat(op.sigma.p))
    assert docs["symbol"]["frame"] == docs["frame"]["frame"]
    a0 = _decoded(docs["operator"], "a0").view("<c16").reshape(16**3, 2, 2)  # (re, im) pairs
    assert _same_bits(a0, _flat(op.a0))


def test_loaded_arrays_own_writable_memory(tmp_path):
    """Arrays decoded from a base64 string do not alias its bytes, which are read-only."""
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_operator(dw.twisted_frame(1, 8)), str(path))
    doc = _load_document(str(path))
    for key in ("frame", "a0"):
        arr = _grid_array(doc, key, str(path))
        owner = arr if arr.base is None else arr.base
        assert arr.flags.writeable and owner.flags.owndata and owner.flags.writeable
    assert dw.load_operator(str(path)).a0.flags.writeable


@pytest.mark.parametrize("key, value, words", [
    ("frame", [[1.0, 0.0, 0.0]], "'frame' is missing or not a base64 string"),
    ("frame", "AAAA*AAA", "'frame' is not valid base64"),
    ("a0", "AAAAAAAAAAA=", "'a0' holds 8 bytes, chart.grid needs 32768"),
], ids=["list", "bad-character", "byte-count"])
def test_version_3_arrays_are_checked_by_name(key, value, words, tmp_path):
    path = tmp_path / "op.json"
    dw.save_operator(dw.dirac_operator(dw.standard_frame(8)), str(path))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=re.escape(f"{path}: {words}")):
        dw.load_operator(str(path))


def test_saving_builds_no_complex_symbol_stack(tmp_path, monkeypatch):
    op = dw.dirac_operator(dw.twisted_frame(1, 8))
    calls = []
    real = geometry.pauli_matrices
    monkeypatch.setattr(geometry, "pauli_matrices", lambda c: calls.append(c.shape) or real(c))
    dw.save_symbol(op.sigma, str(tmp_path / "sym.json"))
    dw.save_operator(op, str(tmp_path / "op.json"))
    assert calls == []


@pytest.mark.parametrize(
    "name, params",
    [("standard-torus", {}), ("twisted-torus", {"k3": 1}), ("random-band-limited", {"seed": 3})],
)
def test_save_load_save_is_byte_stable(name, params, tmp_path):
    """Loading keeps every signed zero of the stored entries."""
    op = dw.build_scenario(name, 16, **params)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dw.save_operator(op, str(first))
    dw.save_operator(dw.load_operator(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
