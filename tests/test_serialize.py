"""JSON persistence round trips and report writers."""

import json

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import geometry
from diracweyl.errors import InputError


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


def test_write_json_report(tmp_path):
    from diracweyl.serialize import write_json_report

    path = tmp_path / "report.json"
    text = write_json_report({"alpha": 1, "nested": {"b": 2.5}}, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == {"alpha": 1, "nested": {"b": 2.5}}
    assert json.loads(text) == on_disk


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


def _version_1(kind, sym, a0=None):
    """The document the version-1 writer made: complex symbol matrices under "sigma"."""

    def encode(arr):  # x1 fastest, complex entries as [re, im]
        flat = np.transpose(arr, (2, 1, 0) + tuple(range(3, arr.ndim)))
        flat = flat.reshape((arr.shape[0] ** 3,) + arr.shape[3:])
        return np.stack([flat.real, flat.imag], axis=-1).tolist()

    chart = {"grid": sym.chart.n, "domain": "[0, 2*pi)^3", "point_order": "x1-fastest"}
    doc = {"format_version": 1, "kind": kind, "chart": chart, "sigma": encode(sym.sigma)}
    if a0 is not None:
        doc["a0"] = encode(a0)
    return doc


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", ["standard-torus", "random-band-limited"])
def test_version_1_documents_load_bit_identical(name, tmp_path):
    op = dw.build_scenario(name, 16)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(_version_1("operator", op.sigma, op.a0)))
    back = dw.load_operator(str(path))
    assert _same_bits(back.sigma.p, op.sigma.p) and _same_bits(back.a0, op.a0)
    path.write_text(json.dumps(_version_1("principal-symbol", op.sigma)))
    assert _same_bits(dw.load_symbol(str(path)).p, op.sigma.p)


def test_saved_documents_hold_the_nine_frame_components(tmp_path):
    op = dw.build_scenario("random-band-limited", 16)
    docs = {}
    for kind, save, obj in (("operator", dw.save_operator, op), ("symbol", dw.save_symbol, op.sigma),
                            ("frame", dw.save_frame, dw.decode_frame(op.sigma))):
        path = tmp_path / f"{kind}.json"
        save(obj, str(path))
        docs[kind] = json.loads(path.read_text())
    for kind in ("operator", "symbol"):
        assert docs[kind]["format_version"] == 2 and "sigma" not in docs[kind]
        assert np.asarray(docs[kind]["frame"]).shape == (16**3, 3, 3)
    assert docs["symbol"]["frame"] == docs["frame"]["frame"]


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
