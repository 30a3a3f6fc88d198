"""The paper's computed objects against the committed reference_outputs.json.

Ten operators: the five families of the benchmark's verdict workload at 16^3, the
Dirac operators of conftest's curved frame at 24^3 and of its three pullback frames at
16^3.  For each: the charge, the integrals of a and b, max|b|, the verdict, the torsion
route residuals, and a0, A_sub, b, *T_ax and the three fibre routes at 16 seeded grid
points, complex entries as (re, im).  Plus one exact torus table and one cutoff-4
Galerkin table.  Integers and booleans must match exactly, every float within
1e-13 max|quantity| + 1e-15.  A change that moves a formula on purpose rewrites the file,
each float in the shortest form that reads back bit for bit, by
``PYTHONPATH=src python tests/test_reference.py``.
"""

import json
from pathlib import Path

import numpy as np

import diracweyl as dw
from conftest import make_curved_frame, make_pullback_frame

REFERENCE = Path(__file__).with_name("reference_outputs.json")


def _flat(values):
    a = np.ascontiguousarray(values)
    return (a.view(float) if np.iscomplexobj(a) else a).ravel().tolist()


def _analysis(op):
    sym, pts = op.sigma, np.random.default_rng(16).integers(0, op.sigma.chart.n, size=(16, 3))
    tor = dw.torsion(dw.decode_frame(sym), dw.decode_metric(sym))
    verdict, coeffs, at = dw.check_dirac(op), dw.b_density(op), tuple(pts.T)
    samples = {"a0": op.a0[at], "subprincipal_symbol": dw.subprincipal_symbol(op)[at],
               "b": coeffs.b[at], "axial_dual": tor.axial_dual[at],
               "b1_fiber": dw.b1_density_fiber(op, pts),
               "b2_fiber_torsion": dw.b2_density_fiber_torsion(sym, pts),
               "b2_fiber_curvature": dw.b2_density_fiber_curvature(sym, pts)}
    return {"charge": dw.topological_charge(sym), "a_global": coeffs.a_global,
            "b_global": coeffs.b_global, "max_abs_b": float(np.abs(coeffs.b).max()), **vars(verdict),
            "route_residuals": tor.route_residuals, **{k: _flat(v) for k, v in samples.items()}}


def _table(table):
    return {"values": _flat(table.values), "multiplicities": _flat(table.multiplicities),
            "coverage": table.coverage}


def reference_operators():
    """The ten reference operators by name."""
    rand = dw.dirac_operator(dw.random_band_limited_frame(1, 16, amplitude=0.003))
    return {"random": rand, "twisted": dw.dirac_operator(dw.twisted_frame(1, 16)),
            "gauged": dw.gauge_transform(rand, dw.random_gauge_field(2, 16, amplitude=0.04)),
            "scalar": dw.dirac_plus_scalar(dw.standard_frame(16), 0.3),
            "traceless": dw.dirac_plus_traceless(dw.standard_frame(16), 0.1),
            "curved": dw.dirac_operator(make_curved_frame()),
            **{f"pullback-{name}": dw.dirac_operator(make_pullback_frame(name, 16)[0])
               for name in ("shear", "stretch", "two-shear")}}


def reference_outputs():
    """Every reference quantity, in the plain JSON types it is stored as."""
    ops = reference_operators()
    out = {name: _analysis(op) for name, op in ops.items()}
    out["exact-torus-half3"] = _table(dw.torus_exact_spectrum((0.0, 0.0, 0.5), 3.0))
    out["galerkin-pullback-two-shear"] = _table(
        dw.galerkin_spectrum(ops["pullback-two-shear"], 4, window=(-1.8, 1.8)))
    return json.loads(json.dumps(out))


def _changes(got, want, where=""):
    """(relative change, quantity, within the bound) for every quantity of the reference."""
    if isinstance(want, dict) and list(got) == list(want):
        for key, value in want.items():
            yield from _changes(got[key], value, f"{where}/{key}")
    elif dict in (type(got), type(want)) or np.shape(got) != np.shape(want):
        yield np.inf, where, False
    elif np.asarray(want).dtype.kind != "f":  # integers and booleans
        yield (0.0 if got == want else np.inf), where, got == want
    else:
        scale, gap = float(np.abs(want).max()), float(np.abs(np.subtract(got, want)).max())
        yield gap / scale if scale else gap, where, gap <= 1e-13 * scale + 1e-15


def test_outputs_match_the_reference():
    changes = list(_changes(reference_outputs(), json.loads(REFERENCE.read_text())))
    worst = max(changes, key=lambda change: change[0])
    print(f"largest relative change {worst[0]:.3g}, in {worst[1]}")
    assert [where for _, where, ok in changes if not ok] == []


def test_verdict_gap_is_bounded_by_the_conditions_and_the_skew_part():
    """gap <= (a) + (b) + h on every reference operator, (b) = 2 pi^2 max|b / sqrt(det g)| and
    h = max|A_sub - A_sub^*|, to a few ulps of the gap; equality holds on the scalar and
    traceless operators.  Without h it fails on five of them: the gap also reads A_sub's
    anti-Hermitian rounding, which neither condition measures."""
    slack = {}
    for name, op in reference_operators().items():
        verdict, asub, vol = dw.check_dirac(op), dw.subprincipal_symbol(op), dw.decode_metric(op.sigma).vol
        cond_b = 2 * np.pi**2 * float(np.abs(dw.b_density(op).b / vol).max())
        h = float(np.abs(asub - np.conj(asub.swapaxes(-1, -2))).max())
        slack[name] = verdict.cond_a_residual + cond_b + h - verdict.reconstructed_gap
        assert slack[name] >= -4 * np.spacing(verdict.reconstructed_gap), name
    name = min(slack, key=slack.get)
    print(f"smallest slack {slack[name]:.3g}, on {name}")


if __name__ == "__main__":  # one line per quantity
    cases = (f" {json.dumps(name)}: {{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in q.items())
             + "\n }" for name, q in reference_outputs().items())
    REFERENCE.write_text("{\n" + ",\n".join(cases) + "\n}\n")
