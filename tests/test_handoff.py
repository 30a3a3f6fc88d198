"""What one analysis hands to the next call on the same symbol.

decode_metric returns the MetricField it last built for a symbol object,
and torsion the TorsionBundle it last built for that metric and a frame
over the symbol's read-only p, as long as some caller holds the result:
the links are weak references (the symbol's _metric, the metric's _p and
_torsion).  So check_dirac and b_density read the metric and the torsion
a caller such as the bench's analysis holds, a new symbol over an equal
p starts cold, and a caller that holds nothing builds on every call.
A_sub, the densities and every verdict are formed on each call, and
beyond their declared fields the three links are all that the operator,
the symbol, the metric and the bundle of an analysis hold.
"""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import geometry

CALLS = {"check_dirac": dw.check_dirac, "b_density": dw.b_density}
OTHER = {"check_dirac": "b_density", "b_density": "check_dirac"}


@pytest.fixture
def builds(monkeypatch):
    """builds() counts, from the call on, the metrics and torsion bundles built, in
    MetricField.__init__ and the private kernel geometry._torsion."""

    def start():
        count = {"metric": 0, "torsion": 0}

        def torsion(*args, _real=geometry._torsion):
            count["torsion"] += 1
            return _real(*args)

        def init(self, sym, _real=geometry.MetricField.__init__):
            count["metric"] += 1
            _real(self, sym)

        monkeypatch.setattr(geometry, "_torsion", torsion)
        monkeypatch.setattr(geometry.MetricField, "__init__", init)
        return count

    return start


def _operator(seed=0):
    """A random Dirac operator plus the constant Hermitian 0.3 I + 0.05 s^3: every residual nonzero."""
    op = dw.dirac_operator(dw.random_band_limited_frame(seed))
    return dw.FirstOrderOperator(op.sigma, op.a0 + np.diag([0.35, 0.25]))


def _cold(op):
    """A new operator over a new symbol of an equal p and a copy of a0: nothing links to it."""
    return dw.FirstOrderOperator(dw.PrincipalSymbolField(op.sigma.sigma), op.a0.copy())


def _held(op):
    """The metric and the torsion bundle of op's symbol, as a caller that keeps them holds them."""
    metric = dw.decode_metric(op.sigma)
    return metric, dw.torsion(dw.FrameField(op.sigma.p), metric)


def _analysis(op):
    """A bench-shaped analysis: the caller decodes and takes the torsion itself, and holds
    both while the charge, the verdict and the coefficients are formed."""
    sym = op.sigma
    frame, metric = dw.decode_frame(sym), dw.decode_metric(sym)
    return {"metric": metric, "charge": dw.topological_charge(sym),
            "torsion": dw.torsion(frame, metric), "verdict": dw.check_dirac(op),
            "coeffs": dw.b_density(op)}


def _bits(result):
    """Every array of a result as bytes: the fields of a DiracVerdict, AsymptoticCoefficients
    or TorsionBundle, a metric's three arrays, or an int."""
    if isinstance(result, dw.MetricField):
        return [a.tobytes() for a in (result.contra, result.cov, result.vol)]
    if isinstance(result, int):
        return result
    return [np.asarray(getattr(result, f.name)).tobytes() for f in dataclasses.fields(result)]


def test_a_bench_shaped_analysis_builds_one_metric_and_one_torsion(builds):
    op = _operator()
    count = builds()
    got = _analysis(op)
    assert count == {"metric": 1, "torsion": 1}
    assert dw.decode_metric(op.sigma) is got["metric"]
    assert dw.torsion(dw.decode_frame(op.sigma), got["metric"]) is got["torsion"]
    assert count == {"metric": 1, "torsion": 1}


def test_each_shared_result_equals_a_cold_one():
    """Every output of the analysis is bit for bit what a call on a cold operator gives."""
    op = _operator()
    got = _analysis(op)
    cold = {
        "metric": lambda: dw.decode_metric(_cold(op).sigma),
        "charge": lambda: dw.topological_charge(_cold(op).sigma),
        "torsion": lambda: _held(_cold(op))[1],
        "verdict": lambda: dw.check_dirac(_cold(op)),
        "coeffs": lambda: dw.b_density(_cold(op)),
    }
    assert sorted(cold) == sorted(got)
    for name, call in cold.items():
        assert _bits(got[name]) == _bits(call()), name
    assert got["verdict"].cond_a_residual > 0.0 and got["verdict"].cond_b_residual > 0.0


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_pair_computes_once_and_matches_a_new_operator(first, builds):
    """While the caller holds the metric and the bundle, either order reads them and matches a
    cold operator's call."""
    op = _operator()
    count = builds()
    held = _held(op)
    pair = (first, OTHER[first])
    got = {name: CALLS[name](op) for name in pair}
    assert count == {"metric": 1, "torsion": 1}
    for name in pair:
        assert _bits(got[name]) == _bits(CALLS[name](_cold(op)))
    del held


def test_a_pair_with_nothing_held_builds_twice(builds):
    """Nothing keeps a result alive for a caller that holds none: check_dirac then b_density
    decodes the metric and takes the torsion once each."""
    op = _operator()
    count = builds()
    dw.check_dirac(op)
    dw.b_density(op)
    assert count == {"metric": 2, "torsion": 2}


def test_a_second_symbol_over_an_equal_p_starts_cold(builds):
    """dirac_plus_scalar and dirac_plus_traceless of one frame hold one p (geometry._HELD_P),
    as does a symbol rebuilt from sigma, but each symbol object has its own links."""
    frame = dw.random_band_limited_frame(1)
    ops = (dw.dirac_plus_scalar(frame, 0.3), dw.dirac_plus_traceless(frame, 0.1))
    rebuilt = dw.PrincipalSymbolField(ops[0].sigma.sigma)
    assert ops[0].sigma.p is ops[1].sigma.p is rebuilt.p
    count = builds()
    held = _analysis(ops[0])
    assert dw.decode_metric(ops[1].sigma) is not held["metric"]
    metric = dw.decode_metric(rebuilt)
    assert metric is not held["metric"]
    assert dw.torsion(dw.decode_frame(rebuilt), metric) is not held["torsion"]
    assert count == {"metric": 3, "torsion": 2}
    verdict = dw.check_dirac(ops[1])
    assert count == {"metric": 4, "torsion": 3}
    assert held["verdict"].cond_a_residual < 1e-10 < verdict.cond_a_residual


def test_only_a_decoded_metric_and_a_frame_over_its_p_share(builds):
    """A frame over a copy of p, or a metric built directly, gets a new bundle on every call."""
    op = _operator()
    count = builds()
    metric, bundle = _held(op)
    copy = dw.FrameField(op.sigma.p.copy())
    assert dw.torsion(copy, metric) is not bundle
    direct = dw.MetricField(op.sigma)
    first = dw.torsion(dw.FrameField(op.sigma.p), direct)
    assert dw.torsion(dw.FrameField(op.sigma.p), direct) is not first
    assert count["torsion"] == 4
    assert _bits(first) == _bits(bundle)


def test_dropped_results_leave_every_link_dead():
    op = _operator()
    held = _analysis(op)
    links = [vars(op.sigma)["_metric"], vars(held["metric"])["_torsion"]]
    assert [link() for link in links] == [held["metric"], held["torsion"]]
    del held
    gc.collect()
    assert [link() for link in links] == [None, None]


def test_a_held_metric_and_bundle_keep_no_p_alive():
    """The metric and the bundle a caller still holds keep no p alive: the metric's link to
    its p is weak."""
    op = dw.dirac_operator(dw.random_band_limited_frame(29))  # a p no other test holds
    metric, bundle = _held(op)
    p = weakref.ref(op.sigma.p)
    assert vars(metric)["_p"]() is op.sigma.p
    del op
    gc.collect()
    assert p() is None
    assert vars(metric)["_p"]() is None and bundle.conn.shape[0] == 3


def test_writing_to_a_shared_array_raises():
    op = _operator()
    metric, bundle = _held(op)
    for array in (metric.contra, metric.cov, metric.vol, bundle.conn, bundle.star, bundle.axial_dual):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0


def test_linked_objects_pickle_without_their_links():
    """After a whole analysis the operator, its symbol, the metric and the bundle hold their
    declared fields and the three weak links only: nothing derived is kept alive on them.
    Weak references cannot be pickled, so a symbol and a metric drop their links when
    pickled; what comes back is equal and starts cold."""
    op = _operator()
    held = _analysis(op)
    metric, bundle, verdict = held["metric"], held["torsion"], held["verdict"]
    expected = [(op, {"sigma", "a0"}, set()), (op.sigma, {"p"}, {"_metric"}),
                (metric, {"contra", "cov", "vol"}, {"_p", "_torsion"}),
                (bundle, {f.name for f in dataclasses.fields(bundle)}, set())]
    for obj, fields, links in expected:
        weak = {name for name, value in vars(obj).items() if type(value) is weakref.ref}
        assert (set(vars(obj)) - weak, weak) == (fields, links), type(obj).__name__
    again, metric_again = pickle.loads(pickle.dumps(op)), pickle.loads(pickle.dumps(metric))
    assert list(vars(again.sigma)) == ["p"] and "_p" not in vars(metric_again)
    assert np.array_equal(again.sigma.p, op.sigma.p) and _bits(metric_again) == _bits(metric)
    assert _bits(dw.check_dirac(again)) == _bits(verdict)
    assert _bits(pickle.loads(pickle.dumps(bundle))) == _bits(bundle)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_new_operator_over_the_same_symbol_reads_what_the_caller_holds(name, builds):
    """An operator with another a0 over the same symbol reads the metric and the torsion the
    caller holds for that symbol, and gets its own results."""
    op = _operator()
    count = builds()
    held = _held(op)
    before = CALLS[name](op)
    new = dw.FirstOrderOperator(op.sigma, op.a0 + 0.1 * np.eye(2))
    got = CALLS[name](new)
    assert count == {"metric": 1, "torsion": 1}
    assert _bits(got) != _bits(before) and _bits(got) == _bits(CALLS[name](_cold(new)))
    del held


@pytest.mark.parametrize("name", sorted(CALLS))
def test_an_in_place_change_to_a0_is_seen_without_a_new_torsion(name, builds):
    """A_sub and the densities are formed from a0 on every call, so a changed a0 is seen
    without a new torsion."""
    op = _operator()
    count = builds()
    held = _held(op)
    before = CALLS[name](op)
    op.a0 += 0.1 * np.eye(2)  # still Hermitian
    got = CALLS[name](op)
    assert count == {"metric": 1, "torsion": 1}
    assert _bits(got) != _bits(before) and _bits(got) == _bits(CALLS[name](_cold(op)))
    del held


@pytest.mark.parametrize("name", sorted(CALLS))
def test_interleaved_operators_get_their_own_results(name, builds):
    """A, B, A with nothing held: no result is kept in module state, so each call builds for
    its operator."""
    a, b = _operator(0), _operator(1)
    count = builds()
    CALLS[OTHER[name]](a)
    CALLS[OTHER[name]](b)
    got = CALLS[name](a)
    assert count == {"metric": 3, "torsion": 3}
    assert _bits(got) == _bits(CALLS[name](_cold(a)))


def test_no_coefficients_object_is_handed_out_twice(builds):
    """Two b_density calls give distinct objects; zeroing one's b moves no later result."""
    op = _operator()
    count = builds()
    held = _held(op)
    verdict = _bits(dw.check_dirac(op))
    first, second = dw.b_density(op), dw.b_density(op)
    assert first is not second and first.b is not second.b
    want = _bits(second)
    first.b[...] = 0.0
    first.a[...] = 0.0
    assert _bits(dw.b_density(op)) == want and _bits(dw.check_dirac(op)) == verdict
    assert count == {"metric": 1, "torsion": 1}
    del held


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_loaded_operator_with_a_strided_a0_pairs(first, builds, tmp_path):
    dw.save_operator(_operator(), tmp_path / "op.json")
    op = dw.load_operator(tmp_path / "op.json")
    count = builds()
    assert not op.a0.flags.c_contiguous
    held = _held(op)
    pair = (first, OTHER[first])
    got = {name: CALLS[name](op) for name in pair}
    assert count == {"metric": 1, "torsion": 1}
    for name in pair:
        assert _bits(got[name]) == _bits(CALLS[name](_cold(op)))
    del held


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_torsion_build_takes_one_frame_determinant(first, monkeypatch):
    """A torsion build takes one determinant of p, its orientation check; the calls that read
    the bundle a caller holds take none."""
    dets = [0]

    def counted(m, _real=geometry._det3):
        dets[0] += 1
        return _real(m)

    op = _operator()
    metric = dw.decode_metric(op.sigma)
    monkeypatch.setattr(geometry, "_det3", counted)
    bundle = dw.torsion(dw.FrameField(op.sigma.p), metric)
    assert dets[0] == 1
    CALLS[first](op)
    CALLS[OTHER[first]](op)
    assert dets[0] == 1
    del bundle
