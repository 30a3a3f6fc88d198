"""The record check_dirac and b_density share for one principal symbol.

Both read vol, c *T_ax, the charge and the divergence of p from
operators._weyl_data, which keeps them for the last p it read, keyed by
a weak reference to that read-only array.  Any operator over the same p
reads the record, whatever its a0; A_sub and every result are formed on
each call.  Another p replaces the record, and the record keeps no p alive.
"""

import dataclasses
import gc

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import geometry, operators

CALLS = {"check_dirac": dw.check_dirac, "b_density": dw.b_density}
OTHER = {"check_dirac": "b_density", "b_density": "check_dirac"}


@pytest.fixture
def torsions(monkeypatch):
    """The number of torsion calls _weyl_data makes from here on, as torsions[0]."""
    count = [0]

    def counted(*args, _real=operators.torsion):
        count[0] += 1
        return _real(*args)

    monkeypatch.setattr(operators, "torsion", counted)
    return count


def _operator(seed=0):
    """A random Dirac operator plus the constant Hermitian 0.3 I + 0.05 s^3: every residual nonzero."""
    op = dw.dirac_operator(dw.random_band_limited_frame(seed))
    return dw.FirstOrderOperator(op.sigma, op.a0 + np.diag([0.35, 0.25]))


def _emptied(name, op):
    """The result of one call that starts from an empty slot."""
    operators._weyl_slot = None
    return CALLS[name](op)


def _bits(result):
    """Every field of a DiracVerdict or AsymptoticCoefficients as bytes."""
    return [np.asarray(getattr(result, f.name)).tobytes() for f in dataclasses.fields(result)]


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_pair_computes_once_and_matches_a_new_operator(first, torsions):
    """Either order runs torsion once and matches a new operator's call from an empty slot."""
    op = _operator()
    pair = (first, OTHER[first])
    got = {name: CALLS[name](op) for name in pair}
    assert torsions[0] == 1
    for name in pair:
        assert _bits(got[name]) == _bits(_emptied(name, dw.FirstOrderOperator(op.sigma, op.a0.copy())))
    assert got["check_dirac"].cond_b_residual > 0.0 and got["check_dirac"].cond_a_residual > 0.0


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_new_operator_over_the_same_p_reads_the_record(name, torsions):
    """Another a0 over the same symbol reuses the torsion and gets its own results."""
    op = _operator()
    before = CALLS[name](op)
    new = dw.FirstOrderOperator(op.sigma, op.a0 + 0.1 * np.eye(2))
    got = CALLS[name](new)
    assert torsions[0] == 1
    assert _bits(got) != _bits(before) and _bits(got) == _bits(_emptied(name, new))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_an_in_place_change_to_a0_reads_the_record(name, torsions):
    """A_sub is formed from a0 on every call, so a changed a0 is seen without a new torsion."""
    op = _operator()
    before = CALLS[name](op)
    op.a0 += 0.1 * np.eye(2)  # still Hermitian
    got = CALLS[name](op)
    assert torsions[0] == 1
    assert _bits(got) != _bits(before) and _bits(got) == _bits(_emptied(name, op))


def test_scalar_then_traceless_of_one_frame_share_the_record(torsions):
    """dirac_plus_scalar and dirac_plus_traceless of one frame hold one p (geometry._HELD_P)."""
    frame = dw.random_band_limited_frame(1)
    ops = (dw.dirac_plus_scalar(frame, 0.3), dw.dirac_plus_traceless(frame, 0.1))
    assert ops[0].sigma.p is ops[1].sigma.p
    got = [(dw.check_dirac(op), dw.b_density(op)) for op in ops]
    assert torsions[0] == 1
    for op, (verdict, coeffs) in zip(ops, got):
        assert _bits(verdict) == _bits(_emptied("check_dirac", op))
        assert _bits(coeffs) == _bits(_emptied("b_density", op))
    assert got[0][0].cond_a_residual < 1e-10 < got[1][0].cond_a_residual


@pytest.mark.parametrize("name", sorted(CALLS))
def test_interleaved_operators_get_their_own_results(name, torsions):
    """A, B, A: B replaces A's record, so the second call on A computes again."""
    a, b = _operator(0), _operator(1)
    CALLS[OTHER[name]](a)
    CALLS[OTHER[name]](b)
    got = CALLS[name](a)
    assert torsions[0] == 3
    assert _bits(got) == _bits(_emptied(name, a))


def test_the_record_keeps_no_p_alive():
    op = dw.dirac_operator(dw.random_band_limited_frame(29))  # a p no other test holds
    dw.check_dirac(op)
    held = operators._weyl_slot[0]
    assert held() is op.sigma.p
    del op
    gc.collect()
    assert held() is None


def test_no_coefficients_object_is_handed_out_twice(torsions):
    """Two b_density calls give distinct objects; zeroing one's b moves no later result."""
    op = _operator()
    verdict = _bits(dw.check_dirac(op))
    first, second = dw.b_density(op), dw.b_density(op)
    assert first is not second and first.b is not second.b
    want = _bits(second)
    first.b[...] = 0.0
    first.a[...] = 0.0
    assert _bits(dw.b_density(op)) == want and _bits(dw.check_dirac(op)) == verdict
    assert torsions[0] == 1


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_loaded_operator_with_a_strided_a0_pairs(first, torsions, tmp_path):
    dw.save_operator(_operator(), tmp_path / "op.json")
    op = dw.load_operator(tmp_path / "op.json")
    assert not op.a0.flags.c_contiguous
    pair = (first, OTHER[first])
    got = {name: CALLS[name](op) for name in pair}
    assert torsions[0] == 1
    for name in pair:
        assert _bits(got[name]) == _bits(_emptied(name, op))


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_record_build_takes_one_frame_determinant(first, monkeypatch):
    """torsion's orientation check is the build's one determinant of p (decode_frame took a
    second before it); the call that reads the record takes none."""
    dets = [0]

    def counted(m, _real=geometry._det3):
        dets[0] += 1
        return _real(m)

    op = _operator()
    operators._weyl_slot = None
    monkeypatch.setattr(geometry, "_det3", counted)
    CALLS[first](op)
    assert dets[0] == 1
    CALLS[OTHER[first]](op)
    assert dets[0] == 1
