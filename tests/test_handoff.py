"""The hand-off slot between check_dirac and b_density on one operator.

Both read one metric, one torsion and one A_sub (operators._weyl_data).
Called on the same operator one after the other, in either order, the
second takes what the first left in the module's one slot.  A new
operator object, a changed a0 or another operator in between misses
it, the slot is empty once a pair has used it, and no coefficients
object is handed out twice.
"""

import dataclasses

import numpy as np
import pytest

import diracweyl as dw
from diracweyl import operators

CALLS = {"check_dirac": dw.check_dirac, "b_density": dw.b_density}
OTHER = {"check_dirac": "b_density", "b_density": "check_dirac"}


@pytest.fixture
def computed(monkeypatch):
    """Counts of the torsion and subprincipal_symbol calls _weyl_data makes from here on."""
    counts = dict.fromkeys(("torsion", "subprincipal_symbol"), 0)
    for name in counts:
        def counted(*args, _name=name, _real=getattr(operators, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(operators, name, counted)
    return counts


def _operator(seed=0):
    """A random Dirac operator plus the constant Hermitian 0.3 I + 0.05 s^3: every residual nonzero."""
    op = dw.dirac_operator(dw.random_band_limited_frame(seed))
    return dw.FirstOrderOperator(op.sigma, op.a0 + np.diag([0.35, 0.25]))


def _new(op):
    """A new operator object over the same symbol and a copy of a0, which misses the slot."""
    return dw.FirstOrderOperator(op.sigma, op.a0.copy())


def _bits(result):
    """Every field of a DiracVerdict or AsymptoticCoefficients as bytes."""
    return [np.asarray(getattr(result, f.name)).tobytes() for f in dataclasses.fields(result)]


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_pair_computes_once_and_matches_a_new_operator(first, computed):
    op = _operator()
    pair = (first, OTHER[first])
    computed.update(torsion=0, subprincipal_symbol=0)
    got = {name: CALLS[name](op) for name in pair}
    assert computed == {"torsion": 1, "subprincipal_symbol": 1}
    assert operators._weyl_slot is None
    for name in pair:
        assert _bits(got[name]) == _bits(CALLS[name](_new(op)))
    assert got["check_dirac"].cond_b_residual > 0.0 and got["check_dirac"].cond_a_residual > 0.0


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_new_operator_over_the_same_arrays_misses(first, computed):
    op = _operator()
    new = dw.FirstOrderOperator(op.sigma, op.a0)
    second = OTHER[first]
    CALLS[first](op)
    got = CALLS[second](new)
    assert computed["torsion"] == 2
    assert _bits(got) == _bits(CALLS[second](_new(op)))


@pytest.mark.parametrize("first", sorted(CALLS))
def test_an_in_place_change_to_a0_misses(first, computed):
    op = _operator()
    second = OTHER[first]
    before = CALLS[second](_new(op))
    CALLS[first](op)
    op.a0 += 0.1 * np.eye(2)  # still Hermitian
    got = CALLS[second](op)
    assert computed["torsion"] == 3
    assert _bits(got) == _bits(CALLS[second](_new(op)))
    assert _bits(got) != _bits(before)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_interleaved_operators_get_their_own_results(name, computed):
    """A, B, A: the second call on A misses B's slot and returns A's results."""
    a, b = _operator(0), _operator(1)
    other = OTHER[name]
    CALLS[other](a)
    CALLS[other](b)
    got = CALLS[name](a)
    assert computed["torsion"] == 3
    assert _bits(got) == _bits(CALLS[name](_new(a)))


def test_no_coefficients_object_is_handed_out_twice(computed):
    """Two b_density calls compute twice; zeroing a returned b moves no later verdict."""
    op = _operator()
    want = _bits(dw.check_dirac(_new(op)))
    first, second = dw.b_density(op), dw.b_density(op)
    assert first is not second and computed["torsion"] == 3
    second.b[...] = 0.0
    assert _bits(dw.check_dirac(op)) == want  # the residuals the second call left
    dw.check_dirac(op)
    dw.b_density(op).b[...] = 0.0  # the coefficients check_dirac left
    assert _bits(dw.check_dirac(op)) == want
    assert computed["torsion"] == 5


@pytest.mark.parametrize("first", sorted(CALLS))
def test_a_loaded_operator_with_a_strided_a0_pairs(first, computed, tmp_path):
    dw.save_operator(_operator(), tmp_path / "op.json")
    op = dw.load_operator(tmp_path / "op.json")
    assert not op.a0.flags.c_contiguous
    pair = (first, OTHER[first])
    computed.update(torsion=0)
    got = {name: CALLS[name](op) for name in pair}
    assert computed["torsion"] == 1 and operators._weyl_slot is None
    for name in pair:
        assert _bits(got[name]) == _bits(CALLS[name](_new(op)))
