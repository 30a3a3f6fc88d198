"""Operator layer: Dirac construction, gauge action, lifts, checker."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.fields import PeriodicChart, derivative_stack
from diracweyl.geometry import christoffel_symbols
from diracweyl.operators import pauli_basis

PAULI = pauli_basis()


def _twist_gauge(k3, n):
    """SU(2) field exp(i*k3*x3*s3/2); single-valued only for even k3."""
    x3 = PeriodicChart(n).mesh()[2]
    theta = 0.5 * k3 * x3
    r = np.zeros((n, n, n, 2, 2), complex)
    r[..., 0, 0] = np.cos(theta) + 1j * np.sin(theta)
    r[..., 1, 1] = np.cos(theta) - 1j * np.sin(theta)
    return dw.GaugeField(r)


def test_dirac_zeroth_order_constant_frame():
    op = dw.dirac_operator(dw.standard_frame(8))
    assert np.abs(op.a0).max() < 1e-13


@pytest.mark.parametrize("k3", [1, 2])
def test_dirac_zeroth_order_twisted(k3):
    """Twisting by k3 produces the constant zeroth-order term -(k3/2) I."""
    op = dw.dirac_operator(dw.twisted_frame(k3, 12))
    expect = -(k3 / 2.0) * np.eye(2)
    assert np.abs(op.a0 - expect).max() < 1e-12
    # with constant-coefficient divergence zero, A_sub equals a0 here
    assert np.abs(dw.subprincipal_symbol(op) - expect).max() < 1e-12


def test_subprincipal_identity_residuals():
    for fr in (dw.standard_frame(8), dw.twisted_frame(2, 12), dw.random_band_limited_frame(0)):
        assert dw.verify_subprincipal_identity(fr) < 1e-10


def test_subprincipal_grid_independence():
    """The same band-limited frame gives the same A_sub on finer grids."""
    op8 = dw.dirac_operator(dw.twisted_frame(1, 8))
    op16 = dw.dirac_operator(dw.twisted_frame(1, 16))
    sub8 = dw.subprincipal_symbol(op8)
    sub16 = dw.subprincipal_symbol(op16)
    assert np.abs(sub8[0, 0, 0] - sub16[0, 0, 0]).max() < 1e-12
    assert np.abs(sub8[1, 1, 1] - sub16[2, 2, 2]).max() < 1e-12


def test_operator_rejects_non_self_adjoint():
    n = 8
    fr = dw.standard_frame(n)
    a0 = np.zeros((n, n, n, 2, 2), complex)
    a0[..., 0, 1] = 1j  # skew part survives in A_sub
    with pytest.raises(ConsistencyError, match="self-adjoint"):
        dw.FirstOrderOperator(dw.symbol_from_frame(fr), a0)
    with pytest.raises(InputError, match="a0 must have shape"):
        dw.FirstOrderOperator(dw.symbol_from_frame(fr), np.zeros((n, n, n, 3, 3)))


class TestChargeConjugation:
    def test_squares_to_minus_one(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((8, 8, 8, 2)) + 1j * rng.standard_normal((8, 8, 8, 2))
        assert np.abs(dw.charge_conjugation(dw.charge_conjugation(v)) + v).max() < 1e-14

    def test_antilinear(self):
        v = np.ones((8, 8, 8, 2), complex)
        assert np.abs(dw.charge_conjugation(1j * v) + 1j * dw.charge_conjugation(v)).max() < 1e-14

    def test_commutes_with_dirac(self):
        """C D = D C, the symmetry forcing even multiplicities."""
        op = dw.dirac_operator(dw.random_band_limited_frame(1))
        rng = np.random.default_rng(3)
        v = rng.standard_normal((16, 16, 16, 2)) + 1j * rng.standard_normal((16, 16, 16, 2))
        lhs = dw.charge_conjugation(dw.apply_operator(op, v))
        rhs = dw.apply_operator(op, dw.charge_conjugation(v))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_apply_operator_plane_wave():
    """On the flat operator, e^{i m.x} u is mapped through s.m."""
    n = 8
    op = dw.dirac_operator(dw.standard_frame(n))
    x1, _, _ = PeriodicChart(n).mesh()
    m = np.array([1.0, 0.0, 0.0])
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)  # eigenvector of s1, eigenvalue +1
    v = np.exp(1j * m[0] * x1)[..., None] * u
    out = dw.apply_operator(op, v)
    assert np.abs(out - v).max() < 1e-12


def test_apply_operator_shape_check():
    op = dw.dirac_operator(dw.standard_frame(8))
    with pytest.raises(InputError, match="spinor field"):
        dw.apply_operator(op, np.zeros((8, 8, 8, 3)))


# --- gauge -------------------------------------------------------------------

def test_gauge_field_validation():
    n = 8
    r = np.zeros((n, n, n, 2, 2), complex)
    r[..., 0, 0] = 2.0
    r[..., 1, 1] = 0.5
    with pytest.raises(InputError, match="unitary"):
        dw.GaugeField(r)
    u = np.zeros((n, n, n, 2, 2), complex)  # unitary but det -1
    u[..., 0, 1] = 1.0
    u[..., 1, 0] = 1.0
    with pytest.raises(InputError, match="determinant"):
        dw.GaugeField(u)


def test_gauge_transform_realises_the_twist():
    """Conjugating the flat Dirac operator by exp(i k3 x3 s3/2) lands
    exactly on the twisted-frame Dirac operator."""
    n, k3 = 12, 2
    got = dw.gauge_transform(dw.dirac_operator(dw.standard_frame(n)), _twist_gauge(k3, n))
    want = dw.dirac_operator(dw.twisted_frame(k3, n))
    assert np.abs(got.sigma.sigma - want.sigma.sigma).max() < 1e-12
    assert np.abs(got.a0 - want.a0).max() < 1e-12


def test_gauge_transform_preserves_verdict_and_b():
    op = dw.dirac_operator(dw.random_band_limited_frame(4, n=16))
    gauged = dw.gauge_transform(op, dw.random_gauge_field(4, n=16))
    assert dw.check_dirac(gauged).is_dirac
    b0 = dw.b_density(op)
    b1 = dw.b_density(gauged)
    assert abs(b0.b_global - b1.b_global) < 1e-10
    assert np.abs(b0.b - b1.b).max() < 1e-10


# --- SU(2) <-> SO(3) -----------------------------------------------------------

def test_so3_from_su2_properties():
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = rng.standard_normal(4)
        z /= np.linalg.norm(z)
        u = z[0] * np.eye(2) + 1j * (z[1] * PAULI[0] + z[2] * PAULI[1] + z[3] * PAULI[2])
        z2 = rng.standard_normal(4)
        z2 /= np.linalg.norm(z2)
        v = z2[0] * np.eye(2) + 1j * (z2[1] * PAULI[0] + z2[2] * PAULI[1] + z2[3] * PAULI[2])
        ru, rv, ruv = dw.so3_from_su2(u), dw.so3_from_su2(v), dw.so3_from_su2(u @ v)
        assert np.abs(ru @ ru.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(ru) - 1.0) < 1e-12
        assert np.abs(ruv - ru @ rv).max() < 1e-12


def test_so3_from_su2_kernel_is_center():
    assert np.abs(dw.so3_from_su2(np.eye(2)) - np.eye(3)).max() < 1e-14
    assert np.abs(dw.so3_from_su2(-np.eye(2)) - np.eye(3)).max() < 1e-14


def test_su2_lift_even_twist_succeeds():
    n, k3 = 12, 2
    gauge = _twist_gauge(k3, n)
    o_field = np.stack(
        [np.stack([dw.so3_from_su2(m) for m in row], axis=0) for row in gauge.R.reshape(-1, n, 2, 2)],
        axis=0,
    ).reshape(n, n, n, 3, 3)
    lift = dw.su2_lift(o_field)
    assert isinstance(lift, dw.GaugeField)
    # lifted field projects back onto the input rotations
    flat = lift.R.reshape(-1, 2, 2)
    back = np.stack([dw.so3_from_su2(m) for m in flat]).reshape(n, n, n, 3, 3)
    assert np.abs(back - o_field).max() < 1e-10


def test_su2_lift_odd_twist_obstructed():
    n, k3 = 12, 1
    x3 = PeriodicChart(n).mesh()[2]
    ang = k3 * x3
    o = np.zeros((n, n, n, 3, 3))
    o[..., 0, 0] = np.cos(ang)
    o[..., 0, 1] = -np.sin(ang)
    o[..., 1, 0] = np.sin(ang)
    o[..., 1, 1] = np.cos(ang)
    o[..., 2, 2] = 1.0
    res = dw.su2_lift(o)
    assert isinstance(res, dw.Obstruction)
    assert res.axis == 3


def test_su2_lift_rejects_non_rotation():
    with pytest.raises(InputError, match="orthogonal"):
        dw.su2_lift(np.full((8, 8, 8, 3, 3), 0.5))


# --- the characterisation ------------------------------------------------------

class TestCheckDirac:
    def test_dirac_operators_pass(self):
        for fr in (dw.standard_frame(8), dw.twisted_frame(1, 12), dw.random_band_limited_frame(6)):
            verdict = dw.check_dirac(dw.dirac_operator(fr))
            assert verdict.is_dirac
            assert verdict.cond_a_residual < 1e-10
            assert verdict.cond_b_residual < 1e-10
            assert verdict.reconstructed_gap < 1e-10

    def test_scalar_shift_fails_with_known_residual(self):
        op = dw.dirac_plus_scalar(dw.standard_frame(8), 0.3)
        verdict = dw.check_dirac(op)
        assert not verdict.is_dirac
        assert abs(verdict.cond_b_residual - 0.3 / (2 * np.pi**2)) < 1e-10
        assert verdict.cond_a_residual < 1e-10

    def test_traceless_shift_fails_on_condition_a(self):
        op = dw.dirac_plus_traceless(dw.standard_frame(8), 0.1)
        verdict = dw.check_dirac(op)
        assert not verdict.is_dirac
        assert abs(verdict.cond_a_residual - 0.1) < 1e-9

    def test_tolerance_is_respected(self):
        op = dw.dirac_plus_scalar(dw.standard_frame(8), 1e-9)
        assert dw.check_dirac(op, tol=1e-7).is_dirac
        assert not dw.check_dirac(op, tol=1e-12).is_dirac

    def test_check_dirac_decodes_the_metric_once(self, monkeypatch):
        """The verdict, its b density step and the rebuilt operator share one decode."""
        from diracweyl import asymptotics, geometry, operators

        op = dw.dirac_operator(dw.random_band_limited_frame(6))
        calls = []

        def counting(sym):
            calls.append(sym)
            return geometry.decode_metric(sym)

        for module in (operators, asymptotics):
            monkeypatch.setattr(module, "decode_metric", counting)
        assert dw.check_dirac(op).is_dirac
        assert len(calls) == 1


# --- the zeroth-order contraction ----------------------------------------------

def _a0_one_shot(frame):
    """The Dirac zeroth-order term with its contraction written as one einsum."""
    metric = dw.metric_from_frame(frame)
    s = dw.symbol_from_frame(frame).sigma
    gamma = christoffel_symbols(metric)
    s_low = np.einsum("...bd,...dpq->...bpq", metric.g_cov, s)
    covd = derivative_stack(s) + np.einsum("...bag,...gpq->...abpq", gamma, s)
    a0 = -0.25j * np.einsum("...apq,...bqr,...abrs->...ps", s, s_low, covd)
    return a0 + 0.5j * np.einsum("...apq,...a->...pq", s, np.einsum("...bab->...a", gamma))


@pytest.mark.parametrize(
    "build",
    [lambda: dw.random_band_limited_frame(4), lambda: dw.twisted_frame(1, 12)],
    ids=["random", "twisted"],
)
def test_a0_matches_the_one_shot_einsum(build):
    frame = build()
    assert np.abs(dw.dirac_operator(frame).a0 - _a0_one_shot(frame)).max() <= 1e-14


def _complex_derivative_stack(values):
    n = values.shape[0]
    mult = 1j * np.fft.fftfreq(n, d=1.0 / n)
    mult[n // 2] = 0.0
    out = []
    for ax in range(3):
        shape = [1] * values.ndim
        shape[ax] = n
        out.append(np.fft.ifft(np.fft.fft(values, axis=ax) * mult.reshape(shape), axis=ax))
    return np.stack(out, axis=3)


def _a0_previous_assembly(frame):
    """The earlier assembly: LAPACK metric inverse, complex-FFT derivatives of the
    metric and of sigma, and Pauli matrix products on the complex stack."""
    e = frame.e
    g = np.einsum("...ja,...jb->...ab", e, e)
    g_cov = np.linalg.inv(g)
    dg = _complex_derivative_stack(g_cov).real
    lower = dg + dg.transpose(0, 1, 2, 4, 3, 5) - dg.transpose(0, 1, 2, 5, 3, 4)
    gamma = 0.5 * np.einsum("...bd,...acd->...bac", g, lower)
    s = np.einsum("jpq,...ja->...apq", PAULI, e)
    s_low = np.einsum("...bd,...dpq->...bpq", g_cov, s)
    covd = _complex_derivative_stack(s) + np.einsum("...bag,...gpq->...abpq", gamma, s)
    inner = np.einsum("...bqr,...abrs->...aqs", s_low, covd)
    a0 = -0.25j * np.einsum("...apq,...aqs->...ps", s, inner)
    return a0 + 0.5j * np.einsum("...apq,...a->...pq", s, np.einsum("...bab->...a", gamma))


@pytest.mark.parametrize(
    "build",
    [
        lambda: dw.random_band_limited_frame(4),
        lambda: dw.random_band_limited_frame(5, 24, amplitude=0.01),
        lambda: dw.twisted_frame(1, 12),
    ],
    ids=["random", "random-strong", "twisted"],
)
def test_a0_matches_the_previous_assembly(build):
    """The real-leg Pauli contraction reproduces the complex matrix products."""
    frame = build()
    want = _a0_previous_assembly(frame)
    a0 = dw.dirac_operator(frame).a0
    assert np.abs(a0 - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_dirac_operator_peak_memory(peak_mb):
    """At n=16 the one-shot three-operand einsum peaked at 8.59 MB of traced
    allocation; an optimize=True contraction adds a 4 MB intermediate on top."""
    fr = dw.random_band_limited_frame(0, 16)
    met = dw.metric_from_frame(fr)
    assert peak_mb(lambda: dw.dirac_operator(fr, met)) <= 8.6
