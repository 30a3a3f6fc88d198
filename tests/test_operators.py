"""Operator layer: Dirac construction, gauge action, lifts, checker."""

import numpy as np
import pytest

import diracweyl as dw
from diracweyl.errors import ConsistencyError, InputError
from diracweyl.fields import PeriodicChart, spectral_derivative
from diracweyl.geometry import PAULI, christoffel_symbols, pauli_components


def _derivative_stack(values):
    """The three coordinate derivatives of a grid field, stacked on a new axis at position 3."""
    return np.stack([spectral_derivative(values, a) for a in (1, 2, 3)], axis=3)


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
        assert dw.check_dirac(dw.dirac_operator(fr)).reconstructed_gap < 1e-10


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


EPS_CONJ = np.array([[0.0, -1.0], [1.0, 0.0]])  # antisymmetric unit eps


def _charge_conjugation(v):
    """Antilinear C(v) = eps conj(v), with C^2 = -1."""
    return np.conj(v) @ EPS_CONJ.T


class TestChargeConjugation:
    def test_commutes_with_dirac(self):
        """C D = D C, the symmetry forcing even multiplicities."""
        op = dw.dirac_operator(dw.random_band_limited_frame(1))
        rng = np.random.default_rng(3)
        v = rng.standard_normal((16, 16, 16, 2)) + 1j * rng.standard_normal((16, 16, 16, 2))
        lhs = _charge_conjugation(dw.apply_operator(op, v))
        rhs = dw.apply_operator(op, _charge_conjugation(v))
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


def _so3_einsum(r):
    """The adjoint rotation as one three-operand einsum, R s^k R*, read by pauli_components."""
    rot = np.einsum("...pq,kqr,...sr->...kps", r, PAULI, np.conj(r), optimize=True)
    return np.swapaxes(pauli_components(rot), -1, -2)


def _gauge_transform_einsum(op, r):
    """The gauged (p, a0) with a0 = R a0 R* - i R sigma^a d_a R* as two einsums on
    the complex sigma stack."""
    rh = np.conj(np.swapaxes(r, -1, -2))
    a0 = np.einsum("...pq,...qr,...rs->...ps", r, op.a0, rh) - 1j * np.einsum(
        "...pq,...aqr,...ars->...ps", r, op.sigma.sigma, _derivative_stack(rh))
    return _so3_einsum(r) @ op.sigma.p, a0


GAUGED = {
    "random": lambda: dw.dirac_operator(dw.random_band_limited_frame(3, 16)),
    "twisted": lambda: dw.dirac_operator(dw.twisted_frame(1, 16)),
}


@pytest.mark.parametrize("name", sorted(GAUGED))
def test_gauge_transform_matches_the_einsum_formulas(name):
    """The explicit Pauli algebra reproduces the einsum contractions to rounding:
    at most 2.2e-16 measured, on a0 of size up to 0.52."""
    op = GAUGED[name]()
    for seed in (4, 5):
        gauge = dw.random_gauge_field(seed, 16)
        want_p, want_a0 = _gauge_transform_einsum(op, gauge.R)
        got = dw.gauge_transform(op, gauge)
        assert np.abs(got.sigma.p - want_p).max() <= 1e-15 * max(1.0, np.abs(want_p).max())
        assert np.abs(got.a0 - want_a0).max() <= 1e-15 * max(1.0, np.abs(want_a0).max())
        want_o = _so3_einsum(gauge.R)
        assert np.abs(dw.so3_from_su2(gauge.R) - want_o).max() <= 1e-15 * np.abs(want_o).max()


def test_gauge_transform_peak_memory(peak_mb):
    """The two einsums on the complex sigma stack and a derivative stack of R*
    peaked at 4.20 MB of traced allocation at n=16; the 2x2 algebra held
    components first, with its temporaries freed before the results are
    allocated, peaks at 2.79 MB, the rotated symbol included."""
    op = dw.dirac_operator(dw.random_band_limited_frame(0, 16))
    gauge = dw.random_gauge_field(1, 16)
    assert peak_mb(lambda: dw.gauge_transform(op, gauge)) <= 3.0


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
        """The verdict decodes the operator's symbol once and builds no second
        operator: no Dirac operator, no symbol, no ellipticity check, and
        neither the Dirac a0 nor the Christoffel symbols behind it."""
        from diracweyl import geometry, operators

        op = dw.dirac_operator(dw.random_band_limited_frame(6))
        calls = {"decode_metric": [], "_check_ellipticity": 0, "dirac_operator": 0, "built": 0,
                 "christoffel_symbols": 0, "_dirac_a0": 0}

        def decoding(sym):
            calls["decode_metric"].append(sym)
            return geometry.decode_metric(sym)

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(operators, "decode_metric", decoding)  # check_dirac's binding
        monkeypatch.setattr(operators, "dirac_operator",
                            counted("dirac_operator", dw.dirac_operator))
        for module, name in ((operators, "christoffel_symbols"), (geometry, "christoffel_symbols"),
                             (operators, "_dirac_a0"), (geometry, "_check_ellipticity")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for cls, method in ((dw.FirstOrderOperator, "__post_init__"),
                            (dw.PrincipalSymbolField, "_hold")):
            monkeypatch.setattr(cls, method, counted("built", getattr(cls, method)))
        assert dw.check_dirac(op).is_dirac
        assert len(calls["decode_metric"]) == 1 and calls["decode_metric"][0] is op.sigma
        assert calls["_check_ellipticity"] == calls["dirac_operator"] == calls["built"] == 0
        assert calls["christoffel_symbols"] == calls["_dirac_a0"] == 0


def test_reconstructed_gap_is_the_gap_to_the_rebuilt_operator():
    """The verdict's gap, read off the identity A_sub = (3c/4)(*T_ax) Id, agrees
    with the gap to the Dirac operator built from the decoded frame.

    The two differ by rounding alone.  The bounds sit above the largest
    differences measured: 6.5e-12 at 16^3 (random frame) and 1.2e-15 at 32^3.
    The analytic frames (standard and twisted, their gaps at most 6.2e-16
    apart at 32^3) run at 16^3 only, to keep the test short.
    """
    for n, bound in ((16, 1e-11), (32, 1e-14)):
        rand = dw.dirac_operator(dw.random_band_limited_frame(3, n))
        ops = {"random": rand, "gauged": dw.gauge_transform(rand, dw.random_gauge_field(4, n))}
        if n == 16:
            ops.update(standard=dw.dirac_operator(dw.standard_frame(n)),
                       twisted=dw.dirac_operator(dw.twisted_frame(1, n)),
                       scalar=dw.dirac_plus_scalar(dw.standard_frame(n), 0.3),
                       traceless=dw.dirac_plus_traceless(dw.twisted_frame(1, n), 0.1))
        for name, op in ops.items():
            rebuilt = dw.dirac_operator(dw.decode_frame(op.sigma))
            want = float(np.abs(op.a0 - rebuilt.a0).max())
            got = dw.check_dirac(op).reconstructed_gap
            print(f"{name} {n}^3: reconstructed_gap {got!r}, rebuilt-operator gap {want!r}, "
                  f"difference {abs(got - want):.2e}")
            assert abs(got - want) <= bound, f"{name} at {n}^3"


# --- the zeroth-order contraction ----------------------------------------------

def _a0_one_shot(frame):
    """The Dirac zeroth-order term with its contraction written as one einsum."""
    metric = dw.decode_metric(dw.symbol_from_frame(frame))
    s = dw.symbol_from_frame(frame).sigma
    gamma = christoffel_symbols(metric)
    s_low = np.einsum("...bd,...dpq->...bpq", metric.g_cov, s)
    covd = _derivative_stack(s) + np.einsum("...bag,...gpq->...abpq", gamma, s)
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


def test_under_resolved_frame_names_its_fourier_tail(warped_frame):
    """The warped frame at amplitude 0.1 misses the self-adjointness gate at 16^3
    (1.61e-10): g_cov's outermost shell holds 7.1e-10 of its largest coefficient,
    p's none.  The error says so and asks for a finer grid; 20^3 passes."""
    with pytest.raises(ConsistencyError) as caught:
        dw.dirac_operator(warped_frame(16))
    message = str(caught.value)
    print(message)
    for words in ("self-adjoint", "measured 1.610e-10", "not resolved on the 16^3 grid",
                  "|m|_inf = 8", "0.00e+00 of p's", "7.14e-10 of g_cov's", "finer grid"):
        assert words in message
    assert dw.check_dirac(dw.dirac_operator(warped_frame(20))).is_dirac


_SHIFTED = {"scalar": lambda frame: dw.dirac_plus_scalar(frame, 0.3),
            "traceless": lambda frame: dw.dirac_plus_traceless(frame, 0.1)}


@pytest.mark.parametrize("name", sorted(_SHIFTED))
def test_a_shifted_dirac_operator_is_gated_once(name, monkeypatch):
    """dirac_plus_scalar and dirac_plus_traceless build one operator, so the self-adjointness
    gate takes one half divergence of p (two when they built dirac_operator first)."""
    from diracweyl import operators

    calls = [0]

    def counted(p, _real=operators._half_divergence):
        calls[0] += 1
        return _real(p)

    monkeypatch.setattr(operators, "_half_divergence", counted)
    op = _SHIFTED[name](dw.standard_frame(8))
    assert calls[0] == 1
    base = dw.dirac_operator(dw.standard_frame(8))
    shift = 0.3 * np.eye(2) if name == "scalar" else 0.1 * PAULI[2]
    assert np.array_equal(op.a0, base.a0 + shift)


@pytest.mark.parametrize("name", sorted(_SHIFTED))
def test_a_shifted_dirac_operator_names_the_unresolved_frame(name, warped_frame):
    """The one gate of a shifted operator is refused inside dirac_operator's wrapper."""
    with pytest.raises(ConsistencyError) as caught:
        _SHIFTED[name](warped_frame(16))
    for words in ("self-adjoint", "measured 1.610e-10", "not resolved on the 16^3 grid", "finer grid"):
        assert words in str(caught.value)


def test_dirac_operator_peak_memory(peak_mb):
    """At n=16 the one-shot three-operand einsum peaked at 8.59 MB of traced
    allocation; an optimize=True contraction adds a 4 MB intermediate on top."""
    fr = dw.random_band_limited_frame(0, 16)
    assert peak_mb(lambda: dw.dirac_operator(fr)) <= 8.6


def test_dirac_operator_frees_the_connection_once_used(peak_mb):
    """Keeping the Christoffel symbols and the bracket alive to the end peaked at
    5.93 MB at n=16; freeing each once used gave 3.57 MB, and overwriting the
    symbols in place gives 2.83 MB, the symbol and the metric the operator builds
    for itself included."""
    fr = dw.random_band_limited_frame(0, 16)
    assert peak_mb(lambda: dw.dirac_operator(fr)) <= 4.0


def test_check_dirac_peak_memory(peak_mb):
    """At n=16 check_dirac peaked at 4.43 MB of traced allocation with full-tensor torsion
    and the a0 bracket beside the connection; by component, in place and with the a0
    contraction first it is 2.86 MB.  The warm-up call's metric and torsion are dropped
    with its verdict, so the measured call builds them again."""
    op = dw.dirac_operator(dw.random_band_limited_frame(0, 16))
    assert peak_mb(lambda: dw.check_dirac(op)) <= 3.15


def test_divergence_sigma_takes_real_transforms_only():
    """subprincipal_symbol's derivative term sum_a d_a sigma^a, from the real components,
    against the complex-FFT derivative; a0 = -(i/2) sum_a d_a sigma^a keeps the operator
    self-adjoint.  It takes no transform at all: test_no_operator_path_calls_numpy_fft."""
    sym = dw.symbol_from_frame(dw.random_band_limited_frame(1, 12, amplitude=0.01))
    sigma = sym.sigma
    mult = 1j * np.fft.fftfreq(12, d=1.0 / 12)
    mult[6] = 0.0
    want = 0.0
    for a in range(3):
        spectrum = np.fft.fft(sigma[..., a, :, :], axis=a)
        shape = [-1 if i == a else 1 for i in range(5)]
        want = want + np.fft.ifft(spectrum * mult.reshape(shape), axis=a)
    op = dw.FirstOrderOperator(sym, -0.5j * want)
    got = (dw.subprincipal_symbol(op) - op.a0) / 0.5j
    assert np.abs(want).max() > 1e-3
    assert np.abs(got - want).max() <= 1e-14


def test_curved_frame_with_torsion_is_dirac(curved_frame):
    """A non-flat metric: the verdict and the subprincipal identity hold once the
    Levi-Civita connection is right."""
    tor = dw.torsion(curved_frame, dw.decode_metric(dw.symbol_from_frame(curved_frame)))
    assert np.abs(tor.axial_dual).min() > 0.5
    verdict = dw.check_dirac(dw.dirac_operator(curved_frame))
    print(f"curved frame: {verdict}")
    assert verdict.is_dirac
    assert verdict.reconstructed_gap <= 1e-12
